#!/usr/bin/env python3
"""Engine hot-path perf floors for CI.

Compares a fresh bench_engine_hotpaths envelope (usually a --smoke run on
a CI runner) against the committed full-run envelope at the repo root:

  * chain growth — the slowest fresh segment must reach at least
    GROWTH_FACTOR times the slowest committed segment's blocks/sec.
  * PoW — the fresh evals/sec must reach at least POW_FACTOR times the
    committed rate.

The committed envelope is the floors' source of truth — landing a faster
full run automatically tightens them. GROWTH_FACTOR (default 0.5)
absorbs the machine gap between CI runners and the container the
committed run came from. POW_FACTOR defaults lower (0.1) because the
committed rate rides the top SHA-256 dispatch level the bench container
has (the AVX-512 nonce scan) while a CI runner may only have the SHA-NI
or AVX2 rungs, each above a tenth of it — the floor still catches a
hot-loop regression. A runner with only the scalar path reads below it.

The grid-study envelopes share one mode, spelled per study:

  check_bench_floor.py --commit-study FRESH.json COMMITTED.json [WORLDS_FACTOR]
  check_bench_floor.py --message-overhead FRESH.json COMMITTED.json [WORLDS_FACTOR]

  * correctness — every verdict the study publishes must be true in the
    fresh run: commit study — separation_reproduced (blocking baselines
    stall/strand under coordinator crash, the quorum engine reaches an
    atomic verdict everywhere); message overhead — counts_match
    (fault-free per-protocol message counts equal their closed forms),
    loss_recovered / dup_recovered (every lossy cell reached an atomic
    verdict via resends); both — thread_invariant (1-vs-N-thread grids
    identical).
  * throughput — the fresh grid's worlds/sec must reach at least
    WORLDS_FACTOR (default 0.05) times the committed full run's.

Usage: check_bench_floor.py FRESH.json COMMITTED.json [GROWTH_FACTOR] [POW_FACTOR]
Exit status: 0 when every floor holds, 1 on regression or malformed input.
"""

import json
import sys


def load(path):
    with open(path) as fh:
        return json.load(fh)


def min_growth_rate(doc, path):
    segments = doc["wall"]["chain_growth_segments"]
    if not segments:
        raise ValueError(f"{path}: no chain_growth_segments")
    return min(seg["blocks_per_sec"] for seg in segments)


def pow_rate(doc, path):
    rate = doc["wall"]["pow"]["evals_per_sec"]
    if rate <= 0:
        raise ValueError(f"{path}: non-positive pow evals_per_sec")
    return rate


def check(name, fresh, committed, factor):
    floor = factor * committed
    ok = fresh >= floor
    verdict = "OK" if ok else "REGRESSION"
    print(
        f"{name}: fresh {fresh:.0f} vs floor {floor:.0f} "
        f"({factor} x committed {committed:.0f}) -> {verdict}"
    )
    return ok


# Per grid-study mode: the label its lines print under and the results
# verdict keys that must all be true.
STUDY_VERDICTS = {
    "--commit-study": (
        "commit-study",
        ("separation_reproduced", "thread_invariant"),
    ),
    "--message-overhead": (
        "message-overhead",
        ("counts_match", "loss_recovered", "dup_recovered", "thread_invariant"),
    ),
}


def check_study(argv, label, verdict_keys):
    if len(argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 1
    fresh_path, committed_path = argv[2], argv[3]
    worlds_factor = float(argv[4]) if len(argv) == 5 else 0.05

    fresh = load(fresh_path)
    committed = load(committed_path)

    verdicts_ok = True
    for key in verdict_keys:
        ok = bool(fresh["results"].get(key))
        print(f"{label} {key}: {'true' if ok else 'FALSE'}")
        verdicts_ok = verdicts_ok and ok
    worlds_ok = check(
        f"{label} grid throughput (worlds/s)",
        fresh["wall"]["worlds_per_sec"],
        committed["wall"]["worlds_per_sec"],
        worlds_factor,
    )
    return 0 if verdicts_ok and worlds_ok else 1


def main(argv):
    if len(argv) >= 2 and argv[1] in STUDY_VERDICTS:
        return check_study(argv, *STUDY_VERDICTS[argv[1]])
    if len(argv) not in (3, 4, 5):
        print(__doc__, file=sys.stderr)
        return 1
    fresh_path, committed_path = argv[1], argv[2]
    growth_factor = float(argv[3]) if len(argv) >= 4 else 0.5
    pow_factor = float(argv[4]) if len(argv) == 5 else 0.1

    fresh = load(fresh_path)
    committed = load(committed_path)
    growth_ok = check(
        "chain growth (blocks/s)",
        min_growth_rate(fresh, fresh_path),
        min_growth_rate(committed, committed_path),
        growth_factor,
    )
    pow_ok = check(
        "pow (evals/s)",
        pow_rate(fresh, fresh_path),
        pow_rate(committed, committed_path),
        pow_factor,
    )
    return 0 if growth_ok and pow_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
