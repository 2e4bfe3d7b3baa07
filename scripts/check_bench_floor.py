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
committed rate rides the widest SHA-256 dispatch level the bench
container has (SHA-NI / AVX2) while a CI runner may only have the scalar
path — the floor still catches a hot-loop regression, which costs far
more than one dispatch rung.

The many-chain world-state envelope has its own mode:

  check_bench_floor.py --multichain FRESH.json COMMITTED.json [OPS_FACTOR]

  * lookups — the slowest fresh cell's lookup ops/sec must reach at least
    OPS_FACTOR (default 0.1) times the slowest committed cell's.
  * memory — the fresh run's measured wall.peak_rss_bytes must stay under
    the ceiling the *committed* envelope declares
    (results.rss_ceiling_bytes), so a smoke run on a CI runner is held to
    the same absolute budget the full run promised.
  * the fresh sharded-vs-oracle equivalence verdict must be true.

The commit-study envelope has its own mode:

  check_bench_floor.py --commit-study FRESH.json COMMITTED.json [WORLDS_FACTOR]

  * correctness — the fresh run's separation_reproduced verdict (blocking
    baselines stall/strand under coordinator crash, the quorum engine
    reaches an atomic verdict everywhere) and its thread_invariant
    verdict must both be true.
  * throughput — the fresh grid's worlds/sec must reach at least
    WORLDS_FACTOR (default 0.05) times the committed full run's.

The message-overhead envelope has its own mode:

  check_bench_floor.py --message-overhead FRESH.json COMMITTED.json [WORLDS_FACTOR]

  * correctness — the fresh run's counts_match verdict (fault-free
    per-protocol message counts equal their closed forms), its
    loss_recovered / dup_recovered verdicts (every lossy cell reached an
    atomic verdict via resends), and its thread_invariant verdict must
    all be true.
  * throughput — the fresh grid's worlds/sec must reach at least
    WORLDS_FACTOR (default 0.05) times the committed full run's.

The open-world traffic envelope has its own mode:

  check_bench_floor.py --openworld FRESH.json COMMITTED.json [SWAPS_FACTOR]

  * throughput — the slowest fresh cell's wall swaps/sec must reach at
    least SWAPS_FACTOR (default 0.05; a smoke cell is far smaller than a
    full-run cell, and CI runners lack the bench container's SIMD rungs)
    times the slowest committed cell's.
  * memory — the fresh run's wall.peak_rss_bytes must stay under the
    ceiling the *committed* envelope declares (results.rss_ceiling_bytes).
  * the fresh hot-vs-serial-oracle equivalence verdict must be true.

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


def min_lookup_rate(doc, path):
    cells = doc["wall"]["cells"]
    if not cells:
        raise ValueError(f"{path}: no wall cells")
    return min(cell["lookup_ops_per_sec"] for cell in cells)


def check_multichain(argv):
    if len(argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 1
    fresh_path, committed_path = argv[2], argv[3]
    ops_factor = float(argv[4]) if len(argv) == 5 else 0.1

    fresh = load(fresh_path)
    committed = load(committed_path)
    ops_ok = check(
        "multichain lookups (ops/s)",
        min_lookup_rate(fresh, fresh_path),
        min_lookup_rate(committed, committed_path),
        ops_factor,
    )

    ceiling = committed["results"]["rss_ceiling_bytes"]
    peak = fresh["wall"]["peak_rss_bytes"]
    rss_ok = peak <= ceiling
    print(
        f"multichain peak RSS: fresh {peak} vs declared ceiling {ceiling} "
        f"-> {'OK' if rss_ok else 'REGRESSION'}"
    )

    equiv_ok = bool(fresh["results"].get("equivalence_ok"))
    print(
        "multichain sharded-vs-oracle: "
        f"{'identical' if equiv_ok else 'DIVERGED'}"
    )
    return 0 if ops_ok and rss_ok and equiv_ok else 1


def check_commit_study(argv):
    if len(argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 1
    fresh_path, committed_path = argv[2], argv[3]
    worlds_factor = float(argv[4]) if len(argv) == 5 else 0.05

    fresh = load(fresh_path)
    committed = load(committed_path)

    separation_ok = bool(fresh["results"].get("separation_reproduced"))
    print(
        "commit-study separation (blocking baselines vs quorum engine): "
        f"{'reproduced' if separation_ok else 'NOT REPRODUCED'}"
    )
    invariant_ok = bool(fresh["results"].get("thread_invariant"))
    print(
        "commit-study 1-vs-N thread grids: "
        f"{'identical' if invariant_ok else 'DIVERGED'}"
    )
    worlds_ok = check(
        "commit-study grid throughput (worlds/s)",
        fresh["wall"]["worlds_per_sec"],
        committed["wall"]["worlds_per_sec"],
        worlds_factor,
    )
    return 0 if separation_ok and invariant_ok and worlds_ok else 1


def check_message_overhead(argv):
    if len(argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 1
    fresh_path, committed_path = argv[2], argv[3]
    worlds_factor = float(argv[4]) if len(argv) == 5 else 0.05

    fresh = load(fresh_path)
    committed = load(committed_path)

    counts_ok = bool(fresh["results"].get("counts_match"))
    print(
        "message-overhead fault-free counts vs closed forms: "
        f"{'match' if counts_ok else 'MISMATCH'}"
    )
    loss_ok = bool(fresh["results"].get("loss_recovered"))
    dup_ok = bool(fresh["results"].get("dup_recovered"))
    print(
        "message-overhead lossy-cell recovery: "
        f"drop {'recovered' if loss_ok else 'NOT RECOVERED'}, "
        f"duplicate {'recovered' if dup_ok else 'NOT RECOVERED'}"
    )
    invariant_ok = bool(fresh["results"].get("thread_invariant"))
    print(
        "message-overhead 1-vs-N thread grids: "
        f"{'identical' if invariant_ok else 'DIVERGED'}"
    )
    worlds_ok = check(
        "message-overhead grid throughput (worlds/s)",
        fresh["wall"]["worlds_per_sec"],
        committed["wall"]["worlds_per_sec"],
        worlds_factor,
    )
    correct = counts_ok and loss_ok and dup_ok and invariant_ok
    return 0 if correct and worlds_ok else 1


def min_swap_rate(doc, path):
    cells = doc["wall"]["cells"]
    if not cells:
        raise ValueError(f"{path}: no wall cells")
    return min(cell["wall_swaps_per_sec"] for cell in cells)


def check_openworld(argv):
    if len(argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 1
    fresh_path, committed_path = argv[2], argv[3]
    swaps_factor = float(argv[4]) if len(argv) == 5 else 0.05

    fresh = load(fresh_path)
    committed = load(committed_path)
    swaps_ok = check(
        "openworld throughput (swaps/s)",
        min_swap_rate(fresh, fresh_path),
        min_swap_rate(committed, committed_path),
        swaps_factor,
    )

    ceiling = committed["results"]["rss_ceiling_bytes"]
    peak = fresh["wall"]["peak_rss_bytes"]
    rss_ok = peak <= ceiling
    print(
        f"openworld peak RSS: fresh {peak} vs declared ceiling {ceiling} "
        f"-> {'OK' if rss_ok else 'REGRESSION'}"
    )

    equiv_ok = bool(fresh["results"].get("equivalence_ok"))
    print(
        "openworld hot-vs-oracle: "
        f"{'identical' if equiv_ok else 'DIVERGED'}"
    )
    return 0 if swaps_ok and rss_ok and equiv_ok else 1


def main(argv):
    if len(argv) >= 2 and argv[1] == "--multichain":
        return check_multichain(argv)
    if len(argv) >= 2 and argv[1] == "--openworld":
        return check_openworld(argv)
    if len(argv) >= 2 and argv[1] == "--commit-study":
        return check_commit_study(argv)
    if len(argv) >= 2 and argv[1] == "--message-overhead":
        return check_message_overhead(argv)
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
