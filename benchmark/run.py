#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see benchmark/README.md).

  run.py --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
      Builds the harness, runs one workload in one process and prints a
      detail line, then one JSON line: correct, attempted, failed and the
      metrics BENCHMARK.json lists (end_to_end untraced, per_layer traced).
      Exits non-zero if any correctness check fails.
  run.py --smoke [--trace [0|1]]
      Every workload at tiny size.
  run.py --repeat K [--workload NAME ...] [--seed N] [--out FILE]
      K rounds over the workloads (alternating), seeds N..N+K-1; prints
      the median and quartiles of each end-to-end metric and writes all
      runs to FILE.
  run.py --compare A.json B.json
      Checks two --repeat files against the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-benchmark"
BINARY = BUILD / "ac3_benchmark"
RUN_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "ac3_benchmark", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("benchmark build failed: " + " ".join(step))


def run_harness(workload, seed, seconds, trace, smoke):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{workload}.json")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        sys.exit(f"{workload}: harness exited {proc.returncode} "
                 "without a result")


def result_line(result, names):
    """The contract line: exactly correct, attempted, failed, metrics."""
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        sys.exit(f"{result['workload']}: harness did not report {missing}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }


def run_one(spec, workload, seed, seconds, trace, smoke):
    result = run_harness(workload, seed, seconds, trace, smoke)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    line = result_line(result, names)
    detail = {k: v for k, v in result.items() if k != "metrics"}
    print(json.dumps(detail), flush=True)
    print(json.dumps(line), flush=True)
    return line["correct"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(spec, workloads, k, seed, seconds, out):
    names = [m["name"] for m in spec["end_to_end"]]
    runs = {w: [] for w in workloads}
    for i in range(k):
        for w in workloads:
            result = run_harness(w, seed + i, seconds, False, False)
            line = result_line(result, names)
            if not line["correct"]:
                sys.exit(f"{w} seed {seed + i}: {result['problems']}")
            runs[w].append({
                "seed": seed + i,
                "results_digest": result["results_digest"],
                "failed": result["failed"],
                "metrics": {n: line["metrics"][n]["value"] for n in names},
            })
            print(f"{w} seed {seed + i} done", file=sys.stderr, flush=True)
    summary = {}
    for w, rows in runs.items():
        summary[w] = {}
        print(f"\n{w} ({len(rows)} runs)")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/median':>10}")
        for n in names:
            q1, med, q3 = quartiles([r["metrics"][n] for r in rows])
            spread = (q3 - q1) / med if med else 0.0
            summary[w][n] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread}
            print(f"  {n:<14} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>10.4f}")
    if out:
        with open(out, "w") as f:
            json.dump({"seconds": seconds, "runs": runs, "summary": summary},
                      f, indent=1)
        print(f"\nwrote {out}")


def compare(spec, path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    ok = True
    for w in sorted(set(a["summary"]) & set(b["summary"])):
        for metric in spec["end_to_end"]:
            n = metric["name"]
            ma = a["summary"][w][n]["median"]
            mb = b["summary"][w][n]["median"]
            worse = (mb - ma) if metric["better"] == "lower" else (ma - mb)
            share = worse / ma if ma else 0.0
            verdict = "ok" if share <= metric["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print(f"{w:<20} {n:<14} {ma:>12.4f} {mb:>12.4f} "
                  f"{share:>+8.2%} (bound {metric['bound']:.0%}) {verdict}")
        digests_a = {r["seed"]: r for r in a["runs"][w]}
        for row in b["runs"][w]:
            other = digests_a.get(row["seed"])
            if other is None:
                continue
            for key in ("results_digest", "failed"):
                if other[key] != row[key]:
                    ok = False
                    print(f"{w} seed {row['seed']}: {key} differs "
                          f"({other[key]} vs {row[key]})")
    print("compare:", "PASS" if ok else "FAIL")
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        sys.exit(0 if compare(spec, *args.compare) else 1)

    all_workloads = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or []
    unknown = [w for w in workloads if w not in all_workloads]
    if unknown:
        sys.exit(f"unknown workload(s) {unknown}; known: {all_workloads}")
    seconds = args.seconds or spec["run_seconds"]
    build()

    if args.repeat:
        repeat(spec, workloads or all_workloads, args.repeat, args.seed,
               seconds, args.out)
        return
    if args.smoke:
        ok = all([run_one(spec, w, args.seed, 0.5, args.trace == "1", True)
                  for w in workloads or all_workloads])
        sys.exit(0 if ok else 1)
    if len(workloads) != 1:
        sys.exit("give exactly one --workload (or --smoke / --repeat)")
    ok = run_one(spec, workloads[0], args.seed, seconds, args.trace == "1",
                 False)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
