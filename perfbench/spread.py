"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--save out.json] [--against earlier.json]
                                [workload ...]

Runs the benchmark untraced for run_seconds once per seed, seeds
first-seed, first-seed+1, ..., and prints per workload and metric the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
With --against it also prints how far each median moved from an
earlier saved set of runs.
Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} jobs failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    saved = {}
    for workload in args.workloads:
        runs = [run_once(spec["command"], workload, args.first_seed + i,
                         spec["run_seconds"]) for i in range(args.runs)]
        saved[workload] = runs
        print(f"{workload}: {args.runs} runs of {spec['run_seconds']} s")
        print(f"  {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10}"
              f" {'spread':>7} {'bound':>6}  {'moved':>7}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            moved = ""
            if workload in earlier:
                before = statistics.median(r[name] for r in earlier[workload])
                moved = f"{med / before - 1:+7.3f}"
            flag = "" if spread < bound / 3 else "  > bound/3"
            print(f"  {name:<12} {med:10.4f} {q1:10.4f} {q3:10.4f}"
                  f" {spread:7.3f} {bound:6.2f}  {moved:>7}{flag}")
        sys.stdout.flush()
    if args.save:
        Path(args.save).write_text(json.dumps(saved))


if __name__ == "__main__":
    main()
