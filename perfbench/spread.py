"""Run the benchmark over many seeds and report each metric's spread.

    python3 perfbench/spread.py --workload wide-exact --workload narrow-sweep \
        --seeds 1-10 --out perfbench/results/my-runs.json

For every end-to-end metric of each workload it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json. Runs go one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return {"seed": seed, "summary": json.loads(lines[-2])["summary"], "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run and the statistics here as JSON")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(_run(workload, seed, bench["run_seconds"], args.trace))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", file=sys.stderr)
        stats = {}
        for name in runs[0]["result"]["metrics"]:
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else None, "bound": bounds.get(name)}
            print(f"  {name:14s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread "
                  f"{stats[name]['spread'] if med else float('nan'):.4f}  bound {bounds.get(name)}")
        report["workloads"][workload] = {
            "stats": stats,
            "all_correct": all(run["result"]["correct"] for run in runs),
            "failed": sum(run["result"]["failed"] for run in runs),
            "runs": runs,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
