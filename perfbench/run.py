"""oneclean benchmark: one seeded workload, measured end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wide-exact --seed 1 --seconds 20 --trace 0

Workloads: wide-exact, narrow-sweep, classical-baselines (see README.md).
With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics from a run that wraps each
layer's entry points. The line before it is a summary with every
end-to-end metric (p90 and fail ratio included), the item mix and the
machine record. Exits non-zero, without a result line, when the run or
any oracle check cannot complete.

Workers run with numpy's transparent-huge-page advice off, which makes the
dense paths slower and steadier than at numpy's default. Check a gain seen
on wide-exact again with ``--numpy-hugepage default`` (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# One BLAS/OpenMP thread: the loop has one client, and at 2 threads the
# per-item spread on a 2-core machine was no smaller.
BLAS_THREADS = "1"
# No transparent-huge-page advice from numpy by default: whether the kernel
# backs the dense trace's 64-256 MB temporaries with huge pages varied from
# process to process and set wide-exact's run-to-run spread. It also adds
# page-fault cost that numpy's default advice avoids (see README.md).
HUGEPAGE_ADVICE = {"off": "0", "default": None}
# Fresh processes that time import and set-up; the measured child is one more,
# so setup_s is the median of nine.
SETUP_PROBES = 8
DEADLINE_S = 175.0

GATED = ["items_per_s", "item_p50_ms", "peak_rss_mb", "setup_s"]


def _child_env(hugepage: str) -> dict:
    env = dict(os.environ)
    env.pop("ONECLEAN_SEED", None)  # CLI calls get explicit seeds
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("NUMPY_MADVISE_HUGEPAGE", None)
    if HUGEPAGE_ADVICE[hugepage] is not None:
        env["NUMPY_MADVISE_HUGEPAGE"] = HUGEPAGE_ADVICE[hugepage]
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    # run() kills the child on timeout and waits for it before raising
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(args.numpy_hugepage), stdout=subprocess.PIPE,
                          timeout=max(timeout, 1.0), text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--numpy-hugepage", choices=sorted(HUGEPAGE_ADVICE), default="off",
                    help="numpy's huge-page advice in the workers (default: off)")
    args = ap.parse_args(argv)
    t0 = time.monotonic()
    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                left = DEADLINE_S - (time.monotonic() - t0)
                probes.append(_worker(args, ["--probe"], min(60.0, left))["setup_s"])
        res = _worker(args, [], DEADLINE_S - (time.monotonic() - t0))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    e2e = res["end_to_end"]
    e2e["setup_s"] = [statistics.median(probes + [res["setup_s"]]), "s"]
    summary = {
        "workload": args.workload,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "item_samples": res["samples"],
        "passes": res["passes"],
        "loop_s": res["loop_s"],
        "setup_samples": probes + [res["setup_s"]],
        "items_by_kind": res["items_by_kind"],
        "env": res["env"],
    }
    if args.trace:
        # the overhead as a difference, next to the ratio among the per-layer metrics
        summary["tracing_overhead_items_per_s"] = (
            res["per_layer"]["trace.items_per_s"][0] - e2e["items_per_s"][0])
    print(json.dumps({"summary": summary}))
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in GATED}
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
