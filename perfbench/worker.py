"""One measured process: import and set-up, the timed loop, one result line.

``run.py`` starts this in a fresh process per measurement, so peak RSS
belongs to one workload. With ``--probe`` it stops after set-up and prints
only the set-up time. The last stdout line is a JSON object for ``run.py``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path("perfbench/out")
DIGESTS = OUT_DIR / "cli_digests.json"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    return ap.parse_args(argv)


def run_loop(items, budget: float, tracer=None) -> dict:
    """Whole passes over ``items`` while the next pass fits in ``budget`` seconds.

    At least one pass always runs. Each record is (item id, kind, seconds,
    error or None).
    """
    records = []
    passes = 0
    start = time.perf_counter()
    while True:
        for idx, item in enumerate(items):
            iid = f"{passes}:{idx}"
            if tracer is not None:
                tracer.item = iid
            t = time.perf_counter()
            try:
                value = item.run(passes)
                err = None
            except Exception as e:  # a raising item is a failed item, not an aborted run
                err = f"{item.kind} raised {type(e).__name__}: {e}"
            dt = time.perf_counter() - t
            if err is None:
                try:
                    err = item.check(value)
                except Exception as e:  # a check that cannot read the output fails the item
                    err = f"{item.kind} check raised {type(e).__name__}: {e}"
            records.append((iid, item.kind, dt, err))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > budget:
            break
    if tracer is not None:
        tracer.item = None
    wall = time.perf_counter() - start
    ok = sum(1 for r in records if r[3] is None)
    return {"records": records, "passes": passes, "wall": wall, "items_per_s": ok / wall}


def end_to_end(loop: dict) -> dict:
    times = [r[2] * 1e3 for r in loop["records"]]
    failed = sum(1 for r in loop["records"] if r[3] is not None)
    return {
        "items_per_s": [loop["items_per_s"], "1/s"],
        "item_p50_ms": [statistics.median(times), "ms"],
        # p90 only where at least ten samples lie beyond it
        "item_p90_ms": [
            statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) >= 100 else None,
            "ms",
        ],
        "fail_ratio": [failed / len(times), "ratio"],
    }


def source_digest(pkg: Path) -> str:
    """sha256 over the relative path and bytes of every file of the package.

    It names the code under test even in a checkout that is not a git
    repository or has uncommitted changes.
    """
    h = hashlib.sha256()
    for f in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(f.relative_to(pkg).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def environment(args, code: str) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    sha = "none (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "git_sha": sha,
        "source_sha256": code,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return {}


def _save_digests(digests: dict) -> None:
    merged = _load_digests()
    for key, value in digests.items():
        merged.setdefault(key, value)
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, DIGESTS)


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    src = ROOT / "src"
    if not (src / "oneclean" / "__init__.py").is_file():
        print(f"error: no oneclean sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import oneclean

    if Path(oneclean.__file__).resolve().parent != src / "oneclean":
        print(f"error: imported oneclean from {oneclean.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup, make_items = workloads.WORKLOADS[args.workload]
    state = setup(args.seed)
    setup_s = time.perf_counter() - T0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    code = source_digest(src / "oneclean")
    ctx = workloads.Context(args.workload, args.seed, code, digests=_load_digests())
    items = make_items(ctx, state)  # builds inputs and oracles, untimed
    per_layer = None
    if args.trace:
        from tracing import Tracer

        loop = run_loop(items, args.seconds / 2)
        tracer = Tracer()
        ctx.tracer = tracer
        tracer.install()
        try:
            traced = run_loop(items, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
            ctx.tracer = None
        per_layer = tracer.metrics(
            traced["passes"],
            [(iid, kind, dt) for iid, kind, dt, _err in traced["records"]],
            traced["items_per_s"],
            loop["items_per_s"],
        )
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write_spans(spans)
        if tracer.missing or tracer.extra_errors:
            print(f"warning: untraced entry points {tracer.missing}, "
                  f"extras unavailable for {sorted(tracer.extra_errors)}", file=sys.stderr)
        records = loop["records"] + traced["records"]
    else:
        loop = run_loop(items, args.seconds)
        records = loop["records"]

    run_errors = workloads.final_errors(ctx)
    _save_digests(ctx.digests)
    errors = [r[3] for r in records if r[3] is not None] + run_errors
    for err in sorted(set(errors))[:10]:
        print(f"check failed: {err}", file=sys.stderr)
    times: dict = {}
    for _iid, kind, dt, _err in loop["records"]:
        times.setdefault(kind, []).append(dt * 1e3)
    kinds = {k: {"count": len(v), "median_ms": statistics.median(v)} for k, v in times.items()}
    e2e = end_to_end(loop)
    e2e["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"]
    result = {
        "setup_s": setup_s,
        "attempted": len(records),
        "failed": sum(1 for r in records if r[3] is not None),
        "correct": not errors,
        "end_to_end": e2e,
        "samples": len(loop["records"]),
        "passes": loop["passes"],
        "loop_s": loop["wall"],
        "items_by_kind": kinds,
        "per_layer": per_layer,
        "env": environment(args, code),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
