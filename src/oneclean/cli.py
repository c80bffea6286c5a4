"""Command-line surface: run, transform, classical, gen, verify.

Reports are deterministic for a fixed config and seed: the elapsed column
exists in every record but is left empty in files so byte-identical
reruns stay byte-identical. Exit codes: 0 success, 2 validation/domain
errors, 3 backend limits, 1 failed verify checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, classical, problems, protocol, qstate, simulator, transforms
from .errors import (
    BackendLimitError,
    OneCleanError,
    ParseError,
)
from .protocol import ALICE, BOB

ENV_SEED = "ONECLEAN_SEED"

PASSES = {
    "k1": transforms.k_to_one_clean,
    "sq-measure": lambda p: (transforms.projective_to_single_qubit(p), None),
    "trace-form": transforms.to_trace_form,
    "unclock": transforms.unclock,
    "lemma1": transforms.two_round_one_clean,
}


def _seed_from(args) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    return int(env) if env else None


def _echo_config(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _meta(args) -> dict:
    """The header every report carries: tool, version, config echo and seed."""
    return {
        "tool": "oneclean",
        "version": __version__,
        "config": _echo_config(args),
        "seed": _seed_from(args),
    }


def _write_text(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_json(args, body: dict) -> None:
    """The report header and ``body`` as one sorted JSON object."""
    _write_text(args, json.dumps({**_meta(args), **body}, indent=1, sort_keys=True) + "\n")


def _write_report(args, records: list[dict], extra: dict) -> None:
    if not args.csv:
        return _write_json(args, {"records": records, **extra})
    lines = [f"# {k}={json.dumps(v, sort_keys=True)}" for k, v in _meta(args).items()]
    lines.append(simulator.RunReport.CSV_HEADER)
    for r in records:
        lines.append(
            f"{r['input']},{r['acceptance']!r},{r['backend']},"
            f"{'' if r.get('seed') is None else r['seed']},"
        )
    _write_text(args, "\n".join(lines) + "\n")


def _builtin_protocol(name: str, n: int) -> protocol.ProtocolSpec:
    table = {
        "ip2-clocked": problems.ip2_clocked,
        "ip2-one-clean": problems.ip2_one_clean,
        "middle": lambda n: problems.middle_protocol(n, "standard"),
        "middle-one-clean": lambda n: problems.middle_protocol(n, "one_clean"),
        "abc": problems.abc_protocol,
    }
    if name not in table:
        raise OneCleanError(
            f"unknown protocol {name!r}; choose from {sorted(table)} or use --descriptor"
        )
    return table[name](n)


def _load_protocol(args) -> protocol.ProtocolSpec:
    if args.descriptor and args.protocol:
        raise OneCleanError("give --protocol or --descriptor, not both")
    if args.descriptor:
        return protocol.deserialize(Path(args.descriptor).read_text())
    if not args.protocol:
        raise OneCleanError("need --protocol or --descriptor")
    return _builtin_protocol(args.protocol, args.n)


def _bias_record(acc: float, label, ref) -> float | None:
    if label is None or ref is None:
        return None
    return acc - float(ref) if label == 1 else float(ref) - acc


def _xy_inputs(args) -> dict:
    """The --x/--y inputs as a player-to-input dict; both flags are required."""
    for flag in ("x", "y"):
        if getattr(args, flag) is None:
            raise OneCleanError(f"--protocol {args.protocol} needs --{flag}")
    return {ALICE: args.x, BOB: args.y}


def _abc_instance_from(root: Path) -> problems.AbcInstance:
    """The instance 'gen abc-instance' wrote to ``root``; a malformed
    ``instance.json`` is a ``ParseError`` naming it."""
    path = root / "instance.json"
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e
    files = manifest.get("files") if isinstance(manifest, dict) else None
    shaped = isinstance(files, dict) and all(isinstance(files.get(k), str) for k in "ABC")
    if not shaped or not {"n", "label"} <= manifest.keys():
        raise ParseError(f"{path} must hold 'n', 'label' and 'files' naming A, B and C")
    n, label = manifest["n"], manifest["label"]
    if type(label) is not int or label not in (1, -1):
        raise ParseError(f"{path}: 'label' must be 1 or -1, got {label!r}")
    a, b, c = (qstate.matrix_from_json((root / files[key]).read_text()) for key in "ABC")
    if type(n) is not int or any(m.shape != (n, n) for m in (a, b, c)):
        raise ParseError(f"{path}: 'n' must be the integer side of A, B and C, got {n!r}")
    return problems.AbcInstance(n=n, a=a, b=b, c=c, label=label)


def _run_inputs(args) -> list[tuple[str, dict, object]]:
    """Yield (printable-input, inputs-dict, label-or-None) triples."""
    if args.descriptor:
        builtin = (("--x", args.x), ("--y", args.y), ("--all-inputs", args.all_inputs),
                   ("--instance", args.instance), ("--label", args.label))
        for flag, given in builtin:
            if given not in (None, False):
                raise OneCleanError(f"{flag} needs --protocol; give a descriptor's inputs with --inputs")
    if args.label is None:
        args.label = 1  # the default; None only marks that --label was not given
    name = args.protocol or ""
    if name.startswith("ip2"):
        if args.all_inputs:
            return [
                (f"{inp[ALICE]}|{inp[BOB]}", inp, label)
                for inp, label in problems.ip2_inputs(args.n)
            ]
        inp = _xy_inputs(args)
        return [(f"{args.x}|{args.y}", inp, problems.ip2_value(args.x, args.y))]
    if name.startswith("middle"):
        inp = _xy_inputs(args)
        inst = problems.MiddleInstance.from_strings(args.x, args.y)
        return [(f"{args.x}|{args.y}", inp, inst.label)]
    if name == "abc":
        if args.instance:
            inst = _abc_instance_from(Path(args.instance))
            inst.check()
        else:
            inst = problems.abc_instance(args.n, args.label, seed=_seed_from(args))
        return [(f"abc(label={inst.label})", inst.inputs(), 1 if inst.label == 1 else 0)]
    if args.inputs:
        raw = args.inputs
        text = Path(raw[1:]).read_text() if raw.startswith("@") else raw
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"--inputs is not valid JSON: {e}") from e
        if not isinstance(obj, dict) or not all(k.isdecimal() for k in obj):
            raise ParseError(
                '--inputs must be a JSON object keyed by player index, like {"0": "1"}'
            )
        parsed = {int(k): v for k, v in obj.items()}
        return [(json.dumps(parsed, sort_keys=True), parsed, None)]
    return [("-", None, None)]


def cmd_run(args) -> int:
    if args.samples is not None and args.backend != "ensemble":
        raise OneCleanError(f"--samples needs --backend ensemble; {args.backend} is exact")
    spec = _load_protocol(args)
    triples = _run_inputs(args)
    ref = spec.declared_p
    records = []
    kw = {}
    if args.backend == "ensemble":
        kw = {"sample": "all" if args.samples is None else args.samples, "seed": _seed_from(args)}
    for printable, inputs, label in triples:
        rep = simulator.run(spec, inputs, backend=args.backend, **kw)
        rec = {
            "input": printable,
            "acceptance": rep.acceptance,
            "backend": rep.backend,
            "seed": rep.seed if rep.seed is not None else _seed_from(args),
            "elapsed": None,
        }
        bias = _bias_record(rep.acceptance, label, ref)
        if bias is not None:
            rec["label"] = label
            rec["bias"] = bias
        records.append(rec)
    extra = {}
    if spec.declared_eps is not None:
        cr = protocol.cost_report(spec)
        extra["cost"] = {
            "communication": cr.communication,
            "bias": protocol._num_to_obj(cr.bias),
            "q1_cost": protocol._num_to_obj(cr.q1_cost),
            "pp_cost": cr.pp_cost,
            "qubits": cr.qubits,
        }
    _write_report(args, records, extra)
    return 0


def cmd_transform(args) -> int:
    spec = _load_protocol(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    certs = []
    for i, pass_name in enumerate(args.passes):
        if pass_name not in PASSES:
            raise OneCleanError(f"unknown pass {pass_name!r}; choose from {sorted(PASSES)}")
        spec, cert = PASSES[pass_name](spec)
        if cert is not None:
            certs.append((pass_name, cert))
            (out_dir / f"{i:02d}-{pass_name}.cert.json").write_text(
                json.dumps(cert.to_obj(), indent=1, sort_keys=True) + "\n"
            )
    (out_dir / "protocol.json").write_text(protocol.serialize(spec) + "\n")
    summary = {
        "tool": "oneclean",
        "version": __version__,
        "config": _echo_config(args),
        "passes": [name for name, _ in certs] or list(args.passes),
        "protocol": spec.name,
        "qubits": spec.layout.total,
        "communication": protocol.communication_cost(spec),
    }
    sys.stdout.write(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


def _at_least_one(args, *flags: str) -> None:
    """Raise a OneCleanError naming the first of ``flags`` whose value is below 1."""
    for flag in flags:
        value = getattr(args, flag)
        if value < 1:
            raise OneCleanError(f"--{flag} must be at least 1, got {value}")


def cmd_classical(args) -> int:
    seed = _seed_from(args)
    if args.classical_cmd == "caps":
        est = classical.cap_probability_mc(args.n, args.k, args.samples, seed=seed)
        bound = classical.caps_lower_bound(args.k)
        records = [
            {
                "input": f"n={args.n},k={args.k}",
                "estimate": est,
                "bound": bound,
                "pass": bool(est >= bound),
                "seed": seed,
            }
        ]
        _write_json(args, {"records": records})
        return 0
    if args.classical_cmd == "knr":
        _at_least_one(args, "n", "trials")
        rng = np.random.default_rng(seed)
        a = qstate.haar_unit_vector(args.n, rng)
        b = qstate.haar_unit_vector(args.n, rng)
        true = float(a @ b)
        fails = 0
        for t in range(args.trials):
            est, tr = classical.knr_estimate(a, b, args.eps, seed=rng)
            bits = tr.total
            if abs(est - true) > args.eps:
                fails += 1
        records = [
            {
                "input": f"n={args.n},eps={args.eps}",
                "true": true,
                "failure_rate": fails / args.trials,
                "transcript_bits": bits,
                "trials": args.trials,
                "seed": seed,
            }
        ]
        _write_json(args, {"records": records})
        return 0
    if args.classical_cmd == "abc":
        _at_least_one(args, "trials")
        rng = np.random.default_rng(seed)
        records = []
        for label in (1, -1):
            ok = 0
            for t in range(args.trials):
                inst = problems.abc_instance(args.n, label, seed=rng)
                ans, tr = classical.abc_classical(inst, i=args.row, k=args.k, seed=rng)
                bits = tr.total
                ok += int(ans == (1 if label == 1 else 0))
            records.append(
                {
                    "input": f"n={args.n},k={args.k},label={label:+d}",
                    "success_rate": ok / args.trials,
                    "transcript_bits": bits,
                    "trials": args.trials,
                    "seed": seed,
                }
            )
        _write_json(args, {"records": records})
        return 0
    if args.classical_cmd == "disc":
        entries = _load_csv("--matrix", args.matrix)
        weights = _load_csv("--weights", args.weights) if args.weights else None
        m = classical.SignMatrix(entries=entries, weights=weights)
        value, rows, cols = classical.disc_bruteforce(m)
        out = {"value": value, "rectangle": {"rows": list(rows), "cols": list(cols)}}
        _write_json(args, out)
        return 0
    raise OneCleanError(f"unknown classical subcommand {args.classical_cmd!r}")


def _load_csv(flag: str, path: str) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as e:
        raise ParseError(f"{flag} {path} is not a comma-separated numeric matrix: {e}") from e


def cmd_gen(args) -> int:
    if args.gen_cmd == "abc-instance":
        seed = _seed_from(args)
        inst = problems.abc_instance(args.n, args.label, seed=seed)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files = {}
        for key, mat in (("A", inst.a), ("B", inst.b), ("C", inst.c)):
            fn = f"{key}.json"
            (out / fn).write_text(qstate.matrix_to_json(mat) + "\n")
            files[key] = fn
        manifest = {"n": inst.n, "label": inst.label, "seed": seed, "files": files}
        (out / "instance.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        sys.stdout.write(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        return 0
    if args.gen_cmd == "razborov":
        _at_least_one(args, "count")
        rng = np.random.default_rng(_seed_from(args))
        lines = ["x,y,label"]
        for _ in range(args.count):
            xt, yt = problems.razborov_sample(args.n, args.which, seed=rng)
            if args.pad:
                xt, yt = problems.middle_pad(xt, yt, args.n)
            lines.append(f"{xt},{yt},{1 if args.which == 'mu1' else 0}")
        _write_text(args, "\n".join(lines) + "\n")
        return 0
    if args.gen_cmd == "middle-pad":
        x, y = problems.middle_pad(args.x, args.y, args.n)
        sys.stdout.write(f"{x},{y}\n")
        return 0
    raise OneCleanError(f"unknown gen subcommand {args.gen_cmd!r}")


def cmd_verify(args) -> int:
    from . import verify

    failures = 0
    for name, ok, detail in verify.run_all(quick=args.quick):
        status = "PASS" if ok else "FAIL"
        sys.stdout.write(f"{status} {name}: {detail}\n")
        failures += 0 if ok else 1
    sys.stdout.write(f"{'OK' if failures == 0 else 'FAILED'} ({failures} failing)\n")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oneclean",
        description="Simulate, transform and cost-account one-clean-qubit protocols.",
    )
    ap.add_argument("--version", action="version", version=f"oneclean {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a protocol")
    run.add_argument("--protocol")
    run.add_argument("--descriptor")
    run.add_argument("--n", type=int, default=2)
    run.add_argument("--x")
    run.add_argument("--y")
    run.add_argument("--all-inputs", action="store_true", dest="all_inputs")
    run.add_argument("--inputs", help="JSON dict player->input, or @file")
    run.add_argument("--instance", help="directory from 'gen abc-instance'")
    run.add_argument("--label", type=int, choices=(1, -1), help="generated abc instance's label (default: 1)")
    run.add_argument("--backend", choices=sorted(simulator.BACKENDS), default="density")
    run.add_argument("--samples", type=int, help="ensemble branch samples (default: all)")
    run.add_argument("--seed", type=int)
    run.add_argument("--csv", action="store_true")
    run.add_argument("--out")
    run.set_defaults(func=cmd_run)

    tr = sub.add_parser("transform", help="apply transform passes")
    tr.add_argument("--protocol")
    tr.add_argument("--descriptor")
    tr.add_argument("--n", type=int, default=2)
    tr.add_argument("--pass", dest="passes", action="append", required=True,
                    help="one of %s; repeatable" % ", ".join(sorted(PASSES)))
    tr.add_argument("--out-dir", required=True)
    tr.set_defaults(func=cmd_transform)

    cl = sub.add_parser("classical", help="classical baselines")
    cls = cl.add_subparsers(dest="classical_cmd", required=True)
    caps = cls.add_parser("caps")
    caps.add_argument("--n", type=int, required=True)
    caps.add_argument("--k", type=int, required=True)
    caps.add_argument("--samples", type=int, default=100000)
    knr = cls.add_parser("knr")
    knr.add_argument("--n", type=int, default=32)
    knr.add_argument("--eps", type=float, default=0.1)
    knr.add_argument("--trials", type=int, default=100)
    abc = cls.add_parser("abc")
    abc.add_argument("--n", type=int, default=16)
    abc.add_argument("--k", type=int, default=2)
    abc.add_argument("--row", type=int, default=0)
    abc.add_argument("--trials", type=int, default=100)
    disc = cls.add_parser("disc")
    disc.add_argument("--matrix", required=True)
    disc.add_argument("--weights")
    for sp in (caps, knr, abc, disc):
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out")
        sp.set_defaults(func=cmd_classical)

    gen = sub.add_parser("gen", help="instance generators")
    gens = gen.add_subparsers(dest="gen_cmd", required=True)
    gabc = gens.add_parser("abc-instance")
    gabc.add_argument("--n", type=int, required=True)
    gabc.add_argument("--label", type=int, default=1, choices=(1, -1))
    gabc.add_argument("--out-dir", required=True)
    graz = gens.add_parser("razborov")
    graz.add_argument("--n", type=int, required=True)
    graz.add_argument("--which", choices=("mu0", "mu1"), required=True)
    graz.add_argument("--count", type=int, default=10)
    graz.add_argument("--pad", action="store_true", help="apply the MIDDLE dummy padding")
    graz.add_argument("--out")
    gpad = gens.add_parser("middle-pad")
    gpad.add_argument("--n", type=int, required=True)
    gpad.add_argument("--x", required=True)
    gpad.add_argument("--y", required=True)
    for sp in (gabc, graz, gpad):
        sp.set_defaults(func=cmd_gen)
    for sp in (gabc, graz):
        sp.add_argument("--seed", type=int)

    ver = sub.add_parser("verify", help="run the invariant suite")
    ver.add_argument("--quick", action="store_true")
    ver.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BackendLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OneCleanError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
