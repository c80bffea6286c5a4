"""Command-line surface: run, transform, classical, gen, verify.

Reports are deterministic for a fixed config and seed: the elapsed column
exists in every record but is left empty in files so byte-identical
reruns stay byte-identical. Exit codes: 0 success, 2 validation/domain
errors, 3 backend limits, 1 failed verify checks.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import warnings
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
CSV_HEADER = ("input", "acceptance", "backend", "seed", "elapsed")  # the record fields a --csv row holds

PASSES = {
    "k1": transforms.k_to_one_clean,
    "sq-measure": lambda p: (transforms.projective_to_single_qubit(p), None),
    "trace-form": transforms.to_trace_form,
    "unclock": transforms.unclock,
    "lemma1": transforms.two_round_one_clean,
}

# built-in protocol name -> (its input source, its builder for size n)
PROTOCOLS = {
    "ip2-clocked": ("ip2", problems.ip2_clocked),
    "ip2-one-clean": ("ip2", problems.ip2_one_clean),
    "middle": ("middle", lambda n: problems.middle_protocol(n, "standard")),
    "middle-one-clean": ("middle", lambda n: problems.middle_protocol(n, "one_clean")),
    "abc": ("abc", problems.abc_protocol),
}

# The input flags each source of `run` and `transform` reads; a flag given that
# its source does not read is an error. The defaults are filled in after that.
SOURCE_FLAGS = {
    "ip2": ("n", "x", "y"),
    "ip2 --all-inputs": ("n", "all_inputs"),
    "middle": ("n", "x", "y"),
    "abc": ("n", "label"),
    "abc --instance": ("instance",),
    "descriptor": ("inputs",),
}
INPUT_FLAGS = {flag for flags in SOURCE_FLAGS.values() for flag in flags}
INPUT_DEFAULTS = {"n": 2, "label": 1}


def _seed_from(args) -> int | None:
    """``--seed``, else ``$ONECLEAN_SEED``, else None; a seed that is not a
    non-negative integer is a ``OneCleanError``."""
    name, raw = "--seed", args.seed
    if raw is None:
        name, raw = ENV_SEED, os.environ.get(ENV_SEED) or None
    try:
        seed = None if raw is None else int(raw)
    except ValueError:
        seed = -1  # refused below, as a negative seed is
    if seed is not None and seed < 0:
        raise OneCleanError(f"{name} must be a non-negative integer, got {raw!r}")
    return seed


def _echo_config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _meta(args) -> dict:
    """The header every report carries: tool, version, config echo and, for a
    command with ``--seed``, the seed."""
    meta = {"tool": "oneclean", "version": __version__, "config": _echo_config(args)}
    if "seed" in vars(args):
        meta["seed"] = _seed_from(args)
    return meta


def _write_text(args, text: str) -> None:
    if vars(args).get("out"):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_json(args, body: dict) -> None:
    """The report header and ``body`` as one sorted JSON object."""
    _write_text(args, json.dumps({**_meta(args), **body}, indent=1, sort_keys=True) + "\n")


def _write_report(args, records: list[dict], extra: dict) -> None:
    if not args.csv:
        return _write_json(args, {"records": records, **extra})
    out = io.StringIO()
    out.writelines(f"# {k}={json.dumps(v, sort_keys=True)}\n" for k, v in _meta(args).items())
    rows = csv.writer(out, lineterminator="\n")  # quotes only the fields that need it
    rows.writerow(CSV_HEADER)
    rows.writerows([r[column] for column in CSV_HEADER] for r in records)
    _write_text(args, out.getvalue())


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _load_protocol(args) -> tuple[str, protocol.ProtocolSpec, problems.AbcInstance | None]:
    """The input source ``args`` name (a SOURCE_FLAGS key; a flag given that it
    does not read is an error), its protocol, and the instance abc --instance read."""
    if args.descriptor and args.protocol:
        raise OneCleanError("give --protocol or --descriptor, not both")
    if args.descriptor:
        source = "descriptor"
    elif not args.protocol:
        raise OneCleanError("need --protocol or --descriptor")
    elif args.protocol not in PROTOCOLS:
        raise OneCleanError(
            f"unknown protocol {args.protocol!r}; choose from {sorted(PROTOCOLS)} or use --descriptor"
        )
    else:
        source = PROTOCOLS[args.protocol][0]
        mode = {"ip2": "all_inputs", "abc": "instance"}.get(source, "")
        if vars(args).get(mode):
            source += " " + _flag(mode)
    for dest, value in vars(args).items():
        if dest not in INPUT_FLAGS or value is None or value is False or dest in SOURCE_FLAGS[source]:
            continue
        if source == "descriptor":
            hint = "; give a descriptor's inputs with --inputs" if args.command == "run" else ""
            raise OneCleanError(f"{_flag(dest)} needs --protocol{hint}")
        mode = source.partition(" ")[2]
        raise OneCleanError(f"--protocol {args.protocol}{' with ' + mode if mode else ''} reads "
                            f"{', '.join(map(_flag, SOURCE_FLAGS[source]))}, not {_flag(dest)}")
    inst = _abc_instance_from(Path(args.instance)) if source == "abc --instance" else None
    for dest, default in INPUT_DEFAULTS.items():  # an instance's own n and label
        if getattr(args, dest, default) is None:
            setattr(args, dest, getattr(inst, dest, default))
    if source == "descriptor":
        return source, protocol.deserialize(_read_text("--descriptor", args.descriptor)), None
    return source, PROTOCOLS[args.protocol][1](args.n), inst


def _read_text(flag: str, path) -> str:
    try:  # as UTF-8; other bytes are a ParseError that names the flag and the file
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{flag} {path} is not UTF-8 text: {e}") from e


def _abc_instance_from(root: Path) -> problems.AbcInstance:
    """The instance 'gen abc-instance' wrote to ``root``; a malformed
    ``instance.json`` is a ``ParseError`` naming it."""
    path = root / "instance.json"
    try:
        manifest = json.loads(_read_text("--instance", path))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e
    files = manifest.get("files") if isinstance(manifest, dict) else None
    shaped = isinstance(files, dict) and all(isinstance(files.get(k), str) for k in "ABC")
    if not shaped or not {"n", "label"} <= manifest.keys():
        raise ParseError(f"{path} must hold 'n', 'label' and 'files' naming A, B and C")
    n, label = manifest["n"], manifest["label"]
    if type(label) is not int or label not in (1, -1):
        raise ParseError(f"{path}: 'label' must be 1 or -1, got {label!r}")
    a, b, c = (qstate.matrix_from_json(_read_text("--instance", root / files[key])) for key in "ABC")
    if type(n) is not int or any(m.shape != (n, n) for m in (a, b, c)):
        raise ParseError(f"{path}: 'n' must be the integer side of A, B and C, got {n!r}")
    inst = problems.AbcInstance(n=n, a=a, b=b, c=c, label=label)
    inst.check()
    return inst


def _run_inputs(args, source: str, inst) -> list[tuple[str, dict, object]]:
    """(printable-input, inputs-dict, label-or-None) triples of ``source``;
    ``inst`` is the instance ``abc --instance`` read."""
    if source == "ip2 --all-inputs":
        return [
            (f"{inp[ALICE]}|{inp[BOB]}", inp, label)
            for inp, label in problems.ip2_inputs(args.n)
        ]
    if source in ("ip2", "middle"):
        for flag in ("x", "y"):
            if getattr(args, flag) is None:
                raise OneCleanError(f"--protocol {args.protocol} needs --{flag}")
        label = (problems.ip2_value(args.x, args.y) if source == "ip2"
                 else problems.MiddleInstance.from_strings(args.x, args.y).label)
        return [(f"{args.x}|{args.y}", {ALICE: args.x, BOB: args.y}, label)]
    if source == "abc":
        inst = problems.abc_instance(args.n, args.label, seed=_seed_from(args))
    if inst is not None:
        return [(f"abc(label={inst.label})", inst.inputs(), 1 if inst.label == 1 else 0)]
    if args.inputs:
        raw = args.inputs
        text = _read_text("--inputs", raw[1:]) if raw.startswith("@") else raw
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
    seed = _seed_from(args)
    source, spec, inst = _load_protocol(args)
    kw = {}
    if args.backend == "ensemble":
        kw = {"sample": "all" if args.samples is None else args.samples, "seed": seed}
    records = []
    for printable, inputs, label in _run_inputs(args, source, inst):
        rep = simulator.run(spec, inputs, backend=args.backend, **kw)
        rec = {"input": printable, "acceptance": rep.acceptance, "backend": rep.backend, "seed": seed,
               "elapsed": None}
        if label is not None:
            rec.update(label=label, bias=simulator.label_margin(rep.acceptance, label, spec.declared_p))
        records.append(rec)
    cost = {} if spec.declared_eps is None else {"cost": protocol.cost_report(spec).to_obj()}
    _write_report(args, records, cost)
    return 0


def cmd_transform(args) -> int:
    spec = _load_protocol(args)[1]
    for pass_name in args.passes:
        if pass_name not in PASSES:
            raise OneCleanError(f"unknown pass {pass_name!r}; choose from {sorted(PASSES)}")
    files = {}  # every pass runs before anything is written, so a failed one leaves --out-dir as it was
    for i, pass_name in enumerate(args.passes):
        spec, cert = PASSES[pass_name](spec)
        if cert is not None:
            files[f"{i:02d}-{pass_name}.cert.json"] = json.dumps(cert.to_obj(), indent=1, sort_keys=True)
    files["protocol.json"] = protocol.serialize(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text + "\n")
    _write_json(args, {
        "protocol": spec.name,
        "qubits": spec.layout.total,
        "communication": protocol.communication_cost(spec),
    })
    return 0


def _at_least_one(args, *flags: str) -> None:
    """Raise a OneCleanError naming the first of ``flags`` whose value is below 1."""
    for flag in flags:
        value = getattr(args, flag)
        if value < 1:
            raise OneCleanError(f"--{flag} must be at least 1, got {value}")


def cmd_classical(args) -> int:
    seed = _seed_from(args)
    if args.classical_cmd == "disc":
        weights = _load_csv("--weights", args.weights) if args.weights else None
        m = classical.SignMatrix(entries=_load_csv("--matrix", args.matrix), weights=weights)
        value, rows, cols = classical.disc_bruteforce(m)
        _write_json(args, {"value": value, "rectangle": {"rows": list(rows), "cols": list(cols)}})
        return 0
    rng = np.random.default_rng(seed)  # one stream for every sampler of the command
    if args.classical_cmd == "caps":
        est = classical.cap_probability_mc(args.n, args.k, args.samples, seed=rng)
        bound = classical.caps_lower_bound(args.k)
        records = [{"input": f"n={args.n},k={args.k}", "estimate": est, "bound": bound,
                    "pass": bool(est >= bound)}]
    elif args.classical_cmd == "knr":
        _at_least_one(args, "n", "trials")
        a = qstate.haar_unit_vector(args.n, rng)
        b = qstate.haar_unit_vector(args.n, rng)
        true = float(a @ b)
        runs = [classical.knr_estimate(a, b, args.eps, seed=rng) for _ in range(args.trials)]
        fails = sum(abs(est - true) > args.eps for est, _ in runs)
        records = [{"input": f"n={args.n},eps={args.eps}", "true": true, "failure_rate": fails / args.trials,
                    "transcript_bits": runs[-1][1].total, "trials": args.trials}]
    else:  # abc
        _at_least_one(args, "trials")
        records = []
        for label in (1, -1):
            runs = [classical.abc_classical(problems.abc_instance(args.n, label, seed=rng), i=args.row,
                                            k=args.k, seed=rng) for _ in range(args.trials)]
            ok = sum(ans == (1 if label == 1 else 0) for ans, _ in runs)
            records.append({"input": f"n={args.n},k={args.k},label={label:+d}", "trials": args.trials,
                            "success_rate": ok / args.trials, "transcript_bits": runs[-1][1].total})
    _write_json(args, {"records": [{**r, "seed": seed} for r in records]})
    return 0


def _load_csv(flag: str, path: str) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # numpy only warns on a file with no rows
        try:
            return np.loadtxt(path, delimiter=",", ndmin=2)
        except (ValueError, UserWarning) as e:
            raise ParseError(f"{flag} {path} is not a comma-separated numeric matrix: {e}") from e


def cmd_gen(args) -> int:
    if args.gen_cmd == "abc-instance":
        seed = _seed_from(args)
        inst = problems.abc_instance(args.n, args.label, seed=seed)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files = {key: f"{key}.json" for key in "ABC"}
        for key, mat in zip("ABC", (inst.a, inst.b, inst.c)):
            (out / files[key]).write_text(qstate.matrix_to_json(mat) + "\n")
        manifest = {"n": inst.n, "label": inst.label, "seed": seed, "files": files}
        text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
        (out / "instance.json").write_text(text)
        sys.stdout.write(text)
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
    x, y = problems.middle_pad(args.x, args.y, args.n)  # middle-pad
    sys.stdout.write(f"{x},{y}\n")
    return 0


def cmd_verify(args) -> int:
    from . import verify

    failures = 0
    for name, ok, detail in verify.run_all(quick=args.quick):
        status = "PASS" if ok else "FAIL"
        sys.stdout.write(f"{status} {name}: {detail}\n")
        failures += 0 if ok else 1
    sys.stdout.write(f"{'OK' if failures == 0 else 'FAILED'} ({failures} failing)\n")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oneclean",
        description="Simulate, transform and cost-account one-clean-qubit protocols.",
    )
    ap.add_argument("--version", action="version", version=f"oneclean {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a protocol")
    tr = sub.add_parser("transform", help="apply transform passes")
    for sp in (run, tr):
        sp.add_argument("--protocol")
        sp.add_argument("--descriptor")
        sp.add_argument("--n", type=int, help="size (default: 2)")
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
    except (OneCleanError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
