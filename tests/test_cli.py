import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oneclean import cli, protocol, problems, simulator, transforms, verify
from oneclean.errors import ValidationError

from helpers import DATA, exact_amplify, inline_matrices, random_trace_form, v1_descriptor


def run_cli(*argv):
    return cli.main(list(argv))


def test_run_ip2_one_clean_all_inputs(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(
        "run", "--protocol", "ip2-one-clean", "--n", "2", "--all-inputs", "--out", str(out)
    )
    assert code == 0
    body = json.loads(out.read_text())
    assert body["version"]
    assert len(body["records"]) == 16
    for rec in body["records"]:
        assert rec["bias"] == pytest.approx(1 / 8, abs=1e-9)
    assert body["cost"]["q1_cost"] == "320"  # 64 * (2n+1) at n=2


def test_run_middle_single_input(capsys):
    code = run_cli("run", "--protocol", "middle", "--n", "4", "--x", "1100", "--y", "1010")
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    assert body["records"][0]["acceptance"] == pytest.approx(0.25, abs=1e-9)


def test_run_malformed_descriptor_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", "--descriptor", str(bad)) == 2
    assert "error" in capsys.readouterr().err


# row 0 of matrices[0], the explicit Hadamard factor of middle(n=2)'s round 0
_ENTRY = ("matrices", 0, "entries", 0)
_FACTORS = ("rounds", 0, "unitary", "factors")
_DISPATCH = {"kind": "dispatch", "width": 2, "selector": [0], "increment": 0}


@pytest.mark.parametrize(
    "path, named",
    [
        (("layout",), "'layout'"),
        (("measurement",), "'measurement'"),
        (("declared",), "'declared'"),
        (("trace_plan",), "'trace_plan'"),
        (("rounds",), "'rounds'"),
        (("rounds", 0), "rounds[0]"),
        (("initial_owner",), "'initial_owner'"),
        (("rounds", 0, "targets"), "'targets'"),
        (("rounds", 0, "message"), "'message'"),
        (("players",), "'players'"),
        (("layout", "clean"), "'clean'"),
        (("rounds", 0, "player"), "'player'"),
        (("rounds", 0, "to"), "'to'"),
        (("rounds", 0, "targets", 0), "'targets' entry 0"),
        (("measurement", "single_qubit"), "'single_qubit'"),
        (("rounds", 0, "unitary", "width"), "'width'"),
        (("rounds", 0, "unitary", "factors", 1, "ref", "input_player"), "'input_player'"),
        (("mode",), "'mode'"),
        (_ENTRY + ((0, [1]),), "[re, im]"),
        (_ENTRY + ((0, ["1", 0]),), "[re, im]"),
        (("declared", ("p", "1/0")), "declared.p: bad rational '1/0'"),
        (_FACTORS[:-1] + (("factors", "ab"),), "field 'factors' must be a list"),
        (_FACTORS + ((0, 7),), "factors[0] must be an object"),
        (("rounds", 0, ("unitary", {**_DISPATCH, "branches": "ab"})), "field 'branches' must be a list"),
        (("rounds", 0, ("unitary", {**_DISPATCH, "branches": [7, None]})), "branches[0] must be an object"),
        (_FACTORS + (0, "ref", ("matrix", 1)), "field 'matrix' is 1, not an index into the 1 matrices"),
        (_FACTORS + (0, "ref", ("matrix", -1)), "field 'matrix' is -1, not an index"),
        (_FACTORS + (0, "ref", ("matrix", {"dim": 1, "entries": [[[1, 0]]]})), "'matrix' must be an integer"),
        (("declared", ("p", None)), "declared.p: expected number or rational string"),
    ],
)
def test_run_descriptor_with_a_mistyped_field_exits_2(tmp_path, capsys, path, named):
    # middle(n=2): round 0 is a composed unitary with a generator factor
    obj = protocol.to_descriptor(problems.middle_protocol(2))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    if isinstance(last, tuple):  # a (key, value) step writes that value
        last, new = last
    else:
        # integer fields (present or not) get a string, every other field an integer
        old = parent[last] if isinstance(parent, list) else parent.get(last)
        new = "two" if old is None or isinstance(old, int) else 5
    parent[last] = new
    desc = tmp_path / "bad.json"
    desc.write_text(json.dumps(obj))
    assert run_cli("run", "--descriptor", str(desc)) == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and named in errors[0]


# the inline version-1 or -2 matrix of middle(n=2)'s round-0 Hadamard factor
_INLINE_LEAF = _FACTORS + (0, "ref", "matrix")


@pytest.mark.parametrize(
    "version, path, named",
    [
        (3, ("matrices", 0), "matrices[0]: matrix entries"),
        (3, ("measurement", "projector"), "measurement.projector: matrix entries"),
        (2, _INLINE_LEAF, "rounds[0].unitary.factors[0].ref: field 'matrix': matrix entries"),
        (1, _INLINE_LEAF, "rounds[0].unitary.factors[0].ref: field 'matrix': matrix entries"),
    ],
    ids=["listed", "projector", "inline-v2", "inline-v1"],
)
def test_run_descriptor_with_a_malformed_matrix_names_its_path(tmp_path, capsys, version, path, named):
    obj = protocol.to_descriptor(problems.middle_protocol(2))
    if version < 3:
        obj = {**inline_matrices(obj), "version": version}
    matrix = obj
    for key in path:
        matrix = matrix[key]
    matrix["entries"][0][0] = [1]
    desc = tmp_path / "bad.json"
    desc.write_text(json.dumps(obj))
    assert run_cli("run", "--descriptor", str(desc)) == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and named in errors[0]


@pytest.mark.parametrize("command", ["run", "transform"])
def test_protocol_and_descriptor_together_exit_2(tmp_path, capsys, command):
    desc = tmp_path / "p.json"
    desc.write_text(protocol.serialize(problems.middle_protocol(4)))
    argv = [command, "--descriptor", str(desc), "--protocol", "middle", "--n", "4"]
    if command == "run":
        argv += ["--x", "1100", "--y", "1010"]
    else:
        argv += ["--pass", "k1", "--out-dir", str(tmp_path / "o")]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: give --protocol or --descriptor, not both\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flags",
    [["--x", "1"], ["--y", "1"], ["--x", "1", "--y", "1"], ["--all-inputs"], ["--instance", "inst"],
     ["--label", "-1"], ["--label", "1"]],
    ids=["x", "y", "x-and-y", "all-inputs", "instance", "label", "label-default"],
)
def test_run_descriptor_refuses_the_builtin_input_flags(tmp_path, capsys, flags):
    # --x, --y and --all-inputs pick a built-in family's inputs, and
    # --instance and --label an abc instance; with a descriptor they were
    # ignored, even next to --inputs
    desc = tmp_path / "p.json"
    desc.write_text(protocol.serialize(problems.ip2_one_clean(1)))
    argv = ["run", "--descriptor", str(desc), "--inputs", '{"0": "1", "1": "1"}', *flags]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flags[0]} needs --protocol; give a descriptor's inputs with --inputs\n"


_IP2_XY = ["--protocol", "ip2-one-clean", "--n", "1", "--x", "1", "--y", "1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--descriptor", "{desc}", "--inputs", '{{"0": "1", "1": "1"}}', "--n", "7"], "--n"),
        (["transform", "--descriptor", "{desc}", "--n", "9", "--pass", "k1"], "--n"),
        (["run", *_IP2_XY, "--inputs", '{{"0": "0", "1": "0"}}'], "--inputs"),
        (["run", *_IP2_XY, "--label", "-1"], "--label"),
        (["run", *_IP2_XY, "--instance", "{inst}"], "--instance"),
        (["run", "--protocol", "ip2-one-clean", "--n", "1", "--all-inputs", "--x", "1"], "--x"),
        (["run", "--protocol", "middle", "--n", "2", "--x", "01", "--y", "11", "--all-inputs"],
         "--all-inputs"),
        (["run", "--protocol", "abc", "--n", "2", "--x", "1"], "--x"),
        (["run", "--protocol", "abc", "--n", "2", "--all-inputs"], "--all-inputs"),
        (["run", "--protocol", "abc", "--instance", "{inst}", "--label", "1"], "--label"),
        (["run", "--protocol", "abc", "--n", "4", "--instance", "{inst}"], "--n"),
        (["run", "--protocol", "abc", "--n", "4", "--instance", "{inst}", "--label", "1"], "--n"),
    ],
    ids=["descriptor-n", "transform-descriptor-n", "ip2-inputs", "ip2-label", "ip2-instance",
         "ip2-all-inputs-x", "middle-all-inputs", "abc-x", "abc-all-inputs", "abc-instance-label",
         "abc-instance-n", "abc-instance-n-and-label"],
)
def test_an_input_flag_its_source_does_not_read_exits_2(tmp_path, capsys, argv, flag):
    # each of these flags was ignored without a word; SOURCE_FLAGS now refuses it
    desc, inst, out = tmp_path / "p.json", tmp_path / "inst", tmp_path / "out"
    desc.write_text(protocol.serialize(problems.ip2_one_clean(1)))
    assert run_cli("gen", "abc-instance", "--n", "4", "--label", "-1", "--seed", "5",
                   "--out-dir", str(inst)) == 0
    capsys.readouterr()
    argv = [a.format(desc=desc, inst=inst) for a in argv]
    argv += ["--out", str(out)] if argv[0] == "run" else ["--out-dir", str(out)]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    errors = [l for l in captured.err.splitlines() if l.startswith("error:")]
    assert captured.out == "" and len(errors) == 1, captured.err
    assert errors[0].endswith(f", not {flag}") or errors[0].startswith(f"error: {flag} needs --protocol")
    assert not out.exists()


def test_every_run_and_transform_flag_is_read_by_a_stated_source():
    # a new input flag must name the sources that read it in cli.SOURCE_FLAGS
    independent = {"protocol", "descriptor", "backend", "samples", "seed", "csv", "out", "out_dir", "passes"}
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("run", "transform"):
        for action in commands.choices[command]._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.dest in cli.INPUT_FLAGS | independent, (command, action.dest)
    assert cli.INPUT_FLAGS == {"n", "x", "y", "all_inputs", "instance", "label", "inputs"}


def test_the_parser_is_built_once_per_process(capsys):
    argv = ["run", "--protocol", "ip2-one-clean", "--n", "1", "--x", "1", "--y", "1"]
    assert run_cli(*argv) == 0 and run_cli(*argv) == 0
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "params, named",
    [({}, "KeyError: 'i'"), ({"i": "x", "n": 1}, "ValueError: "), ({"i": 5, "n": 1}, "IndexError: ")],
    ids=["missing", "not-an-integer", "out-of-range"],
)
def test_run_descriptor_whose_generator_fails_on_its_params_exits_2(tmp_path, capsys, params, named):
    obj = protocol.to_descriptor(problems.ip2_one_clean(1))
    obj["rounds"][1]["unitary"]["params"] = params
    desc = tmp_path / "p.json"
    desc.write_text(json.dumps(obj))
    assert run_cli("run", "--descriptor", str(desc), "--inputs", '{"0": "1", "1": "1"}') == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and "generator 'ip2_bob' failed" in errors[0] and named in errors[0]


@pytest.mark.parametrize(
    "text, named",
    [
        ("{bad", "--inputs is not valid JSON"),
        ("[1]", "--inputs must be a JSON object"),
        ('{"alice": "1"}', "--inputs must be a JSON object"),
    ],
)
def test_run_malformed_inputs_exits_2(tmp_path, capsys, text, named):
    desc = tmp_path / "p.json"
    desc.write_text(protocol.serialize(problems.ip2_clocked(1)))
    assert run_cli("run", "--descriptor", str(desc), "--inputs", text) == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and named in errors[0]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--protocol", "ip2-clocked", "--n", "1"], "--x"),
        (["--protocol", "middle", "--n", "2"], "--x"),
        (["--protocol", "middle", "--n", "2", "--x", "01"], "--y"),
    ],
)
def test_run_names_the_missing_input_flag(capsys, argv, flag):
    assert run_cli("run", *argv) == 2
    assert f"needs {flag}" in capsys.readouterr().err


def test_run_backend_limit_exits_3(tmp_path, capsys):
    # the unclocked IP2 n = 1 chain plans a 2^32-element density ring
    out = tmp_path / "chain"
    passes = ["--pass", "k1", "--pass", "sq-measure", "--pass", "trace-form", "--pass", "unclock"]
    assert run_cli("transform", "--protocol", "ip2-clocked", "--n", "1", *passes,
                   "--out-dir", str(out)) == 0
    capsys.readouterr()
    desc = str(out / "protocol.json")
    assert run_cli("run", "--descriptor", desc, "--inputs", '{"0": "1", "1": "1"}') == 3
    assert "TRACE_MAX_BYTES" in capsys.readouterr().err


def test_run_ensemble_with_zero_samples_exits_2(capsys):
    argv = ["run", "--protocol", "ip2-one-clean", "--n", "1", "--x", "1", "--y", "1",
            "--backend", "ensemble"]
    assert run_cli(*argv, "--samples", "0") == 2
    assert "sample count must be >= 1" in capsys.readouterr().err
    assert run_cli(*argv, "--samples", "1", "--seed", "3") == 0


def test_run_config_echoes_the_label_default(capsys):
    argv = ["run", "--protocol", "abc", "--n", "2", "--seed", "1"]
    for extra, label in (([], 1), (["--label", "-1"], -1)):
        assert run_cli(*argv, *extra) == 0
        assert json.loads(capsys.readouterr().out)["config"]["label"] == label


def test_run_samples_needs_the_ensemble_backend(capsys):
    # the exact backends ignored --samples; --seed stays accepted everywhere
    argv = ["run", "--protocol", "ip2-one-clean", "--n", "2", "--x", "10", "--y", "11", "--seed", "5"]
    for backend in ("density", "trace"):
        assert run_cli(*argv, "--backend", backend, "--samples", "3") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --samples needs --backend ensemble; {backend} is exact\n"
    assert run_cli(*argv, "--backend", "density") == 0


def test_run_reports_are_deterministic(tmp_path):
    out = tmp_path / "report.csv"
    blobs = []
    for _ in range(2):
        code = run_cli(
            "run", "--protocol", "ip2-one-clean", "--n", "1", "--all-inputs",
            "--backend", "ensemble", "--seed", "7", "--csv", "--out", str(out),
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    header = [l for l in blobs[0].decode().splitlines() if not l.startswith("#")][0]
    assert header == "input,acceptance,backend,seed,elapsed"


# the cert files of the README's ip2-clocked n = 1 chain, byte for byte
README_CHAIN_CERTS = {
    "00-k1": """\
{
 "acceptance_map": {
  "offset": "3/8",
  "slope": "1/4"
 },
 "communication_after": 3,
 "communication_before": 2,
 "input_bias": "1/2",
 "notes": "k=2; flag + coin qubit added; acceptance a -> 3/8 + a/4",
 "predicted_bias": "1/8",
 "q1_bound": null,
 "reference_after": "1/2",
 "reference_before": "1/2"
}
""",
    "02-trace-form": """\
{
 "acceptance_map": {
  "offset": "1/2",
  "slope": "1/8"
 },
 "communication_after": 32,
 "communication_before": 3,
 "input_bias": "1/8",
 "notes": "j=2 clean slots -> p0 = 1/2 + a/8; 16 rounds of 2 qubits",
 "predicted_bias": "1/64",
 "q1_bound": null,
 "reference_after": "9/16",
 "reference_before": "1/2"
}
""",
    "03-unclock": """\
{
 "acceptance_map": {
  "offset": "0",
  "slope": "1"
 },
 "communication_after": 80,
 "communication_before": 32,
 "input_bias": "1/64",
 "notes": "3 counter qubits over 8 pairs; acceptance unchanged for every start",
 "predicted_bias": "1/64",
 "q1_bound": null,
 "reference_after": "9/16",
 "reference_before": "9/16"
}
""",
}


def test_transform_chain_writes_descriptor_and_certs(tmp_path, capsys):
    out = tmp_path / "chain"
    code = run_cli(
        "transform", "--protocol", "ip2-clocked", "--n", "1",
        "--pass", "k1", "--pass", "sq-measure", "--pass", "trace-form", "--pass", "unclock",
        "--out-dir", str(out),
    )
    assert code == 0
    spec = protocol.deserialize((out / "protocol.json").read_text())
    assert spec.trace_plan is not None and spec.trace_plan.counter
    assert sorted(f.name for f in out.glob("*.cert.json")) == [
        f"{name}.cert.json" for name in README_CHAIN_CERTS
    ]
    for name, text in README_CHAIN_CERTS.items():
        assert (out / f"{name}.cert.json").read_text() == text


def _ip2_trace_form():
    """IP2 n = 1 through k1, sq-measure and trace-form."""
    k1, _ = transforms.k_to_one_clean(problems.ip2_clocked(1))
    return transforms.to_trace_form(transforms.projective_to_single_qubit(k1))[0]


def _total(d) -> int:
    return len(d["initial_owner"])


def _plan_field(key: str, value):
    """Set the descriptor's trace_plan[key] to value(descriptor)."""
    return lambda d: d["trace_plan"].update({key: value(d)})


def _set_target(piece: int, slot: int, value):
    """Set one target of a trace_plan piece to value(descriptor)."""
    def mutate(d):
        d["trace_plan"]["pieces"][piece]["targets"][slot] = value(d)
    return mutate


@pytest.mark.parametrize(
    "unclocked, mutate, named",
    [
        (False, _plan_field("control", _total), "control {total} out of range"),
        (False, _plan_field("channel", lambda d: -1), "channel -1 out of range"),
        (True, _plan_field("counter", lambda d: [_total(d)]), "counter qubit {total} out of range"),
        (False, _set_target(0, 0, _total), "piece 0: target {total} out of range"),
        (False, _set_target(1, 1, lambda d: d["trace_plan"]["pieces"][1]["targets"][0]),
         "piece 1: repeated target"),
        (False, _set_target(1, 0, lambda d: 0), "piece 1: target 0 is the control"),
        (True, _set_target(0, 0, lambda d: d["trace_plan"]["counter"][0]),
         "piece 0: target {counter[0]} is a counter qubit"),
        (False, lambda d: d["trace_plan"]["pieces"][0].update(
            ref={"kind": "composed", "width": 9, "factors": []}), "piece 0: ComposedU width 9 != "),
        (True, _plan_field("pairs", lambda d: d["trace_plan"]["pairs"] + 1), "pieces for {pairs} counter pairs"),
        (False, _plan_field("control", lambda d: 1), "control 1 is not the clean qubit 0"),
        (True, _plan_field("counter", lambda d: d["trace_plan"]["counter"][1:]), "{pairs} counter pairs, not 2^2"),
    ],
    ids=["control", "channel", "counter", "target-range", "target-repeated", "target-control",
         "target-counter", "piece-lowering", "piece-count", "control-not-clean", "counter-width"],
)
def test_malformed_trace_plan_is_a_named_violation_exiting_2(tmp_path, capsys, unclocked, mutate, named):
    tf = _ip2_trace_form()
    obj = protocol.to_descriptor(transforms.unclock(tf)[0] if unclocked else tf)
    mutate(obj)
    tp = obj["trace_plan"]
    named = named.format(total=_total(obj), counter=tp["counter"][:1], pairs=tp["pairs"])
    with pytest.raises(ValidationError) as e:
        protocol.from_descriptor(obj)
    assert all(v.startswith("trace_plan") for v in e.value.violations)
    assert any(named in v for v in e.value.violations)
    desc = tmp_path / "bad.json"
    desc.write_text(json.dumps(obj))
    assert run_cli("run", "--descriptor", str(desc), "--backend", "trace") == 2
    err = capsys.readouterr().err
    assert "trace_plan" in err and named in err


def _swap_pieces(obj: dict, i: int, j: int) -> dict:
    pieces = obj["trace_plan"]["pieces"]
    pieces[i], pieces[j] = pieces[j], pieces[i]
    return obj


_IP2_INPUTS = '{"0": "1", "1": "1"}'


@pytest.mark.parametrize("backend", ["density", "ensemble", "trace"])
@pytest.mark.parametrize("source", ["ip2-chain", "fixture"])
def test_version_1_descriptor_with_swapped_pieces_exits_2(tmp_path, capsys, source, backend):
    # pieces 1 and 2 belong to different players: the swapped plan builds
    # rounds that its owners cannot run, and that the file does not state
    if source == "ip2-chain":
        obj = v1_descriptor(_ip2_trace_form())
    else:
        obj = json.loads((DATA / "trace_form_v1.json").read_text())
    desc = tmp_path / "swapped.json"
    desc.write_text(json.dumps(_swap_pieces(obj, 1, 2)))
    argv = ["run", "--descriptor", str(desc), "--backend", backend, "--inputs", _IP2_INPUTS]
    assert run_cli(*argv) == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: trace_plan: round ")


@pytest.mark.parametrize("source", ["ip2-chain", "fixture"])
def test_version_2_descriptor_with_swapped_pieces_gives_one_number(tmp_path, source):
    tf = _ip2_trace_form() if source == "ip2-chain" else random_trace_form(3, pairs=2)
    # pieces 0 and 2 both belong to the control's owner, so the swap is a valid plan
    with pytest.raises(ValidationError) as e:
        protocol.from_descriptor(_swap_pieces(v1_descriptor(tf), 0, 2))
    assert e.value.violations == [
        "trace_plan: the rounds or layout differ from the ones the plan builds"
    ]
    desc = tmp_path / "swapped.json"
    desc.write_text(json.dumps(_swap_pieces(protocol.to_descriptor(tf), 0, 2)))
    got = []
    for backend in ("density", "ensemble", "trace"):
        out = tmp_path / f"{backend}.json"
        argv = ["run", "--descriptor", str(desc), "--backend", backend, "--inputs", _IP2_INPUTS]
        assert run_cli(*argv, "--out", str(out)) == 0
        got.append(json.loads(out.read_text())["records"][0]["acceptance"])
    assert max(got) - min(got) < 1e-9, got
    unswapped = simulator.run_trace(tf, {0: "1", 1: "1"}).acceptance
    assert abs(got[0] - unswapped) > 1e-6  # the swap changes the operator


def test_transform_unknown_pass_exits_2(tmp_path, capsys):
    # every --pass name is checked before --out-dir is made, so k1 leaves no cert
    assert (
        run_cli(
            "transform", "--protocol", "ip2-clocked", "--n", "1",
            "--pass", "k1", "--pass", "bogus", "--out-dir", str(tmp_path / "x"),
        )
        == 2
    )
    assert capsys.readouterr().err == (
        "error: unknown pass 'bogus'; choose from ['k1', 'lemma1', 'sq-measure', 'trace-form', 'unclock']\n"
    )
    assert not (tmp_path / "x").exists()


def test_a_failed_transform_pass_leaves_the_out_dir_as_it_was(tmp_path, capsys):
    # k1 certifies, then unclock refuses a spec that is not in trace form
    failing = ["transform", "--protocol", "ip2-clocked", "--n", "1", "--pass", "k1", "--pass", "unclock"]
    assert run_cli(*failing, "--out-dir", str(tmp_path / "fresh")) == 2
    assert not (tmp_path / "fresh").exists()
    old = tmp_path / "old"  # an earlier success, whose k1 certificate is another one
    assert run_cli("transform", "--protocol", "ip2-clocked", "--n", "2", "--pass", "k1",
                   "--out-dir", str(old)) == 0
    before = {f.name: f.read_bytes() for f in old.iterdir()}
    capsys.readouterr()
    assert run_cli(*failing, "--out-dir", str(old)) == 2
    assert capsys.readouterr().err == "error: unclock expects a clocked trace-form protocol\n"
    assert {f.name: f.read_bytes() for f in old.iterdir()} == before


def test_classical_caps_report(capsys):
    code = run_cli("classical", "caps", "--n", "4", "--k", "1", "--samples", "20000", "--seed", "3")
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    rec = body["records"][0]
    assert rec["pass"] is True
    assert abs(rec["estimate"] - 0.391) < 0.02


def test_classical_disc_matches_example(tmp_path, capsys):
    mat = tmp_path / "eq2.csv"
    mat.write_text("1,-1\n-1,1\n")
    code = run_cli("classical", "disc", "--matrix", str(mat))
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    assert body["value"] == pytest.approx(0.25, abs=1e-12)
    assert body["rectangle"] == {"rows": [0], "cols": [0]}


@pytest.mark.parametrize("flag", ["--matrix", "--weights"])
def test_classical_disc_non_numeric_cell_exits_2(tmp_path, capsys, flag):
    good, bad = tmp_path / "eq2.csv", tmp_path / "bad.csv"
    good.write_text("1,-1\n-1,1\n")
    bad.write_text("1,x\n-1,1\n")
    files = {"--matrix": good, "--weights": good, flag: bad}
    assert run_cli("classical", "disc", *(str(x) for kv in files.items() for x in kv)) == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and f"{flag} {bad}" in errors[0]


def test_classical_domain_error_exits_2(capsys):
    assert run_cli("classical", "caps", "--n", "2", "--k", "1", "--samples", "20000") == 2


@pytest.mark.parametrize(
    "argv, code, named",
    [
        (["knr", "--trials", "0"], 2, "--trials"),
        (["knr", "--trials", "-1"], 2, "--trials"),
        (["knr", "--n", "-3", "--trials", "1"], 2, "--n"),
        (["knr", "--n", "0"], 2, "--n"),
        (["abc", "--trials", "0"], 2, "--trials"),
        (["abc", "--trials", "-1"], 2, "--trials"),
        (["caps", "--n", "4", "--k", "1", "--samples", "5"], 2, "1e4 samples"),
        (["abc", "--n", "6"], 2, "k=2 outside [1, n/4]"),
        (["disc", "--matrix", "{big}"], 3, "16x16"),
        (["disc", "--matrix", "{empty}"], 2, "not a comma-separated numeric matrix"),
        (["disc", "--matrix", "{comments}"], 2, "not a comma-separated numeric matrix"),
    ],
    ids=["knr-trials-0", "knr-trials-neg", "knr-n-neg", "knr-n-0", "abc-trials-0", "abc-trials-neg", "caps-samples",
         "abc-n", "disc-17x17", "disc-empty", "disc-only-comments"],
)
def test_classical_bad_inputs_exit_with_one_error_line(tmp_path, capsys, argv, code, named):
    files = {"big": (",".join("1" * 17) + "\n") * 17, "empty": "", "comments": "# no rows\n"}
    for stem, text in files.items():
        (tmp_path / f"{stem}.csv").write_text(text)
    assert run_cli("classical", *(a.format(**{k: tmp_path / f"{k}.csv" for k in files}) for a in argv)) == code
    err = capsys.readouterr().err
    errors = [l for l in err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and named in errors[0] and "Traceback" not in err
    assert err.count("\n") == 1  # no warning beside it


@pytest.mark.parametrize("count", ["-2", "0"])
def test_gen_razborov_count_below_one_exits_with_one_error_line(capsys, count):
    assert run_cli("gen", "razborov", "--n", "14", "--which", "mu1", "--count", count) == 2
    captured = capsys.readouterr()
    errors = [l for l in captured.err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and "--count" in errors[0] and "Traceback" not in captured.err
    assert captured.out == ""


def test_gen_abc_instance_round_trip(tmp_path, capsys):
    out = tmp_path / "inst"
    code = run_cli("gen", "abc-instance", "--n", "4", "--label", "-1", "--seed", "5",
                   "--out-dir", str(out))
    assert code == 0
    capsys.readouterr()
    report = tmp_path / "run.json"
    code = run_cli("run", "--protocol", "abc", "--instance", str(out), "--out", str(report))
    assert code == 0
    body = json.loads(report.read_text())
    assert body["records"][0]["acceptance"] == pytest.approx(0.0, abs=1e-9)


def test_run_abc_instance_takes_n_from_the_instance(tmp_path, capsys):
    # the README flow: an n = 8 instance runs without repeating --n 8
    inst = tmp_path / "inst"
    assert run_cli("gen", "abc-instance", "--n", "8", "--label", "-1", "--seed", "3",
                   "--out-dir", str(inst)) == 0
    capsys.readouterr()
    assert run_cli("run", "--protocol", "abc", "--instance", str(inst)) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["records"][0]["input"] == "abc(label=-1)"
    assert body["records"][0]["acceptance"] == pytest.approx(0.0, abs=1e-9)
    assert body["cost"]["qubits"] == problems.abc_protocol(8).layout.total  # not n = 2's
    assert body["config"]["n"] == 8 and body["config"]["label"] == -1  # the instance's, not the defaults


@pytest.mark.parametrize(
    "manifest, named",
    [
        ("{not json", "is not valid JSON"),
        ('{"n": 4, "label": -1}', "must hold 'n', 'label' and 'files'"),
        ('{"n": 4, "label": -1, "files": {"A": "A.json"}}', "must hold 'n', 'label' and 'files'"),
        ("[1, 2]", "must hold 'n', 'label' and 'files'"),
        ('{"n": 4, "label": -1, "files": {"A": 1, "B": "B.json", "C": "C.json"}}',
         "must hold 'n', 'label' and 'files'"),
        ('{"n": "4", "label": -1, "files": {"A": "A.json", "B": "B.json", "C": "C.json"}}',
         "'n' must be the integer side of A, B and C"),
        ('{"n": 8, "label": -1, "files": {"A": "A.json", "B": "B.json", "C": "C.json"}}',
         "'n' must be the integer side of A, B and C"),
        ('{"n": 4, "label": 0, "files": {"A": "A.json", "B": "B.json", "C": "C.json"}}',
         "'label' must be 1 or -1"),
    ],
)
def test_run_abc_with_a_malformed_instance_manifest_exits_2(tmp_path, capsys, manifest, named):
    out = tmp_path / "inst"
    assert run_cli("gen", "abc-instance", "--n", "4", "--seed", "5", "--out-dir", str(out)) == 0
    capsys.readouterr()
    (out / "instance.json").write_text(manifest)
    assert run_cli("run", "--protocol", "abc", "--instance", str(out)) == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and str(out / "instance.json") in errors[0] and named in errors[0]


@pytest.mark.parametrize(
    "argv, bad, flag",
    [
        (["run", "--descriptor", "{bad}"], "bad.json", "--descriptor"),
        (["transform", "--descriptor", "{bad}", "--pass", "k1", "--out-dir", "{tmp}/out"], "bad.json",
         "--descriptor"),
        (["run", "--descriptor", str(DATA / "two_clean_v3.json"), "--inputs", "@{bad}"], "bad.json", "--inputs"),
        (["run", "--protocol", "abc", "--instance", "{tmp}/inst"], "inst/instance.json", "--instance"),
        (["run", "--protocol", "abc", "--instance", "{tmp}/inst"], "inst/A.json", "--instance"),
    ],
    ids=["run-descriptor", "transform-descriptor", "inputs", "instance-manifest", "instance-matrix"],
)
def test_a_file_that_is_not_utf8_exits_2_naming_its_flag_and_path(tmp_path, capsys, argv, bad, flag):
    assert run_cli("gen", "abc-instance", "--n", "4", "--seed", "5", "--out-dir", str(tmp_path / "inst")) == 0
    capsys.readouterr()
    (tmp_path / bad).write_bytes(b"\xff\xfe{}")
    assert run_cli(*(a.format(bad=tmp_path / bad, tmp=tmp_path) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {tmp_path / bad} is not UTF-8 text") and err.count("\n") == 1
    assert "Traceback" not in err


def test_gen_razborov_csv(capsys):
    code = run_cli("gen", "razborov", "--n", "14", "--which", "mu0", "--count", "4", "--seed", "1")
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,label"
    assert len(lines) == 5
    for line in lines[1:]:
        x, y, label = line.split(",")
        assert label == "0"
        assert sum(int(a) & int(b) for a, b in zip(x, y)) == 1


def test_gen_middle_pad(capsys):
    code = run_cli("gen", "middle-pad", "--n", "14", "--x", "00000101", "--y", "00100010")
    assert code == 0
    x, y = capsys.readouterr().out.strip().split(",")
    assert len(x) == len(y) == 14
    assert x.startswith("1" * 6)


def test_gen_middle_pad_of_an_odd_length_exits_2(capsys):
    # it printed two 12-character strings, which are no MIDDLE instance of length 13
    assert run_cli("gen", "middle-pad", "--n", "13", "--x", "0000011", "--y", "0010001") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: MIDDLE padding needs an even n >= 2 and bit strings of length n/2+1, got n = 13\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["classical", "caps", "--n", "4", "--k", "1", "--csv"],
        ["transform", "--protocol", "ip2-clocked", "--pass", "k1", "--out-dir", "{tmp}", "--seed", "1"],
        ["verify", "--quick", "--seed", "1"],
        ["gen", "middle-pad", "--n", "14", "--x", "00000101", "--y", "00100010", "--seed", "1"],
    ],
    ids=["classical-csv", "transform-seed", "verify-seed", "middle-pad-seed"],
)
def test_flags_that_nothing_reads_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as e:
        cli.main([a.format(tmp=tmp_path) for a in argv])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_RAZBOROV = ["gen", "razborov", "--n", "14", "--which", "mu1"]
_ENSEMBLE = ["run", "--protocol", "ip2-one-clean", "--n", "2", "--x", "10", "--y", "11", "--backend", "ensemble"]


@pytest.mark.parametrize(
    "env, argv, named",
    [
        ("abc", _RAZBOROV, "ONECLEAN_SEED must be a non-negative integer, got 'abc'"),
        ("-3", _RAZBOROV, "ONECLEAN_SEED must be a non-negative integer, got '-3'"),
        ("-3", ["classical", "abc", "--trials", "1"], "ONECLEAN_SEED must be a non-negative integer, got '-3'"),
        (None, ["classical", "caps", "--n", "4", "--k", "1", "--seed", "-1"],
         "--seed must be a non-negative integer, got -1"),
        (None, [*_ENSEMBLE, "--samples", "2", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    ],
    ids=["env-abc", "env-negative-gen", "env-negative-classical", "caps-negative", "run-ensemble-negative"],
)
def test_a_seed_that_is_not_a_non_negative_integer_exits_2(monkeypatch, capsys, env, argv, named):
    if env is None:
        monkeypatch.delenv("ONECLEAN_SEED", raising=False)
    else:
        monkeypatch.setenv("ONECLEAN_SEED", env)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    errors = [l for l in captured.err.splitlines() if l.startswith("error:")]
    assert errors == [f"error: {named}"] and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--descriptor", "--inputs"])
def test_run_on_a_directory_exits_2(tmp_path, capsys, flag):
    desc = tmp_path / "p.json"
    desc.write_text(protocol.serialize(problems.ip2_clocked(1)))
    args = {"--descriptor": str(desc), "--inputs": '{"0": "1", "1": "1"}'}
    args[flag] = str(tmp_path) if flag == "--descriptor" else f"@{tmp_path}"
    assert run_cli("run", *(x for kv in args.items() for x in kv)) == 2
    captured = capsys.readouterr()
    errors = [l for l in captured.err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and str(tmp_path) in errors[0] and "Traceback" not in captured.err


def test_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("ONECLEAN_SEED", "123")
    code = run_cli("gen", "razborov", "--n", "14", "--which", "mu1", "--count", "2")
    first = capsys.readouterr().out
    code2 = run_cli("gen", "razborov", "--n", "14", "--which", "mu1", "--count", "2")
    second = capsys.readouterr().out
    assert code == code2 == 0
    assert first == second  # env seed pins the stream
    monkeypatch.setenv("ONECLEAN_SEED", "124")
    run_cli("gen", "razborov", "--n", "14", "--which", "mu1", "--count", "2")
    assert capsys.readouterr().out != first


def test_classical_abc_cli(capsys):
    code = run_cli("classical", "abc", "--n", "16", "--k", "2", "--trials", "5", "--seed", "7")
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    for rec in body["records"]:
        assert rec["success_rate"] >= 0.9
        assert rec["transcript_bits"] == 640012


def test_run_descriptor_with_inline_inputs(tmp_path, capsys):
    desc = tmp_path / "ip2.json"
    desc.write_text(protocol.serialize(problems.ip2_clocked(2)))
    code = run_cli(
        "run", "--descriptor", str(desc), "--inputs", '{"0": "11", "1": "01"}'
    )
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    assert body["records"][0]["acceptance"] == pytest.approx(1.0, abs=1e-9)


def test_full_chain_via_cli_hits_the_wrap_formula(tmp_path, capsys):
    out = tmp_path / "chain"
    code = run_cli(
        "transform", "--protocol", "ip2-clocked", "--n", "2",
        "--pass", "k1", "--pass", "sq-measure", "--pass", "trace-form", "--pass", "unclock",
        "--out-dir", str(out),
    )
    assert code == 0
    capsys.readouterr()
    report = tmp_path / "run.json"
    code = run_cli(
        "run", "--descriptor", str(out / "protocol.json"), "--backend", "trace",
        "--inputs", '{"0": "01", "1": "01"}',  # IP = 1 at n = 2
        "--out", str(report),
    )
    assert code == 0
    acc = json.loads(report.read_text())["records"][0]["acceptance"]
    # 1/2 + 1/16 + eps/2^(k+3) at eps = 1/2, k = 2
    assert acc == pytest.approx(0.5 + 1 / 16 + 0.5 / 32, abs=1e-9)


COLD_START = """
import contextlib, importlib, io, json, pkgutil, sys
from fractions import Fraction


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
import oneclean
from oneclean import classical, cli, simulator
for m in pkgutil.iter_modules(oneclean.__path__):
    importlib.import_module("oneclean." + m.name)
out = sys.argv[1]
codes, stdout = [], []
for argv in [
    ["run", "--protocol", "ip2-one-clean", "--n", "2", "--x", "10", "--y", "11", "--out", out + "/run.json"],
    ["transform", "--protocol", "ip2-clocked", "--n", "2", "--pass", "k1", "--out-dir", out + "/k1"],
    ["classical", "caps", "--n", "4", "--k", "1", "--samples", "100000", "--seed", "1"],
    ["classical", "abc", "--n", "16", "--k", "2", "--trials", "1", "--seed", "7"],
    ["verify", "--quick"],
]:
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        codes.append(cli.main(argv))
    stdout.append(buf.getvalue())
cap = classical.cap_probability(4, 1)
amp = simulator.amplify(Fraction(3, 8), Fraction(5, 8), Fraction(1, 2), Fraction(1, 8))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "stdout": stdout, "scipy": loaded, "cap": cap, "amplify": amp}))
"""


def test_importing_and_running_oneclean_loads_no_scipy(tmp_path):
    # a cold process that refuses every scipy import runs each command that once needed
    # scipy.special (caps, abc and verify, through cap_probability, best_aligned and amplify)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0, 0, 0, 0]
    assert got["scipy"] == []
    golden = DATA / "golden"
    assert got["stdout"][2] == (golden / "readme-classical-caps" / "0.stdout").read_text()
    assert got["stdout"][4] == (golden / "readme-verify-quick" / "0.stdout").read_text()
    abc = json.loads(got["stdout"][3])["records"]
    assert [(r["success_rate"], r["transcript_bits"]) for r in abc] == [(1.0, 640_012)] * 2
    closed = (4 / math.pi) * (math.pi / 6 - math.sqrt(3) / 8)
    assert got["cap"] == pytest.approx(closed, abs=1e-12)
    want = exact_amplify(Fraction(3, 8), Fraction(5, 8), Fraction(1, 2), Fraction(1, 8))
    assert got["amplify"] == pytest.approx(float(want), rel=1e-12)


def test_the_kernel_check_fails_and_prints_its_deviation_when_the_engines_disagree(monkeypatch):
    run_ensemble = simulator.run_ensemble

    def off(*args, **kw):
        rep = run_ensemble(*args, **kw)
        return dataclasses.replace(rep, acceptance=rep.acceptance + 1e-6)

    monkeypatch.setattr(simulator, "run_ensemble", off)
    ok, detail = verify.check_kernel(quick=True)
    assert not ok
    assert detail.endswith("; worst dev 1.00e-06")


def test_the_full_verify_battery_passes(capsys):
    # CI's smoke step runs this battery too; Tier-1 otherwise runs only --quick
    assert run_cli("verify") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "OK (0 failing)" and all(line.startswith("PASS ") for line in lines[:-1])
