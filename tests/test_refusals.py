"""Every refusal of the API and the CLI, each provoked once: the named error class and
its message for a call, exit code 2 and one error line for an argv."""

import dataclasses
import functools
import json
import operator
import re
import runpy
import sys
from fractions import Fraction

import numpy as np
import pytest

from oneclean import classical, cli, problems, protocol, qstate, simulator, transforms, verify
from oneclean.errors import DimensionError, DomainError, ParseError, ShapeError
from oneclean.protocol import (
    ALICE,
    BOB,
    ComposedU,
    Measurement,
    ProtocolSpec,
    RegisterLayout,
    RoundAction,
    explicit,
    trace_form_spec,
)

from helpers import random_trace_form

IP2_INPUTS = {ALICE: "1", BOB: "1"}
# a deterministic-message PP protocol on one message bit, with 2 coins (b = 3/4 or 1/4)
PP_ARGS = ({"0": "0", "1": "1"}, {"0": {"0": "3/4", "1": "1/4"}, "1": {"0": "1/4", "1": "3/4"}}, 1)


def _spec(rounds, owners, measured) -> ProtocolSpec:
    """A two-player spec with one clean qubit, each round's unitary the identity."""
    rounds = [
        RoundAction(player, explicit(np.eye(1 << len(tg))), tg, frozenset(msg), to)
        for player, tg, msg, to in rounds
    ]
    return ProtocolSpec(
        name="crafted", players=2, layout=RegisterLayout(clean=1, mixed=len(owners) - 1),
        initial_owner=owners, rounds=rounds, measurement=Measurement(single_qubit=measured),
    )


def _odd_trace_form() -> ProtocolSpec:
    tf = random_trace_form(3, pairs=2)
    plan = dataclasses.replace(tf.trace_plan, pieces=tf.trace_plan.pieces[:3])
    return trace_form_spec(plan, tf.initial_owner, "odd")


def _edited(p: ProtocolSpec, value, *path) -> ProtocolSpec:
    """``p`` read back from its descriptor with the field at ``path`` set to ``value``."""
    obj = protocol.to_descriptor(p)
    functools.reduce(operator.getitem, path[:-1], obj)[path[-1]] = value
    return protocol.from_descriptor(obj)


class _SubComposed(ComposedU):
    pass


def _subclassed_round() -> ProtocolSpec:
    p = problems.ip2_one_clean(1)
    r0 = p.rounds[0]
    r0 = dataclasses.replace(r0, unitary=_SubComposed(r0.unitary.width, r0.unitary.factors))
    return dataclasses.replace(p, rounds=(r0,) + p.rounds[1:])


def _pp(*args, eps=Fraction(1, 4)) -> ProtocolSpec:
    return transforms.pp_to_oneway(*(args or PP_ARGS), eps=eps)[0]


_BOB_DECIDE = ("rounds", 1, "unitary", "params")
API_REFUSALS = [
    # problems
    (lambda: problems.ip2_clocked(0), DomainError, "n must be >= 1, got 0"),
    (lambda: problems.ip2_one_clean(0), DomainError, "n must be >= 1, got 0"),
    (lambda: problems.MiddleInstance.from_strings("101", "011"), DomainError,
     "instance length must be even and >= 2, got 3"),
    (lambda: problems.middle_acceptance(4, 1, "nope"), DomainError, "unknown MIDDLE variant 'nope'"),
    (lambda: simulator.run(problems.abc_protocol(2)), DomainError, "needs the player's matrix as input"),
    # protocol
    (lambda: protocol.floor_log2(0), DomainError, "floor_log2 needs a positive argument, got 0"),
    (lambda: protocol.cost_report(random_trace_form(0)), DomainError, "declares no bias"),
    (lambda: protocol.lower(object(), (0,)), DomainError, "unknown unitary reference object"),
    # simulator
    (lambda: simulator.run(problems.ip2_clocked(1), IP2_INPUTS, backend="nope"), DomainError,
     "unknown backend 'nope'"),
    (lambda: simulator.oneway_bias(np.eye(2), np.eye(4)), DimensionError,
     r"operand shapes \(2, 2\) and \(4, 4\) do not match"),
    (lambda: simulator.measure_bias(problems.ip2_clocked(1), [(IP2_INPUTS, 2)], Fraction(1, 2)), DomainError,
     "input label must be 0 or 1, got 2"),
    # qstate
    (lambda: qstate.num_qubits(3), DimensionError, "dimension 3 is not a power of two"),
    (lambda: qstate.haar_unitary(0), DomainError, "dimension must be >= 1, got 0"),
    (lambda: qstate.matrix_from_json("{bad"), ParseError, "bad matrix text"),
    # classical
    (lambda: classical.SignMatrix([[1, -1], [-1, 1]], weights=[[1.0]]), DomainError,
     "weight grid must match the sign matrix shape"),
    (lambda: classical.knr_estimate([1.0, 0.0], [1.0, 0.0, 0.0], 0.1), DomainError,
     "vectors must share one dimension"),
    # transforms: three players, and crafted two-player specs
    (lambda: transforms.k_to_one_clean(problems.abc_protocol(2)), ShapeError,
     "k-to-one-clean handles two-player protocols"),
    (lambda: transforms.to_trace_form(problems.abc_protocol(2)), ShapeError,
     "fixed-channel conversion handles two-player protocols"),
    (lambda: transforms.two_round_one_clean(problems.abc_protocol(2)), ShapeError,
     "two-round construction handles two-player protocols"),
    (lambda: transforms.k_to_one_clean(_spec([], (ALICE,), 0)), ShapeError, "base protocol has no rounds"),
    (lambda: transforms.k_to_one_clean(_spec([(ALICE, (0,), (), None), (BOB, (1,), (), None)], (ALICE, BOB), 1)),
     ShapeError, "no message from the starter to the measurer can carry the flag"),
    (lambda: transforms.unclock(_odd_trace_form()), ShapeError, "must have an even round count"),
    (lambda: transforms.two_round_one_clean(
        _spec([(ALICE, (0,), (0,), BOB), (ALICE, (1,), (1,), BOB)], (ALICE, ALICE), 0)),
     ShapeError, "both messages sent by the same player"),
    (lambda: transforms.two_round_one_clean(
        _spec([(ALICE, (0,), (0, 1), BOB), (BOB, (0,), (0,), ALICE)], (ALICE, ALICE), 0)),
     ShapeError, "both messages must be exactly the k clean qubits"),
    (lambda: transforms.two_round_one_clean(
        _spec([(ALICE, (0, 1), (0,), BOB), (BOB, (0,), (0,), ALICE)], (ALICE, ALICE), 0)),
     ShapeError, "first unitary must act on exactly the k clean qubits"),
    (lambda: transforms.two_round_one_clean(
        _spec([(ALICE, (0,), (0,), BOB), (BOB, (0,), (0,), ALICE)], (ALICE, BOB), 1)),
     ShapeError, "the first player must measure"),
    (lambda: _pp(eps=Fraction(1, 2)), DomainError, r"bias 1/2 outside \[0, 1/2\)"),
    (lambda: _pp({"0": "2"}, PP_ARGS[1], 1), DomainError, "message '2' is not a 1-bit string"),
    (lambda: _pp(PP_ARGS[0], {"0": {"0": "1/2"}}, 1), DomainError, "row '0' must cover all 2 messages"),
    (lambda: _pp(PP_ARGS[0], {"0": {"0": "3/2", "1": "-1/2"}}, 1), DomainError,
     r"acceptance probability 3/2 outside \[0, 1\]"),
    (lambda: _pp(PP_ARGS[0], {"0": {"0": "1/3", "1": "2/3"}}, 1), DomainError,
     "acceptance probabilities must be dyadic"),
    (lambda: simulator.run(_pp({"0": "0"}, PP_ARGS[1], 1), {ALICE: "1", BOB: "0"}), DomainError,
     "no message defined for input '1'"),
    # descriptors
    (lambda: simulator.run(_edited(problems.ip2_clocked(1), "nope", "rounds", 0, "unitary", "name"), IP2_INPUTS),
     ParseError, "unknown unitary generator 'nope'"),
    (lambda: simulator.run(_edited(problems.ip2_clocked(1), [1], "rounds", 1, "targets"), IP2_INPUTS),
     DomainError, r"generator 'ip2_bob' has shape \(4, 4\), expected dim 2\^1"),
    (lambda: _edited(problems.ip2_clocked(1), {"kind": "nope"}, "rounds", 0, "unitary"), ParseError,
     "rounds\\[0\\].unitary: unknown unitary kind 'nope'"),
    (lambda: protocol.serialize(_subclassed_round()), ParseError, "cannot serialize unitary reference _SubComposed"),
    (lambda: simulator.run(_edited(_pp(), 1, *_BOB_DECIDE, "coins"), {ALICE: "0", BOB: "0"}), DomainError,
     "acceptance 3/4 is not dyadic with 1 coins"),
    (lambda: simulator.run(_edited(_pp(), {"0": "1/2", "1": "1/4"}, *_BOB_DECIDE, "btable", "0"),
                           {ALICE: "0", BOB: "0"}),
     DomainError, "acceptance table is not pairwise balanced"),
]


@pytest.mark.parametrize("call, error, match", API_REFUSALS)
def test_a_refused_call_raises_its_named_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _not_orthogonal(inst):
    (inst / "A.json").write_text(qstate.matrix_to_json(2 * np.eye(4)))


def _label_flipped(inst):
    manifest = json.loads((inst / "instance.json").read_text())
    (inst / "instance.json").write_text(json.dumps({**manifest, "label": -manifest["label"]}))


ABC_RUN = ["run", "--protocol", "abc", "--instance", "{inst}"]
CLI_REFUSALS = [
    (["run", "--n", "2"], None, "need --protocol or --descriptor"),
    (["run", "--protocol", "nope"], None, "unknown protocol 'nope'; choose from"),
    (["classical", "knr", "--eps", "0"], None, r"accuracy eps=0.0 outside \(0, 1\)"),
    (["gen", "razborov", "--n", "13", "--which", "mu0"], None, "n must be even, got 13"),
    (ABC_RUN, _not_orthogonal, "A is not orthogonal within 1e-9"),
    (ABC_RUN, _label_flipped, "A B C differs from label"),
]


@pytest.mark.parametrize("argv, edit, match", CLI_REFUSALS)
def test_a_refused_command_exits_2_with_one_error_line(tmp_path, capsys, argv, edit, match):
    inst = tmp_path / "inst"
    if edit:
        assert cli.main(["gen", "abc-instance", "--n", "4", "--seed", "5", "--out-dir", str(inst)]) == 0
        edit(inst)
        capsys.readouterr()
    assert cli.main([a.format(inst=inst) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert re.search(match, captured.err)


def test_a_generator_name_is_registered_once():
    name, fn = "refusals_once", lambda params, x: np.eye(2)
    try:
        protocol.register_generator(name)(fn)
        protocol.register_generator(name)(fn)  # the same function again, as a module reload does
        with pytest.raises(ValueError, match="generator 'refusals_once' already registered"):
            protocol.register_generator(name)(lambda params, x: np.eye(2))
    finally:
        protocol._GENERATORS.pop(name, None)


def test_a_failing_and_a_raising_check_fail_verify_without_aborting_it(monkeypatch, capsys):
    def boom(quick):
        raise RuntimeError("boom")

    # a pair of weight 0 with no common one: a mu0 draw breaks all three constraints, a mu1 draw the weight
    monkeypatch.setattr(problems, "razborov_sample", lambda n, which, seed=None: ("0" * (n // 2 + 1),) * 2)
    monkeypatch.setattr(verify, "CHECKS", [("boom", boom), ("razborov", verify.check_razborov)])
    assert verify.run_all(quick=True) == [
        ("boom", False, "raised RuntimeError: boom"),
        ("razborov", False, "weight/intersection/padding constraints, 800 violations"),
    ]
    assert cli.main(["verify", "--quick"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL boom: raised RuntimeError: boom",
        "FAIL razborov: weight/intersection/padding constraints, 800 violations",
        "FAILED (2 failing)",
    ]


def test_the_cli_module_runs_as_a_script(monkeypatch, capsys):
    argv = ["gen", "razborov", "--n", "14", "--which", "mu0", "--count", "2", "--seed", "1"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["oneclean", *argv])
    monkeypatch.delitem(sys.modules, "oneclean.cli")  # run afresh, as ``python -m oneclean.cli`` does
    with pytest.raises(SystemExit) as e:
        runpy.run_module("oneclean.cli", run_name="__main__")
    assert e.value.code == 0 and capsys.readouterr().out == want
