import dataclasses
import json
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oneclean import cli, problems, protocol, qstate, simulator, transforms
from oneclean.errors import DomainError, ParseError, ValidationError
from oneclean.protocol import (
    ALICE,
    BOB,
    AdjointU,
    ComposedU,
    ControlledU,
    DispatchU,
    ExplicitU,
    FlagStateU,
    Measurement,
    ProtocolSpec,
    RegisterLayout,
    RoundAction,
    explicit,
)

from helpers import (
    DATA,
    check_steps,
    dense_ref_oracle,
    embed_operator,
    inline_matrices,
    piece_matrices,
    random_trace_form,
    random_two_clean,
    table_ref,
    v1_descriptor,
)


def test_validate_builtin_protocols_clean():
    for p in (
        problems.ip2_clocked(2),
        problems.ip2_one_clean(3),
        problems.middle_protocol(4),
        problems.middle_protocol(4, "one_clean"),
        problems.abc_protocol(4),
    ):
        assert protocol.validate(p) == []


def test_validate_flags_foreign_qubit():
    base = problems.ip2_clocked(2)
    rounds = list(base.rounds)
    # round 1 is Bob's; make its unitary touch a qubit he does not own yet
    r = rounds[1]
    rounds[1] = RoundAction(ALICE, r.unitary, r.targets, r.message, BOB)
    with pytest.raises(ValidationError) as e:
        ProtocolSpec(
            name="bad",
            players=2,
            layout=base.layout,
            initial_owner=base.initial_owner,
            rounds=tuple(rounds),
            measurement=base.measurement,
        )
    assert any("owned by player" in v for v in e.value.violations)


@pytest.mark.parametrize(
    "index, edit, named",
    [
        (1, lambda r: dataclasses.replace(r, message=frozenset(sorted(r.message)[:-1])),
         "semi-unclocked message sets differ across rounds"),
        (2, lambda r: dataclasses.replace(r, unitary=AdjointU(r.unitary)),
         "semi-unclocked round 2 unitary differs from earlier rounds"),
    ],
    ids=["message-sets", "round-unitary"],
)
def test_validate_semi_unclocked_message_mismatch(index, edit, named):
    # built in memory without a trace_plan, so no plan rebuilds the rounds
    uc, _ = transforms.unclock(random_trace_form(0, pairs=2))
    fields = {f: getattr(uc, f) for f in ("layout", "initial_owner", "measurement", "mode", "channel")}
    ProtocolSpec(name="good", players=2, rounds=uc.rounds, **fields)
    rounds = list(uc.rounds)
    rounds[index] = edit(rounds[index])
    with pytest.raises(ValidationError) as e:
        ProtocolSpec(name="bad", players=2, rounds=tuple(rounds), **fields)
    assert named in e.value.violations


def test_communication_costs_ip2():
    for n in (1, 2, 4):
        assert protocol.communication_cost(problems.ip2_clocked(n)) == 2 * n
        assert protocol.communication_cost(problems.ip2_one_clean(n)) == 2 * n + 1


def test_communication_cost_empty():
    p = ProtocolSpec(
        name="empty",
        players=2,
        layout=RegisterLayout(clean=1, mixed=0),
        initial_owner=(ALICE,),
        rounds=(),
        measurement=Measurement(single_qubit=0),
    )
    assert protocol.communication_cost(p) == 0


def test_communication_cost_invariant_under_relabeling():
    p = problems.ip2_one_clean(2)
    perm = {0: 0, 1: 2, 2: 1}  # permute within the mixed block
    rounds = tuple(
        RoundAction(
            r.player,
            r.unitary,
            tuple(perm[t] for t in r.targets),
            frozenset(perm[q] for q in r.message),
            r.to,
        )
        for r in p.rounds
    )
    q = ProtocolSpec(
        name="perm",
        players=2,
        layout=p.layout,
        initial_owner=tuple(p.initial_owner[k] for k in sorted(perm, key=perm.get)),
        rounds=rounds,
        measurement=Measurement(
            qubits=tuple(perm[t] for t in p.measurement.qubits),
            projector=p.measurement.projector,
        ),
    )
    assert protocol.communication_cost(q) == protocol.communication_cost(p)


def test_q1_cost_values():
    assert protocol.q1_cost(9, Fraction(1, 8)) == 576  # 64 * (2n+1) at n=4
    assert protocol.q1_cost(10, 0.1) == pytest.approx(1000.0)
    assert protocol.q1_cost(0, Fraction(1, 4)) == 0
    with pytest.raises(DomainError):
        protocol.q1_cost(3, Fraction(3, 4))
    with pytest.raises(DomainError):
        protocol.q1_cost(3, 0.0)


def test_pp_cost_values():
    assert protocol.pp_cost(5, Fraction(1, 8)) == 8
    assert protocol.pp_cost(1, Fraction(1, 4)) == 3
    # floor(log2 0.3) = -2, bracketed: 2^-2 = 0.25 <= 0.3 < 0.5 = 2^-1
    assert protocol.pp_cost(3, 0.3) == 5
    with pytest.raises(DomainError):
        protocol.pp_cost(3, Fraction(1, 2))


def _floor_log2_oracle(f: Fraction) -> int:
    k = 0
    if f >= 1:
        while Fraction(2) ** (k + 1) <= f:
            k += 1
    else:
        while Fraction(2) ** k > f:
            k -= 1
    return k


@given(st.fractions(min_value="1/100000", max_value=1000))
@settings(max_examples=80, deadline=None)
def test_floor_log2_matches_bracketing_oracle(f):
    assert protocol.floor_log2(f) == _floor_log2_oracle(f)


@given(
    st.integers(1, 50),
    st.integers(1, 50),
    st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(3, 8)]),
    st.sampled_from([Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 3)]),
)
@settings(max_examples=60, deadline=None)
def test_cost_monotonicity(c1, c2, e1, e2):
    lo_c, hi_c = sorted((c1, c2))
    lo_e, hi_e = sorted((e1, e2))
    assert protocol.q1_cost(lo_c, hi_e) <= protocol.q1_cost(hi_c, hi_e)
    assert protocol.q1_cost(hi_c, hi_e) <= protocol.q1_cost(hi_c, lo_e)
    if hi_e < Fraction(1, 2):
        assert protocol.pp_cost(lo_c, hi_e) <= protocol.pp_cost(hi_c, hi_e)
        assert protocol.pp_cost(hi_c, hi_e) <= protocol.pp_cost(hi_c, lo_e)


def _readme_chain(base=None):
    """The specs of the README's four-pass chain, on IP2 n = 1 by default."""
    k1, _ = transforms.k_to_one_clean(base or problems.ip2_clocked(1))
    sq = transforms.projective_to_single_qubit(k1)
    tf, _ = transforms.to_trace_form(sq)
    return [k1, sq, tf, transforms.unclock(tf)[0]]


def test_serialize_round_trip_exact():
    protos = [
        problems.ip2_clocked(2),
        problems.ip2_one_clean(2),
        problems.middle_protocol(4, "one_clean"),
        problems.abc_protocol(2),
        random_trace_form(3, pairs=2),
    ]
    protos.append(transforms.unclock(protos[-1])[0])
    protos += _readme_chain()
    for p in protos:
        q = protocol.deserialize(protocol.serialize(p))
        assert protocol.protocol_equal(p, q), p.name


def test_deserialize_missing_mode_names_field():
    obj = protocol.to_descriptor(problems.ip2_clocked(1))
    del obj["mode"]
    with pytest.raises(ParseError, match="mode"):
        protocol.from_descriptor(obj)


def test_deserialize_then_validate_catches_perturbed_unitary():
    p = problems.middle_protocol(2)
    obj = protocol.to_descriptor(p)
    # perturb one entry of round 0's first explicit matrix by 1e-3
    index = obj["rounds"][0]["unitary"]["factors"][0]["ref"]["matrix"]
    obj["matrices"][index]["entries"][0][0][0] += 1e-3
    with pytest.raises(ValidationError) as e:
        protocol.from_descriptor(obj)
    assert any("not unitary" in v for v in e.value.violations)


def test_ownership_schedule_single_owner_per_qubit():
    p = problems.ip2_one_clean(2)
    for owners in protocol.ownership_schedule(p):
        assert len(owners) == p.layout.total
        assert all(o in (ALICE, BOB) for o in owners)


def test_cost_report_csv():
    # the cost block of a run report: an exact bias and Q1 cost as rational strings
    report = protocol.cost_report(problems.ip2_one_clean(4))
    assert report.q1_cost == 576
    assert report.to_obj() == {"communication": 9, "bias": "1/8", "q1_cost": "576", "pp_cost": 12, "qubits": 3}


def test_validate_rejects_bad_bias():
    p = problems.ip2_clocked(1)
    with pytest.raises(ValidationError) as e:
        ProtocolSpec(
            name="bad-eps",
            players=2,
            layout=p.layout,
            initial_owner=p.initial_owner,
            rounds=p.rounds,
            measurement=p.measurement,
            declared_eps=Fraction(3, 4),
        )
    assert any("bias" in v for v in e.value.violations)


@pytest.mark.parametrize(
    "build",
    [
        lambda p: ProtocolSpec(**{**vars(p), "players": 4}),
        lambda p: dataclasses.replace(p, players=4),
        lambda p: protocol.from_descriptor({**protocol.to_descriptor(p), "players": 4}),
    ],
    ids=["constructor", "replace", "from-descriptor"],
)
def test_building_an_invalid_spec_raises_with_the_violations(build):
    with pytest.raises(ValidationError) as e:
        build(problems.ip2_clocked(1))
    assert e.value.violations == ["players must be 2 or 3, got 4"]


def test_stored_matrices_are_read_only_copies():
    u, proj = qstate.haar_unitary(2, 0), qstate.basis_projector(0)
    ref = protocol.ExplicitU(u)
    meas = Measurement(qubits=(0,), projector=proj)
    u[0, 0] += 1.0
    proj[0, 0] = 0.0
    assert ref.matrix[0, 0] != u[0, 0] and meas.projector[0, 0] == 1.0
    for stored in (ref.matrix, meas.projector):
        with pytest.raises(ValueError):
            stored[0, 0] = 0.5


def _first_ref(obj, kind):
    """The first unitary-reference object of ``kind`` in a descriptor, depth first."""
    if isinstance(obj, dict):
        if obj.get("kind") == kind:
            return obj
        obj = list(obj.values())
    if isinstance(obj, list):
        for v in obj:
            found = _first_ref(v, kind)
            if found is not None:
                return found
    return None


def _bump_dispatch_entry(round_obj):
    """Move one explicit entry inside the round's dispatch branch 0 by 1e-12."""
    branch = _first_ref(round_obj, "dispatch")["branches"][0]
    _first_ref(branch, "explicit")["matrix"]["entries"][0][0][0] += 1e-12


def _unclocked():
    return transforms.unclock(random_trace_form(0, pairs=2))[0]


def _set_generator_param(d):
    _first_ref(d["rounds"], "generator")["params"]["n"] = 3


def _bump_player_dispatch_entries(d):
    """Bump the entry in every round of round 0's player, so the rounds
    stay one fixed unitary per player."""
    for r in d["rounds"]:
        if r["player"] == d["rounds"][0]["player"]:
            _bump_dispatch_entry(r)


def _complement_projector(d):
    proj = qstate.matrix_from_obj(d["measurement"]["projector"])
    d["measurement"]["projector"] = qstate.matrix_to_obj(np.eye(len(proj)) - proj)


def test_a_descriptor_and_its_spec_share_no_generator_params():
    p = problems.ip2_one_clean(1)
    text = protocol.serialize(p)
    _first_ref(protocol.to_descriptor(p)["rounds"][1], "generator")["params"]["i"] = 5
    assert protocol.serialize(p) == text
    obj = json.loads(text)
    q = protocol.from_descriptor(obj)
    _first_ref(obj["rounds"][1], "generator")["params"]["i"] = 5
    assert protocol.serialize(q) == text
    # a nested dict is the generator's own too
    table = {"0": "1"}
    u = protocol.GenU("pp_alice_flag", {"c": 1, "table": table}, ALICE)
    table["0"] = "0"
    assert u.params == {"c": 1, "table": {"0": "1"}}


# the one violation of a version-1 trace form whose rounds its plan does not build
V1_MISMATCH = "trace_plan: the rounds or layout differ from the ones the plan builds"


@pytest.mark.parametrize(
    "source, mutate, named",
    [
        (DATA / "unclocked_v1.json", _bump_player_dispatch_entries, V1_MISMATCH),
        (lambda: problems.ip2_clocked(2), _set_generator_param, None),
        (_unclocked, lambda d: d["trace_plan"]["pieces"][0]["targets"].reverse(), None),
        (lambda: problems.ip2_one_clean(2), lambda d: d["declared"].update(eps="1/16"), None),
        (lambda: random_two_clean(1), _complement_projector, None),
    ],
    ids=["dispatch-entry", "generator-param", "plan-target", "declared-eps", "projector-entry"],
)
def test_protocol_equal_sees_a_single_changed_field(tmp_path, capsys, source, mutate, named):
    """A changed field reads as a different spec, or, where the plan
    rebuilds the changed field (a version-1 round), as a named violation."""
    text = source.read_text() if isinstance(source, Path) else protocol.serialize(source())
    p = protocol.deserialize(text)
    assert protocol.protocol_equal(p, protocol.deserialize(protocol.serialize(p)))
    obj = json.loads(text)
    mutate(obj)
    if named is None:
        assert not protocol.protocol_equal(p, protocol.from_descriptor(obj))
        return
    with pytest.raises(ValidationError) as e:
        protocol.from_descriptor(obj)
    assert e.value.violations == [named]
    desc = tmp_path / "changed.json"
    desc.write_text(json.dumps(obj))
    assert cli.main(["run", "--descriptor", str(desc), "--backend", "trace"]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("base, entries", [(lambda: problems.ip2_clocked(1), 5),
                                           (lambda: problems.middle_protocol(8), 6)], ids=["ip2-n1", "middle-n8"])
def test_version_3_descriptor_names_each_explicit_matrix_once(monkeypatch, base, entries):
    text = protocol.serialize(_readme_chain(base())[-1])
    obj = json.loads(text)
    assert len(obj["matrices"]) == entries == len({json.dumps(m) for m in obj["matrices"]})
    # leaves hold indices, and no matrix object is written outside the list
    assert _first_ref(obj, "explicit")["matrix"] == 0
    assert '"dim"' not in json.dumps({k: v for k, v in obj.items() if k != "matrices"})
    checked = []
    is_unitary = qstate.is_unitary
    monkeypatch.setattr(qstate, "is_unitary", lambda m: checked.append(m) or is_unitary(m))
    q = protocol.deserialize(text)
    assert len(checked) == entries  # once per entry, none for the leaves the program builds
    # after reading, equal matrices are one leaf object
    leaves = {id(pc.leaf): pc.leaf for pieces in protocol.lowered(q)[1] for pc in pieces
              if isinstance(pc.leaf, ExplicitU)}
    assert len(leaves) == len({leaf.matrix.tobytes() for leaf in leaves.values()}) == entries


def test_a_violation_repeated_over_rounds_reads_once():
    obj = protocol.to_descriptor(_readme_chain()[-1])
    pieces = obj["trace_plan"]["pieces"]
    pieces[1], pieces[2] = pieces[2], pieces[1]  # each piece handed to the other player
    with pytest.raises(ValidationError) as e:
        protocol.from_descriptor(obj)
    even, odd = "rounds 0, 2, 4, 6, 8, 10, 12, 14", "rounds 1, 3, 5, 7, 9, 11, 13, 15"
    assert e.value.violations == [
        f"trace_plan: {even}: unitary touches qubit 2 owned by player 0",
        f"trace_plan: {even}: unitary touches qubit 3 owned by player 0",
        f"trace_plan: {even}: unitary touches qubit 4 owned by player 0",
        f"trace_plan: {odd}: unitary touches qubit 7 owned by player 1",
    ]


def test_deserialized_unclocked_spec_validates_and_flags_a_changed_round():
    uc = _unclocked()
    q = protocol.deserialize(protocol.serialize(uc))
    assert q.rounds[0].unitary is q.rounds[2].unitary
    assert protocol.validate(q) == []
    obj = json.loads((DATA / "unclocked_v1.json").read_text())
    _bump_dispatch_entry(obj["rounds"][2])
    with pytest.raises(ValidationError) as e:
        protocol.from_descriptor(obj)
    assert e.value.violations == [V1_MISMATCH]


def test_a_semi_unclocked_spec_without_a_plan_reads_back_from_its_descriptor():
    # stored with its rounds, whose equal unitaries must read as one reference per player
    q = dataclasses.replace(_unclocked())
    back = protocol.deserialize(protocol.serialize(q))
    assert protocol.protocol_equal(q, back)
    assert back.rounds[0].unitary is back.rounds[2].unitary
    assert simulator.run_ensemble(back).acceptance == simulator.run_ensemble(q).acceptance


@pytest.mark.parametrize("unclocked", [False, True], ids=["trace-form", "unclocked"])
def test_version_1_fixture_loads_and_equals_its_version_2_reading(unclocked):
    tf = random_trace_form(3, pairs=2)
    want = transforms.unclock(tf)[0] if unclocked else tf
    obj = json.loads((DATA / ("unclocked_v1.json" if unclocked else "trace_form_v1.json")).read_text())
    assert obj == v1_descriptor(want)  # the helper writes what the version-1 code wrote
    p = protocol.from_descriptor(obj)
    v2 = {**inline_matrices(protocol.to_descriptor(p)), "version": 2}
    assert set(v2) == {"version", "name", "initial_owner", "declared", "trace_plan"}
    assert protocol.protocol_equal(p, protocol.from_descriptor(v2))
    assert protocol.protocol_equal(p, want)


# the spec that each committed descriptor states, built in memory
_FIXTURE_SPECS = {
    "trace_form_v1": lambda: random_trace_form(3, pairs=2),
    "unclocked_v1": lambda: transforms.unclock(random_trace_form(3, pairs=2))[0],
    "unclocked_v2": _unclocked,
    "two_clean_v2": lambda: random_two_clean(1),
    "unclocked_v3": _unclocked,
    "two_clean_v3": lambda: random_two_clean(1),
}


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda path: path.stem)
def test_committed_descriptor_loads_and_equals_its_spec(path):
    want = _FIXTURE_SPECS[path.stem]()
    version = int(path.stem.rsplit("_v", 1)[1])
    obj = json.loads(path.read_text())
    assert obj.get("version", 1) == version
    # the helpers write what each earlier version's code wrote
    if version == 1:
        assert obj == v1_descriptor(want)
    elif version == 2:
        assert obj == {**inline_matrices(protocol.to_descriptor(want)), "version": 2}
    else:
        assert path.read_text() == protocol.serialize(want) + "\n"
    p = protocol.from_descriptor(obj)
    assert protocol.protocol_equal(p, want)
    assert protocol.protocol_equal(p, protocol.deserialize(protocol.serialize(p)))


@pytest.mark.parametrize(
    "version, error",
    [(0, "field 'version' is 0"), (4, "field 'version' is 4"), ("2", "field 'version' must be an integer"),
     (2.0, "field 'version' must be an integer"), (True, "field 'version' must be an integer")],
)
def test_descriptor_version_outside_1_to_3_is_a_parse_error(tmp_path, capsys, version, error):
    obj = protocol.to_descriptor(problems.ip2_clocked(1))
    assert obj["version"] == 3
    del obj["version"]  # read as version 1
    assert protocol.protocol_equal(problems.ip2_clocked(1), protocol.from_descriptor(obj))
    obj["version"] = version
    with pytest.raises(ParseError, match=error):
        protocol.from_descriptor(obj)
    desc = tmp_path / "p.json"
    desc.write_text(json.dumps(obj))
    assert cli.main(["run", "--descriptor", str(desc), "--inputs", '{"0": "1", "1": "1"}']) == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("depth", [250, 400, 2000])
def test_deeply_nested_references_are_a_parse_error(tmp_path, capsys, depth):
    """Round 0's unitary under ``depth`` adjoints, an even number, so the same
    unitary: 250 levels read and run, 400 overflow the reference reader and
    2,000 ``json.loads`` itself."""
    p = problems.ip2_clocked(1)
    obj = protocol.to_descriptor(p)
    inner = json.dumps(obj["rounds"][0]["unitary"])
    obj["rounds"][0]["unitary"] = "@"
    text = json.dumps(obj).replace('"@"', '{"kind":"adjoint","inner":' * depth + inner + "}" * depth)
    desc = tmp_path / "deep.json"
    desc.write_text(text)
    argv = ["run", "--descriptor", str(desc), "--inputs", '{"0": "1", "1": "1"}', "--csv"]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if depth == 250:
        want = simulator.run_density(p, {ALICE: "1", BOB: "1"}).acceptance
        assert code == 0 and f",{want!r},density," in captured.out
        return
    with pytest.raises(ParseError, match="references nest too deeply"):
        protocol.deserialize(text)
    assert code == 2 and captured.err == "error: descriptor: its references nest too deeply\n"


def test_from_descriptor_names_references_that_nest_too_deeply():
    # the 400 levels that overflow the reference reader, handed over as an object, not as text
    obj = protocol.to_descriptor(problems.ip2_clocked(1))
    for _ in range(400):
        obj["rounds"][0]["unitary"] = {"kind": "adjoint", "inner": obj["rounds"][0]["unitary"]}
    with pytest.raises(ParseError, match="descriptor: its references nest too deeply"):
        protocol.from_descriptor(obj)


def test_a_measurement_that_names_a_qubit_twice_is_a_violation(tmp_path, capsys):
    # a projector on qubits (1, 1) failed on density and read acceptance 1.0 on ensemble
    p = problems.ip2_clocked(1)
    proj = np.diag([0, 0, 0, 1])  # |11><11|
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(p, measurement=Measurement(qubits=(1, 1), projector=proj))
    assert e.value.violations == ["repeated measurement qubit 1"]
    obj = protocol.to_descriptor(p)
    obj["measurement"] = {"qubits": [1, 1], "projector": qstate.matrix_to_obj(proj)}
    desc = tmp_path / "twice.json"
    desc.write_text(json.dumps(obj))
    for backend in ("density", "ensemble"):
        argv = ["run", "--descriptor", str(desc), "--inputs", '{"0": "1", "1": "1"}', "--backend", backend]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: repeated measurement qubit 1\n"


def test_version_2_trace_form_stores_no_rounds():
    obj = json.loads((DATA / "trace_form_v1.json").read_text())
    obj["version"] = 2
    with pytest.raises(ParseError, match="field 'players' is not stored in a version-2 trace form"):
        protocol.from_descriptor(obj)


def _random_ref(rng, width: int, depth: int, kind=None):
    """A random unitary reference on ``width`` qubits, nested at most ``depth`` deep."""
    if kind is None:
        kinds = ["explicit", "generator"]
        if depth:
            kinds += ["adjoint", "composed"]
            if width > 1:
                kinds += ["controlled", "dispatch", "flag_state"]
        kind = kinds[int(rng.integers(len(kinds)))]
    d = 1 << width
    if kind == "explicit":
        return explicit(qstate.haar_unitary(d, rng))
    if kind == "generator":
        return table_ref(ALICE, {b: qstate.haar_unitary(d, rng) for b in "01"})
    if kind == "adjoint":
        return AdjointU(_random_ref(rng, width, depth - 1))
    if kind == "controlled":
        return ControlledU(_random_ref(rng, width - 1, depth - 1))
    if kind == "flag_state":
        return FlagStateU(_random_ref(rng, width - 1, depth - 1))

    def placed(positions):
        w = int(rng.integers(1, len(positions) + 1))
        pos = tuple(int(p) for p in rng.permutation(positions)[:w])
        return _random_ref(rng, w, depth - 1), pos

    if kind == "composed":
        return ComposedU(width, tuple(placed(range(width)) for _ in range(rng.integers(1, 4))))
    perm = rng.permutation(width)
    s = int(rng.integers(1, min(2, width - 1) + 1))
    selector, rest = tuple(int(p) for p in perm[:s]), perm[s:]
    branches = tuple(None if rng.random() < 0.3 else placed(rest) for _ in range(1 << s))
    return DispatchU(width, selector, branches, int(rng.integers(2)))


def _lowered_product(ref, targets, width: int, inputs) -> np.ndarray:
    out = np.eye(1 << width, dtype=complex)
    pieces = protocol.lower(ref, targets)
    for pc, m in zip(pieces, piece_matrices(pieces, inputs)):
        out = embed_operator(m, pc.controls + pc.qubits, width) @ out
    return out


def _nest(rng, width, depth):
    """An adjoint of a controlled composed reference."""
    return AdjointU(ControlledU(_random_ref(rng, width - 1, depth, "composed")))


def _seeded_ref(kind: str, seed: int):
    """A seeded reference of ``kind``, a shuffled target list and the register width."""
    rng = np.random.default_rng([seed, 7])
    width = int(rng.integers(2, 5))
    ref = _nest(rng, width, 2) if kind == "nest" else _random_ref(rng, width, 2, kind)
    if kind == "dispatch":
        # both increments over the seeds, whatever the random draw
        ref = DispatchU(ref.width, ref.selector, ref.branches, seed % 2)
    # the reference acts on a shuffled target list of the register
    return ref, tuple(int(q) for q in rng.permutation(width)), width


_KINDS = pytest.mark.parametrize(
    "kind",
    ["explicit", "generator", "adjoint", "controlled", "composed", "dispatch", "flag_state", "nest"],
)


@_KINDS
@pytest.mark.parametrize("seed", range(8))
def test_lowered_pieces_multiply_to_the_dense_oracle(kind, seed):
    ref, targets, width = _seeded_ref(kind, seed)
    for bit in "01":
        inputs = {ALICE: bit}
        want = embed_operator(dense_ref_oracle(ref, inputs, width), targets, width)
        got = _lowered_product(ref, targets, width, inputs)
        assert np.max(np.abs(got - want)) < 1e-12


@_KINDS
@pytest.mark.parametrize("seed", range(8))
def test_fused_operators_multiply_to_their_parts(kind, seed):
    # each lowered piece fused with its controls into one operator, run as an
    # ensemble step, and the steps of every piece in turn make the reference
    ref, targets, width = _seeded_ref(kind, seed)
    for bit in "01":
        inputs = {ALICE: bit}
        want = embed_operator(dense_ref_oracle(ref, inputs, width), targets, width)
        check_steps(protocol.lower(ref, targets), inputs, want)


def test_lowered_dispatch_with_identity_branches_and_an_increment():
    rng = np.random.default_rng(3)
    branch = (explicit(qstate.haar_unitary(4, rng)), (1, 2))
    ref = DispatchU(4, (3, 0), (None, branch, None, None), 1)
    targets = (2, 0, 3, 1)
    want = embed_operator(dense_ref_oracle(ref, None, 4), targets, 4)
    assert np.max(np.abs(_lowered_product(ref, targets, 4, None) - want)) < 1e-12
    # one conditioned branch, then the selector increment
    assert [len(pc.controls) for pc in protocol.lower(ref, targets)] == [2, 0]


def _one_round(ref, targets, qubits: int = 3) -> ProtocolSpec:
    return ProtocolSpec(
        name="one-round",
        players=2,
        layout=RegisterLayout(clean=1, mixed=qubits - 1),
        initial_owner=(ALICE,) * qubits,
        rounds=(RoundAction(ALICE, ref, targets, frozenset(), None),),
        measurement=Measurement(single_qubit=0),
    )


_X = explicit(qstate.X)


@pytest.mark.parametrize(
    "ref, targets, named",
    [
        (DispatchU(2, (0,), ((_X, (0,)), None)), (0, 1), "repeat a piece axis"),
        (ControlledU(_X), (), "ControlledU has no control qubit"),
        (ComposedU(3, ((_X, (0,)),)), (0, 1), "ComposedU width 3 != 2"),
        (DispatchU(2, (0,), ((_X, (1,)),)), (0, 1), "dispatch needs 2 branches"),
        (ComposedU(2, ((_X, (2,)),)), (0, 1), "piece axes (2,) repeat or leave a 2-qubit target list"),
    ],
    ids=["branch-on-selector", "control-without-qubit", "composed-width", "branch-count",
         "axis-out-of-range"],
)
def test_malformed_unitary_ref_is_a_named_violation_exiting_2(tmp_path, capsys, ref, targets, named):
    with pytest.raises(ValidationError) as e:
        _one_round(ref, targets)
    violations = e.value.violations
    assert len(violations) == 1
    assert violations[0].startswith("round 0: ") and named in violations[0]
    # the same round written into a valid one-round descriptor
    obj = protocol.to_descriptor(_one_round(_X, (0,)))
    matrices: dict = {}
    obj["rounds"][0].update(unitary=protocol._ref_to_obj(ref, matrices), targets=list(targets))
    obj["matrices"] = [qstate.matrix_to_obj(m) for _, m in matrices.values()]
    desc = tmp_path / "bad.json"
    desc.write_text(json.dumps(obj))
    assert cli.main(["run", "--descriptor", str(desc)]) == 2
    assert named in capsys.readouterr().err


# ------------------------------------------------ constructors freeze their fields


def test_a_composed_ref_keeps_its_factors_when_the_callers_list_changes():
    factors = [(_X, [0])]
    p = _one_round(ComposedU(1, factors), (0,), qubits=1)
    factors.append((_X, (0,)))  # X X would accept; the spec's one X never does
    factors[0][1].append(0)
    back = protocol.deserialize(protocol.serialize(p))
    assert simulator.run_density(p).acceptance == simulator.run_density(back).acceptance == 0.0
    assert protocol.protocol_equal(p, back)


def _nested_tuples(v) -> bool:
    """``v`` is a tuple, and so is every list-like entry at any depth."""
    return isinstance(v, tuple) and all(not isinstance(e, (list, tuple)) or _nested_tuples(e) for e in v)


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: DispatchU(2, [0], [None, [_X, [1]]]), ("selector", "branches")),
        (lambda: protocol.TracePlan(0, 1, [(_X, [2]), [_X, [2]]], [3], 1), ("pieces", "counter")),
    ],
    ids=["dispatch", "trace-plan"],
)
def test_ir_constructors_store_their_sequences_as_tuples(make, fields):
    obj = make()
    for name in fields:
        assert _nested_tuples(getattr(obj, name)), name


@pytest.mark.parametrize(
    "fields",
    [{"projector": qstate.basis_projector(0)}, {"single_qubit": 0, "qubits": (0,)}],
    ids=["projector-without-qubits", "single-qubit-with-qubits"],
)
def test_a_measurement_takes_a_qubit_list_with_a_projector_and_only_then(fields):
    with pytest.raises(DomainError) as e:
        Measurement(**fields)
    assert str(e.value) == "measurement needs either single_qubit, or a projector and its qubit list"


# ------------------------------------------------------ validate's named faults

_A_ROUND = RoundAction(ALICE, _X, (0,), frozenset(), None)
_B_ROUND = RoundAction(BOB, explicit(qstate.H), (1,), frozenset(), None)


def _semi_unclocked(rounds, **fields) -> ProtocolSpec:
    """Alice on q0 and Bob on q1, no messages; valid with rounds (_A_ROUND, _B_ROUND)."""
    base = dict(name="semi", players=2, layout=RegisterLayout(clean=1, mixed=1), initial_owner=(ALICE, BOB),
                measurement=Measurement(single_qubit=0), mode=protocol.SEMI_UNCLOCKED, channel=protocol.FIXED)
    return ProtocolSpec(rounds=rounds, **{**base, **fields})


@pytest.mark.parametrize(
    "rounds, fields, violations",
    [
        ((_A_ROUND, _B_ROUND), {"mode": "quantum"}, ["unknown mode 'quantum'"]),
        ((_A_ROUND, _B_ROUND), {"mode": protocol.CLOCKED, "channel": "wire"}, ["unknown channel 'wire'"]),
        ((_A_ROUND, _B_ROUND), {"measurement": Measurement(qubits=(0,), projector=np.eye(4))},
         ["measurement projector dim does not match its qubit list"]),
        ((), {}, ["semi-unclocked protocol has no rounds"]),
        ((_A_ROUND, _A_ROUND), {}, ["semi-unclocked rounds must alternate between exactly two players",
                                    "semi-unclocked rounds 0,1 have the same player"]),
        ((_A_ROUND, _B_ROUND, _B_ROUND), {}, ["semi-unclocked rounds 1,2 have the same player"]),
        ((_A_ROUND, _B_ROUND), {"channel": protocol.GHOSTED},
         ["semi-unclocked protocols require a fixed channel"]),
    ],
    ids=["mode", "channel", "projector-dim", "no-rounds", "one-player", "same-player", "ghosted"],
)
def test_validate_names_mode_channel_projector_and_semi_unclocked_faults(rounds, fields, violations):
    assert protocol.validate(_semi_unclocked((_A_ROUND, _B_ROUND))) == []
    with pytest.raises(ValidationError) as e:
        _semi_unclocked(rounds, **fields)
    assert e.value.violations == violations


# ------------------------------------------------------- the trace-form builder


def test_only_the_builder_attaches_a_plan_so_a_swapped_plan_builds_its_own_rounds():
    tf = _readme_chain()[2]
    pieces = list(tf.trace_plan.pieces)
    pieces[0], pieces[2] = pieces[2], pieces[0]
    swapped = dataclasses.replace(tf.trace_plan, pieces=pieces)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(tf, trace_plan=swapped)
    fields = {f.name: getattr(tf, f.name) for f in dataclasses.fields(tf) if f.init}
    with pytest.raises(TypeError, match="trace_plan"):
        ProtocolSpec(**fields, trace_plan=swapped)
    built = protocol.trace_form_spec(swapped, tf.initial_owner, tf.name)
    back = protocol.deserialize(protocol.serialize(built))
    for inp, _ in problems.ip2_inputs(1):
        want = simulator.run_trace(built, inp).acceptance
        assert simulator.run_density(built, inp).acceptance == pytest.approx(want, abs=qstate.TOL)
        assert simulator.run_density(back, inp).acceptance == pytest.approx(want, abs=qstate.TOL)


def test_a_plan_control_out_of_range_is_a_validation_error_naming_the_plan():
    tf = _readme_chain()[2]
    total = len(tf.initial_owner)
    plan = dataclasses.replace(tf.trace_plan, control=total)
    with pytest.raises(ValidationError) as e:
        protocol.trace_form_spec(plan, tf.initial_owner, "bad")
    assert e.value.violations == [f"trace_plan: control {total} out of range"]


def test_replace_on_a_trace_form_gives_the_plain_spec_of_its_rounds():
    tf = _readme_chain()[2]
    q = dataclasses.replace(tf, name="plain")
    assert q.trace_plan is None and q.rounds is tf.rounds
    desc = protocol.to_descriptor(q)
    assert "trace_plan" not in desc and len(desc["rounds"]) == len(tf.rounds)
    for inp, _ in problems.ip2_inputs(1):
        assert simulator.run_density(q, inp).acceptance == simulator.run_density(tf, inp).acceptance
    # validating the trace form again keeps the plan's pieces beside the rounds'
    assert protocol.validate(tf) == [] and len(protocol.lowered(tf)[1]) == len(tf.trace_plan.pieces)
