import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oneclean import problems, protocol, transforms
from oneclean.errors import DomainError, ParseError
from oneclean.protocol import (
    ALICE,
    BOB,
    Measurement,
    ProtocolSpec,
    RegisterLayout,
    RoundAction,
    explicit,
)

from helpers import random_trace_form, random_two_clean


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
    bad = ProtocolSpec(
        name="bad",
        players=2,
        layout=base.layout,
        initial_owner=base.initial_owner,
        rounds=tuple(rounds),
        measurement=base.measurement,
    )
    assert any("owned by player" in v for v in protocol.validate(bad))


def test_validate_semi_unclocked_message_mismatch():
    p = random_trace_form(0, pairs=2)
    uc, _ = __import__("oneclean.transforms", fromlist=["unclock"]).unclock(p)
    rounds = list(uc.rounds)
    r = rounds[1]
    smaller = frozenset(list(sorted(r.message))[:-1])
    rounds[1] = RoundAction(r.player, r.unitary, r.targets, smaller, r.to)
    bad = ProtocolSpec(
        name="bad",
        players=2,
        layout=uc.layout,
        initial_owner=uc.initial_owner,
        rounds=tuple(rounds),
        measurement=uc.measurement,
        mode=protocol.SEMI_UNCLOCKED,
        channel=protocol.FIXED,
        trace_plan=uc.trace_plan,
    )
    assert any("message sets differ" in v for v in protocol.validate(bad))


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


def test_serialize_round_trip_exact():
    from oneclean.transforms import unclock

    protos = [
        problems.ip2_clocked(2),
        problems.ip2_one_clean(2),
        problems.middle_protocol(4, "one_clean"),
        problems.abc_protocol(2),
        random_trace_form(3, pairs=2),
    ]
    protos.append(unclock(protos[-1])[0])
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
    # perturb one explicit matrix entry by 1e-3
    mat = obj["rounds"][0]["unitary"]["factors"][0]["ref"]["matrix"]
    mat["entries"][0][0][0] += 1e-3
    q = protocol.from_descriptor(obj)
    assert any("not unitary" in v for v in protocol.validate(q))


def test_ownership_schedule_single_owner_per_qubit():
    p = problems.ip2_one_clean(2)
    for owners in protocol.ownership_schedule(p):
        assert len(owners) == p.layout.total
        assert all(o in (ALICE, BOB) for o in owners)


def test_cost_report_csv():
    report = protocol.cost_report(problems.ip2_one_clean(4))
    assert report.CSV_HEADER == "communication,bias,q1_cost,pp_cost,qubits"
    assert report.communication == 9
    assert report.q1_cost == 576
    assert report.csv_row().startswith("9,1/8,576,")


def test_validate_rejects_bad_bias():
    p = problems.ip2_clocked(1)
    bad = ProtocolSpec(
        name="bad-eps",
        players=2,
        layout=p.layout,
        initial_owner=p.initial_owner,
        rounds=p.rounds,
        measurement=p.measurement,
        declared_eps=Fraction(3, 4),
    )
    assert any("bias" in v for v in protocol.validate(bad))


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


def _set_projector_entry(d):
    d["measurement"]["projector"]["entries"][0][0][0] += 0.25


@pytest.mark.parametrize(
    "build, mutate",
    [
        (_unclocked, lambda d: _bump_dispatch_entry(d["rounds"][0])),
        (lambda: problems.ip2_clocked(2), _set_generator_param),
        (_unclocked, lambda d: d["trace_plan"]["pieces"][0]["targets"].reverse()),
        (lambda: problems.ip2_one_clean(2), lambda d: d["declared"].update(eps="1/16")),
        (lambda: random_two_clean(1), _set_projector_entry),
    ],
    ids=["dispatch-entry", "generator-param", "plan-target", "declared-eps", "projector-entry"],
)
def test_protocol_equal_sees_a_single_changed_field(build, mutate):
    p = build()
    assert protocol.protocol_equal(p, protocol.deserialize(protocol.serialize(p)))
    obj = json.loads(protocol.serialize(p))
    mutate(obj)
    assert not protocol.protocol_equal(p, protocol.from_descriptor(obj))


def test_deserialized_unclocked_spec_validates_and_flags_a_changed_round():
    uc = _unclocked()
    q = protocol.deserialize(protocol.serialize(uc))
    assert q.rounds[0].unitary is not q.rounds[2].unitary
    assert protocol.validate(q) == []
    obj = json.loads(protocol.serialize(uc))
    _bump_dispatch_entry(obj["rounds"][2])
    assert protocol.validate(protocol.from_descriptor(obj)) == [
        "semi-unclocked round 2 unitary differs from earlier rounds"
    ]
