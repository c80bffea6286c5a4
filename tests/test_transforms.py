import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oneclean import problems, protocol, qstate, simulator, transforms
from oneclean.errors import DomainError, ShapeError
from oneclean.protocol import (
    ALICE,
    BOB,
    Measurement,
    ProtocolSpec,
    RegisterLayout,
    RoundAction,
    explicit,
)

from helpers import (
    bit_inputs,
    random_projector,
    random_protocol,
    random_sq_base,
    random_trace_form,
    random_two_clean,
    table_ref,
    toy_rotation_base,
)

TOL = 1e-9


# ---------------------------------------------------------------------- k1


def test_k1_on_ip2_matches_builtin_numbers():
    base = problems.ip2_clocked(2)
    out, cert = transforms.k_to_one_clean(base)
    assert cert.predicted_bias == Fraction(1, 8)
    assert (cert.acceptance_offset, cert.acceptance_slope) == (Fraction(3, 8), Fraction(1, 4))
    assert protocol.communication_cost(out) == cert.communication_after == 5
    eps = simulator.measure_bias(out, problems.ip2_inputs(2), out.declared_p)
    assert eps == pytest.approx(1 / 8, abs=TOL)


def test_k1_k_equals_one_bias():
    base = toy_rotation_base(math.pi / 2, 0.0)  # acceptances 0 and 1
    out, cert = transforms.k_to_one_clean(base)
    assert cert.acceptance_slope == Fraction(1, 2)
    a0 = simulator.run_density(out, {ALICE: "0", BOB: ""}).acceptance
    a1 = simulator.run_density(out, {ALICE: "1", BOB: ""}).acceptance
    assert a0 == pytest.approx(0.25, abs=TOL)
    assert a1 == pytest.approx(0.75, abs=TOL)


@pytest.mark.parametrize("seed", range(6))
def test_k1_random_two_clean_affine_map(seed):
    base = random_two_clean(seed)
    out, cert = transforms.k_to_one_clean(base)
    assert protocol.validate(out) == []
    for inp, _label in bit_inputs():
        a = simulator.run_density(base, inp).acceptance
        b = simulator.run_density(out, inp).acceptance
        assert b == pytest.approx(3 / 8 + a / 4, abs=TOL)


def test_k1_rejects_no_clean():
    p = ProtocolSpec(
        name="none",
        players=2,
        layout=RegisterLayout(clean=0, mixed=1),
        initial_owner=(ALICE,),
        rounds=(RoundAction(ALICE, explicit(qstate.I2), (0,), frozenset(), None),),
        measurement=Measurement(single_qubit=0),
    )
    with pytest.raises(DomainError):
        transforms.k_to_one_clean(p)


# ------------------------------------------------------- sq-measure (U_S)


def _projector_base(proj, qubits=3, seed=0):
    rng = np.random.default_rng(seed)
    return ProtocolSpec(
        name="projbase",
        players=2,
        layout=RegisterLayout(clean=1, mixed=qubits - 1),
        initial_owner=(ALICE,) * qubits,
        rounds=(
            RoundAction(
                ALICE,
                explicit(qstate.haar_unitary(1 << qubits, rng)),
                tuple(range(qubits)),
                frozenset(range(qubits)),
                BOB,
            ),
            RoundAction(
                BOB,
                explicit(qstate.haar_unitary(1 << qubits, rng)),
                tuple(range(qubits)),
                frozenset(),
                None,
            ),
        ),
        measurement=Measurement(qubits=tuple(range(qubits)), projector=proj),
    )


def test_sq_measure_accept_all_and_reject_all():
    accept = _projector_base(np.eye(8, dtype=complex))
    out = transforms.projective_to_single_qubit(accept)
    assert out.measurement.single_qubit == 0
    assert simulator.run_density(out).acceptance == pytest.approx(1.0, abs=TOL)
    reject = _projector_base(np.zeros((8, 8), dtype=complex))
    out = transforms.projective_to_single_qubit(reject)
    assert simulator.run_density(out).acceptance == pytest.approx(0.0, abs=TOL)


@pytest.mark.parametrize("seed", range(5))
def test_sq_measure_preserves_random_rank3_projector(seed):
    rng = np.random.default_rng(seed)
    base = _projector_base(random_projector(3, 3, rng), seed=seed)
    out = transforms.projective_to_single_qubit(base)
    assert protocol.validate(out) == []
    a = simulator.run_density(base).acceptance
    b = simulator.run_density(out).acceptance
    assert b == pytest.approx(a, abs=TOL)


# ----------------------------------------------------------- trace form


def _two_clean_sq_base(bob_unitary):
    """2-clean base measuring qubit 0 (Bob's) in the computational basis."""
    return ProtocolSpec(
        name="sqbase",
        players=2,
        layout=RegisterLayout(clean=2, mixed=0),
        initial_owner=(BOB, ALICE),
        rounds=(
            RoundAction(ALICE, explicit(qstate.I2), (1,), frozenset({1}), BOB),
            RoundAction(BOB, explicit(bob_unitary), (0,), frozenset(), None),
        ),
        measurement=Measurement(single_qubit=0),
    )


def test_trace_form_formula_corner_cases():
    # base acceptance 1 -> p0 = 5/8
    p1, cert = transforms.to_trace_form(_two_clean_sq_base(qstate.I2))
    assert cert.acceptance_slope == Fraction(1, 8)
    assert simulator.run_trace(p1).acceptance == pytest.approx(5 / 8, abs=TOL)
    # base acceptance 1/2 -> p0 = 9/16
    p2, _ = transforms.to_trace_form(_two_clean_sq_base(qstate.H))
    assert simulator.run_trace(p2).acceptance == pytest.approx(9 / 16, abs=TOL)


@pytest.mark.parametrize("seed", range(6))
def test_trace_form_matches_density_on_random_bases(seed):
    base = random_sq_base(seed, rounds=2 + seed % 2)
    tf, cert = transforms.to_trace_form(base)
    assert protocol.validate(tf) == []
    assert tf.layout.total <= 10
    a = simulator.run_density(base).acceptance
    td = simulator.run_density(tf).acceptance
    tt = simulator.run_trace(tf).acceptance
    assert td == pytest.approx(0.5 + a / 8, abs=TOL)
    assert tt == pytest.approx(0.5 + a / 8, abs=TOL)
    assert protocol.communication_cost(tf) == cert.communication_after


def test_trace_form_chain_formula_with_bias():
    base = toy_rotation_base(2 * math.pi / 3, math.pi / 5)
    k1, _ = transforms.k_to_one_clean(base)
    sq = transforms.projective_to_single_qubit(k1)
    tf, _ = transforms.to_trace_form(sq)
    for bit in ("0", "1"):
        inp = {ALICE: bit, BOB: ""}
        a = simulator.run_density(base, inp).acceptance
        # chain: k=1 gives a' = 1/4 + a/2, then p0 = 1/2 + a'/8
        want = 0.5 + (0.25 + a / 2) / 8
        assert simulator.run_trace(tf, inp).acceptance == pytest.approx(want, abs=TOL)
        assert simulator.run_density(tf, inp).acceptance == pytest.approx(want, abs=TOL)


def test_trace_form_needs_single_qubit_measurement():
    with pytest.raises(ShapeError):
        transforms.to_trace_form(problems.ip2_clocked(1))


def test_trace_form_ip2_chain_paper_formula():
    base = problems.ip2_clocked(1)
    k1, _ = transforms.k_to_one_clean(base)
    sq = transforms.projective_to_single_qubit(k1)
    tf, _ = transforms.to_trace_form(sq)
    acc = simulator.run_trace(tf, {ALICE: "1", BOB: "1"}).acceptance
    assert acc == pytest.approx(0.5 + 1 / 16 + 0.5 / 32, abs=TOL)


def test_trace_form_builds_each_spec_once(monkeypatch):
    sq = transforms.projective_to_single_qubit(transforms.k_to_one_clean(problems.ip2_clocked(1))[0])
    calls = []
    validate = protocol.validate
    monkeypatch.setattr(protocol, "validate", lambda p: calls.append(p.name) or validate(p))
    transforms.to_trace_form(sq)
    # the courier schedule builds no spec of its own: only the trace form is built
    assert calls == [sq.name + "+trace"]


def test_trace_form_runs_a_players_consecutive_rounds_in_one_slot():
    sq = transforms.projective_to_single_qubit(transforms.k_to_one_clean(problems.ip2_clocked(1))[0])
    tf, _ = transforms.to_trace_form(sq)
    assert len(tf.rounds) == 16
    # Alice's k1 flag round and her first load share courier slot 1, ahead of
    # the SWAP that moves her first message qubit into the courier
    pieces = protocol.lowered(tf)[1][1]
    leaves = [pc.leaf for pc in pieces]
    assert [getattr(leaf, "name", None) for leaf in leaves] == [None, "ip2_alice", None]
    assert np.array_equal(leaves[0].matrix, qstate.flip_if_zero(2))
    assert np.array_equal(leaves[2].matrix, qstate.SWAP2)
    assert tf.trace_plan.channel in pieces[2].qubits


def _swap_onto_bobs_qubit(theta: float) -> ProtocolSpec:
    """Alice rotates her clean q0 by ``theta`` and sends it; Bob SWAPs it onto his
    mixed q1 and measures q1, so the measurer owns no clean qubit."""
    c, s = math.cos(theta), math.sin(theta)
    return ProtocolSpec(
        name="swap-measure",
        players=2,
        layout=RegisterLayout(clean=1, mixed=1),
        initial_owner=(ALICE, BOB),
        rounds=(
            RoundAction(ALICE, explicit(np.array([[c, -s], [s, c]])), (0,), frozenset({0}), BOB),
            RoundAction(BOB, explicit(qstate.SWAP2), (0, 1), frozenset(), None),
        ),
        measurement=Measurement(single_qubit=1),
    )


@pytest.mark.parametrize(
    "backend", ["trace", "density", "ensemble", "certificate"],
)
def test_trace_form_when_the_measurer_owns_no_clean_qubit(backend):
    p = _swap_onto_bobs_qubit(0.7)
    tf, cert = transforms.to_trace_form(p)
    # no projector opens the measurer's piece: it is the identity on the courier
    assert tf.trace_plan.pieces[0][1] == (tf.trace_plan.channel,)
    if backend == "certificate":
        acc = float(cert.predict(simulator.run_density(p).acceptance))
    else:
        acc = simulator.run(tf, backend=backend).acceptance
    assert acc == pytest.approx(0.64624589286253, abs=TOL)  # 1/2 + cos^2(0.7)/4


# --------------------------------------------------------------- unclock


@pytest.mark.parametrize("pairs", [2, 4, 8])
def test_unclock_counter_start_invariance(pairs):
    tf = random_trace_form(pairs, pairs=pairs)
    uc, cert = transforms.unclock(tf)
    assert protocol.validate(uc) == []
    assert uc.mode == protocol.SEMI_UNCLOCKED
    ref = simulator.run_trace(tf).acceptance
    for j in range(pairs):
        assert simulator.run_trace(uc, counter_start=j).acceptance == pytest.approx(
            ref, abs=TOL
        )
    # density with the counter pinned to each start, plus fully mixed
    w = len(uc.trace_plan.counter)
    for j in range(pairs):
        pin = {
            q: (j >> (w - 1 - i)) & 1 for i, q in enumerate(uc.trace_plan.counter)
        }
        assert simulator.run_density(uc, pin=pin).acceptance == pytest.approx(ref, abs=TOL)
    assert simulator.run_density(uc).acceptance == pytest.approx(ref, abs=TOL)
    assert protocol.communication_cost(uc) == cert.communication_after
    assert cert.communication_after == len(uc.rounds) * (2 + w)


def test_unclock_requires_power_of_two_pairs():
    rng = np.random.default_rng(0)
    owners = (BOB, BOB, ALICE, BOB)
    pieces = []
    for i in range(6):  # 3 pairs: not a power of two
        tg = (1, 3) if i % 2 == 0 else (2, 3)
        pieces.append((explicit(qstate.haar_unitary(4, rng)), tg))
    tf = protocol.trace_form_spec(protocol.TracePlan(0, 3, pieces), owners, "hadamard-test")
    with pytest.raises(ShapeError):
        transforms.unclock(tf)


# ---------------------------------------------------------------- lemma1


def test_lemma1_middle_values():
    base = problems.middle_protocol(4)
    out, cert = transforms.two_round_one_clean(base)
    assert cert.acceptance_slope == Fraction(1, 8)  # 1/2^k at k = log n + 1 = 3
    acc = simulator.run_density(out, {ALICE: "1100", BOB: "1010"}).acceptance
    assert acc == pytest.approx(1 / 32, abs=TOL)  # 0.25 / 8 = 2 t^2 / n^3
    acc0 = simulator.run_density(out, {ALICE: "1100", BOB: "1100"}).acceptance
    assert acc0 == pytest.approx(0.0, abs=TOL)


def _random_two_round(seed, k: int = 2, single: bool = False):
    """Lemma 1's shape on k clean qubits: Alice's input-indexed unitary and
    message, Bob's reply, Alice's last unitary and her measurement."""
    rng = np.random.default_rng(seed)
    qubits, d = tuple(range(k)), 1 << k
    u1 = {b: qstate.haar_unitary(d, rng) for b in ("0", "1")}
    return ProtocolSpec(
        name=f"tworound({seed})",
        players=2,
        layout=RegisterLayout(clean=k, mixed=0),
        initial_owner=(ALICE,) * k,
        rounds=(
            RoundAction(ALICE, table_ref(ALICE, u1), qubits, frozenset(qubits), BOB),
            RoundAction(BOB, explicit(qstate.haar_unitary(d, rng)), qubits, frozenset(qubits), ALICE),
            RoundAction(ALICE, explicit(qstate.haar_unitary(d, rng)), qubits, frozenset(), None),
        ),
        measurement=Measurement(single_qubit=0) if single else
        Measurement(qubits=qubits, projector=random_projector(k, k, rng)),
    )


@pytest.mark.parametrize("seed", range(6))
def test_lemma1_random_two_round_quarter_scaling(seed):
    base = _random_two_round(seed)
    out, cert = transforms.two_round_one_clean(base)
    assert protocol.validate(out) == []
    assert cert.communication_after == protocol.communication_cost(base) == 4
    for inp, _ in bit_inputs():
        a = simulator.run_density(base, inp).acceptance
        b = simulator.run_density(out, inp).acceptance
        assert b == pytest.approx(a / 4, abs=TOL)


@pytest.mark.parametrize("k, targets", [(2, (1, 0)), (3, (2, 0, 1))])
def test_lemma1_lifts_a_first_unitary_on_clean_qubits_out_of_index_order(k, targets):
    base = _random_two_round(0, k)
    first = RoundAction(ALICE, base.rounds[0].unitary, targets, base.rounds[0].message, BOB)
    base = ProtocolSpec(
        name="out-of-order", players=2, layout=base.layout, initial_owner=base.initial_owner,
        rounds=(first,) + base.rounds[1:], measurement=base.measurement,
    )
    out, _ = transforms.two_round_one_clean(base)
    assert out.rounds[0].unitary.inner.factors[0][1] == targets  # W1 lifted by its positions
    for inp, _ in bit_inputs():
        a = simulator.run_density(base, inp).acceptance
        assert simulator.run_density(out, inp).acceptance == pytest.approx(a / (1 << k), abs=TOL)


def test_lemma1_shape_errors():
    with pytest.raises(ShapeError):
        transforms.two_round_one_clean(problems.ip2_clocked(2))
    # Alice local, then Alice sends the clean qubit, then Bob sends it back
    silent_first = ProtocolSpec(
        name="silent-first",
        players=2,
        layout=RegisterLayout(clean=1, mixed=0),
        initial_owner=(ALICE,),
        rounds=(
            RoundAction(ALICE, explicit(qstate.H), (0,), frozenset(), None),
            RoundAction(ALICE, explicit(qstate.X), (0,), frozenset({0}), BOB),
            RoundAction(BOB, explicit(qstate.H), (0,), frozenset({0}), ALICE),
        ),
        measurement=Measurement(single_qubit=0),
    )
    with pytest.raises(ShapeError, match="first round must send the k clean qubits"):
        transforms.two_round_one_clean(silent_first)


# ------------------------------------------------------------- pp-oneway


def _pp_toy(c, eps):
    """T(x) = x; bias sign = parity of x1 xor <x', y'> xor y1."""
    t_map = {format(v, f"0{c}b"): format(v, f"0{c}b") for v in range(1 << c)}
    btable = {}
    for yv in range(1 << c):
        y = format(yv, f"0{c}b")
        row = {}
        for zv in range(1 << c):
            z = format(zv, f"0{c}b")
            sign_bit = int(z[0]) ^ int(y[0])
            if c > 1:
                sign_bit ^= sum(int(a) & int(b) for a, b in zip(z[1:], y[1:])) % 2
            row[z] = str(Fraction(1, 2) + (-eps if sign_bit else eps))
        btable[y] = row
    return t_map, btable


@pytest.mark.parametrize("c,eps", [(1, Fraction(1, 4)), (2, Fraction(1, 4)), (2, Fraction(3, 8))])
def test_pp_oneway_acceptance(c, eps):
    t_map, btable = _pp_toy(c, eps)
    p, cert = transforms.pp_to_oneway(t_map, btable, c=c, eps=eps)
    assert protocol.validate(p) == []
    assert protocol.communication_cost(p) == c + 1
    assert cert.q1_bound == Fraction(c + 1) * (1 << (2 * c)) / eps**2
    for xv in range(1 << c):
        for yv in range(1 << c):
            x, y = format(xv, f"0{c}b"), format(yv, f"0{c}b")
            acc = simulator.run_density(p, {ALICE: x, BOB: y}).acceptance
            b = Fraction(btable[x][y])
            assert acc == pytest.approx(float(Fraction(1, 2) + (b - Fraction(1, 2)) / (1 << c)), abs=TOL)


def test_pp_oneway_zero_bias_gives_half():
    c = 1
    t_map = {"0": "0", "1": "1"}
    btable = {y: {z: "1/2" for z in "01"} for y in "01"}
    p, cert = transforms.pp_to_oneway(t_map, btable, c=c, eps=Fraction(0))
    for x in "01":
        for y in "01":
            acc = simulator.run_density(p, {ALICE: x, BOB: y}).acceptance
            assert acc == pytest.approx(0.5, abs=TOL)
    assert cert.q1_bound is None


def test_pp_oneway_rejects_unbalanced_table():
    t_map = {"0": "0", "1": "1"}
    btable = {y: {"0": "3/4", "1": "3/4"} for y in "01"}
    with pytest.raises(DomainError, match="balanced"):
        transforms.pp_to_oneway(t_map, btable, c=1, eps=Fraction(1, 4))


def test_pp_oneway_rejects_nondeterministic_map():
    btable = {y: {"0": "3/4", "1": "1/4"} for y in "01"}
    with pytest.raises(ShapeError):
        transforms.pp_to_oneway({"0": ["0", "1"], "1": "1"}, btable, c=1, eps=Fraction(1, 4))


# ---------------------------------------------------------- composition


def test_composition_chain_bias():
    base = toy_rotation_base(2 * math.pi / 3, math.pi / 6)
    k1, c1 = transforms.k_to_one_clean(base)
    sq = transforms.projective_to_single_qubit(k1)
    tf, c2 = transforms.to_trace_form(sq)
    a0 = simulator.run_density(base, {ALICE: "0", BOB: ""}).acceptance
    a1 = simulator.run_density(base, {ALICE: "1", BOB: ""}).acceptance
    eps_base = simulator.measure_bias(base, bit_inputs(), (a0 + a1) / 2)
    # the reference point composes through the cert chain: p -> 1/4 + p/2 -> 1/2 + a'/8
    ref = 0.5 + (0.25 + ((a0 + a1) / 2) / 2) / 8
    eps_out = simulator.measure_bias(tf, bit_inputs(), ref)
    assert eps_out == pytest.approx(eps_base / 16, abs=TOL)  # 1/2^(k+3) at k=1
    # and survives unclocking, with the exact constant intact
    uc, c3 = transforms.unclock(tf)
    assert c3.acceptance_slope == 1 and c3.acceptance_offset == 0
    eps_uc = simulator.measure_bias(uc, bit_inputs(), ref, backend="trace")
    assert eps_uc == pytest.approx(eps_base / 16, abs=TOL)


def test_k1_and_sq_measure_reject_a_semi_unclocked_protocol():
    # both add a round, which would break the one-unitary-per-player shape
    uc, _ = transforms.unclock(transforms.to_trace_form(random_sq_base(3))[0])
    with pytest.raises(ShapeError, match="clocked"):
        transforms.k_to_one_clean(uc)
    with pytest.raises(ShapeError, match="clocked"):
        transforms.projective_to_single_qubit(uc)


# ------------------------------------------------- random pass sequences

PASSES = ("k1", "sq-measure", "trace-form", "unclock")


def _apply_pass(name: str, p: ProtocolSpec):
    """(output, cert) of one pass; sq-measure preserves acceptance and has no cert."""
    if name == "k1":
        return transforms.k_to_one_clean(p)
    if name == "sq-measure":
        return transforms.projective_to_single_qubit(p), None
    if name == "trace-form":
        return transforms.to_trace_form(p)
    return transforms.unclock(p)


def _legal_passes(p: ProtocolSpec) -> dict:
    """name -> (output, cert) for each pass that applies to p within 10 qubits."""
    out = {}
    for name in PASSES:
        try:
            q, cert = _apply_pass(name, p)
        except (ShapeError, DomainError):
            continue  # the pass does not apply to this protocol's shape
        if q.layout.total <= 10:  # keeps ensemble(all) cheap
            out[name] = (q, cert)
    return out


@given(st.integers(0, 10**6), st.integers(1, 2), st.booleans(), st.data())
@settings(max_examples=30, deadline=None)
def test_random_pass_sequences_agree_across_backends_and_certs(seed, qubits, single, data):
    if data.draw(st.booleans()):  # through lemma1 first: a random protocol seldom has its shape
        base = _random_two_round(seed, qubits, single)
        p, cert = transforms.two_round_one_clean(base)
        stages = [(p, cert)]
    else:
        base = random_protocol(seed, qubits, clean=1 + seed % qubits, single_qubit=single)
        p, stages = base, []
    for _ in range(data.draw(st.integers(1, 4))):
        legal = _legal_passes(p)
        if not legal:
            break
        # half the time take the latest legal stage, which the size cap makes rare
        if data.draw(st.booleans()):
            name = max(legal, key=PASSES.index)
        else:
            name = data.draw(st.sampled_from(sorted(legal)))
        p, cert = legal[name]
        if cert is not None:
            stages.append((p, cert))
    inp, _ = bit_inputs()[seed % 2]
    want = simulator.run_density(base, inp).acceptance
    for out, cert in stages:
        # the cert states what its output spec declares
        assert cert.communication_after == protocol.communication_cost(out)
        assert cert.reference_after == out.declared_p
        assert cert.predicted_bias == out.declared_eps
        want = cert.predict(want)
    d = simulator.run_density(p, inp).acceptance
    assert abs(d - want) < TOL
    assert abs(simulator.run_ensemble(p, inp, sample="all").acceptance - d) < TOL
    if p.trace_plan is not None:
        assert abs(simulator.run_trace(p, inp).acceptance - d) < TOL
    # the final spec survives its descriptor, a trace form's plan included
    q = protocol.deserialize(protocol.serialize(p))
    assert protocol.protocol_equal(p, q)
    assert simulator.run_density(q, inp).acceptance == d
