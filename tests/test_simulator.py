import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oneclean import problems, protocol, qstate, simulator, transforms
from oneclean.errors import BackendLimitError, DomainError, NumericalIntegrityError, ShapeError
from oneclean.protocol import (
    ALICE,
    BOB,
    ComposedU,
    ControlledU,
    GenU,
    Measurement,
    ProtocolSpec,
    RegisterLayout,
    RoundAction,
    explicit,
    register_generator,
)

from helpers import (
    check_fusion,
    density_oracle,
    exact_amplify,
    random_protocol,
    random_trace_form,
    random_two_clean,
    ring_plan_oracle,
    toy_rotation_base,
)

TOL = 1e-9


def test_ip2_clocked_accepts_zero_with_certainty():
    p = problems.ip2_clocked(2)
    rep = simulator.run_density(p, {ALICE: "11", BOB: "11"})  # IP = 0
    assert 1.0 - rep.acceptance == pytest.approx(1.0, abs=TOL)  # P(output 0) = 1


def test_ip2_one_clean_correct_answer_five_eighths():
    p = problems.ip2_one_clean(2)
    for inp, label in problems.ip2_inputs(2):
        acc = simulator.run_density(p, inp).acceptance
        correct = acc if label == 1 else 1.0 - acc
        assert correct == pytest.approx(5 / 8, abs=TOL)


def test_all_identity_protocol_accepts():
    p = ProtocolSpec(
        name="idle",
        players=2,
        layout=RegisterLayout(clean=1, mixed=1),
        initial_owner=(ALICE, ALICE),
        rounds=(RoundAction(ALICE, explicit(qstate.I2), (0,), frozenset(), None),),
        measurement=Measurement(single_qubit=0),
    )
    assert simulator.run_density(p).acceptance == pytest.approx(1.0, abs=TOL)


def test_density_backend_limit(monkeypatch):
    # the unclocked IP2 n = 1 chain: lowered into pieces of at most 8 qubits,
    # its width-12 dispatch rounds still plan a 2^32-element ring
    uc, _ = transforms.unclock(_trace_chain(problems.ip2_clocked(1)))

    def no_resolve(*args):
        raise AssertionError("a round was resolved before the byte bound was checked")

    monkeypatch.setattr(simulator, "resolve_ref", no_resolve)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(BackendLimitError, match="TRACE_MAX_BYTES") as info:
            simulator.run_density(uc, {ALICE: "1", BOB: "1"})
        wall = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"{simulator.TRACE_MAX_BYTES} bytes" in str(info.value)
    assert wall < 2.0
    assert peak < 16 << 20


@pytest.mark.parametrize("seed", range(30))
def test_run_density_blocks_match_two_sided_evolution(seed, monkeypatch):
    # seeds 0-29 cover every (qubits 3-7, clean 1-3, measurement kind) pairing
    qubits, clean = 3 + seed % 5, 1 + seed % 3
    p = random_protocol(seed, qubits, clean, single_qubit=seed % 2 == 0)
    rng = np.random.default_rng(1000 + seed)
    # pins may land on clean qubits too, which stay |0>
    pin = {int(q): int(rng.integers(2)) for q in rng.permutation(qubits)[: rng.integers(qubits)]}
    inp = {ALICE: "01"[seed % 2], BOB: ""}
    want = density_oracle(p, inp, pin)
    assert abs(simulator.run_density(p, inp, pin=pin).acceptance - want) < TOL
    # ensemble's column blocks, one column per block and three per block:
    # 2^f columns always leave a partial last block
    for cols in (1, 3):
        monkeypatch.setattr(simulator, "ENSEMBLE_BLOCK_BYTES", cols * (16 << qubits))
        assert abs(simulator.run_ensemble(p, inp, pin=pin).acceptance - want) < TOL


def _block_arrays(monkeypatch, n: int) -> list:
    """Records every whole column block (n qubit axes and a column axis)
    that ``run_ensemble`` hands to ``qstate._contract``."""
    seen, contract = [], qstate._contract

    def recording(t, u, axes):
        if t.ndim == n + 1:
            seen.append((t.dtype, t.shape[-1]))
        return contract(t, u, axes)

    monkeypatch.setattr(qstate, "_contract", recording)
    return seen


def _real_specs():
    k1, _ = transforms.k_to_one_clean(problems.ip2_clocked(2))
    rot, _ = transforms.k_to_one_clean(toy_rotation_base(2 * math.pi / 3, math.pi / 5))
    return [
        (problems.ip2_one_clean(2), {ALICE: "11", BOB: "01"}),
        (k1, {ALICE: "10", BOB: "11"}),
        (transforms.projective_to_single_qubit(rot), {ALICE: "1", BOB: ""}),
    ]


@pytest.mark.parametrize("which", range(3), ids=["ip2-one-clean", "ip2-k1", "rotation-k1-sq"])
def test_run_ensemble_real_blocks_match_two_sided_evolution(which, monkeypatch):
    # real leaves and projector: float64 blocks hold 8 bytes a column entry,
    # and 2^f columns leave a partial last block of 3
    p, inp = _real_specs()[which]
    n, f = p.layout.total, p.layout.mixed
    want = density_oracle(p, inp)
    for cols in (1, 3):
        monkeypatch.setattr(simulator, "ENSEMBLE_BLOCK_BYTES", cols * (8 << n))
        seen = _block_arrays(monkeypatch, n)
        assert abs(simulator.run_ensemble(p, inp).acceptance - want) < TOL
        assert {dtype for dtype, _ in seen} == {np.dtype(float)}
        assert {c for _, c in seen} == {cols, (1 << f) % cols or cols}


@pytest.mark.parametrize("phase", [-1, 1j], ids=["real", "one-complex-leaf"])
def test_run_ensemble_keeps_complex_blocks_for_one_complex_leaf(phase, monkeypatch):
    # four real rounds and a diag(1, phase): S = diag(1, i) alone is complex
    gate = np.diag([1, phase]).astype(complex)
    rounds = [(qstate.H, (0,)), (qstate.CNOT, (0, 1)), (gate, (1,)), (qstate.H, (1,)), (qstate.CNOT, (1, 0))]
    p = ProtocolSpec(
        name="phase",
        players=2,
        layout=RegisterLayout(clean=1, mixed=2),
        initial_owner=(ALICE,) * 3,
        rounds=tuple(RoundAction(ALICE, explicit(u), t, frozenset(), None) for u, t in rounds),
        measurement=Measurement(single_qubit=0),
    )
    want = density_oracle(p)
    monkeypatch.setattr(simulator, "ENSEMBLE_BLOCK_BYTES", 3 * (16 << 3))
    seen = _block_arrays(monkeypatch, 3)
    assert abs(simulator.run_ensemble(p).acceptance - want) < TOL
    assert {dtype for dtype, _ in seen} == {np.dtype(float) if phase == -1 else np.dtype(complex)}
    # the same bytes hold twice the float64 columns
    assert {c for _, c in seen} == ({4} if phase == -1 else {3, 1})


def test_fused_operators_of_the_wide_chains_multiply_to_their_parts():
    ip2 = _trace_chain(problems.ip2_clocked(1))
    k1, _ = transforms.k_to_one_clean(problems.ip2_clocked(2))
    chains = [
        (ip2, {ALICE: "1", BOB: "1"}),
        (transforms.unclock(ip2)[0], {ALICE: "1", BOB: "0"}),
        (_trace_chain(problems.middle_protocol(2)), {ALICE: "10", BOB: "11"}),
        (_trace_chain(toy_rotation_base(2 * math.pi / 3, math.pi / 5)), {ALICE: "1", BOB: ""}),
        (k1, {ALICE: "10", BOB: "11"}),
    ]
    fused = []
    for p, inp in chains:
        fused.append(check_fusion([pc for r in p.rounds for pc in protocol.lower(r.unitary, r.targets)], inp))
        if p.layout.total <= 12:
            d = simulator.run_density(p, inp).acceptance
            assert abs(simulator.run_ensemble(p, inp).acceptance - d) < TOL
    assert min(fused[:4]) > 0  # each trace form runs some groups as fused operators


def test_run_density_on_the_13_qubit_ip2_trace_form_equals_run_trace():
    tf = _trace_chain(problems.ip2_clocked(1))
    assert tf.layout.total == 13
    for x, y in (("1", "1"), ("1", "0")):
        inp = {ALICE: x, BOB: y}
        want = 0.5 + (3 / 8 + int(x) * int(y) / 4) / 8  # 0.578125 at IP = 1, else 0.546875
        t = simulator.run_trace(tf, inp).acceptance
        assert abs(t - want) < TOL
        assert abs(simulator.run_density(tf, inp).acceptance - t) < TOL


def test_run_density_rejects_a_pin_that_is_not_a_bit():
    with pytest.raises(DomainError, match="0 or 1"):
        simulator.run_density(problems.ip2_one_clean(1), {ALICE: "1", BOB: "1"}, pin={1: 2})


def test_the_dense_reference_rejects_a_pin_that_is_not_a_bit():
    # the reference's rho0 follows the backends' pin rule, so it never holds a -0.5
    with pytest.raises(DomainError, match="0 or 1"):
        density_oracle(problems.ip2_one_clean(1), pin={1: 2})


def test_run_ensemble_keeps_the_density_pin_rule():
    # a pin on the clean qubit is ignored by both backends (it stays |0>)
    p, inp = problems.ip2_one_clean(1), {ALICE: "1", BOB: "1"}
    for pin in ({0: 1}, {0: 0}, {1: 0}, {1: 1, 2: 0}, {0: 1, 2: 1}):
        d = simulator.run_density(p, inp, pin=pin).acceptance
        e = simulator.run_ensemble(p, inp, pin=pin).acceptance
        assert abs(d - e) < TOL, pin
    assert simulator.run_ensemble(p, inp, pin={0: 1}).acceptance == pytest.approx(0.625, abs=TOL)
    # with every mixed qubit pinned, each sampled branch is the one pinned state
    pin = {0: 1, 1: 1, 2: 0}
    sampled = simulator.run_ensemble(p, inp, sample=5, seed=1, pin=pin).acceptance
    assert abs(sampled - simulator.run_density(p, inp, pin=pin).acceptance) < TOL
    for run in (simulator.run_density, simulator.run_ensemble):
        with pytest.raises(DomainError, match="0 or 1"):
            run(p, inp, pin={1: 2})


def test_run_density_on_the_11_qubit_chain_stays_within_one_block():
    tf = _trace_chain(toy_rotation_base(2 * math.pi / 3, math.pi / 5))
    assert tf.layout.total == 11
    for bit in "01":
        inp = {ALICE: bit, BOB: ""}
        tracemalloc.start()
        try:
            d = simulator.run_density(tf, inp).acceptance
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20  # the dense path held several 64 MB arrays
        assert abs(d - simulator.run_trace(tf, inp).acceptance) < TOL


def test_ensemble_equals_density_without_mixed_qubits():
    p = problems.middle_protocol(2)  # m = 0: a single pure branch
    inp = {ALICE: "10", BOB: "11"}
    d = simulator.run_density(p, inp).acceptance
    e = simulator.run_ensemble(p, inp, sample="all").acceptance
    assert e == pytest.approx(d, abs=1e-12)


def test_ensemble_ip2_one_clean_four_branches():
    p = problems.ip2_one_clean(2)
    inp = {ALICE: "11", BOB: "01"}  # IP = 1
    rep = simulator.run_ensemble(p, inp, sample="all")
    assert rep.acceptance == pytest.approx(5 / 8, abs=TOL)


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_ensemble_matches_density_random_protocol(seed):
    p = random_two_clean(seed, mixed=2)  # 4 qubits
    inp = {ALICE: "1", BOB: ""}
    d = simulator.run_density(p, inp).acceptance
    e = simulator.run_ensemble(p, inp, sample="all").acceptance
    assert abs(d - e) < TOL


def test_ensemble_sampled_records_seed():
    p = problems.ip2_one_clean(2)
    inp = {ALICE: "11", BOB: "01"}
    rep = simulator.run_ensemble(p, inp, sample=16, seed=9)
    assert rep.seed == 9
    rep2 = simulator.run_ensemble(p, inp, sample=16, seed=9)
    assert rep.acceptance == rep2.acceptance
    # the same 16 drawn branches as when every block was complex and unfused
    assert rep.acceptance == 0.53125


def _trace_form_with_piece(m, width):
    owners = (BOB,) + (BOB,) * width + (BOB,)  # control, piece register, channel
    ch = width + 1
    pieces = [
        (explicit(m), tuple(range(1, width + 1))),
        (explicit(np.eye(2, dtype=complex)), (ch,)),
    ]
    return transforms.hadamard_test_protocol(pieces, owners, ch)


def test_run_trace_identity_piece():
    p = _trace_form_with_piece(np.eye(8, dtype=complex), 3)
    assert simulator.run_trace(p).acceptance == pytest.approx(1.0, abs=TOL)


def test_run_trace_traceless_piece():
    m = qstate.tensor_all([qstate.X, qstate.I2, qstate.I2])
    p = _trace_form_with_piece(m, 3)
    assert simulator.run_trace(p).acceptance == pytest.approx(0.5, abs=TOL)


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_run_trace_matches_density(seed):
    p = random_trace_form(seed, pairs=2, slots_a=2, slots_b=1)
    t = simulator.run_trace(p).acceptance
    d = simulator.run_density(p).acceptance
    assert abs(t - d) < TOL


def test_run_trace_requires_plan():
    with pytest.raises(ShapeError):
        simulator.run_trace(problems.ip2_clocked(1))


def _trace_chain(base):
    """k1 -> sq-measure -> trace-form."""
    k1, _ = transforms.k_to_one_clean(base)
    tf, _ = transforms.to_trace_form(transforms.projective_to_single_qubit(k1))
    return tf


def _middle_chain_closed_form(n: int, x: str, y: str) -> Fraction:
    """1/2 + a'/8 with a' = (1 - 2^-k)/2 + a/2^k, a = 4t^2/n^2, k = log2(n) + 1."""
    k = n.bit_length()
    a = problems.middle_acceptance(n, problems.MiddleInstance.from_strings(x, y).t)
    return Fraction(1, 2) + ((1 - Fraction(1, 2**k)) / 2 + a / 2**k) / 8


def test_run_trace_middle_n8_chain_matches_closed_form():
    # 15 core qubits: over the dense evaluator's old 14-qubit limit
    tf = _trace_chain(problems.middle_protocol(8))
    assert tf.layout.total - 1 == 15
    for x, y in (("11110000", "11111111"), ("11111111", "11111111"), ("10000000", "11111111")):
        acc = simulator.run_trace(tf, {ALICE: x, BOB: y}).acceptance
        assert abs(acc - float(_middle_chain_closed_form(8, x, y))) < TOL


def test_run_trace_middle_n32_chain_hits_the_byte_bound_before_allocating(monkeypatch):
    tf = _trace_chain(problems.middle_protocol(32))

    def no_resolve(*args):
        raise AssertionError("a piece was resolved before the byte bound was checked")

    monkeypatch.setattr(simulator, "resolve_ref", no_resolve)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(BackendLimitError, match="TRACE_MAX_BYTES") as info:
            simulator.run_trace(tf, {ALICE: "1" * 32, BOB: "1" * 32})
        wall = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"{simulator.TRACE_MAX_BYTES} bytes" in str(info.value)
    assert wall < 2.0
    assert peak < 16 << 20


def _split_ring(seed: int):
    """Trace form whose ring has two disconnected piece groups, a lone piece,
    qubits touched by exactly one piece and core qubits no piece touches.

    Qubits: 0 control; Bob's 1, 3, 5; Alice's 2, 4, 6, 7; channel 8 (Bob's).
    Bob's pieces {1,3}, {1}, {3,5} form one group (5 touched once), Alice's
    {2}, {2,4} another (4 touched once), Alice's {6} is a lone piece, and
    7 and the channel are untouched.
    """
    rng = np.random.default_rng(seed)
    owners = (BOB, BOB, ALICE, BOB, ALICE, BOB, ALICE, ALICE, BOB)
    targets = [(1, 3), (2,), (1,), (2, 4), (3, 5), (6,)]
    pieces = []
    for tg in targets:
        # small phases in a Haar basis: non-commuting pieces with large traces
        v = qstate.haar_unitary(1 << len(tg), rng)
        phases = np.exp(1j * rng.uniform(-0.3, 0.3, 1 << len(tg)))
        pieces.append((explicit((v * phases) @ v.conj().T), tg))
    return transforms.hadamard_test_protocol(pieces, owners, 8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_trace_split_ring_matches_density(seed):
    p = _split_ring(seed)
    t = simulator.run_trace(p).acceptance
    d = simulator.run_density(p).acceptance
    assert abs(t - d) < TOL
    assert abs(t - 0.5) > 0.1  # far from the traceless value
    local_axes = tuple(tuple(q - 1 for q in tg) for _, tg in p.trace_plan.pieces)
    traces, steps, free, _ = qstate.ring_plan(8, local_axes)
    # two untouched qubits, three self-traced pieces, 6 tensors in 3 components
    assert free == 2 and sum(map(bool, traces)) == 3 and len(steps) == 3


def test_run_trace_cached_order_is_reused_across_inputs_and_counter_starts():
    uc, _ = transforms.unclock(_trace_chain(problems.ip2_clocked(1)))
    runs = [
        ({ALICE: x, BOB: y}, j)
        for x in "01"
        for y in "01"
        for j in range(uc.trace_plan.pairs)
    ]
    qstate.ring_plan.cache_clear()
    warm = [simulator.run_trace(uc, inp, counter_start=j).acceptance for inp, j in runs]
    info = qstate.ring_plan.cache_info()
    assert info.misses <= uc.trace_plan.pairs and info.hits == len(runs) - info.misses
    for (inp, j), acc in zip(runs, warm):
        qstate.ring_plan.cache_clear()
        assert simulator.run_trace(uc, inp, counter_start=j).acceptance == acc
        ip = int(inp[ALICE]) & int(inp[BOB])
        assert abs(acc - (0.5 + (3 / 8 + ip / 4) / 8)) < TOL


def _density_ring_axes(p):
    """The axes of run_density's ring on ``p`` with no pins."""
    axes = [pc[3] + pc[1] for r in p.rounds for pc in protocol.lower(r.unitary, r.targets)]
    return tuple([(q,) for q in range(p.layout.clean)] + axes + [p.measurement.support()] + axes[::-1])


def test_ring_plan_equals_the_rebuilding_planner():
    rng = np.random.default_rng(5)
    rings = []
    for _ in range(300):
        d = int(rng.integers(1, 9))
        rings.append((d, tuple(
            tuple(int(q) for q in rng.permutation(d)[: rng.integers(0, min(d, 4) + 1)])
            for _ in range(rng.integers(1, 13))
        )))
    uc, _ = transforms.unclock(_trace_chain(problems.ip2_clocked(1)))
    rings.append((uc.layout.total, _density_ring_axes(uc)))
    rings.append((uc.layout.total - 4, tuple(
        tuple(q - 1 for q in pc[3] + pc[1])
        for ref, tg in uc.trace_plan.pieces for pc in protocol.lower(ref, tg)
    )))
    for d, axes in rings:
        assert qstate.ring_plan.__wrapped__(d, axes) == ring_plan_oracle(d, axes)


def test_resolving_a_width_12_unclocked_round_stays_small():
    uc, _ = transforms.unclock(_trace_chain(problems.ip2_clocked(1)))
    r = uc.rounds[0]
    assert len(r.targets) == 12
    tracemalloc.start()
    try:
        pieces = protocol.lower(r.unitary, r.targets)
        for pc in pieces:
            simulator._piece_matrices([pc], {ALICE: "1", BOB: "1"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(len(pc[3] + pc[1]) for pc in pieces) <= 8
    assert peak < 4 << 20


def test_run_trace_byte_bound_exits_3_through_the_cli(tmp_path, monkeypatch, capsys):
    from oneclean import cli

    desc = tmp_path / "tf.json"
    desc.write_text(protocol.serialize(_trace_chain(problems.ip2_clocked(1))))
    argv = ["run", "--descriptor", str(desc), "--backend", "trace",
            "--inputs", '{"0": "1", "1": "1"}']
    assert cli.main(argv) == 0
    monkeypatch.setattr(simulator, "TRACE_MAX_BYTES", 1 << 10)
    assert cli.main(argv) == 3
    assert "TRACE_MAX_BYTES" in capsys.readouterr().err


def test_oneway_bias_identity_pair():
    eye = np.eye(8, dtype=complex)
    assert simulator.oneway_bias(eye, eye) == pytest.approx(0.5, abs=TOL)
    assert simulator.oneway_bias(eye, -eye) == pytest.approx(-0.5, abs=TOL)


def _oneway_protocol(ua, targets_a, ub, targets_b, m):
    alice = ComposedU(
        1 + len(targets_a),
        (
            (explicit(qstate.H), (0,)),
            (ControlledU(explicit(ua)), tuple(range(1 + len(targets_a)))),
        ),
    )
    bob = ComposedU(
        1 + len(targets_b),
        (
            (ControlledU(explicit(ub)), tuple(range(1 + len(targets_b)))),
            (explicit(qstate.H), (0,)),
        ),
    )
    owners = [ALICE] * (1 + m)
    for t in targets_b:
        if t not in targets_a:
            owners[1 + t] = BOB
    msg = frozenset({0} | {1 + t for t in targets_b if owners[1 + t] == ALICE})
    return ProtocolSpec(
        name="oneway",
        players=2,
        layout=RegisterLayout(clean=1, mixed=m),
        initial_owner=tuple(owners),
        rounds=(
            RoundAction(ALICE, alice, (0,) + tuple(1 + t for t in targets_a), msg | frozenset({1 + t for t in targets_a if 1 + t in msg}), BOB),
            RoundAction(BOB, bob, (0,) + tuple(1 + t for t in targets_b), frozenset(), None),
        ),
        measurement=Measurement(single_qubit=0),
    )


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_oneway_bias_matches_density(seed):
    rng = np.random.default_rng(seed)
    m = 3
    ta = tuple(sorted(rng.choice(m, size=2, replace=False).tolist()))
    tb = tuple(sorted(rng.choice(m, size=2, replace=False).tolist()))
    ua = qstate.haar_unitary(4, rng)
    ub = qstate.haar_unitary(4, rng)
    p = _oneway_protocol(ua, ta, ub, tb, m)
    assert protocol.validate(p) == []
    acc = simulator.run_density(p).acceptance
    bias = simulator.oneway_bias(
        qstate.embed_operator(ua, ta, m), qstate.embed_operator(ub, tb, m)
    )
    assert abs((acc - 0.5) - bias) < TOL
    assert abs(bias) <= 0.5 + TOL


def test_measure_bias_values():
    p = problems.ip2_one_clean(2)
    eps = simulator.measure_bias(p, problems.ip2_inputs(2), Fraction(1, 2))
    assert eps == pytest.approx(1 / 8, abs=TOL)


def test_measure_bias_perfect_and_coin():
    pc = problems.ip2_clocked(1)
    assert simulator.measure_bias(pc, problems.ip2_inputs(1), Fraction(1, 2)) == pytest.approx(
        0.5, abs=TOL
    )
    coin = ProtocolSpec(
        name="coin",
        players=2,
        layout=RegisterLayout(clean=1, mixed=1),
        initial_owner=(ALICE, ALICE),
        rounds=(),
        measurement=Measurement(single_qubit=1),
    )
    labeled = [({}, 0), ({}, 1)]
    assert simulator.measure_bias(coin, labeled, Fraction(1, 2)) == pytest.approx(0.0, abs=TOL)


def test_built_specs_are_not_validated_again_and_lower_each_round_once(monkeypatch):
    k1, _ = transforms.k_to_one_clean(problems.ip2_clocked(1))
    tf = _trace_chain(problems.ip2_clocked(1))
    calls = {"validate": 0, "lower": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(protocol, "validate", counted("validate", protocol.validate))
    monkeypatch.setattr(simulator, "lower", counted("lower", simulator.lower))
    inputs = {ALICE: "1", BOB: "1"}
    for call, lowered in [
        (lambda: simulator.run_density(k1, inputs), len(k1.rounds)),
        (lambda: simulator.run_ensemble(k1, inputs), len(k1.rounds)),
        (lambda: simulator.run_trace(tf, inputs), len(tf.trace_plan.pieces)),
        (lambda: simulator.measure_bias(k1, problems.ip2_inputs(1), k1.declared_p), 4 * len(k1.rounds)),
        (lambda: protocol.cost_report(k1), 0),
    ]:
        calls["lower"] = 0
        call()
        assert calls == {"validate": 0, "lower": lowered}


def test_measure_bias_empty_inputs():
    with pytest.raises(DomainError):
        simulator.measure_bias(problems.ip2_clocked(1), [], Fraction(1, 2))


def _binomial_tail_oracle(t, k_min, prob):
    """P[Bin(t, prob) >= k_min] by direct summation with exact binomials."""
    return sum(
        math.comb(t, k) * prob**k * (1 - prob) ** (t - k) for k in range(k_min, t + 1)
    )


def test_amplify_extreme_bias_is_errorless():
    assert simulator.amplify(0, 1, Fraction(1, 2), Fraction(1, 2)) == 0.0
    assert simulator.repetition_plan(Fraction(1, 2), Fraction(1, 2)).t == 16


def test_amplify_matches_binomial_oracle():
    for eps, acc0, acc1 in [
        (Fraction(1, 8), Fraction(3, 8), Fraction(5, 8)),
        (Fraction(1, 4), Fraction(1, 4), Fraction(3, 4)),
    ]:
        plan = simulator.repetition_plan(eps, Fraction(1, 2))
        err = simulator.amplify(acc0, acc1, Fraction(1, 2), eps)
        want1 = 1.0 - _binomial_tail_oracle(plan.t, plan.threshold, float(acc1))
        want0 = _binomial_tail_oracle(plan.t, plan.threshold, float(acc0))
        assert err == pytest.approx(max(want0, want1), rel=1e-9)
        assert err <= 1 / 3


def test_amplify_error_bound_across_biases():
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
        err = simulator.amplify(
            Fraction(1, 2) - eps, Fraction(1, 2) + eps, Fraction(1, 2), eps
        )
        assert err <= 1 / 3


def test_amplify_precondition():
    with pytest.raises(DomainError):
        simulator.amplify(0.5, 0.6, Fraction(1, 2), Fraction(1, 4))


@pytest.mark.parametrize(
    "acc0, acc1, ref, eps",
    [
        (0.05, 0.95, Fraction(1, 2), Fraction(1, 4)),  # 1 - cdf read 4.43e-26, the other tail
        (0.1, 0.9, Fraction(1, 2), Fraction(1, 8)),
        (0.2, 0.8, Fraction(1, 2), Fraction(1, 4)),  # 1 - cdf kept 9 digits
        (Fraction(3, 8), Fraction(5, 8), Fraction(1, 2), Fraction(1, 8)),
        (0.1, 0.6, Fraction(3, 8), Fraction(1, 8)),
    ],
)
def test_amplify_matches_the_exact_binomial_tails(acc0, acc1, ref, eps):
    want = float(exact_amplify(acc0, acc1, ref, eps))
    assert simulator.amplify(acc0, acc1, ref, eps) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "args, named",
    [((-0.5, 1.0, 0, Fraction(1, 2)), "acc0 = -0.5"), ((0.0, 1.5, Fraction(1, 2), Fraction(1, 2)), "acc1 = 1.5"),
     ((0.0, 1.0, 1, 0), "ref = 1")],
    ids=["acc0-negative", "acc1-above-one", "ref-one"],
)
def test_amplify_refuses_values_outside_the_unit_interval(args, named):
    # without these checks the first two returned nan and 0.0
    with pytest.raises(DomainError, match=named):
        simulator.amplify(*args)


def test_acceptance_stays_in_unit_interval():
    p = problems.ip2_one_clean(3)
    for inp, _ in problems.ip2_inputs(3)[:8]:
        acc = simulator.run_density(p, inp).acceptance
        assert -TOL <= acc <= 1 + TOL


@register_generator("test_twice_identity")
def _gen_twice_identity(params, player_input):
    return 2 * np.eye(2, dtype=complex)  # not unitary; validate does not resolve generators


def test_every_backend_raises_on_acceptance_beyond_one():
    p = transforms.hadamard_test_protocol(
        [(GenU("test_twice_identity", {}, ALICE), (1,)), (explicit(qstate.I2), (1,))], (0, 0), 1
    )
    assert protocol.validate(p) == []
    for backend in simulator.BACKENDS:
        with pytest.raises(NumericalIntegrityError, match="outside"):
            simulator.run(p, backend=backend)
