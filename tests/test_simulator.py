import gc
import math
import sys
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc

from oneclean import cli, problems, protocol, qstate, simulator, transforms
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
    check_steps,
    density_oracle,
    embed_operator,
    exact_amplify,
    is_monomial,
    laid_tensor,
    piece_matrices,
    random_protocol,
    random_trace_form,
    random_two_clean,
    ring_plan_oracle,
    step_matrix,
    table_ref,
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
    assert _backend_keys(uc) == []  # a refused ring keeps nothing
    assert f"{simulator.TRACE_MAX_BYTES} bytes" in str(info.value)
    assert wall < 2.0
    assert peak < 16 << 20


def test_ensemble_refuses_21_qubits_before_resolving_anything(tmp_path, capsys, monkeypatch):
    wide = ProtocolSpec(
        name="wide",
        players=2,
        layout=RegisterLayout(clean=1, mixed=20),
        initial_owner=(ALICE,) * 21,
        rounds=(RoundAction(ALICE, explicit(qstate.H), (0,), frozenset()),),
        measurement=Measurement(single_qubit=0),
    )
    desc = tmp_path / "wide.json"
    desc.write_text(protocol.serialize(wide))

    def no_resolve(*args):
        raise AssertionError("a piece was resolved before the qubit limit was checked")

    monkeypatch.setattr(simulator, "resolve_ref", no_resolve)
    with pytest.raises(BackendLimitError, match=r"^21 qubits exceed the ensemble backend limit \(20\)$"):
        simulator.run_ensemble(wide)
    assert _backend_keys(wide) == []
    assert cli.main(["run", "--descriptor", str(desc), "--backend", "ensemble"]) == 3
    assert capsys.readouterr().err == "error: 21 qubits exceed the ensemble backend limit (20)\n"


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
    # ensemble's blocks, one branch per block and three per block:
    # 2^f branches always leave a partial last block
    free = sum(q not in pin for q in range(clean, qubits))
    for branches in (1, 3):
        seen = _ensemble_blocks(monkeypatch, p, inp, branches)
        assert abs(simulator.run_ensemble(p, inp, pin=pin).acceptance - want) < TOL
        assert seen == _blocks_of(1 << free, branches)


def _branch_bytes(p, inputs) -> int:
    """16 bytes a complex amplitude times the entries one branch may reach:
    2^n, or 2^w if fewer, with w the measured qubits plus the qubits and
    controls of every lowered piece that is not a permutation times phases."""
    w, pieces = len(p.measurement.support()), protocol.lowered(p)[0]
    for pc, m in zip(pieces, piece_matrices(pieces, inputs)):
        w += 0 if is_monomial(m) else len(pc.qubits) + len(pc.controls)
    return 16 << min(p.layout.total, w)


def _ensemble_blocks(monkeypatch, p, inputs, branches: int) -> list:
    """Sets ``TRACE_MAX_BYTES`` to ``branches`` worst-case branches and records
    the branch count of every block that ``run_ensemble`` evolves."""
    monkeypatch.setattr(simulator, "TRACE_MAX_BYTES", branches * _branch_bytes(p, inputs))
    seen, evolve = [], simulator._evolve

    def recording(keys, steps):
        seen.append(len(keys))
        return evolve(keys, steps)

    monkeypatch.setattr(simulator, "_evolve", recording)
    return seen


def _blocks_of(total: int, size: int) -> list:
    return [size] * (total // size) + [total % size] * (total % size > 0)


def _real_specs():
    k1, _ = transforms.k_to_one_clean(problems.ip2_clocked(2))
    rot, _ = transforms.k_to_one_clean(toy_rotation_base(2 * math.pi / 3, math.pi / 5))
    return [
        (problems.ip2_one_clean(2), {ALICE: "11", BOB: "01"}),
        (k1, {ALICE: "10", BOB: "11"}),
        (transforms.projective_to_single_qubit(rot), {ALICE: "1", BOB: ""}),
        # every piece a Haar unitary, so every piece spreads
        (random_protocol(3, 5, 1, single_qubit=False), {ALICE: "1", BOB: ""}),
    ]


@pytest.mark.parametrize("which", range(4), ids=["ip2-one-clean", "ip2-k1", "rotation-k1-sq", "dense-random"])
def test_run_ensemble_real_blocks_match_two_sided_evolution(which, monkeypatch):
    # the built-in families move most entries; the random protocol spreads them
    # at every piece. 2^f branches leave a partial last block of 3
    p, inp = _real_specs()[which]
    want = density_oracle(p, inp)
    for branches in (1, 3):
        seen = _ensemble_blocks(monkeypatch, p, inp, branches)
        assert abs(simulator.run_ensemble(p, inp).acceptance - want) < TOL
        assert seen == _blocks_of(1 << p.layout.mixed, branches)


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
    seen = _ensemble_blocks(monkeypatch, p, None, 3)
    assert abs(simulator.run_ensemble(p).acceptance - want) < TOL
    assert seen == [3, 1]


def test_fused_operators_of_the_wide_chains_multiply_to_their_parts():
    # each lowered piece, fused with its controls into one operator, runs as
    # its ensemble step; the ensemble then matches an independent backend on
    # every chain, the 13-qubit IP2 trace form and its 16-qubit unclocked form
    # (which density refuses) included: ensemble averages over every counter
    # start, so it checks unclock's counter-start invariance
    ip2 = _trace_chain(problems.ip2_clocked(1))
    k1, _ = transforms.k_to_one_clean(problems.ip2_clocked(2))
    chains = [
        (ip2, {ALICE: "1", BOB: "1"}),
        (transforms.unclock(ip2)[0], {ALICE: "1", BOB: "0"}),
        (_trace_chain(problems.middle_protocol(2)), {ALICE: "10", BOB: "11"}),
        (_trace_chain(toy_rotation_base(2 * math.pi / 3, math.pi / 5)), {ALICE: "1", BOB: ""}),
        (k1, {ALICE: "10", BOB: "11"}),
    ]
    assert [p.layout.total for p, _ in chains] == [13, 16, 12, 11, 4]
    for p, inp in chains:
        moves = check_steps(protocol.lowered(p)[0], inp)
        assert moves > 0  # the couriers and swaps of every chain move entries
        want = (simulator.run_trace if p.trace_plan else simulator.run_density)(p, inp).acceptance
        assert abs(simulator.run_ensemble(p, inp).acceptance - want) < TOL


def test_the_ensemble_gathers_every_piece_as_its_kron_reference(monkeypatch):
    # each fresh spec's distinct pieces, explicit first, reach _ensemble_step once:
    # the explicit ones when the ensemble entry is built, the others in the call
    inst = problems.abc_instance(4, -1, seed=3)
    specs = [
        (problems.ip2_one_clean(2), {ALICE: "11", BOB: "10"}),
        (transforms.unclock(_trace_chain(problems.ip2_clocked(1)))[0], {ALICE: "1", BOB: "1"}),
        (problems.abc_protocol(4), inst.inputs()),
        (_trace_chain(problems.middle_protocol(2)), {ALICE: "01", BOB: "10"}),
        (_trace_chain(random_two_clean(5)), {ALICE: "1", BOB: ""}),
    ]
    real, seen, kinds = simulator._ensemble_step, [], set()
    monkeypatch.setattr(simulator, "_ensemble_step", lambda shifts, m: seen.append(m) or real(shifts, m))
    for p, inputs in specs:
        seen.clear()
        simulator.run_ensemble(p, inputs, sample=1, seed=0)
        distinct = sorted(dict.fromkeys(protocol.lowered(p)[0]),
                          key=lambda pc: not isinstance(pc.leaf, protocol.ExplicitU))
        assert len(seen) == len(distinct)
        for pc, got, want in zip(distinct, seen, piece_matrices(distinct, inputs)):
            assert np.array_equal(got, want)
            # an adjoint shows only on a leaf that is neither real nor symmetric
            gen = isinstance(pc.leaf, GenU)
            adj = pc.adjoint and not (np.array_equal(want, want.conj()) or np.array_equal(want, want.T))
            kinds.update({"controls": bool(pc.controls), "dispatch value": pc.value > 1, "adjoint": adj,
                          "generator": gen, "generator adjoint": gen and adj}.items())
    assert {kind for kind, on in kinds if on} == {"controls", "dispatch value", "adjoint", "generator",
                                                  "generator adjoint"}


def test_ensemble_resolves_each_shared_generator_piece_once_per_call(monkeypatch):
    # the 16-qubit unclocked IP2 chain's 16 rounds share two references, whose
    # 32 generator-piece occurrences are 4 distinct pieces
    uc, _ = transforms.unclock(_trace_chain(problems.ip2_clocked(1)))
    inputs = {ALICE: "1", BOB: "0"}
    simulator.run_ensemble(uc, inputs, sample=4, seed=1)  # keeps the spec's ensemble entry
    real, resolved = simulator.resolve_ref, []
    monkeypatch.setattr(simulator, "resolve_ref",
                        lambda leaf, w, inp: resolved.append(leaf) or real(leaf, w, inp))
    simulator.run_ensemble(uc, inputs, sample=4, seed=1)
    generated = [pc for pc in protocol.lowered(uc)[0] if isinstance(pc.leaf, GenU)]
    leaves = {id(pc.leaf) for pc in generated}
    assert (len(generated), len({id(pc) for pc in generated}), len(leaves)) == (32, 4, 2)
    # one resolve per distinct leaf; a piece's adjoint is gathered from its leaf's matrix
    assert len(resolved) == len({id(leaf) for leaf in resolved}) == 2


def test_ensemble_cancels_exactly_on_the_unclocked_chain(monkeypatch):
    # a spreading step sums with einsum, so equal and opposite terms meet as
    # exact zeros and drop out: no branch of the 16-qubit unclocked IP2 chain
    # holds more than 4 entries after any step (with g @ m.T, BLAS's fused
    # multiply-adds leave ~1e-17 residues and a branch here grows to 2,040 entries)
    uc, _ = transforms.unclock(_trace_chain(problems.ip2_clocked(1)))
    inputs, n = {ALICE: "1", BOB: "1"}, uc.layout.total
    real, peaks = simulator._evolve, []

    def replay(keys, steps):  # the same steps, one at a time, counting each branch's entries
        amps = None
        for step in steps:
            keys, amps = real(keys, [step], amps)
            peaks.append(int(np.bincount(keys >> n).max()))
        return keys, amps

    monkeypatch.setattr(simulator, "_evolve", replay)
    got = simulator.run_ensemble(uc, inputs).acceptance
    assert peaks and len(peaks) % len(protocol.lowered(uc)[0]) == 0  # every step of every block
    assert max(peaks) <= 4
    assert abs(got - simulator.run_trace(uc, inputs).acceptance) < TOL


@pytest.mark.parametrize(
    "m, moves",
    [
        (np.array([[0, 1j], [-1, 0]]), True),
        (qstate.CNOT, True),
        (qstate.H, False),
        (np.array([[1, 1], [0, 0]]), False),  # one nonzero a column, but not a permutation
        (np.array([[1, 0], [0, 0]]), False),  # a zero column
    ],
    ids=["phased-swap", "cnot", "hadamard", "shared-row", "zero-column"],
)
def test_ensemble_steps_move_only_a_permutation_times_phases(m, moves):
    w = qstate.num_qubits(len(m))
    step = simulator._ensemble_step(tuple(range(w - 1, -1, -1)), np.asarray(m, dtype=complex))
    assert (len(step) == 3) == moves
    assert np.max(np.abs(step_matrix([step], w) - m)) < 1e-12


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


def test_run_ensemble_on_the_11_qubit_chain_stays_under_16_mib():
    tf = _trace_chain(toy_rotation_base(2 * math.pi / 3, math.pi / 5))
    assert tf.layout.total == 11
    for bit in "01":
        inp = {ALICE: bit, BOB: ""}
        tracemalloc.start()
        try:
            e = simulator.run_ensemble(tf, inp).acceptance
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert abs(e - simulator.run_trace(tf, inp).acceptance) < TOL


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
    # the same 16 drawn branches as when branches ran as dense state columns
    assert rep.acceptance == 0.53125


def _trace_form_with_piece(m, width):
    owners = (BOB,) + (BOB,) * width + (BOB,)  # control, piece register, channel
    ch = width + 1
    pieces = [
        (explicit(m), tuple(range(1, width + 1))),
        (explicit(np.eye(2, dtype=complex)), (ch,)),
    ]
    return protocol.trace_form_spec(protocol.TracePlan(0, ch, pieces), owners, "hadamard-test")


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


@pytest.mark.parametrize(
    "unclocked, start, message",
    [
        (True, 2, "counter start 2 outside [0, 2)"),
        (True, -1, "counter start -1 outside [0, 2)"),
        (False, 1, "counter start given but the plan has no counter"),
    ],
    ids=["past-the-pairs", "negative", "no-counter"],
)
def test_run_trace_refuses_a_counter_start_its_plan_lacks(unclocked, start, message):
    tf = random_trace_form(0, pairs=2)
    p = transforms.unclock(tf)[0] if unclocked else tf
    with pytest.raises(DomainError) as e:
        simulator.run_trace(p, counter_start=start)
    assert str(e.value) == message


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
    assert _backend_keys(tf) == []  # a refused ring keeps nothing
    assert f"{simulator.TRACE_MAX_BYTES} bytes" in str(info.value)
    assert wall < 2.0
    assert peak < 16 << 20


def _split_ring(seed: int, alice_input: bool = False):
    """Trace form whose ring has two disconnected piece groups, a lone piece,
    qubits touched by exactly one piece and core qubits no piece touches.

    Qubits: 0 control; Bob's 1, 3, 5; Alice's 2, 4, 6, 7; channel 8 (Bob's).
    Bob's pieces {1,3}, {1}, {3,5} form one group (5 touched once), Alice's
    {2}, {2,4} another (4 touched once), Alice's {6} is a lone piece, and
    7 and the channel are untouched. With ``alice_input`` the {2} piece is
    a generator of Alice's input bit, so only Alice's group reads an input.
    """
    rng = np.random.default_rng(seed)
    owners = (BOB, BOB, ALICE, BOB, ALICE, BOB, ALICE, ALICE, BOB)
    targets = [(1, 3), (2,), (1,), (2, 4), (3, 5), (6,)]
    pieces = []
    for tg in targets:
        mats = []
        for _ in range(2 if alice_input and tg == (2,) else 1):
            # small phases in a Haar basis: non-commuting pieces with large traces
            v = qstate.haar_unitary(1 << len(tg), rng)
            phases = np.exp(1j * rng.uniform(-0.3, 0.3, 1 << len(tg)))
            mats.append((v * phases) @ v.conj().T)
        pieces.append((table_ref(ALICE, dict(zip("01", mats))) if len(mats) == 2 else explicit(mats[0]), tg))
    return protocol.trace_form_spec(protocol.TracePlan(0, 8, pieces), owners, "hadamard-test")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_trace_split_ring_matches_density(seed):
    p = _split_ring(seed)
    t = simulator.run_trace(p).acceptance
    d = simulator.run_density(p).acceptance
    assert abs(t - d) < TOL
    assert abs(t - 0.5) > 0.1  # far from the traceless value
    local_axes = tuple(tuple(q - 1 for q in tg) for _, tg in p.trace_plan.pieces)
    traces, fold, lay, steps, free, _, _ = qstate.ring_plan(8, local_axes)
    assert fold == ()  # nothing is fixed, so every step runs per call
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
    # one plan per counter start, built with its spec's entry and never asked for again
    assert info.hits + info.misses == uc.trace_plan.pairs == len(_backend_keys(uc))
    for (inp, j), acc in zip(runs, warm):
        qstate.ring_plan.cache_clear()
        assert simulator.run_trace(_fresh(uc), inp, counter_start=j).acceptance == acc
        ip = int(inp[ALICE]) & int(inp[BOB])
        assert abs(acc - (0.5 + (3 / 8 + ip / 4) / 8)) < TOL


def _fresh(p):
    """A copy of ``p`` that no backend has evaluated yet."""
    return protocol.deserialize(protocol.serialize(p))


def _backend_keys(p) -> list:
    """The keys that backends put in ``p``'s store: all but the lowering that ``validate`` kept first."""
    keys = list(protocol._ENTRIES[p])
    assert keys[0] == "lowered"
    return keys[1:]


def _rotation_chain():
    return _trace_chain(toy_rotation_base(2 * math.pi / 3, math.pi / 5))


def _whole_ring(backend, pieces, qubits):
    """``simulator._ring``'s program on the same ring with nothing kept: each call resolves
    every piece, lays its ``ring_tensor`` out as the program's ``lay`` says (no gather map)
    and runs every step of the program, fold and per-call, as ``_folded_trace`` does."""
    local = {q: i for i, q in enumerate(qubits)}
    axes = tuple(tuple(local[q] for q in pc.controls + pc.qubits) for pc in pieces)
    fixed = tuple(k for k, pc in enumerate(pieces) if isinstance(pc.leaf, protocol.ExplicitU))
    traces, fold, lay, steps, free, _, _ = qstate.ring_plan(len(qubits), axes, fixed)

    def ring(inputs):
        mats = piece_matrices(pieces, inputs)
        arrs = {k: laid_tensor(m, traces[k], lay[k]) for k, m in enumerate(mats)}
        return qstate.trace_ring(qstate.run_steps(arrs, fold), steps, free)

    return ring


def _whole(monkeypatch, run):
    """``run``'s value with every ring its spec builds in it contracted whole on every call."""
    with monkeypatch.context() as m:
        m.setattr(simulator, "_ring", _whole_ring)
        return run()


def _bit_identity_cases():
    ip2 = _trace_chain(problems.ip2_clocked(1))
    uc, _ = transforms.unclock(ip2)
    bits = [{ALICE: "0", BOB: "1"}, {ALICE: "1", BOB: "1"}]
    rot = [{ALICE: "0", BOB: ""}, {ALICE: "1", BOB: ""}]
    cases = {
        "trace-middle": (_trace_chain(problems.middle_protocol(2)), simulator.run_trace, {},
                         [{ALICE: "01", BOB: "10"}, {ALICE: "11", BOB: "11"}]),
        "trace-ip2": (ip2, simulator.run_trace, {}, bits),
        "density-rotation": (_rotation_chain(), simulator.run_density, {}, rot),
        "density-rotation-pinned": (_rotation_chain(), simulator.run_density, {"pin": {3: 1, 7: 0}}, rot),
        "density-k1-pinned": (transforms.k_to_one_clean(problems.ip2_clocked(1))[0], simulator.run_density,
                              {"pin": {2: 1}}, bits),
        "ensemble-ip2": (problems.ip2_one_clean(2), simulator.run_ensemble, {},
                         [{ALICE: "01", BOB: "11"}, {ALICE: "11", BOB: "10"}]),
        "split-ring": (_split_ring(0), simulator.run_trace, {}, [{}, {}]),
        "split-ring-alice": (_split_ring(0, alice_input=True), simulator.run_trace, {},
                             [{ALICE: "0"}, {ALICE: "1"}]),
    }
    cases.update({
        f"unclock-start-{j}": (uc, simulator.run_trace, {"counter_start": j}, bits)
        for j in range(uc.trace_plan.pairs)
    })
    return cases


@pytest.mark.parametrize("case", list(_bit_identity_cases()))
def test_a_warm_call_equals_a_first_call_and_a_whole_ring_bit_for_bit(case, monkeypatch):
    p, run, kw, (x0, x1) = _bit_identity_cases()[case]
    run(p, x1)  # with no pin or counter start: another entry, when the case has one
    whole = _fresh(p)
    # x0, x1, x0: the second x0 runs on an entry that x1 used, so no input leaks through it
    for inputs in (x0, x1, x0):
        warm = run(p, inputs, **kw).acceptance
        assert warm == run(_fresh(p), inputs, **kw).acceptance
        assert warm == _whole(monkeypatch, lambda: run(whole, inputs, **kw).acceptance)


def test_the_split_ring_folds_to_three_scalars_that_multiply_in_index_order(monkeypatch):
    p = _fresh(_split_ring(1))
    seen, ran = [], []
    real, step = qstate.trace_ring, qstate._ring_step
    monkeypatch.setattr(qstate, "trace_ring", lambda arrs, steps, free: seen.append((dict(arrs), steps))
                        or real(arrs, steps, free))
    monkeypatch.setattr(qstate, "_ring_step", lambda *args: ran.append(len(seen)) or step(*args))
    acc = simulator.run_trace(p).acceptance
    for _ in range(2):
        assert simulator.run_trace(p).acceptance == acc
    # every piece is explicit, so the first call folds the two components and the
    # lone piece to scalars in three steps, and every call gets those with no step left
    assert ran == [0, 0, 0]
    arrs, steps = seen[0]
    assert steps == () and [t.shape for t in arrs.values()] == [()] * 3
    assert all(s == () and s_arrs.keys() == arrs.keys() and all(t is arrs[k] for k, t in s_arrs.items())
               for s_arrs, s in seen[1:])
    want = complex(1 << 2)  # the two core qubits no piece touches
    for k in sorted(arrs):
        want *= complex(arrs[k])
    assert acc == qstate.checked_acceptance(0.5 + want.real / (1 << 9))


def test_density_rings_of_fresh_specs_share_one_basis_leaf(monkeypatch):
    # a spec built afresh for each call wraps no basis projector of rho0 anew
    real, rings = simulator._ring, []
    monkeypatch.setattr(simulator, "_ring", lambda *a: rings.append(a[1]) or real(*a))
    inputs = {ALICE: "101", BOB: "110"}
    accs = {simulator.run_density(problems.ip2_one_clean(3), inputs).acceptance for _ in range(2)}
    assert len(accs) == 1 and len(rings) == 2
    zero = rings[0][0].leaf  # the clean qubit's |0><0|, the ring's first piece
    assert rings[0][0].qubits == rings[1][0].qubits == (0,) and rings[1][0].leaf is zero
    assert np.array_equal(zero.matrix, qstate.basis_projector(0)) and not zero.matrix.flags.writeable


def test_an_evaluated_spec_is_freed_with_its_entries():
    p = _fresh(transforms.k_to_one_clean(problems.ip2_clocked(1))[0])
    inputs = {ALICE: "1", BOB: "0"}
    for backend in ("density", "ensemble"):
        simulator.run(p, inputs, backend=backend)
    tf = _fresh(_trace_chain(problems.ip2_clocked(1)))
    simulator.run_trace(tf, inputs)
    assert len(_backend_keys(p)) == 2 and len(_backend_keys(tf)) == 1
    refs = [weakref.ref(p), weakref.ref(tf)]
    del p, tf
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_the_arrays_a_spec_keeps_are_read_only(monkeypatch):
    p = _fresh(_trace_chain(problems.middle_protocol(2)))
    seen = []
    real = qstate.trace_ring
    monkeypatch.setattr(qstate, "trace_ring", lambda arrs, *r: seen.append(dict(arrs)) or real(arrs, *r))
    for x, y in (("01", "10"), ("11", "00"), ("10", "01")):
        simulator.run_trace(p, {ALICE: x, BOB: y})
    # the first call folds what the second and the third reuse
    kept = {k: t for k, t in seen[1].items() if seen[0].get(k) is t}
    fresh = [t for k, t in seen[1].items() if seen[0].get(k) is not t]
    assert kept and fresh and all(seen[2][k] is t for k, t in kept.items())
    for t in kept.values():
        with pytest.raises(ValueError, match="read-only"):
            t[...] = 0


def test_threads_that_share_a_fresh_spec_get_the_values_of_one_thread():
    p = _split_ring(2, alice_input=True)
    runs = [(backend, {ALICE: x}) for backend in ("trace", "density", "ensemble") for x in "01"]
    want = [simulator.run(_fresh(p), inp, backend=b).acceptance for b, inp in runs]
    for _ in range(3):
        shared, got, errors = _fresh(p), {}, []

        def work(i):
            try:
                for j in range(len(runs)):  # each thread starts at another run
                    k = (i + j) % len(runs)
                    got.setdefault(k, set()).add(simulator.run(shared, runs[k][1], backend=runs[k][0]).acceptance)
            except Exception as e:  # reported below, as a thread's exception is not raised in the test
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert [got[k] for k in range(len(runs))] == [{w} for w in want]


@pytest.mark.parametrize("backend, chain, inputs, first, warm", [
    ("trace", lambda: _trace_chain(problems.middle_protocol(2)), {ALICE: "01", BOB: "10"}, 34, 10),
    ("density", _rotation_chain, {ALICE: "1", BOB: ""}, 39, 16),
])
def test_a_warm_call_runs_only_the_ring_steps_that_read_an_input(backend, chain, inputs, first, warm,
                                                                  monkeypatch):
    p = chain()
    steps, explicit, plans = [], [], []
    real, resolve, plan = qstate._ring_step, simulator.resolve_ref, qstate.ring_plan
    monkeypatch.setattr(qstate, "_ring_step", lambda *args: steps.append(1) or real(*args))
    monkeypatch.setattr(qstate, "ring_plan", lambda *args: plans.append(plan(*args)) or plans[-1])
    monkeypatch.setattr(simulator, "resolve_ref", lambda leaf, w, inputs: explicit.append(
        isinstance(leaf, protocol.ExplicitU)) or resolve(leaf, w, inputs))
    counts = []
    for _ in range(4):
        steps.clear()
        explicit.clear()
        simulator.run(p, inputs, backend=backend)
        counts.append((len(steps), sum(explicit)))
    # the first call folds as it contracts, and every later call resolves no
    # ExplicitU piece and runs the steps left
    assert [c for c, _ in counts] == [first, warm, warm, warm]
    assert counts[0][1] > 0 and [e for _, e in counts[1:]] == [0, 0, 0]
    # the cached plan carries the split, so the counts can be read from it
    assert len(plans) == 1 and (len(plans[0][1]) + len(plans[0][3]), len(plans[0][3])) == (first, warm)
    whole = _fresh(p)
    for _ in range(3):  # the reference of the bit-identity test contracts every step on every call
        steps.clear()
        _whole(monkeypatch, lambda: simulator.run(whole, inputs, backend=backend))
        assert len(steps) == first


@pytest.mark.parametrize("backend", ["trace", "density", "ensemble"])
def test_a_warm_call_resolves_each_generator_leaf_once(backend, monkeypatch):
    # MIDDLE n = 2's trace chain; density's first calls on its ring take about
    # 0.3 s each, so density runs on IP2 n = 1's instead
    base, inputs = (problems.middle_protocol(2), {ALICE: "01", BOB: "10"})
    if backend == "density":
        base, inputs = (problems.ip2_clocked(1), {ALICE: "1", BOB: "1"})
    p = _trace_chain(base)
    rounds, plan = protocol.lowered(p)
    pieces = [pc for pc in (rounds if backend != "trace" else [pc for pcs in plan for pc in pcs])
              if isinstance(pc.leaf, protocol.GenU)]
    # each leaf enters as U and as its adjoint
    assert len(pieces) == {"trace": 6, "density": 4, "ensemble": 6}[backend]
    assert len({id(pc.leaf) for pc in pieces}) == 2
    acc = [simulator.run(p, inputs, backend=backend).acceptance for _ in range(2)]
    calls = []
    for name in {pc.leaf.name for pc in pieces}:
        real = protocol.generator(name)
        monkeypatch.setitem(protocol._GENERATORS, name,
                            lambda params, x, real=real: calls.append(1) or real(params, x))
    for _ in range(2):
        calls.clear()
        assert simulator.run(p, inputs, backend=backend).acceptance == acc[0] == acc[1]
        assert len(calls) == 2


def _density_ring_axes(p):
    """The axes of run_density's ring on ``p`` with no pins."""
    axes = [pc.controls + pc.qubits for pc in protocol.lowered(p)[0]]
    return tuple([(q,) for q in range(p.layout.clean)] + axes + [p.measurement.support()] + axes[::-1])


def _random_rings(rng) -> list:
    """300 rings of 1-12 operators on 1-8 qubits, each on 0-4 of them."""
    rings = []
    for _ in range(300):
        d = int(rng.integers(1, 9))
        rings.append((d, tuple(
            tuple(int(q) for q in rng.permutation(d)[: rng.integers(0, min(d, 4) + 1)])
            for _ in range(rng.integers(1, 13))
        )))
    return rings


def _ring_einsum(d: int, axes, mats) -> complex:
    """Tr(M_last ... M_first) by one ``np.einsum`` over the ring's wires: operator
    k's row legs are new wires and its column legs its targets' current wires,
    and each qubit's last wire is its first; an untouched qubit is a factor 2."""
    cur, nxt, operands = list(range(d)), d, []
    for m, ax in zip(mats, axes):
        legs = list(range(nxt, nxt + len(ax))) + [cur[q] for q in ax]
        for q, leg in zip(ax, legs):
            cur[q] = leg
        nxt += len(ax)
        operands.append((m.reshape((2,) * (2 * len(ax))), legs))
    close = {c: q for q, c in enumerate(cur)}
    names = {}  # np.einsum takes fewer than 52 distinct labels, so number them densely
    args = [a for t, legs in operands for a in (t, [names.setdefault(close.get(g, g), len(names)) for g in legs])]
    untouched = sum(c == q for q, c in enumerate(cur))
    return complex(np.einsum(*args, [], optimize="greedy")) * (1 << untouched)


def _folded_trace(plan, fixed, mats) -> complex:
    """The ring trace of ``mats`` by ``plan`` contracted whole, and the same with the
    ``fixed`` tensors folded alone first, as ``simulator._ring`` does."""
    traces, fold, lay, steps, free, _, _ = plan
    arrs = {k: laid_tensor(m, traces[k], lay[k]) for k, m in enumerate(mats)}
    kept = {k: arrs[k] for k in fixed}
    # a fold step that read a tensor outside ``fixed`` would not find it here, and
    # what is left multiplies as scalars only when every label is closed
    qstate.run_steps(kept, fold)
    folded = qstate.trace_ring({**kept, **{k: t for k, t in arrs.items() if k not in fixed}}, steps, free)
    return qstate.trace_ring(qstate.run_steps(arrs, fold), steps, free), folded


def _order(plan) -> list:
    """``plan``'s steps, fold and per-call, in the order it planned them."""
    return sorted(plan[1] + plan[3], key=lambda step: step[-1])


def _calls(plan, fixed) -> int:
    """How many steps of ``plan``'s whole order read a tensor that folding the ``fixed`` ones leaves
    unmade: the per-call steps of that order for ``fixed``, whatever set the plan was made for."""
    held, calls = set(fixed), 0
    for a, b, *_, n in _order(plan):
        if a in held and b in held:
            held.add(n)
        else:
            calls += 1
    return calls


def test_the_fold_first_plan_peaks_and_calls_no_more_than_the_size_only_plan():
    rng = np.random.default_rng(7)  # masks and tensors, on the planner test's rings
    chosen = 0
    for d, axes in _random_rings(np.random.default_rng(5)):
        mats = [qstate.haar_unitary(1 << len(ax), rng) for ax in axes]
        want = _ring_einsum(d, axes, mats)
        size_only = qstate.ring_plan(d, axes)
        for share in (0.3, 0.6):  # of the operators that no input changes
            fixed = tuple(k for k in range(len(axes)) if rng.random() < share)
            plan = qstate.ring_plan(d, axes, fixed)
            chosen += [{*st[:2]} for st in _order(plan)] != [{*st[:2]} for st in _order(size_only)]
            assert plan[-1] <= size_only[-1]
            whole, folded = _folded_trace(plan, fixed, mats)
            assert abs(whole - want) < 1e-12 * max(1.0, abs(want)) and folded == whole
            assert len(plan[3]) == _calls(plan, fixed) <= _calls(size_only, fixed)
    assert chosen > 100  # the fold-first order is kept on many of these rings


def test_the_ring_program_folds_fixed_tensors_and_consumes_each_tensor_once():
    rng = np.random.default_rng(11)  # fixed sets, on the planner test's rings
    for d, axes in _random_rings(np.random.default_rng(5)):
        for share in (0.3, 0.6, 1.0):
            fixed = tuple(k for k in range(len(axes)) if rng.random() < share)
            traces, fold, lay, steps, free, copies, _ = qstate.ring_plan(d, axes, fixed)
            rank = {k: 2 * len(ax) - 2 * len(traces[k]) for k, ax in enumerate(axes)}
            mat = {}  # each tensor's shape as the step that reads it multiplies it, () for a scalar
            for k, (perm, shape) in enumerate(lay):  # a piece's tensor is laid out as that matrix
                assert sorted(perm) == list(range(rank[k])) and math.prod(shape) == 1 << rank[k]
                assert len(shape) == 2 * (rank[k] > 0)
                mat[k] = shape
            held, read = set(fixed), []
            for a, b, s, shape, perm, out, n in sorted(fold + steps, key=lambda step: step[-1]):
                # a fold step reads only fixed tensors and earlier fold results, a per-call step not only
                assert (a in held and b in held) == ((a, b, s, shape, perm, out, n) in fold)
                held |= {n} if a in held and b in held else set()
                assert n not in mat and mat[a][1] == mat[b][0] == 1 << s  # a's columns meet b's rows
                rank[n] = rank.pop(a) + rank.pop(b) - 2 * s
                assert math.prod(shape) == mat[a][0] * mat[b][1] == 1 << rank[n]
                # the product in place, transposed in place (out None), or a copy laid out as ``out``
                mat[n] = shape if perm is None else shape[::-1] if out is None else out
                assert len(mat[n]) == 2 * (rank[n] > 0) and math.prod(mat[n]) == 1 << rank[n]
                read += [a, b]
            # every tensor is read by one step or left as a scalar, never read twice
            assert len(read) == len(set(read)) and all(rank[k] == 0 for k in mat.keys() - set(read))
            assert mat.keys() == set(range(len(axes) + len(fold) + len(steps)))
            assert all(r == 0 for r in rank.values())
            assert copies == sum(perm is not None and out is not None for *_, perm, out, _ in steps)


class _Probe:
    """A left operand that keeps the product ``qstate._ring_step`` makes of it."""

    def __init__(self, m):
        self.m = m

    def dot(self, right):
        self.out = self.m.dot(right)
        return self.out


def test_the_ring_program_traces_random_tensors_and_copies_only_what_it_counts():
    rng = np.random.default_rng(13)  # tensors and fixed sets, on the planner test's rings
    for d, axes in _random_rings(np.random.default_rng(5)):
        mats = [rng.standard_normal((1 << len(ax),) * 2) + 1j * rng.standard_normal((1 << len(ax),) * 2)
                for ax in axes]
        want = _ring_einsum(d, axes, mats)
        share = rng.random()
        fixed = tuple(k for k in range(len(axes)) if rng.random() < share)
        traces, fold, lay, steps, free, copies, _ = qstate.ring_plan(d, axes, fixed)
        arrs = qstate.run_steps({k: laid_tensor(m, traces[k], lay[k]) for k, m in enumerate(mats)}, fold)
        recount = 0
        for a, b, _, shape, perm, out, n in steps:
            probe = _Probe(arrs.pop(a))
            arrs[n] = qstate._ring_step(probe, arrs.pop(b), shape, perm, out)
            # a result the program reads in place is a view of the product, and only such a one
            in_place = np.shares_memory(arrs[n], probe.out)
            assert in_place == (perm is None or out is None)
            recount += not in_place
        assert copies == recount
        got = qstate.trace_ring(arrs, (), free)
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("backend, chain, inputs, ceiling", [
    ("trace", lambda: _trace_chain(problems.middle_protocol(2)), {ALICE: "01", BOB: "10"}, 3),
    ("density", _rotation_chain, {ALICE: "1", BOB: ""}, 6),
    ("trace", lambda: _trace_chain(problems.ip2_clocked(1)), {ALICE: "0", BOB: "1"}, 1),
])
def test_a_warm_call_copies_few_intermediate_results(backend, chain, inputs, ceiling, monkeypatch):
    # a step copied its result in 8, 14 and 4 of these rings' per-call steps when it laid
    # out each operand anew; now most results are read in place by the step that reads them
    plans, real = [], qstate.ring_plan
    monkeypatch.setattr(qstate, "ring_plan", lambda *args: plans.append(real(*args)) or plans[-1])
    p = chain()
    acc = simulator.run(p, inputs, backend=backend).acceptance
    assert len(plans) == 1 and plans[0][5] <= ceiling
    assert simulator.run(p, inputs, backend=backend).acceptance == acc


def test_ring_plan_equals_the_rebuilding_planner():
    rings = _random_rings(np.random.default_rng(5))
    uc, _ = transforms.unclock(_trace_chain(problems.ip2_clocked(1)))
    rings.append((uc.layout.total, _density_ring_axes(uc)))
    rings.append((uc.layout.total - 4, tuple(
        tuple(q - 1 for q in pc.controls + pc.qubits)
        for pieces in protocol.lowered(uc)[1] for pc in pieces
    )))
    for d, axes in rings:
        traces, fold, lay, steps, free, _, peak = qstate.ring_plan.__wrapped__(d, axes)
        # nothing is fixed, so every step runs per call, each result the next tensor
        assert fold == ()
        assert [step[-1] for step in steps] == list(range(len(traces), len(traces) + len(steps)))
        want_traces, want_steps, want_free, want_peak = ring_plan_oracle(d, axes)
        assert (traces, free, peak) == (want_traces, want_free, want_peak)
        # the same pairs in the same order, each over as many legs; a step picks its own sides
        assert [(min(a, b), max(a, b), s) for a, b, s, *_ in steps] == [(a, b, s) for a, b, _, _, s in want_steps]


def _whole_operator(pc, inputs) -> np.ndarray:
    """A lowered piece's operator on its controls then its qubits, as ``run_ensemble``
    gathers it: ``simulator._gather`` under the identity layout, with no trace closed."""
    w = len(pc.controls + pc.qubits)
    lay = (tuple(range(2 * w)), (1 << w,) * 2)
    return simulator._gather(*simulator._gathers([pc], [0], [()], [lay]), inputs, {})[0]


def test_resolving_a_width_12_unclocked_round_stays_small():
    uc, _ = transforms.unclock(_trace_chain(problems.ip2_clocked(1)))
    assert max(len(r.targets) for r in uc.rounds) == 12
    pieces = protocol.lowered(uc)[0]
    simulator._gather_map.cache_clear()  # every index map is built, and counted, here
    tracemalloc.start()
    try:
        for pc in pieces:
            _whole_operator(pc, {ALICE: "1", BOB: "1"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(len(pc.controls + pc.qubits) for pc in pieces) <= 8
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
        embed_operator(ua, ta, m), embed_operator(ub, tb, m)
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
    calls, depth = {"validate": 0, "lower": 0}, []
    real_validate, real_lower = protocol.validate, protocol.lower

    def validate(p):
        calls["validate"] += 1
        return real_validate(p)

    def lower(ref, targets):  # counts the outermost call; lower recurses through this name
        calls["lower"] += not depth
        depth.append(ref)
        try:
            return real_lower(ref, targets)
        finally:
            depth.pop()

    monkeypatch.setattr(protocol, "validate", validate)
    monkeypatch.setattr(protocol, "lower", lower)
    uc, _ = transforms.unclock(tf)
    # built once: each distinct round key and each plan piece lowered once
    keys = {(r.unitary, r.targets) for r in uc.rounds}
    assert len(keys) + len(uc.trace_plan.pieces) == 18
    assert calls == {"validate": 1, "lower": 18}
    calls["validate"] = calls["lower"] = 0
    inputs = {ALICE: "1", BOB: "1"}
    for call in [
        lambda: simulator.run_density(tf, inputs),
        lambda: simulator.run_density(tf, inputs, pin={1: 1, 2: 0}),
        lambda: simulator.run_ensemble(uc, inputs, sample=4, seed=1),
        lambda: [simulator.run_trace(uc, inputs, counter_start=j) for j in range(uc.trace_plan.pairs)],
        lambda: simulator.run_trace(tf, inputs),
        lambda: simulator.measure_bias(k1, problems.ip2_inputs(1), k1.declared_p),
        lambda: density_oracle(k1, inputs),
        lambda: protocol.cost_report(k1),
    ]:
        call()
        assert calls == {"validate": 0, "lower": 0}
    text = protocol.serialize(uc)
    calls["validate"] = calls["lower"] = 0
    protocol.deserialize(text)
    # read back, the plan is lowered once too, by trace_form_spec, and the rounds by validate
    assert calls == {"validate": 1, "lower": 18}


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
    message = r"^need acc0 <= ref-eps <= ref\+eps <= acc1, got \(0.5, 1/2, 1/4, 0.6\)$"
    with pytest.raises(DomainError, match=message):
        simulator.amplify(0.5, 0.6, Fraction(1, 2), Fraction(1, 4))


@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 64), 1e-2, 1e-3])
def test_amplify_tails_match_the_incomplete_beta(eps):
    # scipy as the oracle of each tail, up to t = 4,000,000 at eps = 1e-3; an acc0 of 0 or an
    # acc1 of 1 makes its own tail exactly 0, so each call below returns the other one
    ref = Fraction(1, 2)
    acc0, acc1 = ref - eps, ref + eps
    plan = simulator.repetition_plan(eps, ref)
    t, k = plan.t, plan.threshold - 1
    upper = simulator.amplify(acc0, 1, ref, eps)  # Pr[Bin(t, acc0) >= k + 1]
    lower = simulator.amplify(0, acc1, ref, eps)  # Pr[Bin(t, acc1) <= k]
    assert upper == pytest.approx(betainc(k + 1, t - k, float(acc0)), rel=1e-12, abs=0)
    assert lower == pytest.approx(betainc(t - k, k + 1, float(1 - acc1)), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "acc0, acc1, ref, eps",
    [
        (0.05, 0.95, Fraction(1, 2), Fraction(1, 4)),  # 1 - cdf read 4.43e-26, the other tail
        (0.1, 0.9, Fraction(1, 2), Fraction(1, 8)),
        (0.2, 0.8, Fraction(1, 2), Fraction(1, 4)),  # 1 - cdf kept 9 digits
        (Fraction(3, 8), Fraction(5, 8), Fraction(1, 2), Fraction(1, 8)),
        (0.1, 0.6, Fraction(3, 8), Fraction(1, 8)),
        (1e-9, 1 - 1e-9, Fraction(1, 2), Fraction(1, 4)),  # tp read as m - (m - tp) kept 6 digits
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
    pieces = [(GenU("test_twice_identity", {}, ALICE), (1,)), (explicit(qstate.I2), (1,))]
    p = protocol.trace_form_spec(protocol.TracePlan(0, 1, pieces), (0, 0), "hadamard-test")
    assert protocol.validate(p) == []
    for backend in simulator.BACKENDS:
        with pytest.raises(NumericalIntegrityError, match="outside"):
            simulator.run(p, backend=backend)
