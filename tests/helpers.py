"""Shared protocol builders for the test suite."""

from __future__ import annotations

import numpy as np

from oneclean import qstate
from oneclean.protocol import (
    ALICE,
    BOB,
    ComposedU,
    GenU,
    Measurement,
    ProtocolSpec,
    RegisterLayout,
    RoundAction,
    explicit,
    register_generator,
)
from oneclean.transforms import hadamard_test_protocol
from oneclean.verify import _toy_rotation_base as toy_rotation_base  # noqa: F401
# the dense two-sided density evolution, independent of both the ring and the column blocks
from oneclean.verify import _two_sided_acceptance as density_oracle  # noqa: F401


def sign_sketch_agreements(a, b, s: int, rng) -> int:
    """Agreements of s Gaussian sign-sketch rounds, drawn round by round.

    The chunked loop that knr_estimate's single Binomial draw replaced,
    kept as the oracle for that draw's law.
    """
    agree = 0
    chunk = 1 << 16
    left = s
    while left:
        m = min(chunk, left)
        r = rng.standard_normal((m, a.size))
        agree += int(np.count_nonzero((r @ a >= 0) == (r @ b >= 0)))
        left -= m
    return agree


@register_generator("matrix_table")
def _gen_matrix_table(params, key):
    if key not in params["table"]:
        raise KeyError(f"no matrix for input {key!r}")
    return qstate.matrix_from_obj(params["table"][key])


def table_ref(player: int, matrices: dict) -> GenU:
    """Input-indexed unitary family resolved from a serialized table."""
    table = {k: qstate.matrix_to_obj(m) for k, m in matrices.items()}
    return GenU("matrix_table", {"table": table}, player)


def random_two_clean(seed: int, mixed: int = 1) -> ProtocolSpec:
    """Random clocked 2-clean protocol with a one-bit Alice input.

    Shape: Alice acts on the clean pair and sends it; Bob acts (and may
    involve his private mixed qubit) and measures a random projector.
    """
    rng = np.random.default_rng(seed)
    qubits = 2 + mixed
    u_a = {b: qstate.haar_unitary(4, rng) for b in ("0", "1")}
    rounds = [
        RoundAction(ALICE, table_ref(ALICE, u_a), (0, 1), frozenset({0, 1}), BOB),
    ]
    bob_targets = tuple(range(qubits))
    rounds.append(
        RoundAction(BOB, explicit(qstate.haar_unitary(1 << qubits, rng)), bob_targets, frozenset(), None)
    )
    rank = int(rng.integers(1, 1 << qubits))
    proj = qstate.random_projector(qubits, rank, rng)
    return ProtocolSpec(
        name=f"rand2clean(seed={seed})",
        players=2,
        layout=RegisterLayout(clean=2, mixed=mixed),
        initial_owner=(ALICE, ALICE) + (BOB,) * mixed,
        rounds=tuple(rounds),
        measurement=Measurement(qubits=bob_targets, projector=proj),
    )


def random_protocol(seed: int, qubits: int, clean: int, single_qubit: bool) -> ProtocolSpec:
    """Random clocked protocol on ``qubits`` qubits with one-bit Alice input.

    Players alternate, each round sending every qubit to the other player;
    targets are random ordered subsets of 1-3 qubits. Round 0 is Alice's
    input-indexed unitary, later rounds explicit or composed Haar unitaries.
    The measurement is one qubit or a random projector on 1-3 qubits.
    """
    rng = np.random.default_rng(seed)
    everything = frozenset(range(qubits))

    def targets():
        w = int(rng.integers(1, min(3, qubits) + 1))
        return tuple(int(t) for t in rng.permutation(qubits)[:w])

    rounds = []
    for i in range(int(rng.integers(2, 5))):
        tg = targets()
        d = 1 << len(tg)
        if i == 0:
            ref = table_ref(ALICE, {b: qstate.haar_unitary(d, rng) for b in "01"})
        elif len(tg) > 1 and rng.random() < 0.5:
            order = tuple(int(t) for t in rng.permutation(len(tg)))
            ref = ComposedU(
                len(tg),
                ((explicit(qstate.haar_unitary(2, rng)), order[:1]),
                 (explicit(qstate.haar_unitary(d, rng)), order)),
            )
        else:
            ref = explicit(qstate.haar_unitary(d, rng))
        rounds.append(RoundAction(i % 2, ref, tg, everything, 1 - i % 2))
    last = rounds[-1]
    rounds[-1] = RoundAction(last.player, last.unitary, last.targets, frozenset(), None)
    if single_qubit:
        measurement = Measurement(single_qubit=int(rng.integers(qubits)))
    else:
        mq = targets()
        rank = int(rng.integers(1, 1 << len(mq)))
        measurement = Measurement(qubits=mq, projector=qstate.random_projector(len(mq), rank, rng))
    return ProtocolSpec(
        name=f"rand(seed={seed})",
        players=2,
        layout=RegisterLayout(clean=clean, mixed=qubits - clean),
        initial_owner=(ALICE,) * qubits,
        rounds=tuple(rounds),
        measurement=measurement,
    )


def random_sq_base(seed: int, rounds: int = 3) -> ProtocolSpec:
    """Random single-qubit-measuring base in the shape to_trace_form expects.

    Qubit 0: measured clean qubit (Bob's, never sent); qubit 1: clean
    (Alice's); qubit 2: mixed workspace bouncing between the players.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(rounds):
        if i % 2 == 0:
            out.append(
                RoundAction(ALICE, explicit(qstate.haar_unitary(4, rng)), (1, 2), frozenset({2}), BOB)
            )
        else:
            out.append(
                RoundAction(BOB, explicit(qstate.haar_unitary(4, rng)), (0, 2), frozenset({2}), ALICE)
            )
    if out[-1].message:
        last = out[-1]
        out[-1] = RoundAction(last.player, last.unitary, last.targets, frozenset(), None)
    return ProtocolSpec(
        name=f"randsq(seed={seed})",
        players=2,
        layout=RegisterLayout(clean=2, mixed=1),
        initial_owner=(BOB, ALICE, ALICE),
        rounds=tuple(out),
        measurement=Measurement(single_qubit=0),
    )


def random_trace_form(seed: int, pairs: int = 4, slots_a: int = 1, slots_b: int = 1) -> ProtocolSpec:
    """Hand-built Hadamard-test protocol with random local pieces."""
    rng = np.random.default_rng(seed)
    # control 0 (Bob's), Bob slots, Alice slots, channel (Bob's: he sends first)
    b_slots = tuple(range(1, 1 + slots_b))
    a_slots = tuple(range(1 + slots_b, 1 + slots_b + slots_a))
    ch = 1 + slots_a + slots_b
    owners = (BOB,) + (BOB,) * slots_b + (ALICE,) * slots_a + (BOB,)
    pieces = []
    for i in range(2 * pairs):
        tg = b_slots + (ch,) if i % 2 == 0 else a_slots + (ch,)
        pieces.append((explicit(qstate.haar_unitary(1 << len(tg), rng)), tg))
    return hadamard_test_protocol(pieces, owners, ch, name=f"randtf(seed={seed})")


def bit_inputs(n: int = 1):
    """Labeled one-bit Alice inputs: '1' labeled 1, '0' labeled 0."""
    return [({ALICE: "0", BOB: ""}, 0), ({ALICE: "1", BOB: ""}, 1)]


def oneway_protocol(ua, targets_a, ub, targets_b, m) -> ProtocolSpec:
    """One-way one-clean protocol realizing the tr(U_B U_A)/2^(m+1) bias.

    ``targets_a``/``targets_b`` index the m mixed qubits; Alice holds
    everything except Bob's private remainder and sends the control plus
    whatever Bob's unitary touches.
    """
    from oneclean.protocol import ControlledU

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
    message = frozenset({0} | {1 + t for t in targets_b if owners[1 + t] == ALICE})
    return ProtocolSpec(
        name="oneway",
        players=2,
        layout=RegisterLayout(clean=1, mixed=m),
        initial_owner=tuple(owners),
        rounds=(
            RoundAction(ALICE, alice, (0,) + tuple(1 + t for t in targets_a), message, BOB),
            RoundAction(BOB, bob, (0,) + tuple(1 + t for t in targets_b), frozenset(), None),
        ),
        measurement=Measurement(single_qubit=0),
    )
