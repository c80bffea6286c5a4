"""Shared protocol builders for the test suite."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from oneclean import protocol, qstate, simulator
from oneclean.errors import DomainError
from oneclean.protocol import (
    ALICE,
    BOB,
    AdjointU,
    ComposedU,
    ControlledU,
    DispatchU,
    ExplicitU,
    FlagStateU,
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

# descriptors written by earlier format versions, named <spec>_v<version>.json
DATA = Path(__file__).parent / "data"


def inline_matrices(desc: dict) -> dict:
    """A version-3 descriptor with each explicit matrix written inline in its
    leaf, as versions 1 and 2 wrote it, and no ``matrices`` list."""

    def inline(obj):
        if isinstance(obj, list):
            return [inline(v) for v in obj]
        if not isinstance(obj, dict):
            return obj
        if obj.get("kind") == "explicit":
            return {**obj, "matrix": desc["matrices"][obj["matrix"]]}
        return {k: inline(v) for k, v in obj.items()}

    return {k: inline(v) for k, v in desc.items() if k != "matrices"}


def v1_descriptor(p: ProtocolSpec) -> dict:
    """``p``'s descriptor in format version 1, which states the rounds and
    layout of a trace form beside its plan, with every matrix inline."""
    rounds = inline_matrices(protocol.to_descriptor(dataclasses.replace(p, trace_plan=None)))
    return {**rounds, **inline_matrices(protocol.to_descriptor(p)), "version": 1}


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


def cap_probability_gaussian(n: int, k: int, samples: int, seed=None) -> float:
    """Fraction of ``samples`` Haar draws W with W_1^2 >= k/n, drawn vector by vector.

    The chunked Gaussian loop that cap_probability_mc's single Binomial
    draw replaced, kept as the oracle for that draw's law.
    """
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 1 << 17
    left = samples
    while left:
        m = min(chunk, left)
        w = rng.standard_normal((m, n))
        first_sq = w[:, 0] ** 2 / np.einsum("ij,ij->i", w, w)
        hits += int(np.count_nonzero(first_sq >= k / n))
        left -= m
    return hits / samples


def exact_amplify(acc0, acc1, ref, eps) -> Fraction:
    """simulator.amplify's error, max(Pr[Bin(t, acc1) < threshold],
    Pr[Bin(t, acc0) >= threshold]), summed in exact arithmetic."""
    plan = simulator.repetition_plan(eps, ref)
    t, a0, a1 = plan.t, Fraction(acc0), Fraction(acc1)
    err0 = sum(math.comb(t, j) * a0**j * (1 - a0) ** (t - j) for j in range(plan.threshold, t + 1))
    err1 = sum(math.comb(t, j) * a1**j * (1 - a1) ** (t - j) for j in range(plan.threshold))
    return max(err0, err1)


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


# The dense resolution that ``protocol.lower`` replaced, kept as its oracle:
# a reference resolved to one 2^width x 2^width matrix.
def dense_ref_oracle(ref, inputs, width: int) -> np.ndarray:
    """Resolve a unitary reference to a dense 2^width x 2^width matrix."""
    if isinstance(ref, ExplicitU):
        m = ref.matrix
        if m.shape[0] != 1 << width:
            raise DomainError(f"explicit matrix dim {m.shape[0]} != 2^{width}")
        return m
    if isinstance(ref, GenU):
        fn = protocol.generator(ref.name)
        player_input = None if inputs is None else inputs.get(ref.input_player)
        m = np.asarray(fn(ref.params, player_input), dtype=complex)
        if m.shape[0] != 1 << width:
            raise DomainError(
                f"generator {ref.name!r} produced dim {m.shape[0]}, expected 2^{width}"
            )
        return m
    if isinstance(ref, AdjointU):
        return dense_ref_oracle(ref.inner, inputs, width).conj().T
    if isinstance(ref, ControlledU):
        inner = dense_ref_oracle(ref.inner, inputs, width - 1)
        d = inner.shape[0]
        out = np.eye(2 * d, dtype=complex)
        out[d:, d:] = inner
        return out
    if isinstance(ref, ComposedU):
        if ref.width != width:
            raise DomainError(f"composed width {ref.width} != {width}")
        # fold each factor into the columns of the identity, on its positions only
        out = np.eye(1 << width, dtype=complex).reshape((2,) * width + (1 << width,))
        for sub, pos in ref.factors:
            pos = qstate._check_targets(pos, width)
            out = qstate._contract(out, dense_ref_oracle(sub, inputs, len(pos)), pos)
        return out.reshape(1 << width, 1 << width)
    if isinstance(ref, DispatchU):
        return _resolve_dispatch(ref, inputs, width)
    if isinstance(ref, FlagStateU):
        k = width - 1
        u = dense_ref_oracle(ref.inner, inputs, k)
        phi = u[:, 0]
        p = np.outer(phi, phi.conj())
        return np.kron(qstate.X, p) + np.kron(qstate.I2, np.eye(1 << k) - p)
    raise DomainError(f"unknown unitary reference {type(ref).__name__}")


def _resolve_dispatch(ref: DispatchU, inputs, width: int) -> np.ndarray:
    w = len(ref.selector)
    if len(ref.branches) != 1 << w:
        raise DomainError(
            f"dispatch needs {1 << w} branches for a {w}-qubit selector, "
            f"got {len(ref.branches)}"
        )
    nonsel = [p for p in range(width) if p not in ref.selector]
    nb = len(nonsel)
    full = np.zeros((2,) * (2 * width), dtype=complex)
    for i, branch in enumerate(ref.branches):
        if branch is None:
            bfull = np.eye(1 << nb, dtype=complex)
        else:
            sub, pos = branch
            m = dense_ref_oracle(sub, inputs, len(pos))
            local = tuple(nonsel.index(p) for p in pos)
            bfull = qstate.embed_operator(m, local, nb)
        j = (i + ref.increment) % (1 << w)
        idx: list = [slice(None)] * (2 * width)
        for axpos, bit in zip(ref.selector, _bits(j, w)):
            idx[axpos] = bit
        for axpos, bit in zip(ref.selector, _bits(i, w)):
            idx[width + axpos] = bit
        full[tuple(idx)] = bfull.reshape((2,) * (2 * nb))
    return full.reshape(1 << width, 1 << width)


def _bits(value: int, width: int) -> tuple:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


# ``qstate.ring_plan`` as it was before it kept its owner map and scores
# incrementally: the oracle for identical plans.
def ring_plan_oracle(d: int, piece_axes: tuple[tuple[int, ...], ...]):
    """Greedy pairwise contraction order for Tr(M_last ... M_first) on d qubits.

    ``piece_axes`` lists each operator's target qubits in application
    order. Operator k becomes a (2,)*2w tensor whose row legs are fresh
    wire labels and whose column legs are the current wires of its
    targets; each qubit's last wire then closes onto its first. The plan
    is ``(traces, steps, free, largest)``: per-tensor pairs of axes traced
    at once (a qubit only that tensor touches), the (a, b, perm_a, perm_b,
    s) steps, each an ``np.tensordot`` over s shared legs with its axis
    order fixed here, appending its result as the next tensor, the count
    of untouched qubits (a factor 2 each), and the largest tensor in
    elements. It depends only on the arguments, so it is cached.
    """
    cur = list(range(d))
    nxt = d
    labels = []
    for axes in piece_axes:
        outs = list(range(nxt, nxt + len(axes)))
        nxt += len(axes)
        labels.append(outs + [cur[q] for q in axes])
        for q, o in zip(axes, outs):
            cur[q] = o
    free = sum(c == q for q, c in enumerate(cur))
    close = {c: q for q, c in enumerate(cur)}
    labels = [[close.get(lab, lab) for lab in ls] for ls in labels]
    largest = max((1 << len(ls) for ls in labels), default=1)
    traces = []
    for ls in labels:
        pairs = []
        for lab in sorted({lab for lab in ls if ls.count(lab) == 2}):
            i = ls.index(lab)
            j = ls.index(lab, i + 1)
            pairs.append((i, j))
            del ls[j], ls[i]
        traces.append(tuple(pairs))
    live = dict(enumerate(labels))
    steps = []
    while True:
        owners = {}
        for k, ls in live.items():
            for lab in ls:
                owners.setdefault(lab, []).append(k)
        # smallest result first; on a tie, the pair with the larger inputs
        cands = []
        for a, b in {tuple(ks) for ks in owners.values()}:
            width = len(live[a]) + len(live[b])
            cands.append((width - 2 * len(set(live[a]) & set(live[b])), -width, a, b))
        if not cands:
            break
        size, _, a, b = min(cands)
        la, lb = live.pop(a), live.pop(b)
        shared = [lab for lab in la if lab in lb]
        keep_a, keep_b = ([i for i, lab in enumerate(ls) if lab not in shared] for ls in (la, lb))
        perm_a, perm_b = (*keep_a, *map(la.index, shared)), (*map(lb.index, shared), *keep_b)
        steps.append((a, b, perm_a, perm_b, len(shared)))
        live[len(labels) + len(steps) - 1] = [lab for lab in la + lb if lab not in shared]
        largest = max(largest, 1 << size)
    return tuple(traces), tuple(steps), free, largest


def _embedded_oracle(m, positions, w: int) -> np.ndarray:
    """``m`` on ``positions`` of a w-qubit register, by ``np.kron`` and an axis permutation."""
    full = np.kron(m, np.eye(1 << (w - len(positions)))).reshape((2,) * (2 * w))
    order = list(positions) + [q for q in range(w) if q not in positions]
    perm = [order.index(q) for q in range(w)]
    return full.transpose(perm + [w + i for i in perm]).reshape(1 << w, 1 << w)


def check_fusion(pieces, inputs) -> int:
    """Assert what ``simulator._fusion_groups`` promises of lowered ``pieces``;
    return the number of groups with more than one part.

    The groups cover the pieces in order; each shares one (controls, value),
    lists its qubits in order of first use and keeps 2^|union| at most the
    sum of 2^|qubits| over its parts; a group ends before a piece with its
    key only where taking that piece would break the bound; and each fused
    operator equals the product of its parts, embedded without ``_contract``,
    within 1e-12.
    """
    from oneclean import simulator

    mats = [protocol.resolve_ref(pc, inputs) for pc in pieces]
    groups = simulator._fusion_groups(tuple((pc[1], pc[3], pc[4]) for pc in pieces))
    assert [i for _, group in groups for i in group] == list(range(len(pieces)))
    for k, (union, group) in enumerate(groups):
        key = pieces[group[0]][3:]
        assert all(pieces[i][3:] == key for i in group)
        assert union == tuple(dict.fromkeys(q for i in group for q in pieces[i][1]))
        cost = sum(1 << len(pieces[i][1]) for i in group)
        assert 1 << len(union) <= cost
        if k + 1 < len(groups) and pieces[groups[k + 1][1][0]][3:] == key:
            after = pieces[groups[k + 1][1][0]][1]
            assert 1 << len(set(union) | set(after)) > cost + (1 << len(after))
        w = len(union)
        want = np.eye(1 << w, dtype=complex)
        for i in group:
            want = _embedded_oracle(mats[i], [union.index(q) for q in pieces[i][1]], w) @ want
        got = simulator._fused_operator(union, [(pieces[i][1], mats[i]) for i in group])
        assert np.max(np.abs(got - want)) < 1e-12
    return sum(len(group) > 1 for _, group in groups)
