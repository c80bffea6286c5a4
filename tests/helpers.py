"""Shared protocol builders for the test suite."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from oneclean import protocol, qstate, simulator
from oneclean.classical import codebook_size
from oneclean.errors import DimensionError, DomainError
from oneclean.problems import AbcInstance
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
    TracePlan,
    explicit,
    register_generator,
    trace_form_spec,
)
from oneclean.verify import _toy_rotation_base as toy_rotation_base  # noqa: F401

# descriptors written by earlier format versions, named <spec>_v<version>.json
DATA = Path(__file__).parent / "data"


# The dense kernel that the ring and ensemble engines replaced, kept as their
# oracle: a 2^n x 2^n density matrix with each round applied on both sides.
def _check_targets(targets, q: int) -> tuple[int, ...]:
    ts = tuple(int(t) for t in targets)
    if len(set(ts)) != len(ts):
        raise IndexError(f"repeated target in {ts}")
    for t in ts:
        if not 0 <= t < q:
            raise IndexError(f"qubit index {t} out of range for {q} qubits")
    return ts


def _contract(tensor_arr: np.ndarray, u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract u (2^s x 2^s) into the given row axes of a (2,)* tensor."""
    s = len(axes)
    ut = u.reshape((2,) * (2 * s))
    out = np.tensordot(ut, tensor_arr, axes=(tuple(range(s, 2 * s)), axes))
    return np.moveaxis(out, tuple(range(s)), axes)


def apply_on_subset(rho, u, targets) -> np.ndarray:
    """Return (U_embedded) rho (U_embedded)^dagger.

    ``targets`` is an ordered qubit list; the unitary's tensor factors
    follow that order, so e.g. targets (2, 0) puts the unitary's most
    significant factor on qubit 2.
    """
    rm, um = qstate._as_matrix(rho), qstate._as_matrix(u)
    q = qstate.num_qubits(rm.shape[0])
    ts = _check_targets(targets, q)
    if um.shape[0] != 1 << len(ts):
        raise DimensionError(f"unitary dim {um.shape[0]} != 2^{len(ts)}")
    t = rm.reshape((2,) * (2 * q))
    t = _contract(t, um, ts)
    t = _contract(t, um.conj(), tuple(q + i for i in ts))
    return t.reshape(rm.shape)


def embed_operator(m, targets, q: int) -> np.ndarray:
    """Dense 2^q x 2^q embedding of a local operator (identity elsewhere)."""
    um = qstate._as_matrix(m)
    ts = _check_targets(targets, q)
    if um.shape[0] != 1 << len(ts):
        raise DimensionError(f"operator dim {um.shape[0]} != 2^{len(ts)}")
    eye = np.eye(1 << q, dtype=complex).reshape((2,) * q + (1 << q,))
    out = _contract(eye, um, ts)
    return out.reshape(1 << q, 1 << q)


def accept_probability(rho, p) -> float:
    """Tr(P rho), checked by :func:`qstate.checked_acceptance`."""
    rm, pm = qstate._as_matrix(rho), qstate._as_matrix(p)
    if rm.shape != pm.shape:
        raise DimensionError(f"projector dim {pm.shape[0]} != state dim {rm.shape[0]}")
    return qstate.checked_acceptance(np.einsum("ij,ji->", pm, rm))


def random_projector(q: int, rank: int, seed=None) -> np.ndarray:
    """Random rank-r projector on q qubits (Haar-rotated diagonal)."""
    d = 1 << q
    if not 0 <= rank <= d:
        raise DomainError(f"rank {rank} outside [0, {d}]")
    u = qstate.haar_unitary(d, seed)
    diag = np.zeros(d)
    diag[:rank] = 1.0
    return (u * diag) @ u.conj().T


def density_oracle(p: ProtocolSpec, inputs=None, pin=None) -> float:
    """Tr(P rho) from the dense 2^n x 2^n density matrix, each round applied on
    both sides: the reference for ``simulator.run_density``'s ring and
    ``simulator.run_ensemble``'s sparse branches. rho0 follows the backends'
    pin rule (``simulator._fixed_bits``)."""
    fixed = simulator._fixed_bits(p, pin)
    rho = qstate.tensor_all(
        [qstate.basis_projector(fixed[q]) if q in fixed else qstate.I2 / 2.0 for q in range(p.layout.total)]
    )
    pieces = protocol.lowered(p)[0]
    for pc, m in zip(pieces, piece_matrices(pieces, inputs)):
        rho = apply_on_subset(rho, m, pc.controls + pc.qubits)
    proj, support = p.measurement.operator()
    return accept_probability(rho, embed_operator(proj, support, p.layout.total))


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
    rounds = inline_matrices(protocol.to_descriptor(dataclasses.replace(p)))
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


# The spherical-cap codebook that ``classical.best_aligned``'s exact-law draw
# replaced in ``abc_classical``, kept as that draw's oracle.
@dataclass(frozen=True)
class CapCodebook:
    """Shared random unit vectors T with |T| = ceil(32 sqrt(k) e^(2k))."""

    n: int
    k: int
    vectors: np.ndarray
    seed: object = None

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def index_bits(self) -> int:
        return math.ceil(math.log2(self.size))


def cap_codebook(n: int, k: int, seed=None) -> CapCodebook:
    """Draw the prescribed number of Haar unit vectors in S^(n-1)."""
    if not 1 <= k <= n / 4:
        raise DomainError(f"cap parameter k={k} outside [1, n/4] at n={n}")
    rng = np.random.default_rng(seed)
    size = codebook_size(k)
    vecs = rng.standard_normal((size, n))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return CapCodebook(n=n, k=k, vectors=vecs, seed=seed)


def true_alignment(inst: AbcInstance, i: int, book: CapCodebook) -> float:
    """Exact <A_i, B w> for the best-aligned codebook vector w.

    Equals label times the codebook's maximal inner product with C_i.
    """
    c_col = inst.c[:, i]
    best_vec = book.vectors[int(np.argmax(book.vectors @ c_col))]
    return float(inst.a[i, :] @ (inst.b @ best_vec))


def recursive_disc_oracle(entries, weights):
    """Discrepancy by a recursive walk over every row subset, each scored by
    the best column set of its column sums."""
    rows, cols = entries.shape
    signed = entries * weights
    best = 0.0

    def rec(i, chosen):
        nonlocal best
        if i == rows:
            if not chosen:
                return
            colsum = signed[list(chosen)].sum(axis=0)
            pos = colsum[colsum > 0].sum()
            neg = -colsum[colsum < 0].sum()
            best = max(best, pos, neg)
            return
        rec(i + 1, chosen)
        rec(i + 1, chosen + (i,))

    rec(0, ())
    return best


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
    proj = random_projector(qubits, rank, rng)
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
        measurement = Measurement(qubits=mq, projector=random_projector(len(mq), rank, rng))
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
    return trace_form_spec(TracePlan(0, ch, pieces), owners, f"randtf(seed={seed})")


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
            pos = _check_targets(pos, width)
            out = _contract(out, dense_ref_oracle(sub, inputs, len(pos)), pos)
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
            bfull = embed_operator(m, local, nb)
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


def ring_tensor(m: np.ndarray, pairs) -> np.ndarray:
    """A local operator as a (2,)*2w tensor, with the axis ``pairs`` that ``qstate.ring_plan``
    traces closed by one ``np.trace`` each: the reference for ``simulator._gather``."""
    t = m.reshape((2,) * (2 * qstate.num_qubits(m.shape[0])))
    for i, j in pairs:
        t = np.trace(t, axis1=i, axis2=j)
    return np.asarray(t)


def laid_tensor(m: np.ndarray, pairs, lay) -> np.ndarray:
    """``ring_tensor`` laid out by a ring program's ``(perm, mat)``, as the matrix its step multiplies."""
    perm, mat = lay
    return np.asarray(ring_tensor(m, pairs).transpose(perm).reshape(mat))


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


def is_monomial(m) -> bool:
    """One nonzero in each column and in each row: a permutation times phases."""
    return bool((np.count_nonzero(m, axis=0) == 1).all() and (np.count_nonzero(m, axis=1) == 1).all())


def step_matrix(steps, w: int) -> np.ndarray:
    """The 2^w x 2^w matrix of ``simulator._evolve`` through ``steps`` on a w-qubit
    register: column j evolves basis state j as a branch of its own."""
    local = np.arange(1 << w)
    keys, amps = simulator._evolve((local << w) | local, steps)
    assert len(np.unique(keys)) == len(keys) and np.all(amps != 0)
    out = np.zeros((1 << w, 1 << w), dtype=complex)
    out[keys & ((1 << w) - 1), keys >> w] = amps
    return out


def piece_matrices(pieces, inputs) -> list:
    """Each lowered piece as one operator on its controls then its qubits, built
    by ``np.kron``: its leaf (conjugate-transposed when ``adjoint``) where the
    controls read its value, the identity elsewhere. The tests' reference for
    the operators that ``simulator._gather`` gathers."""
    ops = []
    for pc in pieces:
        m = protocol.resolve_ref(pc.leaf, len(pc.qubits), inputs)
        m = m.conj().T if pc.adjoint else m
        on = np.zeros((1 << len(pc.controls),) * 2)
        on[pc.value, pc.value] = 1
        ops.append(np.kron(on, m) + np.kron(np.eye(len(on)) - on, np.eye(len(m))))
    return ops


def check_steps(pieces, inputs, want=None) -> int:
    """Assert what ``simulator._ensemble_step`` promises of lowered ``pieces``;
    return the number of pieces that run as moves.

    Each piece's operator is ``piece_matrices``'s. Its step moves entries
    exactly when that operator is a permutation times phases, and evolving
    every basis state through the step gives the operator within 1e-12, with
    distinct keys and no zero amplitude. With ``want``, a 2^w x 2^w matrix,
    the steps of all the pieces on the w-qubit register must also multiply to
    it within 1e-12.
    """
    ops, moves = [], 0
    for pc, op in zip(pieces, piece_matrices(pieces, inputs)):
        axes = pc.controls + pc.qubits
        step = simulator._ensemble_step(tuple(range(len(axes) - 1, -1, -1)), op)
        assert (len(step) == 3) == is_monomial(op)
        assert np.max(np.abs(step_matrix([step], len(axes)) - op)) < 1e-12
        moves += len(step) == 3
        ops.append((axes, op))
    if want is not None:
        w = qstate.num_qubits(len(want))
        steps = [simulator._ensemble_step(tuple(w - 1 - q for q in axes), op) for axes, op in ops]
        assert np.max(np.abs(step_matrix(steps, w) - want)) < 1e-12
    return moves


# ``problems.razborov_sample`` as it was before it built its strings from Python
# lists, kept as the oracle for an identical seeded stream.
def razborov_sample_oracle(n: int, which: str, seed=None) -> tuple[str, str]:
    """Draw a hard input pair of length n/2+1 from mu0 or mu1 (parameters checked by the caller)."""
    length = n // 2 + 1
    weight = length // 4
    perm = np.random.default_rng(seed).permutation(length)
    xs = perm[:weight]
    if which == "mu1":
        ys = perm[weight : 2 * weight]
    else:
        ys = np.concatenate((perm[:1], perm[weight : 2 * weight - 1]))
    x = ["0"] * length
    y = ["0"] * length
    for i in xs:
        x[i] = "1"
    for i in ys:
        y[i] = "1"
    return "".join(x), "".join(y)
