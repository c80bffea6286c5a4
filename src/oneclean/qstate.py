"""Qubit-register linear algebra: fixed gates, Kronecker products, Haar
samplers, the matrix exchange format, and the greedy pairwise ring
contraction behind the density and trace backends.

Conventions used throughout the package:

* qubit 0 is the most significant tensor factor (leftmost ket position),
* all matrices are complex128, row-major,
* the global comparison tolerance is ``TOL = 1e-9`` (absolute).
"""

from __future__ import annotations

import functools
import heapq
import json
import math
from collections import Counter

import numpy as np

from .errors import DimensionError, DomainError, NumericalIntegrityError, ParseError

TOL = 1e-9

# Small fixed gates, exact dyadic entries where possible.
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
SWAP2 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def flip_if_zero(k: int) -> np.ndarray:
    """Bit flip on the first qubit iff the next k qubits are all |0>."""
    dim = 1 << (k + 1)
    m = np.eye(dim, dtype=complex)
    m[[0, 1 << k]] = m[[1 << k, 0]]
    return m


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def num_qubits(dim: int) -> int:
    q = int(dim).bit_length() - 1
    if dim <= 0 or (1 << q) != dim:
        raise DimensionError(f"dimension {dim} is not a power of two")
    return q


def is_hermitian(a: np.ndarray) -> bool:
    return bool(np.max(np.abs(a - a.conj().T)) <= TOL)


def is_unitary(a: np.ndarray) -> bool:
    d = a.shape[0]
    return bool(np.max(np.abs(a.conj().T @ a - np.eye(d))) <= TOL)


def is_projector(a: np.ndarray) -> bool:
    return is_hermitian(a) and bool(np.max(np.abs(a @ a - a)) <= TOL)


def tensor(a, b) -> np.ndarray:
    """Kronecker product; the left operand occupies the most significant qubits."""
    am, bm = _as_matrix(a), _as_matrix(b)
    num_qubits(am.shape[0])
    num_qubits(bm.shape[0])
    return np.kron(am, bm)


def tensor_all(mats) -> np.ndarray:
    out = None
    for m in mats:
        out = _as_matrix(m) if out is None else tensor(out, m)
    if out is None:
        return np.eye(1, dtype=complex)
    return out


# A ring step's own cost in multiply-adds. On one core of a 2-vCPU Xeon host
# (OpenBLAS, one thread) a step on 2 x 2 operands takes about 1.5 us (2.9 us when
# each step transposed its operands anew), and a large one about 0.15 ns a
# multiply-add (0.12-0.17 ns at 2^17-2^20): 1.5 us / 0.15 ns.
RING_STEP_MACS = 10_000


@functools.lru_cache(maxsize=64)
def ring_plan(d: int, piece_axes: tuple[tuple[int, ...], ...], fixed: tuple[int, ...] = ()):
    """The program that contracts Tr(M_last ... M_first) on d qubits pairwise.

    ``piece_axes`` lists each operator's target qubits in application
    order. Operator k becomes a (2,)*2w tensor whose row legs are fresh
    wire labels and whose column legs are the current wires of its
    targets; each qubit's last wire then closes onto its first. The program
    is ``(traces, fold, lay, steps, free, copies, peak)``: per tensor, the
    axis pairs traced at once (a qubit only it touches); the steps over the
    ``fixed`` tensors (the operators no input changes) and their results
    alone; per tensor, the ``(perm, mat)`` that lays its traced tensor out as
    the matrix its step multiplies (``mat`` is () for a scalar); the
    per-call steps; the count of untouched qubits (a factor 2 each); how many
    per-call steps copy their result; and the largest tensor in elements. A
    step ``(a, b, s, shape, perm, mat, n)`` is ``_ring_step``'s ``np.dot`` of
    matrix a by matrix b over s shared legs, its result laid out as tensor n
    (from ``len(traces)`` on) for the step that reads it (``_program``). It
    depends only on the arguments, so it is cached.

    Pairs go smallest result first. With ``fixed``, a fold-first order first
    contracts pairs of fixed tensors, each within the size-only order's
    largest, so that they fold once; it is kept if it peaks no higher and a
    call runs no more steps and costs less, at ``RING_STEP_MACS`` a step.
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

    def order(cap: int) -> tuple:  # pairs (a, b, n) folding within ``cap`` first; what folds; peak; call cost
        live, held, pairs, peak, cost = dict(enumerate(labels)), set(fixed), [], largest, 0
        where: dict = {}  # label -> the two live tensors holding it, older first
        for k, ls in live.items():
            for lab in ls:
                where.setdefault(lab, []).append(k)

        def score(a, b, shared):  # folding pairs, then the smallest result; on a tie, the larger inputs
            width = len(live[a]) + len(live[b])
            size = width - 2 * shared
            return not (a in held and b in held and 1 << size <= cap), size, -width, a, b

        # a live pair's score never changes, so a heap that skips contracted
        # pairs pops them in the order a fresh search over all pairs would
        heap = [score(a, b, s) for (a, b), s in Counter(map(tuple, where.values())).items()]
        heapq.heapify(heap)
        while heap:
            _, size, _, a, b = heapq.heappop(heap)
            if a not in live or b not in live:
                continue
            la, lb = live.pop(a), live.pop(b)
            n = len(labels) + len(pairs)
            pairs.append((a, b, n))
            if a in held and b in held:
                held.add(n)
            else:
                cost += RING_STEP_MACS + (1 << (len(la) + len(lb) + size) // 2)
            live[n] = [lab for lab in la + lb if lab not in la or lab not in lb]
            for lab in live[n]:
                where[lab] = [k for k in where[lab] if k not in (a, b)] + [n]
            for o, c in Counter(where[lab][0] for lab in live[n]).items():
                heapq.heappush(heap, score(o, n, c))
            peak = max(peak, 1 << size)
        return pairs, held, peak, cost

    plan = size_only = order(0)
    if fixed:
        plan = order(size_only[2])
        calls = [len(p[0]) + len(fixed) - len(p[1]) for p in (plan, size_only)]  # per-call steps
        if not (plan[2] <= size_only[2] and calls[0] <= calls[1] and plan[3] < size_only[3]):
            plan = size_only
    fold, lay, steps, copies = _program(labels, *plan[:2])
    return tuple(traces), fold, lay, steps, free, copies, plan[2]


def _program(labels: list, pairs: list, held: set) -> tuple:
    """``ring_plan``'s ``fold``, ``lay``, ``steps`` and ``copies`` for its ``pairs``.

    A step's result holds the left matrix's kept legs, then the right's. One
    pass in step order picks each per-call step's sides so that the step
    reading its result finds the legs it contracts first or last there, in the
    order its other operand holds them, and reads it in place; a result that
    cannot be made so is laid out anew by its step, a copy. Leg orders stay
    open as long as they can: a tensor's legs are a sequence of atoms (sets
    whose order inside is not yet chosen), and a step cuts atoms only where its
    reader needs a block. A piece's tensor and a folded or copied result are
    laid out for the step that reads them. At the end the legs inside each atom
    take one order: a copied result's in the order it is made in, largest first,
    so that its copy moves long runs of legs."""
    legs, reader, cuts = {k: frozenset(ls) for k, ls in enumerate(labels)}, {}, {}
    for a, b, n in pairs:
        legs[n] = legs[a] ^ legs[b]
        reader[a], reader[b] = (n, b), (n, a)

    def flat(seq) -> list:  # the atoms of ``seq`` with every cut made so far
        return [piece for atom in seq for piece in (flat(cuts[atom]) if atom in cuts else [atom])]

    kept: dict = {}  # per-call result -> its atoms, where the step that reads it reads them in place
    made, read = {}, {}  # result -> atoms as made, sides, shared count; tensor -> atoms as read, row count
    turn: dict = {}  # kept result its reader contracts whole, its partner not made yet -> its other sides
    for a, b, n in pairs:
        shared = legs[a] & legs[b]
        own, sigma = {}, None
        for x in (a, b):
            block = _block(flat(kept[x]), shared) if x in kept else None
            own[x], sigma = block or ([legs[x] - shared] * bool(legs[x] - shared), sigma)
        sigma = sigma or [shared]
        c, w = reader.get(n, (None, None))
        z = legs[n] & legs[w] if c is not None and n not in held else frozenset()
        zseq = (_block(flat(kept[w]), z) or (None, None))[1] if w in kept else None
        # the partner's order as made, or, if its reader contracts it whole, with its sides turned
        zseqs = [zseq] + ([flat(turn[w][1] + turn[w][0])] if w in turn else [])
        copied = {x for x in (a, b) if x in made and x not in held | kept.keys()}
        # in place first (z first or last), then z as one run to copy, then the fewest cuts,
        # then copied operands read along long runs
        best = None
        for turned, zs in enumerate(zseqs):
            tries = ((-1, 0, zs), (-1, 1, zs), (0, 0, zs), (0, 0, None)) if z else ()
            for left, right in ((a, b), (b, a)):
                inner = len(shared) * (left in copied) + len(legs[right] - shared) * (right in copied)
                seq = flat(own[left] + own[right])
                for kind, rev, want in (*tries, (1, 0, None)):  # z last: each sequence reversed
                    if rev:
                        seq, want = seq[::-1], want and want[::-1]
                    got = {} if kind > 0 else _run(seq, z, want, kind)
                    if rev:
                        seq, got = seq[::-1], got and {k: v[::-1] for k, v in got.items()}
                    if got is not None and (best is None or (kind, len(got), -inner, turned) < best[0]):
                        best = (kind, len(got), -inner, turned), got, left, right
        (kind, _, _, turned), got, left, right = best
        cuts.update(got)
        if turned:
            ol, orr, sig, wl, wr = turn[w]
            kept[w] = orr + ol
            made[w] = orr + ol, wr, wl, made[w][3]
            read[wr], read[wl] = (orr + sig, sum(map(len, orr))), (sig + ol, made[w][3])
        turn.pop(w, None)
        if kind < 0:
            kept[n] = own[left] + own[right]
            if z == legs[n] and w not in made and w not in held and w >= len(labels):
                turn[n] = own[left], own[right], sigma, left, right
        made[n] = own[left] + own[right], left, right, len(shared)
        read[left] = own[left] + sigma, sum(map(len, own[left]))
        read[right] = sigma + own[right], len(shared)

    rank: dict = {}
    copied_results = reader.keys() - held - kept.keys() - set(range(len(labels)))
    for n in sorted(copied_results, key=lambda r: -len(legs[r])):
        for atom in flat(made[n][0]):
            for lab in sorted(atom - rank.keys()):
                rank[lab] = len(rank)
    key = {lab: (rank.get(lab, len(rank)), lab) for ls in labels for lab in ls}.__getitem__

    def laid(seq) -> list:
        return [lab for atom in flat(seq) for lab in sorted(atom, key=key)]

    lay = []
    for k, ls in enumerate(labels):
        seq, rows = read.get(k, ([], 0))
        lay.append((tuple(map(ls.index, laid(seq))), (1 << rows, 1 << len(ls) - rows) if ls else ()))
    fold, steps, copies = [], [], 0
    for _, _, n in pairs:
        seq, left, right, s = made[n]
        out, rows = read.get(n, ([], 0))
        post, copy = _post(laid(seq), laid(out), rows)
        (fold if n in held else steps).append((left, right, s, *post, n))
        copies += copy and n not in held
    return tuple(fold), tuple(lay), tuple(steps), copies


def _block(seq: list, part: frozenset):
    """Atoms ``seq`` whose first or last atoms hold exactly the legs ``part``, as (the rest, those);
    None if no such atoms are first or last."""
    for j in range(len(seq) + 1):
        if frozenset().union(*seq[:j]) == part:
            return seq[j:], seq[:j]
        if frozenset().union(*seq[len(seq) - j:]) == part:
            return seq[: len(seq) - j], seq[len(seq) - j:]
    return None


def _run(seq: list, z: frozenset, zseq, edge: bool):
    """The cuts of atoms that make the legs ``z`` one run of the atom sequence ``seq`` (its first
    atoms, if ``edge``), in an order that ``zseq`` (z's atoms in another tensor, if given) agrees
    with: {atom: its pieces}, or None."""
    at = [i for i, atom in enumerate(seq) if atom & z]
    i, j = at[0], at[-1]
    if edge and (i or (i < j and not seq[0] <= z)) or not all(seq[k] <= z for k in range(i + 1, j)):
        return None
    found, head = {}, []
    for k in range(i, j + 1):
        head.append(seq[k] & z)
        if not seq[k] <= z:
            found[seq[k]] = [seq[k] - z, seq[k] & z] if k == i < j else [seq[k] & z, seq[k] - z]
    if zseq is None:
        return found
    pieces = [p & q for p in head for q in zseq if p & q]
    at = [next(j for j, q in enumerate(zseq) if piece <= q) for piece in pieces]
    if at != sorted(at):
        return None
    for atom in head + zseq:
        inside = [piece for piece in pieces if piece <= atom]
        if len(inside) > 1:
            found[atom] = inside
    return found


def _post(natural: list, order: list, rows: int) -> tuple:
    """How a step's result, legs ``natural``, becomes the matrix its reader multiplies, legs
    ``order`` with the first ``rows`` on its rows: ``(shape, perm, mat)``, and whether that
    copies. Legs that stay side by side move as one axis, so a copy transposes few axes."""
    r = len(natural)
    mat = (1 << rows, 1 << r - rows) if r else ()
    runs: list = []  # ``order`` as runs of legs side by side in ``natural``: [first position, length]
    for at in map(natural.index, order):
        if runs and sum(runs[-1]) == at:
            runs[-1][1] += 1
        else:
            runs.append([at, 1])
    if len(runs) < 2:
        return (mat, None, None), False
    starts = sorted(at for at, _ in runs)
    shape, perm = tuple(1 << length for _, length in sorted(runs)), tuple(starts.index(at) for at, _ in runs)
    if len(runs) == 2 and runs[0][1] == rows:  # the row legs end ``natural``: a 2-d transpose
        return (shape, perm, None), False
    return (shape, perm, mat), True


def _ring_step(left, right, shape, perm, mat) -> np.ndarray:
    """One ``ring_plan`` step: ``left.dot(right)`` (``np.dot``), reshaped to ``shape`` and then,
    with a ``perm``, transposed (a 2-d transpose if ``mat`` is None, else a copy reshaped to
    ``mat``): the matrix its reader multiplies."""
    out = left.dot(right).reshape(shape)
    if perm is None:
        return out
    return out.T if mat is None else out.transpose(perm).reshape(mat)


def run_steps(arrs: dict, steps) -> dict:
    """Run ``ring_plan`` steps on ``arrs`` (tensor index -> the matrix its step multiplies, as the
    program's ``lay`` and steps lay it out), each result put at its index in its operands' place;
    returns ``arrs``."""
    for a, b, _, shape, perm, mat, n in steps:
        arrs[n] = _ring_step(arrs.pop(a), arrs.pop(b), shape, perm, mat)
    return arrs


def trace_ring(arrs: dict, steps, free: int) -> complex:
    """Tr(M_last ... M_first) of a ring whose tensors ``arrs`` (consumed, folded by ``run_steps``)
    close to scalars once the per-call ``steps`` run; those multiply in tensor-index order,
    times 2 for each of the ``free`` qubits no operator touches."""
    run_steps(arrs, steps)
    return math.prod([complex(arrs[k]) for k in sorted(arrs)], start=complex(1 << free))


def checked_acceptance(val) -> float:
    """An acceptance probability checked real and in [0, 1] within 1e-6, then clamped there.

    Every backend reports through this check, so drift beyond 1e-6 (for
    example from a generator that returned a non-unitary matrix) raises
    instead of being clamped away.
    """
    val = complex(val)
    if abs(val.imag) > 1e-6:
        raise NumericalIntegrityError(f"acceptance has imaginary part {val.imag:.3e}")
    r = val.real
    if r < -1e-6 or r > 1 + 1e-6:
        raise NumericalIntegrityError(f"acceptance {r!r} outside [0,1] beyond tolerance")
    return float(min(max(r, 0.0), 1.0))


def basis_projector(bit: int) -> np.ndarray:
    return np.array([[1.0 - bit, 0], [0, float(bit)]], dtype=complex)


def haar_orthogonal(n: int, seed=None) -> np.ndarray:
    """Haar-random special orthogonal matrix via Gaussian QR with sign correction.

    The diagonal of R is forced positive (Mezzadri), which makes the QR
    output Haar-distributed on O(n); the last column is then flipped when
    det = -1, so the result is Haar-distributed on SO(n).
    """
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    q = q * np.where(d < 0, -1.0, 1.0)
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def haar_unitary(n: int, seed=None) -> np.ndarray:
    """Haar-random unitary: complex Ginibre matrix, QR, phase correction."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


# Matrix exchange format: {"dim": n, "entries": [[[re, im], ...], ...]},
# row-major, shortest-repr decimals (bit-exact float round trip).

def matrix_to_json(m) -> str:
    return json.dumps(matrix_to_obj(m))


def matrix_from_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad matrix text: {e}") from e
    return matrix_from_obj(obj)


def matrix_to_obj(m) -> dict:
    a = _as_matrix(m)
    return {"dim": a.shape[0], "entries": np.stack([a.real, a.imag], axis=-1).tolist()}


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ParseError("matrix object must carry 'dim' and 'entries'")
    dim = obj["dim"]
    try:
        pairs = np.array(obj["entries"])
    except ValueError:  # a ragged grid
        pairs = None
    if pairs is None or pairs.dtype.kind not in "biuf" or pairs.shape != (dim, dim, 2):
        raise ParseError(f"matrix entries do not form a {dim}x{dim} grid of [re, im] number pairs")
    # reinterpreting (re, im) float pairs as complex keeps every bit, signed zeros included
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]
