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
# (OpenBLAS, one thread) a step on 2 x 2 operands takes about 2.4 us, and a large
# one about 0.15 ns a multiply-add (0.12-0.17 ns at 2^17-2^20): 2.4 us / 0.15 ns.
RING_STEP_MACS = 16_000


@functools.lru_cache(maxsize=64)
def ring_plan(d: int, piece_axes: tuple[tuple[int, ...], ...], fixed: tuple[int, ...] = ()):
    """The program that contracts Tr(M_last ... M_first) on d qubits pairwise.

    ``piece_axes`` lists each operator's target qubits in application
    order. Operator k becomes a (2,)*2w tensor whose row legs are fresh
    wire labels and whose column legs are the current wires of its
    targets; each qubit's last wire then closes onto its first. The plan
    is ``(traces, fold, lay, steps, free, peak)``: per tensor, the axis
    pairs traced at once (a qubit only it touches); the steps over the
    ``fixed`` tensors (the operators no input changes) and their results
    alone; a ``(k, perm, shape)`` for each folded tensor k that a per-call
    step reads, laying it out as the matrix that step multiplies; the
    per-call steps, whose perm for such a k is None; the count of untouched
    qubits (a factor 2 each); and the largest tensor in elements. A step
    ``(a, b, perm_a, perm_b, s, n)`` is ``_ring_step``'s ``np.dot`` of tensors
    a and b over s shared legs, into tensor n (from ``len(traces)`` on).
    It depends only on the arguments, so it is cached.

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

    def order(cap: int) -> tuple:  # the plan that folds pairs within ``cap`` first, and a call's cost
        live, held, fold, lay, steps, peak, cost = dict(enumerate(labels)), set(fixed), [], [], [], largest, 0
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
            shared = [lab for lab in la if lab in lb]
            s, n = len(shared), len(labels) + len(fold) + len(steps)
            keep_a, keep_b = ([i for i, lab in enumerate(ls) if lab not in shared] for ls in (la, lb))
            perm_a, perm_b = (*keep_a, *map(la.index, shared)), (*map(lb.index, shared), *keep_b)
            if a in held and b in held:
                held.add(n)
                fold.append((a, b, perm_a, perm_b, s, n))
            else:  # a folded operand is laid out once, as the matrix this step multiplies
                lay += [(a, perm_a, (1 << len(la) - s, 1 << s))] if a in held else []
                lay += [(b, perm_b, (1 << s, 1 << len(lb) - s))] if b in held else []
                steps.append((a, b, None if a in held else perm_a, None if b in held else perm_b, s, n))
                cost += RING_STEP_MACS + (1 << size + s)
            live[n] = [lab for lab in la + lb if lab not in shared]
            for lab in live[n]:
                where[lab] = [k for k in where[lab] if k not in (a, b)] + [n]
            for o, c in Counter(where[lab][0] for lab in live[n]).items():
                heapq.heappush(heap, score(o, n, c))
            peak = max(peak, 1 << size)
        return (tuple(traces), tuple(fold), tuple(lay), tuple(steps), free, peak), cost

    size_only, cost = order(0)
    plan, fold_cost = order(size_only[-1]) if fixed else (size_only, cost)
    if plan[-1] <= size_only[-1] and len(plan[3]) <= len(size_only[3]) and fold_cost < cost:
        return plan
    return size_only


def ring_tensor(m: np.ndarray, pairs) -> np.ndarray:
    """A local operator as a (2,)*2w tensor, with the axis ``pairs`` that ``ring_plan`` traces
    closed; an array even when every axis closes, so that it can be made read-only."""
    t = m.reshape((2,) * (2 * num_qubits(m.shape[0])))
    for i, j in pairs:
        t = np.trace(t, axis1=i, axis2=j)
    return np.asarray(t)


def _ring_step(left, right, perm_a, perm_b, s) -> np.ndarray:
    """One ``ring_plan`` step: an ``np.dot`` of two tensors over their s shared legs. A side
    whose perm is None is already the matrix it multiplies (a ``lay`` entry laid it out)."""
    left = left if perm_a is None else left.transpose(perm_a).reshape(-1, 1 << s)
    right = right if perm_b is None else right.transpose(perm_b).reshape(1 << s, -1)
    out = np.dot(left, right)
    return out.reshape((2,) * (out.size.bit_length() - 1))


def _run_steps(arrs: dict, steps) -> None:
    for a, b, perm_a, perm_b, s, n in steps:
        arrs[n] = _ring_step(arrs.pop(a), arrs.pop(b), perm_a, perm_b, s)


def fold_ring(arrs: dict, fold, lay) -> None:
    """Run a ``ring_plan``'s ``fold`` steps on ``arrs`` (tensor index -> ``ring_tensor``), each
    result put at its index in its operands' place, then lay out each ``lay`` entry's tensor as
    the very matrix its per-call step would pass to ``np.dot``, so results keep their bits."""
    _run_steps(arrs, fold)
    for k, perm, shape in lay:
        arrs[k] = arrs[k].transpose(perm).reshape(shape)


def trace_ring(arrs: dict, steps, free: int) -> complex:
    """Tr(M_last ... M_first) of a ring whose tensors ``arrs`` (consumed, folded by ``fold_ring``)
    close to scalars once the per-call ``steps`` run; those multiply in tensor-index order,
    times 2 for each of the ``free`` qubits no operator touches."""
    _run_steps(arrs, steps)
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
