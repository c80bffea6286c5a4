"""Exact acceptance-probability backends and the amplification harness.

Three backends compute the same number on two engines. All of them run
each round (or trace-form piece) as its lowered pieces from
``protocol.lower``: a leaf matrix on a few qubits, applied where its
control qubits read a value. No round is built as one dense matrix.

* ``run_density`` and ``run_trace`` contract a closed ring of those
  pieces pairwise (``qstate.ring_plan``), never building a 2^n x 2^n
  array; a controlled piece enters the ring as the identity except its
  value block. Density's ring is Tr(U^dagger P U rho0) for
  rho0 = |0><0|^k (x) pinned bits (x) I, over 2^f; trace's is the
  Hadamard-test formula 1/2 + Re Tr(product of pieces) / 2^(d+1) of a
  trace-form protocol. Both are bounded by the planned largest
  intermediate in bytes (``TRACE_MAX_BYTES``), checked before any piece
  is resolved.
* ``run_ensemble`` evolves the mixed register's basis states as pure
  columns (<= 20 qubits), in blocks of about ``ENSEMBLE_BLOCK_BYTES``,
  applying each piece only to the slice where its controls read its
  value; exact with ``sample="all"``, and independent of the ring engine.
  The columns are float64 when every resolved piece and the measurement
  projector are real, which holds for every built-in family and chain,
  and complex128 otherwise. Consecutive pieces with the same controls and
  value run as one fused operator (``_fusion_groups``) when that saves
  passes over the columns without adding multiply-adds.

``amplify`` reads each binomial tail of the repetition harness as one
regularized incomplete beta. It is the module's only use of scipy, which
it imports on its first call, so importing the module loads only numpy.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import qstate
from .errors import BackendLimitError, DimensionError, DomainError, ShapeError
from .protocol import ProtocolSpec, lower, q1_cost, resolve_ref

ENSEMBLE_QUBIT_LIMIT = 20
ENSEMBLE_BLOCK_BYTES = 1 << 20  # one block of state columns: 64 real or 32 complex at 11 qubits
TRACE_MAX_BYTES = 1 << 30


@dataclass(frozen=True)
class RunReport:
    """Result of one protocol evaluation on one input."""

    acceptance: float
    backend: str
    seed: Optional[int] = None
    elapsed: float = 0.0

    CSV_HEADER = "input,acceptance,backend,seed,elapsed"


@dataclass(frozen=True)
class RepetitionPlan:
    """Repeat t times, accept iff at least ``threshold`` runs accepted."""

    t: int
    threshold: int


def initial_density(p: ProtocolSpec, pin: Optional[dict] = None) -> np.ndarray:
    """|0><0|^k (x) I/2^m, with the qubits that ``_fixed_bits`` fixes in their basis states."""
    fixed = _fixed_bits(p, pin)
    return qstate.tensor_all(
        [qstate.basis_projector(fixed[q]) if q in fixed else qstate.I2 / 2.0 for q in range(p.layout.total)]
    )


def _fixed_bits(p: ProtocolSpec, pin: Optional[dict]) -> dict:
    """Qubit -> basis bit for every qubit that is not totally mixed.

    The one pin rule of every backend: clean qubits stay |0>, pinned mixed
    qubits take their bit (0 or 1, else ``DomainError``), and other pin
    keys are ignored.
    """
    pin = pin or {}
    mixed = range(p.layout.clean, p.layout.total)
    if any(pin[q] not in (0, 1) for q in mixed if q in pin):
        raise DomainError(f"pinned bits must be 0 or 1, got {pin}")
    fixed = dict.fromkeys(range(p.layout.clean), 0)
    fixed.update((q, int(pin[q])) for q in mixed if q in pin)
    return fixed


def _checked_ring(backend: str, d: int, piece_axes):
    """``qstate.ring_plan`` for the pieces, refused with ``BackendLimitError``
    when its largest intermediate would exceed ``TRACE_MAX_BYTES``."""
    ring = qstate.ring_plan(d, piece_axes)
    need = ring[-1] * np.dtype(complex).itemsize
    if need > TRACE_MAX_BYTES:
        raise BackendLimitError(
            f"{backend} contraction over {d} qubits needs a {need}-byte intermediate, "
            f"over the ring bound TRACE_MAX_BYTES = {TRACE_MAX_BYTES} bytes"
        )
    return ring


def _piece_matrices(pieces, inputs) -> list:
    """Each lowered piece as one operator on its controls then its qubits:
    the identity except the block where the controls read the piece's value."""
    mats = []
    for pc in pieces:
        m, c, d = resolve_ref(pc, inputs), 1 << len(pc[3]), 1 << len(pc[1])
        if c > 1:
            block = np.eye(c * d, dtype=complex).reshape(c, d, c, d)
            block[pc[4], :, pc[4], :] = m
            m = block.reshape(c * d, c * d)
        mats.append(m)
    return mats


def run_density(p: ProtocolSpec, inputs=None, pin: Optional[dict] = None) -> RunReport:
    """Exact acceptance probability Tr(P U rho0 U^dagger) as a closed ring.

    rho0 is |0><0| on the clean qubits, |b><b| on each pinned mixed qubit
    and I/2^f on the f free ones, so the acceptance is the ring trace of,
    in application order, those basis projectors, the pieces of U_1 ... U_r,
    P and the adjoint pieces of U_r ... U_1, over 2^f. The ring is planned
    and checked against ``TRACE_MAX_BYTES`` before any piece is resolved.
    """
    t0 = time.perf_counter()
    fixed = _fixed_bits(p, pin)
    proj, support = p.measurement.operator()
    pieces = [pc for r in p.rounds for pc in lower(r.unitary, r.targets)]
    axes = [pc[3] + pc[1] for pc in pieces]
    ring_axes = [(q,) for q in fixed] + axes + [support] + axes[::-1]
    ring = _checked_ring("density", p.layout.total, tuple(ring_axes))
    mats = _piece_matrices(pieces, inputs)
    projectors = [qstate.basis_projector(bit) for bit in fixed.values()]
    tr = qstate.trace_ring(projectors + mats + [proj] + [m.conj().T for m in reversed(mats)], ring)
    acc = qstate.checked_acceptance(tr / (1 << (p.layout.total - len(fixed))))
    return RunReport(acc, "density", elapsed=time.perf_counter() - t0)


@functools.lru_cache(maxsize=64)
def _fusion_groups(shape: tuple) -> tuple:
    """Consecutive pieces that share ``(controls, value)``, as ``(union, indices)``.

    ``shape`` lists each lowered piece's ``(qubits, controls, value)`` in
    application order. A group takes the next piece with its controls and
    value only while 2^|union of qubits| stays at most the sum of
    2^|qubits| over its parts, so its product applied at once costs no
    more multiply-adds per column entry than the parts do one after
    another. ``union`` lists the qubits in order of first use. It depends
    only on ``shape``, so it is cached.
    """
    groups, key, union, cost = [], None, (), 0
    for i, (qubits, controls, value) in enumerate(shape):
        size = 1 << len(qubits)
        if key == (controls, value):
            wider = union + tuple(q for q in qubits if q not in union)
            if 1 << len(wider) <= cost + size:
                union, cost = wider, cost + size
                groups[-1] = (union, groups[-1][1] + (i,))
                continue
        key, union, cost = (controls, value), qubits, size
        groups.append((union, (i,)))
    return tuple(groups)


def _fused_operator(union, parts) -> np.ndarray:
    """The product of ``parts``, ``(qubits, matrix)`` in application order,
    as one matrix on ``union``: the identity there, evolved by each part."""
    w = len(union)
    at = {q: i for i, q in enumerate(union)}
    t = np.eye(1 << w, dtype=np.result_type(*(m for _, m in parts))).reshape((2,) * w + (1 << w,))
    for qubits, m in parts:
        t = qstate._contract(t, m, tuple(at[q] for q in qubits))
    return t.reshape(1 << w, 1 << w)


def run_ensemble(
    p: ProtocolSpec,
    inputs=None,
    sample="all",
    seed: Optional[int] = None,
    pin: Optional[dict] = None,
) -> RunReport:
    """Average pure-state runs over the mixed register's basis states.

    ``sample="all"`` takes every branch (exact; agrees with run_density
    within 1e-9); an integer draws that many branches uniformly with
    replacement from the root seed. ``pin`` follows ``_fixed_bits``.
    Branches are evolved as the columns of one array, in blocks of about
    ``ENSEMBLE_BLOCK_BYTES``: in float64 when every resolved piece and the
    measurement projector are real, else in complex128. A group of
    ``_fusion_groups`` runs as one fused operator when evolving the
    columns through its parts would cost more than building its product.
    """
    t0 = time.perf_counter()
    n = p.layout.total
    if n > ENSEMBLE_QUBIT_LIMIT:
        raise BackendLimitError(
            f"{n} qubits exceed the ensemble backend limit ({ENSEMBLE_QUBIT_LIMIT})"
        )
    fixed = _fixed_bits(p, pin)
    free = [q for q in range(n) if q not in fixed]
    if sample == "all":
        cols, used_seed = np.arange(1 << len(free)), None
    else:
        count = int(sample)
        if count < 1:
            raise DomainError(f"sample count must be >= 1, got {sample}")
        rng = np.random.default_rng(seed)
        place = 1 << np.arange(len(free) - 1, -1, -1)
        cols = np.array([rng.integers(0, 2, size=len(free)) @ place for _ in range(count)])
        used_seed = seed
    # column c's branch puts c's bits on the free qubits, the first most significant
    rows = np.full(len(cols), sum(bit << (n - 1 - q) for q, bit in fixed.items()))
    for j, q in enumerate(free):
        rows |= ((cols >> (len(free) - 1 - j)) & 1) << (n - 1 - q)
    pieces = [pc for r in p.rounds for pc in lower(r.unitary, r.targets)]
    mats = [resolve_ref(pc, inputs) for pc in pieces]
    proj, support = p.measurement.operator()
    dtype = complex
    if not np.count_nonzero(np.concatenate([m.ravel() for m in [proj, *mats]]).imag):
        dtype, proj = float, proj.real
        mats = [np.ascontiguousarray(m.real) for m in mats]
    ops = []
    for union, group in _fusion_groups(tuple((pc[1], pc[3], pc[4]) for pc in pieces)):
        controls, value = pieces[group[0]][3:]
        parts = [(pieces[i][1], mats[i]) for i in group]
        # fuse when the evolution it replaces, over every column, outweighs the build
        if len(parts) > 1 and len(rows) << (n - len(controls)) > 1 << (2 * len(union)):
            parts = [(union, _fused_operator(union, parts))]
        if not controls:
            ops.extend((None, qubits, u) for qubits, u in parts)
            continue
        # act on the slice where the controls read the value; later axes shift down
        bits = dict(zip(controls, map(int, format(value, f"0{len(controls)}b"))))
        at = tuple(bits.get(k, slice(None)) for k in range(n)) + (slice(None),)
        ops.extend((at, tuple(q - sum(c < q for c in controls) for q in qubits), u) for qubits, u in parts)
    block = max(1, ENSEMBLE_BLOCK_BYTES // (np.dtype(dtype).itemsize << n))
    total = 0.0
    for start in range(0, len(rows), block):
        chunk = rows[start : start + block]
        v = np.zeros((1 << n, len(chunk)), dtype=dtype)
        v[chunk, np.arange(len(chunk))] = 1.0
        v = v.reshape((2,) * n + (len(chunk),))
        for at, axes, u in ops:
            if at is None:
                v = qstate._contract(v, u, axes)
            else:
                v[at] = qstate._contract(v[at], u, axes)
        total += np.vdot(v, qstate._contract(v, proj, support))
    acc = qstate.checked_acceptance(total / len(rows))
    return RunReport(acc, "ensemble", seed=used_seed, elapsed=time.perf_counter() - t0)


def run_trace(p: ProtocolSpec, inputs=None, counter_start: int = 0) -> RunReport:
    """Acceptance of a trace-form protocol: 1/2 + Re Tr(prod)/2^(d+1).

    The product runs over the plan's pieces; for a semi-unclocked plan a
    counter start of j rotates the piece sequence by j pairs, which by the
    cyclic property of the trace never changes the result. Raises
    ``BackendLimitError`` before resolving any piece when the contraction's
    largest intermediate would exceed ``TRACE_MAX_BYTES``.
    """
    t0 = time.perf_counter()
    plan = p.trace_plan
    if plan is None:
        raise ShapeError("protocol is not in trace form (no plan attached)")
    core = [
        q
        for q in range(p.layout.total)
        if q != plan.control and q not in plan.counter
    ]
    d = len(core)
    local = {q: i for i, q in enumerate(core)}

    order = list(range(len(plan.pieces)))
    if plan.counter:
        pairs = plan.pairs
        if not 0 <= counter_start < pairs:
            raise DomainError(f"counter start {counter_start} outside [0, {pairs})")
        order = [(2 * counter_start + t) % (2 * pairs) for t in range(2 * pairs)]
    elif counter_start:
        raise DomainError("counter start given but the plan has no counter")

    pieces = [pc for idx in order for pc in lower(*plan.pieces[idx])]
    ring = _checked_ring("trace", d, tuple(tuple(local[q] for q in pc[3] + pc[1]) for pc in pieces))
    tr = qstate.trace_ring(_piece_matrices(pieces, inputs), ring)
    acc = qstate.checked_acceptance(0.5 + tr.real / (1 << (d + 1)))
    return RunReport(acc, "trace", elapsed=time.perf_counter() - t0)


BACKENDS = {
    "density": run_density,
    "ensemble": run_ensemble,
    "trace": run_trace,
}


def run(p: ProtocolSpec, inputs=None, backend: str = "density", **kw) -> RunReport:
    if backend not in BACKENDS:
        raise DomainError(f"unknown backend {backend!r}")
    return BACKENDS[backend](p, inputs, **kw)


def oneway_bias(ua, ub) -> float:
    """Signed bias of a one-way one-clean protocol: Re tr(U_B U_A)/2^(m+1).

    Both operands must already be identity-padded onto the same global
    m-qubit space. Reading the unitaries as vectors this is their
    normalized inner product over 2, so its magnitude never exceeds 1/2.
    """
    ua = np.asarray(ua, dtype=complex)
    ub = np.asarray(ub, dtype=complex)
    if ua.shape != ub.shape or ua.ndim != 2 or ua.shape[0] != ua.shape[1]:
        raise DimensionError(f"operand shapes {ua.shape} and {ub.shape} do not match")
    m = qstate.num_qubits(ua.shape[0])
    val = complex(np.einsum("ij,ji->", ub, ua))
    return float(val.real / (1 << (m + 1)))


def measure_bias(p: ProtocolSpec, labeled_inputs, ref, backend: str = "density") -> float:
    """min over 1-inputs of (acc - ref) and over 0-inputs of (ref - acc).

    Negative results mean the protocol fails its declared contract.
    ``labeled_inputs`` is a sequence of (inputs, label) with label 0 or 1.
    """
    labeled_inputs = list(labeled_inputs)
    if not labeled_inputs:
        raise DomainError("measure_bias needs a nonempty input set")
    ref = float(ref)
    eps = math.inf
    for inputs, label in labeled_inputs:
        if label not in (0, 1):
            raise DomainError(f"input label must be 0 or 1, got {label}")
        acc = run(p, inputs, backend=backend).acceptance
        margin = acc - ref if label == 1 else ref - acc
        eps = min(eps, margin)
    return eps


def repetition_plan(eps, ref) -> RepetitionPlan:
    """t = ceil(4/eps^2) repetitions; accept iff at least ref*t successes."""
    t = int(math.ceil(q1_cost(4, eps)))
    ref = Fraction(ref) if isinstance(eps, (int, Fraction)) else ref
    return RepetitionPlan(t=t, threshold=int(math.ceil(ref * t)))


def amplify(acc0, acc1, ref, eps) -> float:
    """Exact two-sided binomial error after t = ceil(4/eps^2) repetitions.

    Returns max(Pr[Bin(t, acc1) < ref*t], Pr[Bin(t, acc0) >= ref*t]); the
    standard Chernoff argument makes this at most 1/3. With k = threshold - 1
    each tail is one regularized incomplete beta, read directly rather than
    as 1 - cdf: Pr[Bin(t, p) <= k] = I_{1-p}(t-k, k+1) and
    Pr[Bin(t, p) >= k+1] = I_p(k+1, t-k).
    """
    for name, value in (("acc0", acc0), ("acc1", acc1)):
        if not 0 <= value <= 1:
            raise DomainError(f"{name} = {value} is not a probability in [0, 1]")
    if not 0 < ref < 1:
        raise DomainError(f"ref = {ref} is outside (0, 1)")
    if not (acc0 <= ref - eps and ref + eps <= acc1):
        raise DomainError(
            f"need acc0 <= ref-eps <= ref+eps <= acc1, got ({acc0}, {ref}, {eps}, {acc1})"
        )
    # imported here so that importing oneclean loads no scipy
    from scipy.special import betainc

    plan = repetition_plan(eps, ref)
    t, k = plan.t, plan.threshold - 1
    err1 = float(betainc(t - k, k + 1, float(1 - acc1)))
    err0 = float(betainc(k + 1, t - k, float(acc0)))
    return max(err0, err1)
