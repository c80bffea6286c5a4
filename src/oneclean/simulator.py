"""Exact acceptance-probability backends and the amplification harness.

Three backends compute the same number three ways:

* ``run_density`` evolves the factor V of rho = V V^dagger / 2^f, one
  column per basis state of the f free mixed qubits, in blocks of about
  ``DENSITY_BLOCK_BYTES`` (<= 12 qubits). Its workspace is one block plus
  its contraction temporaries; its time is about
  rounds * 2^n * 2^f * 2^w for rounds of width w,
* ``run_ensemble`` averages pure-state runs over the mixed register's
  basis states (<= 20 qubits; exact with ``sample="all"``),
* ``run_trace`` evaluates the Hadamard-test formula
  1/2 + Re Tr(product of pieces) / 2^(d+1) for trace-form protocols by
  contracting the ring of pieces pairwise (``qstate.ring_plan``), never
  building a 2^d x 2^d array; its bound is the planned largest
  intermediate in bytes (``TRACE_MAX_BYTES``), checked before any array
  is built.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.stats import binom

from . import qstate
from .errors import BackendLimitError, DimensionError, DomainError, ShapeError
from .protocol import ProtocolSpec, assert_valid, resolve_ref

DENSITY_QUBIT_LIMIT = 12
DENSITY_BLOCK_BYTES = 1 << 20  # one block of V's columns: 32 columns at 11 qubits
ENSEMBLE_QUBIT_LIMIT = 20
TRACE_MAX_BYTES = 1 << 30


@dataclass(frozen=True)
class RunReport:
    """Result of one protocol evaluation on one input."""

    acceptance: float
    backend: str
    seed: Optional[int] = None
    elapsed: float = 0.0
    bias_measured: Optional[float] = None

    CSV_HEADER = "input,acceptance,backend,seed,elapsed"


@dataclass(frozen=True)
class RepetitionPlan:
    """Repeat t times, accept iff at least ``threshold`` runs accepted."""

    t: int
    threshold: int


def _resolved_rounds(p: ProtocolSpec, inputs):
    for r in p.rounds:
        yield resolve_ref(r.unitary, inputs, len(r.targets)), r.targets


def initial_density(p: ProtocolSpec, pin: Optional[dict] = None) -> np.ndarray:
    """|0><0|^k (x) I/2^m, with pinned mixed qubits fixed to basis states."""
    pin = pin or {}
    factors = []
    for q in range(p.layout.total):
        if q < p.layout.clean:
            factors.append(qstate.basis_projector(0))
        elif q in pin:
            factors.append(qstate.basis_projector(pin[q]))
        else:
            factors.append(qstate.I2 / 2.0)
    return qstate.tensor_all(factors)


def _basis_rows(p: ProtocolSpec, pin: Optional[dict]) -> tuple[list, np.ndarray]:
    """The free mixed qubits and the basis-state index of each column of V.

    The one pin rule of both backends: clean qubits stay |0>, pinned mixed
    qubits take their bit (0 or 1, else ``DomainError``), other pin keys
    are ignored, and column c puts c's bits on the free mixed qubits, the
    first free qubit most significant.
    """
    n = p.layout.total
    pin = pin or {}
    mixed = range(p.layout.clean, n)
    if any(pin[q] not in (0, 1) for q in mixed if q in pin):
        raise DomainError(f"pinned bits must be 0 or 1, got {pin}")
    free = [q for q in mixed if q not in pin]
    base = sum(int(pin[q]) << (n - 1 - q) for q in mixed if q in pin)
    cols = np.arange(1 << len(free))
    rows = np.full(len(cols), base)
    for j, q in enumerate(free):
        rows |= ((cols >> (len(free) - 1 - j)) & 1) << (n - 1 - q)
    return free, rows


def run_density(p: ProtocolSpec, inputs=None, pin: Optional[dict] = None) -> RunReport:
    """Exact acceptance probability Tr(P U rho0 U^dagger), evolved one-sided.

    rho0 = |0><0|^k (x) pinned bits (x) I/2^f is V V^dagger / 2^f, where V's
    columns are the basis states over the f free mixed qubits, so the
    acceptance is the sum of <U v|P|U v> over those columns, over 2^f.
    Columns are evolved in blocks of about ``DENSITY_BLOCK_BYTES``.
    """
    t0 = time.perf_counter()
    assert_valid(p)
    n = p.layout.total
    if n > DENSITY_QUBIT_LIMIT:
        raise BackendLimitError(
            f"{n} qubits exceed the density backend limit "
            f"({DENSITY_QUBIT_LIMIT}); try the trace backend"
        )
    _, rows = _basis_rows(p, pin)
    rounds = list(_resolved_rounds(p, inputs))
    proj, support = p.measurement.operator()
    block = max(1, DENSITY_BLOCK_BYTES // (np.dtype(complex).itemsize << n))
    total = 0.0
    for start in range(0, len(rows), block):
        chunk = rows[start : start + block]
        v = np.zeros((1 << n, len(chunk)), dtype=complex)
        v[chunk, np.arange(len(chunk))] = 1.0
        v = v.reshape((2,) * n + (len(chunk),))
        for u, targets in rounds:
            v = qstate._contract(v, u, targets)
        total += np.vdot(v, qstate._contract(v, proj, support))
    acc = qstate.checked_acceptance(total / len(rows))
    return RunReport(acc, "density", elapsed=time.perf_counter() - t0)


def run_ensemble(
    p: ProtocolSpec,
    inputs=None,
    sample="all",
    seed: Optional[int] = None,
    pin: Optional[dict] = None,
) -> RunReport:
    """Average pure-state runs over the mixed register's basis states.

    ``sample="all"`` enumerates every branch (exact; agrees with
    run_density within 1e-9); an integer draws that many branches
    uniformly with replacement from the root seed. ``pin`` follows
    run_density's rule (``_basis_rows``).
    """
    t0 = time.perf_counter()
    assert_valid(p)
    total = p.layout.total
    if total > ENSEMBLE_QUBIT_LIMIT:
        raise BackendLimitError(
            f"{total} qubits exceed the ensemble backend limit ({ENSEMBLE_QUBIT_LIMIT})"
        )
    free, rows = _basis_rows(p, pin)
    resolved = list(_resolved_rounds(p, inputs))
    proj, support = p.measurement.operator()

    def one_branch(row: int) -> float:
        psi = np.zeros(1 << total, dtype=complex)
        psi[row] = 1.0
        for u, targets in resolved:
            psi = qstate.apply_to_vector(psi, u, targets)
        pv = qstate.apply_to_vector(psi, proj, support)
        val = complex(np.vdot(psi, pv))
        return val.real

    if sample == "all":
        used_seed = None
    else:
        count = int(sample)
        if count < 1:
            raise DomainError(f"sample count must be >= 1, got {sample}")
        rng = np.random.default_rng(seed)
        place = 1 << np.arange(len(free) - 1, -1, -1)
        rows = rows[[int(rng.integers(0, 2, size=len(free)) @ place) for _ in range(count)]]
        used_seed = seed
    accs = [one_branch(row) for row in rows]
    acc = qstate.checked_acceptance(np.mean(accs))
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
    assert_valid(p)
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

    pieces = [plan.pieces[idx] for idx in order]
    ring = qstate.ring_plan(d, tuple(tuple(local[t] for t in targets) for _, targets in pieces))
    need = ring[-1] * np.dtype(complex).itemsize  # largest intermediate, in bytes
    if need > TRACE_MAX_BYTES:
        raise BackendLimitError(
            f"trace contraction over {d} core qubits needs a {need}-byte intermediate, "
            f"over the trace backend bound TRACE_MAX_BYTES = {TRACE_MAX_BYTES} bytes"
        )
    mats = [resolve_ref(ref, inputs, len(targets)) for ref, targets in pieces]
    tr = qstate.trace_ring(mats, ring)
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
    if not 0 < eps <= Fraction(1, 2):
        raise DomainError(f"bias {eps} outside (0, 1/2]")
    if isinstance(eps, (int, Fraction)):
        t = int(math.ceil(4 / (Fraction(eps) * Fraction(eps))))
        threshold = int(math.ceil(Fraction(ref) * t))
    else:
        t = int(math.ceil(4.0 / (eps * eps)))
        threshold = int(math.ceil(ref * t))
    return RepetitionPlan(t=t, threshold=threshold)


def amplify(acc0, acc1, ref, eps) -> float:
    """Exact two-sided binomial error after t = ceil(4/eps^2) repetitions.

    Returns max(Pr[Bin(t, acc1) < ref*t], Pr[Bin(t, acc0) >= ref*t]); the
    standard Chernoff argument makes this at most 1/3.
    """
    if not (acc0 <= ref - eps and ref + eps <= acc1):
        raise DomainError(
            f"need acc0 <= ref-eps <= ref+eps <= acc1, got ({acc0}, {ref}, {eps}, {acc1})"
        )
    plan = repetition_plan(eps, ref)
    err1 = float(binom.cdf(plan.threshold - 1, plan.t, float(acc1)))
    err0 = float(1.0 - binom.cdf(plan.threshold - 1, plan.t, float(acc0)))
    return max(err0, err1)
