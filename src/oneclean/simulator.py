"""Exact acceptance-probability backends and the amplification harness.

Three backends compute the same number on two engines. All of them run
each round (or trace-form piece) as the ``protocol.Piece`` records it was
lowered to when the spec was built (``protocol.lowered``), through one
resolver, ``_piece_matrices``. No round is built dense.

* ``run_density`` and ``run_trace`` contract a closed ring of those
  pieces pairwise (``qstate.ring_plan``), never building a 2^n x 2^n
  array; a controlled piece enters the ring as the identity except its
  value block. Density's ring is Tr(U^dagger P U rho0) for
  rho0 = |0><0|^k (x) pinned bits (x) I, over 2^f; trace's is the
  Hadamard-test formula 1/2 + Re Tr(product of pieces) / 2^(d+1) of a
  trace-form protocol. Both are bounded by the planned largest
  intermediate in bytes (``TRACE_MAX_BYTES``), checked before any piece
  is resolved.
* ``run_ensemble`` averages pure runs over the mixed register's basis
  states (<= 20 qubits), exact with ``sample="all"`` and independent of
  the ring engine. Each branch is a sparse set of basis rows: a piece with
  one nonzero per column only moves and scales rows, so it keeps their
  count; any other piece on s qubits multiplies it by up to 2^s.

A ring's plan contracts the ``ExplicitU`` pieces together first where that
makes a warm call cheaper. What no input changes is kept in the spec's store
(``protocol.kept``; a spec is frozen and read-only in every leaf), per fixed
and pinned bits (density) and per counter start (trace): the checked plan
and, from a spec's second call on, every step over those pieces alone, each
result laid out for the step that reads it. A warm call resolves each
generator leaf once and runs the steps left: the same ``np.dot`` on the same
operands as the plan contracted whole, as the spec's first call does.

``amplify`` sums each binomial tail of the repetition harness outward from
its threshold, from a first term in Loader's saddle-point form, with the
``math`` module alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import qstate
from .errors import BackendLimitError, DimensionError, DomainError, ShapeError
from .protocol import ExplicitU, Piece, ProtocolSpec, _adjoint, kept, lowered, q1_cost, resolve_ref

ENSEMBLE_QUBIT_LIMIT = 20
TRACE_MAX_BYTES = 1 << 30
_BASIS = ExplicitU(qstate.basis_projector(0)), ExplicitU(qstate.basis_projector(1))  # every rho0's leaves


@dataclass(frozen=True)
class RunReport:
    """Result of one protocol evaluation on one input."""

    acceptance: float
    backend: str
    seed: Optional[int] = None

    CSV_HEADER = "input,acceptance,backend,seed,elapsed"


@dataclass(frozen=True)
class RepetitionPlan:
    """Repeat t times, accept iff at least ``threshold`` runs accepted."""

    t: int
    threshold: int


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


def _piece_matrices(pieces, inputs) -> list:
    """Each lowered piece as one operator on its controls then its qubits: the
    identity except the block where the controls read the piece's value. The one
    resolver of every engine: in a call each leaf is resolved once, each adjoint
    taken of that, and each distinct piece's operator built once."""
    leaves, ops = {}, dict.fromkeys(pieces)
    for pc in ops:
        key = id(pc.leaf), len(pc.qubits)
        if key not in leaves:  # kept with the adjoint flag it was resolved under
            leaves[key] = resolve_ref(pc, inputs), pc.adjoint
        m, adjoint = leaves[key]
        if adjoint != pc.adjoint:
            m = m.conj().T
        if pc.controls:
            c, d = 1 << len(pc.controls), len(m)
            block = np.eye(c * d, dtype=complex).reshape(c, d, c, d)
            block[pc.value, :, pc.value, :] = m
            m = block.reshape(c * d, c * d)
        ops[pc] = m
    return [ops[pc] for pc in pieces]


def _ring(backend: str, pieces: list, qubits):
    """The trace of a ring of ``pieces`` in application order, over ``qubits``, as
    a function of the inputs. Its plan folds the pieces with an ``ExplicitU`` leaf
    first if that is cheaper (``qstate.ring_plan``); one whose largest intermediate
    exceeds ``TRACE_MAX_BYTES`` raises ``BackendLimitError``. The first call contracts
    it whole; the second keeps ``_fold``, so that it and every later call resolve
    only the generator pieces and run the steps left."""
    local = {q: i for i, q in enumerate(qubits)}
    axes = tuple(tuple(local[q] for q in pc.controls + pc.qubits) for pc in pieces)
    fixed = tuple(k for k, pc in enumerate(pieces) if isinstance(pc.leaf, ExplicitU))
    traces, steps, free, peak = qstate.ring_plan(len(qubits), axes, fixed)
    if (need := peak * np.dtype(complex).itemsize) > TRACE_MAX_BYTES:
        raise BackendLimitError(
            f"{backend} contraction over {len(qubits)} qubits needs a {need}-byte intermediate, "
            f"over the ring bound TRACE_MAX_BYTES = {TRACE_MAX_BYTES} bytes"
        )
    ops, steps = list(enumerate(pieces)), tuple(enumerate(steps, start=len(traces)))
    calls, folded = itertools.count(), []

    def ring(inputs):
        if not folded and next(calls):  # a spec's first call keeps nothing
            folded.append(_fold(ops, set(fixed), traces, steps))
        arrs, rest, left = folded[0] if folded else ({}, ops, steps)
        return qstate.trace_ring({**arrs, **_ring_tensors(rest, inputs, traces)}, left, free)

    return ring


def _fold(ops, fixed, traces, steps) -> tuple:
    """What a ring's warm calls reuse: the tensors left when the ``fixed`` operators are
    resolved and every step over those alone runs (``qstate.fold_ring``), made read-only;
    the other operators; and the steps left."""
    arrs = _ring_tensors([op for op in ops if op[0] in fixed], None, traces)
    left = qstate.fold_ring(arrs, steps)
    for t in arrs.values():
        t.flags.writeable = False
    return arrs, [op for op in ops if op[0] not in fixed], left


def _ring_tensors(ops, inputs, traces) -> dict:
    """Tensor index -> ``qstate.ring_tensor`` of each ``(k, piece)``."""
    mats = _piece_matrices([pc for _, pc in ops], inputs)
    return {k: qstate.ring_tensor(m, traces[k]) for (k, _), m in zip(ops, mats)}


def run_density(p: ProtocolSpec, inputs=None, pin: Optional[dict] = None) -> RunReport:
    """Exact acceptance probability Tr(P U rho0 U^dagger) as a closed ring.

    rho0 is |0><0| on the clean qubits, |b><b| on each pinned mixed qubit
    and I/2^f on the f free ones, so the acceptance is the ring trace of,
    in application order, those basis projectors, the pieces of U_1 ... U_r,
    P and the adjoint pieces of U_r ... U_1 (``protocol._adjoint``), over 2^f.
    The ring is planned and checked against ``TRACE_MAX_BYTES`` first.
    """
    fixed = _fixed_bits(p, pin)

    def build():
        pieces, (proj, support) = lowered(p)[0], p.measurement.operator()
        rho0 = [Piece(_BASIS[bit], (q,)) for q, bit in fixed.items()]
        ring = [*rho0, *pieces, Piece(ExplicitU(proj), support), *_adjoint(pieces)]
        return _ring("density", ring, range(p.layout.total))

    tr = kept(p, ("density", *fixed.items()), build)(inputs)
    return RunReport(qstate.checked_acceptance(tr / (1 << (p.layout.total - len(fixed)))), "density")


def _bits(keys: np.ndarray, shifts: tuple) -> np.ndarray:
    """The key bits at ``shifts`` as one index, the first most significant; one shift per distance moved."""
    by = {}
    for pos, sh in enumerate(reversed(shifts)):
        by[sh - pos] = by.get(sh - pos, 0) | 1 << pos
    return functools.reduce(np.bitwise_or, [(keys >> d if d >= 0 else keys << -d) & m for d, m in by.items()])


@functools.lru_cache(maxsize=256)
def _offsets(shifts: tuple) -> np.ndarray:
    """Each local index of ``shifts`` put on those key bits (the inverse of ``_bits``), cached."""
    local, out = np.arange(1 << len(shifts)), np.zeros(1 << len(shifts), dtype=np.int64)
    for pos, sh in enumerate(reversed(shifts)):
        out |= ((local >> pos) & 1) << sh
    out.flags.writeable = False
    return out


def _grouped(keys: np.ndarray, amps: np.ndarray, shifts: tuple) -> tuple:
    """The distinct key rests off ``shifts``, and each one's amplitudes as a vector over those bits."""
    rest, inv = np.unique(keys & ~sum(1 << sh for sh in shifts), return_inverse=True)
    g = np.zeros((len(rest), 1 << len(shifts)), dtype=complex)
    g[inv, _bits(keys, shifts)] = amps
    return rest, g


def _ensemble_step(shifts: tuple, m: np.ndarray) -> tuple:
    """An operator on the key bits at ``shifts`` as a step on entries. A
    permutation times phases moves them, as ``(shifts, flip, phase)``: an
    entry whose bits there read L has its key XORed with ``flip[L]`` and its
    amplitude scaled by ``phase[L]`` (None if all 1). Any other operator
    spreads them, as ``(shifts, m)``, over the 2^w settings of those bits."""
    nz = m != 0
    if np.count_nonzero(nz) == len(m):
        perm = nz.argmax(axis=0)
        phase = m[perm, np.arange(len(m))]
        # one nonzero in each column, each in a row of its own
        if np.count_nonzero(phase) == len(m) == len(set(perm.tolist())):
            offsets = _offsets(shifts)
            return shifts, offsets[perm] ^ offsets, phase if np.count_nonzero(phase != 1) else None
    return shifts, m


def _evolve(keys: np.ndarray, steps, amps=None) -> tuple:
    """Entries at ``keys``, of amplitudes ``amps`` (all 1 if None), evolved through ``steps``,
    as (keys, amplitudes). A spreading step sums the entries that meet and drops exact zeros."""
    amps = np.ones(len(keys), dtype=complex) if amps is None else amps
    for step in steps:
        if len(step) == 3:
            shifts, flip, phase = step
            idx = _bits(keys, shifts)
            keys, amps = keys ^ flip[idx], amps if phase is None else amps * phase[idx]
            continue
        shifts, m = step
        rest, g = _grouped(keys, amps, shifts)
        # not g @ m.T: BLAS fuses multiply-adds, which leaves ~1e-17 where equal
        # and opposite terms meet, and those entries would never drop out
        grown = np.einsum("gj,kj->gk", g, m).ravel()
        keep = grown != 0
        keys, amps = (rest[:, None] | _offsets(shifts)).ravel()[keep], grown[keep]
    return keys, amps


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
    replacement from the root seed. ``pin`` follows ``_fixed_bits``. A
    branch is a set of entries, each a key ``branch << n | row`` and an
    amplitude. Blocks of branches are sized so that min(2^n, 2^spread)
    complex128 per branch fit in ``TRACE_MAX_BYTES``, with ``spread`` the
    qubits and controls of every spreading piece and the measured qubits.
    """
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
    # branch c puts c's bits on the free qubits, the first most significant
    rows = np.full(len(cols), sum(bit << (n - 1 - q) for q, bit in fixed.items()))
    for j, q in enumerate(free):
        rows |= ((cols >> (len(free) - 1 - j)) & 1) << (n - 1 - q)

    def build():  # the distinct pieces, explicit first: their steps, the others' shifts; each piece's index
        distinct = sorted(dict.fromkeys(lowered(p)[0]), key=lambda pc: not isinstance(pc.leaf, ExplicitU))
        shifts = [tuple(n - 1 - q for q in pc.controls + pc.qubits) for pc in distinct]
        k = sum(isinstance(pc.leaf, ExplicitU) for pc in distinct)
        index = {pc: i for i, pc in enumerate(distinct)}
        known = list(map(_ensemble_step, shifts[:k], _piece_matrices(distinct[:k], None)))
        return known, distinct[k:], shifts[k:], [index[pc] for pc in lowered(p)[0]]

    known, generated, gshifts, order = kept(p, ("ensemble",), build)
    table = known + list(map(_ensemble_step, gshifts, _piece_matrices(generated, inputs)))
    steps = [table[i] for i in order]
    proj, support = p.measurement.operator()
    spread = sum(len(step[0]) for step in steps if len(step) == 2) + len(support)
    block = max(1, TRACE_MAX_BYTES // (16 << min(n, spread)))
    pshifts, total = tuple(n - 1 - q for q in support), 0.0
    for i in range(0, len(rows), block):
        keys, amps = _evolve((np.arange(len(rows[i : i + block])) << n) | rows[i : i + block], steps)
        if not np.count_nonzero(proj - np.diag(proj.diagonal())):
            total += np.dot(np.abs(amps) ** 2, proj.diagonal()[_bits(keys, pshifts)])
        else:
            g = _grouped(keys, amps, pshifts)[1].T
            total += np.vdot(g, proj @ g)
    return RunReport(qstate.checked_acceptance(total / len(rows)), "ensemble", seed=used_seed)


def run_trace(p: ProtocolSpec, inputs=None, counter_start: int = 0) -> RunReport:
    """Acceptance of a trace-form protocol: 1/2 + Re Tr(prod)/2^(d+1).

    The product runs over the plan's pieces; for a semi-unclocked plan a
    counter start of j rotates the piece sequence by j pairs, which by the
    cyclic property of the trace never changes the result. Raises
    ``BackendLimitError`` before resolving any piece when the contraction's
    largest intermediate would exceed ``TRACE_MAX_BYTES``.
    """
    plan = p.trace_plan
    if plan is None:
        raise ShapeError("protocol is not in trace form (no plan attached)")
    if plan.counter and not 0 <= counter_start < plan.pairs:
        raise DomainError(f"counter start {counter_start} outside [0, {plan.pairs})")
    if counter_start and not plan.counter:
        raise DomainError("counter start given but the plan has no counter")

    def build():
        core = [q for q in range(p.layout.total) if q != plan.control and q not in plan.counter]
        width, kept_pieces = len(plan.pieces), lowered(p)[1]  # width 2 * pairs with a counter
        pieces = [pc for t in range(width) for pc in kept_pieces[(2 * counter_start + t) % width]]
        ring = _ring("trace", pieces, core)
        return lambda inputs: 0.5 + ring(inputs).real / (1 << (len(core) + 1))

    return RunReport(qstate.checked_acceptance(kept(p, ("trace", counter_start), build)(inputs)), "trace")


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


def label_margin(acc: float, label: int, ref) -> float:
    """How far ``acc`` clears ``ref`` on ``label``'s side: acc - ref for label 1, ref - acc for 0."""
    return acc - float(ref) if label == 1 else float(ref) - acc


def measure_bias(p: ProtocolSpec, labeled_inputs, ref, backend: str = "density") -> float:
    """The least ``label_margin`` over ``labeled_inputs``, a sequence of (inputs, label)
    with label 0 or 1. Negative results mean the protocol fails its declared contract."""
    labeled_inputs = list(labeled_inputs)
    if not labeled_inputs:
        raise DomainError("measure_bias needs a nonempty input set")
    eps = math.inf
    for inputs, label in labeled_inputs:
        if label not in (0, 1):
            raise DomainError(f"input label must be 0 or 1, got {label}")
        eps = min(eps, label_margin(run(p, inputs, backend=backend).acceptance, label, ref))
    return eps


def repetition_plan(eps, ref) -> RepetitionPlan:
    """t = ceil(4/eps^2) repetitions; accept iff at least ref*t successes."""
    t = int(math.ceil(q1_cost(4, eps)))
    ref = Fraction(ref) if isinstance(eps, (int, Fraction)) else ref
    return RepetitionPlan(t=t, threshold=int(math.ceil(ref * t)))


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), by lgamma up to 15 and by its asymptotic series above."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2 * math.pi)
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: int, mean: Fraction) -> float:
    """x log(x / mean) + mean - x, the deviance of x from an exact mean, to full precision near it."""
    d = float(x - mean)
    if abs(d) >= 0.1 * float(x + mean):
        return x * math.log(x / mean) - d
    v = d / float(x + mean)
    s, ej, j, prev = d * v, 2 * x * v, 3, None
    while s != prev:  # the series of Loader 2000 in v = d / (x + mean)
        ej *= v * v
        s, prev, j = s + ej / j, s, j + 2
    return s


def _binomial_tail(t: int, m: int, p) -> float:
    """Pr[Bin(t, p) >= m] for 0 < m < t and a rational p (a float or a Fraction) under m/t.

    The terms fall from Pr[Bin(t, p) = m], which is read in Loader's saddle-point form
    (Loader 2000, "Fast and Accurate Computation of Binomial Probabilities"; R's dbinom) with
    tp taken exactly; each next term is the last times (t - j) p / ((j + 1)(1 - p)).
    """
    if p == 0:
        return 0.0
    mean = t * Fraction(p)
    log_first = _stirlerr(t) - _stirlerr(m) - _stirlerr(t - m) - _bd0(m, mean) - _bd0(t - m, t - mean)
    term = math.exp(log_first) * math.sqrt(t / (2 * math.pi * m * (t - m)))
    total, ratio = 0.0, float(p) / (1.0 - float(p))
    while term > total * 2**-56:
        total += term
        term *= (t - m) / (m + 1) * ratio
        m += 1
    return total


def amplify(acc0, acc1, ref, eps) -> float:
    """Exact two-sided binomial error after t = ceil(4/eps^2) repetitions.

    Returns max(Pr[Bin(t, acc1) < ref*t], Pr[Bin(t, acc0) >= ref*t]); the
    standard Chernoff argument makes this at most 1/3. The threshold lies at
    least t*eps >= 4 beyond both means, so each tail (the first read as
    Pr[Bin(t, 1 - acc1) >= t - threshold + 1]) is summed from it outward by
    ``_binomial_tail``, never as 1 - cdf; acc0 = 0 or acc1 = 1 gives exactly 0.
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
    plan = repetition_plan(eps, ref)
    t, k = plan.t, plan.threshold - 1
    return max(_binomial_tail(t, k + 1, acc0), _binomial_tail(t, t - k, 1 - acc1))
