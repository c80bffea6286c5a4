"""Classical baselines and exact lower-bound quantities.

Sign-sketch inner-product estimation, the randomized ABC protocol built
on spherical-cap codebooks, the exact cap probability and its sampled
estimate, and exact rectangle discrepancy on small sign matrices.

``cap_probability`` is the module's only use of scipy (the incomplete
beta), which it imports on its first call, so importing the module loads
only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BackendLimitError, DomainError
from .problems import AbcInstance

# Sketch rounds s = ceil(KNR_CONSTANT / eps^2). Chosen so the empirical
# failure rate of the estimator stays below 0.1 (the agreement frequency
# sits within ~1.8 sigma of its mean at this s).
# The agreement count over the s rounds is drawn from its exact Binomial
# law, so s sets the transcript size and the spread, not the work.
KNR_CONSTANT = 8.0


@dataclass(frozen=True)
class Transcript:
    """Classical communication ledger, bits per player."""

    bits_sent: dict

    @property
    def total(self) -> int:
        return sum(self.bits_sent.values())


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


@dataclass(frozen=True)
class SignMatrix:
    """+-1 matrix with a probability weight per cell."""

    entries: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or not np.all(np.isin(e, (-1.0, 1.0))):
            raise DomainError("sign matrix entries must be +1 or -1")
        if self.weights is None:
            w = np.full(e.shape, 1.0 / e.size)
        else:
            w = np.asarray(self.weights, dtype=float)
        if w.shape != e.shape:
            raise DomainError("weight grid must match the sign matrix shape")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise DomainError("weights must be nonnegative and sum to 1 within 1e-12")
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, entries) -> "SignMatrix":
        return cls(entries=np.asarray(entries, dtype=float), weights=None)


def codebook_size(k: int) -> int:
    return math.ceil(32.0 * math.sqrt(k) * math.exp(2.0 * k))


def cap_codebook(n: int, k: int, seed=None) -> CapCodebook:
    """Draw the prescribed number of Haar unit vectors in S^(n-1)."""
    if not 1 <= k <= n / 4:
        raise DomainError(f"cap parameter k={k} outside [1, n/4] at n={n}")
    rng = np.random.default_rng(seed)
    size = codebook_size(k)
    vecs = rng.standard_normal((size, n))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return CapCodebook(n=n, k=k, vectors=vecs, seed=seed)


def cap_probability(n: int, k: int) -> float:
    """Exact Pr(<v, W>^2 >= k/n) over Haar W in S^(n-1).

    By rotation invariance v is fixed to e_1; W_1^2 is Beta(1/2, (n-1)/2),
    so the probability is the regularized incomplete beta
    I_{1-k/n}((n-1)/2, 1/2). The spherical-cap bound keeps it above
    e^-k / (16 sqrt(k)).
    """
    if not 1 <= k <= n / 4:
        raise DomainError(f"cap parameter k={k} outside [1, n/4] at n={n}")
    # imported here so that importing oneclean loads no scipy
    from scipy.special import betainc

    return float(betainc((n - 1) / 2, 0.5, 1.0 - k / n))


def cap_probability_mc(n: int, k: int, samples: int, seed=None) -> float:
    """Sampled estimate of cap_probability(n, k) from ``samples`` Haar draws.

    Each draw hits the cap independently, so the hit count is
    Binomial(samples, cap_probability(n, k)) and is drawn from that exact
    law in one draw; no vector is materialized.
    """
    p = cap_probability(n, k)
    if samples < 10**4:
        raise DomainError(f"need at least 1e4 samples, got {samples}")
    return int(np.random.default_rng(seed).binomial(samples, p)) / samples


def caps_lower_bound(k: int) -> float:
    return math.exp(-k) / (16.0 * math.sqrt(k))


def knr_sketch_rounds(eps: float) -> int:
    if not 0 < eps < 1:
        raise DomainError(f"accuracy eps={eps} outside (0, 1)")
    return math.ceil(KNR_CONSTANT / (eps * eps))


def knr_estimate(a, b, eps: float, seed=None) -> tuple[float, Transcript]:
    """Sign-sketch estimate of <a, b> for unit vectors.

    Shared Haar unit vectors r_j; Alice sends sign(<a, r_j>), Bob counts
    agreements with sign(<b, r_j>). Each round agrees independently with
    probability 1 - angle/pi, so the agreement count is Binomial(s,
    1 - angle/pi) and is sampled from that exact law in one draw; the
    per-round sign bits are not materialized. The estimate is
    cos(pi * (1 - agreement frequency)). Communication is one bit per
    sketch round: s = ceil(KNR_CONSTANT / eps^2) total.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DomainError("vectors must share one dimension")
    if abs(np.linalg.norm(a) - 1.0) > 1e-9 or abs(np.linalg.norm(b) - 1.0) > 1e-9:
        raise DomainError("knr_estimate expects unit vectors (within 1e-9)")
    s = knr_sketch_rounds(eps)
    # the angle as 2 atan2(|a - b|, |a + b|) lies in [0, pi] with no clamp
    theta = 2.0 * math.atan2(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))
    agree = int(np.random.default_rng(seed).binomial(s, 1.0 - theta / math.pi))
    estimate = math.cos(math.pi * (1.0 - agree / s))
    return estimate, Transcript(bits_sent={0: s, 1: 0})


def abc_classical(inst: AbcInstance, i: int = 0, k: int = 2, seed=None) -> tuple[int, Transcript]:
    """Randomized ABC protocol: cap codebook + sign-sketch estimation.

    Charlie picks the codebook vector w best aligned with his column C_i
    (ties to the lowest index) and names its index to Bob; Alice and Bob
    then estimate <A_i, B w> to accuracy sqrt(k/n)/100. Since
    <A_i, B w> = label * <C_i, w>, the sign of the estimate is the answer.
    Transcript: index bits plus one bit per sketch round, a deterministic
    function of (n, k).
    """
    n = inst.n
    if not 1 <= k <= n / 4:
        raise DomainError(f"cap parameter k={k} outside [1, n/4] at n={n}")
    if not 0 <= i < n:
        raise DomainError(f"row index {i} outside [0, {n})")
    rng = np.random.default_rng(seed)
    book = cap_codebook(n, k, seed=rng)
    c_col = inst.c[:, i]
    scores = book.vectors @ c_col
    best_vec = book.vectors[int(np.argmax(scores))]  # argmax takes the first maximizer
    bw = inst.b @ best_vec
    bw = bw / np.linalg.norm(bw)
    eps = math.sqrt(k / n) / 100.0
    estimate, sketch = knr_estimate(inst.a[i, :], bw, eps, seed=rng)
    answer = 1 if estimate > 0 else 0
    bits = {
        0: sketch.bits_sent[0],
        1: 0,
        2: book.index_bits,
    }
    return answer, Transcript(bits_sent=bits)


def true_alignment(inst: AbcInstance, i: int, book: CapCodebook) -> float:
    """Exact <A_i, B w> for the best-aligned codebook vector w.

    Equals label times the codebook's maximal inner product with C_i.
    """
    c_col = inst.c[:, i]
    best_vec = book.vectors[int(np.argmax(book.vectors @ c_col))]
    return float(inst.a[i, :] @ (inst.b @ best_vec))


def disc_bruteforce(m: SignMatrix) -> tuple[float, tuple, tuple]:
    """Exact discrepancy: max over rectangles of |sum of weight * sign|.

    For a row set with column sums r, the best column set takes every
    positive r_j or every negative r_j, so the value is max(sum r+, sum r-).
    Every row set's r comes from one product over all 2^rows row masks
    (mask bit i selects row i). The witness is the first maximizer in
    (row mask, col mask) binary-counter order: zero sums are left out, and
    when the two sides tie the one whose column mask counts first wins.
    Under non-dyadic weights the float sums of an exact tie can break it
    differently from a cell-by-cell sum. Limited to 16 x 16.
    """
    rows, cols = m.entries.shape
    if rows > 16 or cols > 16:
        raise BackendLimitError(f"{rows}x{cols} exceeds the 16x16 enumeration limit")
    masks = ((np.arange(1 << rows)[:, None] >> np.arange(rows)) & 1).astype(float)
    sums = masks @ (m.entries * m.weights)
    pos = np.where(sums > 0, sums, 0.0).sum(axis=1)
    neg = np.where(sums < 0, -sums, 0.0).sum(axis=1)
    rm = int(np.argmax(np.maximum(pos, neg)))  # argmax takes the first maximizer
    value = max(pos[rm], neg[rm])
    sides = (np.flatnonzero(sums[rm] > 0), np.flatnonzero(sums[rm] < 0))
    best = min(
        (side for side, v in zip(sides, (pos[rm], neg[rm])) if v == value),
        key=lambda side: sum(1 << int(j) for j in side),
    )
    return float(value), tuple(np.flatnonzero(masks[rm]).tolist()), tuple(best.tolist())
