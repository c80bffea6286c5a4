"""Classical baselines and exact lower-bound quantities.

Sign-sketch inner-product estimation, the randomized ABC protocol built
on spherical-cap codebooks (only the best-aligned codebook vector is
drawn, from its exact law; no codebook is materialized), the exact cap
probability and its sampled estimate, and exact rectangle discrepancy on
small sign matrices.

Both ``cap_probability`` and the best-aligned draw read the law of one
coordinate of a Haar unit vector, a regularized incomplete beta with
b = 1/2, which ``_w1_tail`` and ``_w1_quantile`` evaluate and invert with
the ``math`` module alone.
"""

from __future__ import annotations

import math
import sys
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

# disc_bruteforce sums the masks of the shorter side in blocks of this many
# sums (8 MiB of float64), so a long other side costs time, not memory.
DISC_BLOCK_SUMS = 1 << 20


@dataclass(frozen=True)
class Transcript:
    """Classical communication ledger, bits per player."""

    bits_sent: dict

    @property
    def total(self) -> int:
        return sum(self.bits_sent.values())


@dataclass(frozen=True)
class SignMatrix:
    """+-1 matrix with a probability weight per cell."""

    entries: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.size == 0 or not np.all(np.isin(e, (-1.0, 1.0))):
            raise DomainError("sign matrix entries must be a non-empty grid of +1 and -1")
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


def cap_probability(n: int, k: int) -> float:
    """Exact Pr(<v, W>^2 >= k/n) over Haar W in S^(n-1).

    By rotation invariance v is fixed to e_1; W_1^2 is Beta(1/2, (n-1)/2),
    so the probability is the regularized incomplete beta
    I_{1-k/n}((n-1)/2, 1/2). The spherical-cap bound keeps it above
    e^-k / (16 sqrt(k)). A tail below the least normal float (about
    0.75^(n/2) at k = n/4, so from n near 4,900) is 0, as betainc gives.
    """
    if not 1 <= k <= n / 4:
        raise DomainError(f"cap parameter k={k} outside [1, n/4] at n={n}")
    i = _w1_tail(n, 1.0 - k / n)[0]
    return i if i >= sys.float_info.min else 0.0


def _w1_tail(n: int, x: float, cut: float = 0.125) -> tuple[float, float]:
    """I = I_x((n-1)/2, 1/2) = Pr(W_1^2 >= 1 - x) for Haar W in S^(n-1) and 0 < x < 1, and dI/dx.

    With a = (n-1)/2, Q = 1 - I sums positive terms (DLMF 8.17.20): sqrt(1-x) for an integer a, or
    (2/pi) acos sqrt x then (2/pi) sqrt(x(1-x)) for a half-integer, each next one the last times
    x (c + 1/2)/(c + 1), for c = 0 or 1/2 up to a - 1. The same terms for c >= a sum to I, which is
    how I is read under ``cut``, where 1 - Q cancels. The first of those is
    x^a sqrt(1-x) / (a B(a, 1/2)), and dI/dx is a times it over x (1 - x).
    """
    a, c, h = (n - 1) / 2, (n - 1) % 2 / 2, x / 2
    r = math.sqrt(1.0 - x)
    q, term = (2 / math.pi * math.atan2(r, math.sqrt(x)), 2 / math.pi * math.sqrt(x) * r) if c else (0.0, r)
    while c < a:
        q += term
        c += 1
        term *= x - h / c  # x (c - 1/2) / c
    i, slope = 1.0 - q, a * term / (x * (1.0 - x))
    if i < cut:  # the rest as multiples of its first term, which may underflow
        s, f = 0.0, 1.0
        while f > s * 2**-56:
            s += f
            c += 1
            f *= x - h / c
        i = term * s
    return i, slope


def _w1_quantile(n: int, p: float) -> float:
    """The x in [0, 1] with I_x((n-1)/2, 1/2) = p, for n >= 3; exactly 0 at p = 0 and 1 at p = 1.

    Newton's method on log I in log x, which is convex, so from a start at or above the root every
    step stays there, under the bracket's top 1. With L = 1/(a B(a, 1/2)) both starts are: I >= L x^a
    gives (p/L)^(1/a), and 1 - I <= 2aL sqrt(1-x) gives 1 - ((1-p)/(2aL))^2, taken as a product
    that keeps its digits at n = 3, where 2aL = 1 (its least). The steps read I as 1 - Q down to
    I = 2^-16 (about 10 digits); once log I is within 1e-8 of log p, or x stops moving (a root
    within an ulp of 1), one more step reads I to full precision.
    """
    if p == 0 or p == 1:
        return float(p)
    a = (n - 1) / 2
    lead = math.exp(math.lgamma(a + 0.5) - math.lgamma(a + 1)) / math.sqrt(math.pi)  # L
    h = max(2 * a * lead, 1.0)  # so that h - 1 + p > 0 where lgamma rounds 2aL under 1 at n = 3
    x, last = min((p / lead) ** (1 / a), (h - 1 + p) * (h + 1 - p) / (h * h), 1.0), False
    while x < 1:
        i, slope = _w1_tail(n, x) if last else _w1_tail(n, x, 2**-16)
        g = math.log(i / p)
        x, prev = min(x * math.exp(-g * i / (x * slope)), (1 + x) / 2), x
        if last:
            break
        last = abs(g) < 1e-8 or x == prev
    return x


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


def best_aligned(c, size: int, rng) -> np.ndarray:
    """The vector of a Haar codebook of ``size`` unit vectors best aligned
    with the unit vector ``c``, drawn from its exact law in O(n).

    Each score <w_j, c> has the law of W_1 for Haar W in S^(n-1), so their
    maximum t has Pr(max >= t) = 1 - V^(1/size) for one uniform V; t inverts
    Pr(W_1 >= t) = I_{1-t^2}((n-1)/2, 1/2) / 2 (negated for a tail over 1/2).
    Given t, the maximizer is uniform on its circle about c:
    w = t c + sqrt(1 - t^2) u with u Haar on c's orthogonal complement.
    """
    n = len(c)
    tail = -math.expm1(math.log1p(-rng.random()) / size)
    x = _w1_quantile(n, 2.0 * min(tail, 1.0 - tail))  # 1 - t^2
    t = math.copysign(math.sqrt(1.0 - x), 0.5 - tail)
    u = rng.standard_normal(n)
    u -= (u @ c) * c
    return t * c + math.sqrt(1.0 - t * t) * (u / np.linalg.norm(u))


def abc_classical(inst: AbcInstance, i: int = 0, k: int = 2, seed=None) -> tuple[int, Transcript]:
    """Randomized ABC protocol: cap codebook + sign-sketch estimation.

    Charlie names to Bob the vector w of a shared Haar codebook of
    ``codebook_size(k)`` unit vectors best aligned with his column C_i;
    only w is drawn, from its exact law (``best_aligned``), so the work is
    O(n) for any k. Alice and Bob then estimate <A_i, B w> to accuracy
    sqrt(k/n)/100. Since <A_i, B w> = label * <C_i, w>, the sign of the
    estimate is the answer. Transcript: ceil(log2 codebook_size(k)) index
    bits plus one bit per sketch round, a deterministic function of (n, k).
    """
    n = inst.n
    if not 1 <= k <= n / 4:
        raise DomainError(f"cap parameter k={k} outside [1, n/4] at n={n}")
    if not 0 <= i < n:
        raise DomainError(f"row index {i} outside [0, {n})")
    rng = np.random.default_rng(seed)
    size = codebook_size(k)
    bw = inst.b @ best_aligned(inst.c[:, i], size, rng)
    bw = bw / np.linalg.norm(bw)
    eps = math.sqrt(k / n) / 100.0
    estimate, sketch = knr_estimate(inst.a[i, :], bw, eps, seed=rng)
    answer = 1 if estimate > 0 else 0
    return answer, Transcript(bits_sent={0: sketch.bits_sent[0], 1: 0, 2: math.ceil(math.log2(size))})


def disc_bruteforce(m: SignMatrix) -> tuple[float, tuple, tuple]:
    """Exact discrepancy: max over rectangles of |sum of weight * sign|.

    For a row set with column sums r, the best column set takes every
    positive r_j or every negative r_j, so the value is max(sum r+, sum r-).
    Every mask of the shorter side (bit i selects row i) gets its sums from
    one product per block of ``DISC_BLOCK_SUMS``, so the 16 limit binds only
    min(rows, cols). The witness is the first maximizer in (row mask, col
    mask) binary-counter order: zero sums are left out, and when the two
    sides tie the one whose column mask counts first wins. A tall matrix
    (rows > cols) is enumerated as its transpose, so rows and columns swap
    in that rule: the first maximizer in (col mask, row mask) order wins.
    Under non-dyadic weights the float sums of an exact tie can break it
    differently from a cell-by-cell sum.
    """
    rows, cols = m.entries.shape
    if min(rows, cols) > 16:
        raise BackendLimitError(f"{rows}x{cols} exceeds the 16x16 enumeration limit on both sides")
    tall = rows > cols
    signed = (m.entries * m.weights).T if tall else m.entries * m.weights
    rows, cols = signed.shape
    best, block = (-1.0,), max(1, DISC_BLOCK_SUMS // cols)
    for start in range(0, 1 << rows, block):
        masks = np.arange(start, min(start + block, 1 << rows))
        sums = ((masks[:, None] >> np.arange(rows)) & 1).astype(float) @ signed
        pos = np.where(sums > 0, sums, 0.0).sum(axis=1)
        neg = np.where(sums < 0, -sums, 0.0).sum(axis=1)
        j = int(np.argmax(np.maximum(pos, neg)))  # argmax takes the first maximizer
        if max(pos[j], neg[j]) > best[0]:
            best = (max(pos[j], neg[j]), pos[j], neg[j], sums[j], int(masks[j]))
    value, pos, neg, r, mask = best
    sides = [np.flatnonzero(side) for side, v in ((r > 0, pos), (r < 0, neg)) if v == value]
    side = min(sides, key=lambda side: side[::-1].tolist())  # the smaller mask: its top bits first
    witness = (tuple(i for i in range(rows) if mask >> i & 1), tuple(side.tolist()))
    return (float(value), *(witness[::-1] if tall else witness))
