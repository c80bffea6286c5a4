"""Classical baselines and brute-force lower-bound quantities.

Sign-sketch inner-product estimation, the randomized ABC protocol built
on spherical-cap codebooks, cap-probability Monte Carlo, and exact
rectangle discrepancy on small sign matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BackendLimitError, DomainError
from .problems import AbcInstance

# Sketch rounds s = ceil(KNR_CONSTANT / eps^2). Chosen so the empirical
# failure rate of the estimator stays below 0.1 (the agreement frequency
# sits within ~1.8 sigma of its mean at this s). Tunable via CLI flag.
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


def cap_probability_mc(n: int, k: int, samples: int, seed=None) -> float:
    """Monte Carlo estimate of Pr(<v, W>^2 >= k/n) over Haar W.

    By rotation invariance v is fixed to e_1 and <v, W> is W's first
    coordinate. The spherical-cap bound keeps this above e^-k / (16 sqrt(k)).
    """
    if not 1 <= k <= n / 4:
        raise DomainError(f"cap parameter k={k} outside [1, n/4] at n={n}")
    if samples < 10**4:
        raise DomainError(f"need at least 1e4 samples, got {samples}")
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


def caps_lower_bound(k: int) -> float:
    return math.exp(-k) / (16.0 * math.sqrt(k))


def knr_sketch_rounds(eps: float, constant: float = KNR_CONSTANT) -> int:
    if not 0 < eps < 1:
        raise DomainError(f"accuracy eps={eps} outside (0, 1)")
    return math.ceil(constant / (eps * eps))


def knr_estimate(
    a, b, eps: float, seed=None, constant: float = KNR_CONSTANT
) -> tuple[float, Transcript]:
    """Sign-sketch estimate of <a, b> for unit vectors.

    Shared Haar unit vectors r_j; Alice sends sign(<a, r_j>), Bob counts
    agreements with sign(<b, r_j>). Each round agrees independently with
    probability 1 - angle/pi, so the agreement count is Binomial(s,
    1 - angle/pi) and is sampled from that exact law in one draw; the
    per-round sign bits are not materialized. The estimate is
    cos(pi * (1 - agreement frequency)). Communication is one bit per
    sketch round: s = ceil(constant / eps^2) total.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DomainError("vectors must share one dimension")
    if abs(np.linalg.norm(a) - 1.0) > 1e-9 or abs(np.linalg.norm(b) - 1.0) > 1e-9:
        raise DomainError("knr_estimate expects unit vectors (within 1e-9)")
    s = knr_sketch_rounds(eps, constant)
    # the angle as 2 atan2(|a - b|, |a + b|) lies in [0, pi] with no clamp
    theta = 2.0 * math.atan2(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))
    agree = int(np.random.default_rng(seed).binomial(s, 1.0 - theta / math.pi))
    estimate = math.cos(math.pi * (1.0 - agree / s))
    return estimate, Transcript(bits_sent={0: s, 1: 0})


def abc_classical(
    inst: AbcInstance, i: int = 0, k: int = 2, seed=None, constant: float = KNR_CONSTANT
) -> tuple[int, Transcript]:
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
    estimate, sketch = knr_estimate(inst.a[i, :], bw, eps, seed=rng, constant=constant)
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

    Enumerates all 2^rows * 2^cols rectangles by binary counters, no
    pruning; the witness is the first maximizer in (row mask, col mask)
    order. Limited to 16 x 16.
    """
    rows, cols = m.entries.shape
    if rows > 16 or cols > 16:
        raise BackendLimitError(f"{rows}x{cols} exceeds the 16x16 enumeration limit")
    signed = m.entries * m.weights
    # value(row_mask, col_mask) = | ones(row_mask) @ signed @ ones(col_mask) |;
    # mask bit i selects row/column i, masks enumerated as binary counters.
    col_masks = np.array(
        [[(cm >> j) & 1 for j in range(cols)] for cm in range(1 << cols)], dtype=float
    )
    best = -1.0
    best_rows: tuple = ()
    best_cols: tuple = ()
    row_sum = np.zeros(cols)
    for rm in range(1 << rows):
        row_sum[:] = 0.0
        for i in range(rows):
            if (rm >> i) & 1:
                row_sum += signed[i]
        vals = np.abs(col_masks @ row_sum)
        cm = int(np.argmax(vals))  # first maximizer for this row mask
        if vals[cm] > best:
            best = float(vals[cm])
            best_rows = tuple(i for i in range(rows) if (rm >> i) & 1)
            best_cols = tuple(j for j in range(cols) if (cm >> j) & 1)
    return best, best_rows, best_cols
