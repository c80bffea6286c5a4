import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import betainc, betaincinv
from scipy.stats import chi2_contingency, ks_2samp

from helpers import (
    cap_codebook,
    cap_probability_gaussian,
    recursive_disc_oracle,
    sign_sketch_agreements,
    true_alignment,
)
from oneclean import classical, problems, qstate
from oneclean.errors import BackendLimitError, DomainError


def test_knr_identical_vectors():
    rng = np.random.default_rng(0)
    a = qstate.haar_unit_vector(16, rng)
    hits = 0
    for seed in range(40):
        est, _ = classical.knr_estimate(a, a, 0.1, seed=seed)
        hits += int(1 - 0.1 <= est <= 1)
    assert hits >= 36  # >= 0.9 success


def test_knr_orthogonal_vectors():
    a = np.zeros(8)
    b = np.zeros(8)
    a[0] = 1.0
    b[1] = 1.0
    hits = 0
    for seed in range(40):
        est, _ = classical.knr_estimate(a, b, 0.1, seed=seed)
        hits += int(abs(est) <= 0.1)
    assert hits >= 36


def test_knr_failure_rate_battery():
    rng = np.random.default_rng(1)
    a = qstate.haar_unit_vector(32, rng)
    b = qstate.haar_unit_vector(32, rng)
    true = float(a @ b)
    fails = sum(
        abs(classical.knr_estimate(a, b, 0.15, seed=s)[0] - true) > 0.15
        for s in range(200)
    )
    assert fails / 200 <= 0.1


def test_knr_failure_rate_at_spec_accuracy():
    # n=32, eps=0.05, 10^3 seeds: empirical failure rate <= 0.1
    rng = np.random.default_rng(8)
    a = qstate.haar_unit_vector(32, rng)
    b = qstate.haar_unit_vector(32, rng)
    true = float(a @ b)
    fails = sum(
        abs(classical.knr_estimate(a, b, 0.05, seed=s)[0] - true) > 0.05
        for s in range(1000)
    )
    assert fails / 1000 <= 0.1


def test_knr_transcript_deterministic():
    rng = np.random.default_rng(2)
    a = qstate.haar_unit_vector(8, rng)
    b = qstate.haar_unit_vector(8, rng)
    totals = {classical.knr_estimate(a, b, 0.2, seed=s)[1].total for s in range(5)}
    assert totals == {math.ceil(classical.KNR_CONSTANT / 0.04)}


def test_knr_agreement_frequency_unbiased():
    # empirical mean of the agreement frequency ~ 1 - arccos(<a,b>)/pi
    rng = np.random.default_rng(3)
    a = qstate.haar_unit_vector(8, rng)
    b = qstate.haar_unit_vector(8, rng)
    q = 1.0 - math.acos(float(a @ b)) / math.pi
    eps = 0.3
    s = classical.knr_sketch_rounds(eps)
    n_seeds = 1000
    freqs = []
    for seed in range(n_seeds):
        est, _ = classical.knr_estimate(a, b, eps, seed=seed)
        freqs.append(1.0 - math.acos(est) / math.pi)
    sigma = math.sqrt(q * (1 - q) / (s * n_seeds))
    assert abs(np.mean(freqs) - q) < 3 * sigma + 1e-12


def test_knr_rejects_non_unit():
    with pytest.raises(DomainError):
        classical.knr_estimate(np.ones(4), np.ones(4) / 2.0, 0.1, seed=0)
    a = np.zeros(4)
    a[0] = 1.0
    for left, right in ((a, 1.001 * a), (0.999 * a, a), (a, np.zeros(4))):
        with pytest.raises(DomainError):
            classical.knr_estimate(left, right, 0.3, seed=0)


def _pooled_histograms(x, y, width, least=20):
    """Histograms of two count samples over 0..width, adjacent values
    pooled left to right until each bin holds ``least`` draws in total."""
    hx = np.bincount(x, minlength=width + 1)
    hy = np.bincount(y, minlength=width + 1)
    bins, cur = [], np.zeros(2, dtype=int)
    for pair in zip(hx, hy):
        cur += pair
        if cur.sum() >= least:
            bins.append(cur)
            cur = np.zeros(2, dtype=int)
    bins[-1] = bins[-1] + cur
    return np.array(bins).T


def test_knr_agreement_count_matches_the_gaussian_sketch_law():
    # the single Binomial draw against s sign rounds drawn one by one
    rng = np.random.default_rng(9)
    a = qstate.haar_unit_vector(8, rng)
    b = qstate.haar_unit_vector(8, rng)
    eps, seeds = 0.3, 2000
    s = classical.knr_sketch_rounds(eps)
    assert s == 89
    p = 1.0 - math.acos(float(a @ b)) / math.pi
    drawn = []
    for seed in range(seeds):
        est, tr = classical.knr_estimate(a, b, eps, seed=seed)
        assert tr.total == s
        drawn.append(round(s * (1.0 - math.acos(est) / math.pi)))
    drawn = np.array(drawn)
    oracle = np.array([
        sign_sketch_agreements(a, b, s, np.random.default_rng(10**6 + seed)) for seed in range(seeds)
    ])
    res = chi2_contingency(_pooled_histograms(drawn, oracle, s))
    assert res.pvalue > 0.001
    # Binomial(s, p) moments; the sample variance's spread uses the fourth central moment
    var = s * p * (1 - p)
    mu4 = var * (1 + 3 * (s - 2) * p * (1 - p))
    for counts in (drawn, oracle):
        assert abs(counts.mean() - s * p) < 4 * math.sqrt(var / seeds)
        assert abs(counts.var(ddof=1) - var) < 4 * math.sqrt((mu4 - var**2) / seeds)


def test_knr_parallel_and_antiparallel_vectors_are_exact():
    rng = np.random.default_rng(10)
    for n in (1, 4, 16):
        a = qstate.haar_unit_vector(n, rng)
        for eps in (0.3, 0.05):
            for seed in range(5):
                assert classical.knr_estimate(a, a, eps, seed=seed)[0] == 1.0
                assert classical.knr_estimate(a, -a, eps, seed=seed)[0] == -1.0


def test_knr_at_abc_accuracy_allocates_nothing_per_round():
    rng = np.random.default_rng(12)
    a = qstate.haar_unit_vector(16, rng)
    b = qstate.haar_unit_vector(16, rng)
    eps = math.sqrt(2 / 16) / 100
    tracemalloc.start()
    try:
        _, tr = classical.knr_estimate(a, b, eps, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.total == classical.knr_sketch_rounds(eps) == 640_000
    assert peak < 64 * 1024  # one 640,000 x 16 Gaussian chunk alone is 8 MiB


def test_cap_codebook_sizes_and_norms():
    assert classical.codebook_size(2) == 2471  # ceil(32 sqrt2 e^4)
    assert classical.codebook_size(1) == 237  # ceil(32 e^2)
    book = cap_codebook(4, 1, seed=0)
    assert book.size == 237
    assert np.max(np.abs(np.linalg.norm(book.vectors, axis=1) - 1.0)) < 1e-9


def test_cap_codebook_hits_the_cap():
    rng = np.random.default_rng(4)
    for seed in range(5):
        book = cap_codebook(8, 1, seed=seed)
        v = qstate.haar_unit_vector(8, rng)
        assert np.max(book.vectors @ v) >= math.sqrt(1 / 8)


W1_GRID = [1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.44, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6]


def test_w1_tail_matches_the_incomplete_beta():
    # scipy as the oracle of I_x((n-1)/2, 1/2), for either parity of n and either side of the cut;
    # it reads 0 or a subnormal where I is under 1e-300 (x = 1e-6 from n = 101 on), so only the absolute
    # bound applies there
    for n in range(3, 129):
        for x in W1_GRID:
            want = betainc((n - 1) / 2, 0.5, x)
            got = classical._w1_tail(n, x)[0]
            assert abs(got - want) <= 1e-14, (n, x, got, want)
            assert abs(got - want) <= 1e-12 * want or want < 1e-300, (n, x, got, want)


@pytest.mark.parametrize("n, k", [(16, 2), (64, 8)])
def test_w1_quantile_matches_the_inverse_incomplete_beta_on_best_aligned_draws(n, k):
    rng, size = np.random.default_rng(n + k), classical.codebook_size(k)
    tails = -np.expm1(np.log1p(-rng.random(3000)) / size)  # best_aligned's tails of the top score
    ps = 2.0 * np.minimum(tails, 1.0 - tails)
    got = np.array([classical._w1_quantile(n, p) for p in ps.tolist()])
    want = betaincinv((n - 1) / 2, 0.5, ps)
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_w1_quantile_is_exact_at_zero_and_one():
    for n in (3, 4, 16, 17):
        assert classical._w1_quantile(n, 0.0) == 0.0
        assert classical._w1_quantile(n, 1.0) == 1.0


def test_w1_quantile_returns_at_the_ends_of_its_range():
    # at n = 3 lgamma rounds 2aL just under 1, which once made the start from above negative
    for p in (1e-20, 1e-300):
        assert classical._w1_quantile(3, p) == pytest.approx(betaincinv(1, 0.5, p), rel=1e-12, abs=0)
    # the root 1 - 4.9e-17 has no float between it and 1, which once kept Newton's method stepping
    p = 0.9999999784556531
    assert abs(classical._w1_quantile(16, p) - betaincinv(7.5, 0.5, p)) <= 2**-52


def test_a_best_aligned_draw_from_a_zero_uniform_is_the_vector_itself():
    class ZeroUniform:  # the first draw of best_aligned is the uniform of its top score
        def random(self):
            return 0.0

        def standard_normal(self, n):
            return np.random.default_rng(0).standard_normal(n)

    c = qstate.haar_unit_vector(16, np.random.default_rng(1))
    assert np.array_equal(classical.best_aligned(c, classical.codebook_size(2), ZeroUniform()), c)


@pytest.mark.parametrize("n", [4, 8, 16, 64, 128])
def test_cap_probability_at_the_largest_cap_matches_the_incomplete_beta(n):
    want = betainc((n - 1) / 2, 0.5, 0.75)  # k = n/4
    assert classical.cap_probability(n, n // 4) == pytest.approx(want, rel=1e-12, abs=0)


def test_cap_codebook_domain():
    with pytest.raises(DomainError):
        cap_codebook(4, 2, seed=0)  # k > n/4


def test_cap_probability_closed_form():
    est = classical.cap_probability_mc(4, 1, 10**5, seed=1)
    closed = (4 / math.pi) * (math.pi / 6 - math.sqrt(3) / 8)
    assert abs(est - closed) < 0.01
    assert est > classical.caps_lower_bound(1)


def _simpson(f, a, b, steps=100_000):
    x = np.linspace(a, b, steps + 1)
    w = np.full(steps + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return float(np.sum(w * f(x))) * (b - a) / (3 * steps)


def test_cap_probability_is_the_exact_beta_tail():
    closed = (4 / math.pi) * (math.pi / 6 - math.sqrt(3) / 8)  # 0.3910022...
    assert abs(classical.cap_probability(4, 1) - closed) < 1e-12
    for n, k in [(16, 2), (16, 4), (64, 4)]:
        # W_1 has density proportional to (1 - x^2)^((n-3)/2) on [-1, 1]
        def density(x):
            return (1.0 - x * x) ** ((n - 3) / 2)

        quad = _simpson(density, math.sqrt(k / n), 1.0) / _simpson(density, 0.0, 1.0)
        assert abs(classical.cap_probability(n, k) - quad) < 1e-12


def test_cap_hit_count_matches_the_gaussian_law():
    # the single Binomial draw against Haar vectors drawn one by one
    n, k, samples, seeds = 4, 1, 10**4, 500
    p = classical.cap_probability(n, k)
    drawn = np.array([
        round(classical.cap_probability_mc(n, k, samples, seed=seed) * samples)
        for seed in range(seeds)
    ])
    oracle = np.array([
        round(cap_probability_gaussian(n, k, samples, seed=10**6 + seed) * samples)
        for seed in range(seeds)
    ])
    res = chi2_contingency(_pooled_histograms(drawn, oracle, samples))
    assert res.pvalue > 0.001
    var = samples * p * (1 - p)
    mu4 = var * (1 + 3 * (samples - 2) * p * (1 - p))
    for counts in (drawn, oracle):
        assert abs(counts.mean() - samples * p) < 4 * math.sqrt(var / seeds)
        assert abs(counts.var(ddof=1) - var) < 4 * math.sqrt((mu4 - var**2) / seeds)


def test_cap_probability_beats_bound():
    for n, k in [(8, 2), (16, 2), (8, 1)]:
        est = classical.cap_probability_mc(n, k, 2 * 10**4, seed=2)
        assert est >= classical.caps_lower_bound(k)


def test_cap_probability_preconditions():
    with pytest.raises(DomainError, match=r"^cap parameter k=1 outside \[1, n/4\] at n=2$"):
        classical.cap_probability(2, 1)  # k > n/4
    with pytest.raises(DomainError):
        classical.cap_probability_mc(2, 1, 10**5, seed=0)  # k > n/4
    with pytest.raises(DomainError):
        classical.cap_probability_mc(8, 1, 100, seed=0)  # too few samples


def test_abc_classical_both_labels():
    for label in (1, -1):
        ok = 0
        for seed in range(10):
            inst = problems.abc_instance(16, label, seed=seed)
            ans, tr = classical.abc_classical(inst, k=2, seed=seed)
            ok += int(ans == (1 if label == 1 else 0))
        assert ok >= 9


def test_abc_classical_transcript_deterministic():
    inst = problems.abc_instance(16, 1, seed=0)
    totals = set()
    for seed in range(3):
        _, tr = classical.abc_classical(inst, k=2, seed=seed)
        totals.add((tr.bits_sent[2], tr.total))
    eps = math.sqrt(2 / 16) / 100
    sketch = math.ceil(classical.KNR_CONSTANT / eps**2)
    assert totals == {(12, 12 + sketch)}  # ceil(log2 2471) = 12 index bits


def test_abc_classical_separation_invariant():
    # |<A_i, B W_max>| >= sqrt(k/n) whenever the codebook hits the cap
    for seed in range(5):
        inst = problems.abc_instance(16, -1, seed=seed)
        book = cap_codebook(16, 2, seed=seed)
        alignment = true_alignment(inst, 0, book)
        cap = float(np.max(book.vectors @ inst.c[:, 0]))
        if cap >= math.sqrt(2 / 16):
            assert abs(alignment) >= math.sqrt(2 / 16)
        assert alignment == pytest.approx(inst.label * cap, abs=1e-9)


@pytest.mark.parametrize("n, k", [(8, 1), (16, 2)])
def test_best_aligned_draw_matches_the_codebook_argmax_law(n, k):
    # the exact-law draw against the argmax of a whole codebook, drawn vector by vector
    draws = 2000
    rng = np.random.default_rng(40 + n)
    c = qstate.haar_unit_vector(n, rng)
    e = np.eye(n)[0] - c[0] * c
    e /= np.linalg.norm(e)  # a fixed unit vector orthogonal to c
    size = classical.codebook_size(k)
    drawn = np.array([classical.best_aligned(c, size, rng) for _ in range(draws)])
    assert np.max(np.abs(np.linalg.norm(drawn, axis=1) - 1.0)) < 1e-12
    books = (cap_codebook(n, k, seed=rng).vectors for _ in range(draws))
    oracle = np.array([book[int(np.argmax(book @ c))] for book in books])
    for along in (c, e):
        assert ks_2samp(drawn @ along, oracle @ along).pvalue > 0.001


def test_abc_classical_at_n64_k8_materializes_no_codebook():
    # |T| = 804,278,913 vectors of 64 doubles: the codebook alone would take 412 GB
    assert classical.codebook_size(8) == 804_278_913
    classical.abc_classical(problems.abc_instance(64, 1, seed=0), k=8, seed=0)  # one-time set-up untraced
    for label in (1, -1):
        ok = 0
        for seed in range(10):
            inst = problems.abc_instance(64, label, seed=seed)
            tracemalloc.start()
            try:
                ans, tr = classical.abc_classical(inst, k=8, seed=seed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024
            assert tr.bits_sent == {0: 640_000, 1: 0, 2: 30}
            ok += int(ans == (1 if label == 1 else 0))
        assert ok >= 9


def test_abc_classical_domain_checks():
    inst = problems.abc_instance(16, 1, seed=0)
    with pytest.raises(DomainError):
        classical.abc_classical(inst, k=8, seed=0)
    with pytest.raises(DomainError):
        classical.abc_classical(inst, i=99, k=2, seed=0)


# ----------------------------------------------------------- discrepancy


def _disc_oracle(m: classical.SignMatrix):
    """Independent recursive enumerator over subset pairs."""
    rows, cols = m.entries.shape
    signed = m.entries * m.weights
    best, witness = -1.0, ((), ())

    def rec_rows(i, chosen):
        nonlocal best, witness
        if i == rows:
            rec_cols(0, chosen, ())
            return
        rec_rows(i + 1, chosen)  # counter order: bit i unset first
        rec_rows(i + 1, chosen + (i,))

    def rec_cols(j, rs, cs):
        nonlocal best, witness
        if j == cols:
            val = abs(sum(signed[r, c] for r in rs for c in cs))
            if val > best:
                best, witness = val, (rs, cs)
            return
        rec_cols(j + 1, rs, cs)
        rec_cols(j + 1, rs, cs + (j,))

    rec_rows(0, ())
    return best, witness


def _counter_oracle(m: classical.SignMatrix):
    """Second enumerator in exactly the binary-counter order."""
    rows, cols = m.entries.shape
    signed = m.entries * m.weights
    best, witness = -1.0, ((), ())
    for rm in range(1 << rows):
        rs = tuple(i for i in range(rows) if (rm >> i) & 1)
        for cm in range(1 << cols):
            cs = tuple(j for j in range(cols) if (cm >> j) & 1)
            val = abs(sum(signed[r, c] for r in rs for c in cs))
            if val > best:
                best, witness = val, (rs, cs)
    return best, witness


def test_disc_equality_matrix():
    m = classical.SignMatrix.uniform([[1, -1], [-1, 1]])
    val, rows, cols = classical.disc_bruteforce(m)
    assert val == pytest.approx(0.25, abs=1e-15)
    assert (rows, cols) == ((0,), (0,))


def test_disc_all_ones():
    m = classical.SignMatrix.uniform(np.ones((3, 4)))
    val, rows, cols = classical.disc_bruteforce(m)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert rows == (0, 1, 2) and cols == (0, 1, 2, 3)


def test_disc_ip2_matrix_matches_recursive_oracle():
    n = 2
    entries = [
        [(-1) ** (bin(x & y).count("1") % 2) for y in range(1 << n)]
        for x in range(1 << n)
    ]
    m = classical.SignMatrix.uniform(entries)
    val, rows, cols = classical.disc_bruteforce(m)
    oval, (orows, ocols) = _disc_oracle(m)
    assert val == pytest.approx(oval, abs=1e-12)


@pytest.mark.parametrize("n, value", [(2, 0.3125), (3, 0.171875), (4, 0.109375)])
def test_disc_inner_product_is_pinned_below_the_lindsey_bound(n, value):
    entries = [[(-1) ** bin(x & y).count("1") for y in range(1 << n)] for x in range(1 << n)]
    val, rows, cols = classical.disc_bruteforce(classical.SignMatrix.uniform(entries))
    assert val == value < 2 ** (-n / 2)
    signed = np.array(entries) / 4**n
    assert abs(signed[np.ix_(rows, cols)].sum()) == value


def test_disc_random_matches_counter_oracle_with_witness():
    rng = np.random.default_rng(5)
    for _ in range(5):
        entries = rng.choice([-1.0, 1.0], size=(4, 4))
        w = rng.dirichlet(np.ones(16)).reshape(4, 4)
        m = classical.SignMatrix(entries=entries, weights=w)
        val, rows, cols = classical.disc_bruteforce(m)
        oval, (orows, ocols) = _counter_oracle(m)
        assert val == pytest.approx(oval, abs=1e-12)
        assert (rows, cols) == (orows, ocols)
    # non-square shapes, and weights in sixteenths, whose sums are exact and can tie
    inputs = []
    for shape in [(3, 6), (6, 3), (2, 4), (4, 2)]:
        size = shape[0] * shape[1]
        weights = [rng.dirichlet(np.ones(size))]
        weights += [rng.multinomial(16, np.full(size, 1 / size)) / 16 for _ in range(3)]
        for w in weights:
            inputs.append((rng.choice([-1.0, 1.0], size=shape), w.reshape(shape)))
    # exact ties between the positive and the negative column set, each side winning
    for entries in ([[1, -1], [-1, 1]], [[-1, 1], [1, -1]], [[-1, 1, 1, -1]]):
        e = np.array(entries, dtype=float)
        inputs.append((e, np.full(e.shape, 1 / e.size)))
    for entries, w in inputs:
        m = classical.SignMatrix(entries=entries, weights=w)
        val, rows, cols = classical.disc_bruteforce(m)
        oval, (orows, ocols) = _counter_oracle(m)
        assert val == pytest.approx(oval, abs=1e-12)
        assert (rows, cols) == (orows, ocols)


def test_disc_invariant_under_joint_permutations():
    rng = np.random.default_rng(6)
    entries = rng.choice([-1.0, 1.0], size=(5, 5))
    w = rng.dirichlet(np.ones(25)).reshape(5, 5)
    m = classical.SignMatrix(entries=entries, weights=w)
    val, _, _ = classical.disc_bruteforce(m)
    pr = rng.permutation(5)
    pc = rng.permutation(5)
    m2 = classical.SignMatrix(entries=entries[np.ix_(pr, pc)], weights=w[np.ix_(pr, pc)])
    val2, _, _ = classical.disc_bruteforce(m2)
    assert val2 == pytest.approx(val, abs=1e-12)


def test_disc_of_a_tall_matrix_enumerates_its_columns():
    # 17 x 3: the 2^3 column masks are enumerated, so the 16 limit does not bind;
    # the recursive oracle walks the 2^3 row subsets of the transpose
    rng = np.random.default_rng(19)
    for weights in (None, rng.dirichlet(np.ones(51)).reshape(17, 3)):
        m = classical.SignMatrix(entries=rng.choice([-1.0, 1.0], size=(17, 3)), weights=weights)
        val, rows, cols = classical.disc_bruteforce(m)
        assert abs(val - recursive_disc_oracle(m.entries.T, m.weights.T)) < 1e-12
        assert abs(abs((m.entries * m.weights)[np.ix_(rows, cols)].sum()) - val) < 1e-12
        # the witness is the transpose's, swapped
        t_val, t_rows, t_cols = classical.disc_bruteforce(
            classical.SignMatrix(entries=m.entries.T, weights=m.weights.T))
        assert (t_val, t_cols, t_rows) == (val, rows, cols)


def test_disc_takes_the_first_maximizer_across_blocks(monkeypatch):
    # blocks of one row mask up to the whole enumeration give the counter
    # oracle's witness; weights in sixteenths make every sum exact, so ties are real
    rng = np.random.default_rng(29)
    cases = [(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.full((2, 2), 0.25))]
    for shape in [(3, 4), (2, 6), (4, 4)]:
        size = shape[0] * shape[1]
        weights = rng.multinomial(16, np.full(size, 1 / size)).reshape(shape) / 16
        cases.append((rng.choice([-1.0, 1.0], size=shape), weights))
    for block_sums in (1, 5, 1 << 20):
        monkeypatch.setattr(classical, "DISC_BLOCK_SUMS", block_sums)
        for entries, weights in cases:
            m = classical.SignMatrix(entries=entries, weights=weights)
            val, rows, cols = classical.disc_bruteforce(m)
            oval, witness = _counter_oracle(m)
            assert val == pytest.approx(oval, abs=1e-12) and (rows, cols) == witness


def test_disc_size_limit():
    m = classical.SignMatrix.uniform(np.ones((17, 17)))
    with pytest.raises(BackendLimitError):
        classical.disc_bruteforce(m)


def test_sign_matrix_validation():
    with pytest.raises(DomainError):
        classical.SignMatrix.uniform([[1, 2], [1, -1]])
    with pytest.raises(DomainError):
        classical.SignMatrix(entries=[[1, -1]], weights=[[0.9, 0.2]])
    with pytest.raises(DomainError):  # no cells to weigh: was a ZeroDivisionError
        classical.SignMatrix.uniform(np.ones((0, 1)))
