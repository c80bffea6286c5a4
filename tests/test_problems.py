import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from oneclean import problems, protocol, simulator
from oneclean.errors import DomainError
from oneclean.protocol import ALICE, BOB

from helpers import razborov_sample_oracle

TOL = 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ip2_clocked_exact(n):
    p = problems.ip2_clocked(n)
    assert protocol.communication_cost(p) == 2 * n
    for inp, label in problems.ip2_inputs(n):
        acc = simulator.run_density(p, inp).acceptance
        assert acc == pytest.approx(label, abs=TOL)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ip2_one_clean_bias_one_eighth(n):
    p = problems.ip2_one_clean(n)
    assert protocol.communication_cost(p) == 2 * n + 1
    for inp, label in problems.ip2_inputs(n):
        acc = simulator.run_density(p, inp).acceptance
        assert acc == pytest.approx(3 / 8 + label / 4, abs=TOL)


def test_ip2_single_positive_case():
    p = problems.ip2_clocked(1)
    assert simulator.run_density(p, {ALICE: "1", BOB: "1"}).acceptance == pytest.approx(
        1.0, abs=TOL
    )


@pytest.mark.parametrize("n", [2, 4])
def test_middle_standard_exhaustive(n):
    p = problems.middle_protocol(n)
    assert protocol.communication_cost(p) == 2 * int(math.log2(n)) + 2
    for xv in range(1 << n):
        for yv in range(1 << n):
            x, y = format(xv, f"0{n}b"), format(yv, f"0{n}b")
            t = problems.MiddleInstance.from_strings(x, y).t
            acc = simulator.run_density(p, {ALICE: x, BOB: y}).acceptance
            assert acc == pytest.approx(float(Fraction(4 * t * t, n * n)), abs=TOL)


def test_middle_paper_values():
    p = problems.middle_protocol(4)
    assert simulator.run_density(p, {ALICE: "1100", BOB: "1010"}).acceptance == pytest.approx(
        0.25, abs=TOL
    )
    assert simulator.run_density(p, {ALICE: "1100", BOB: "1100"}).acceptance == pytest.approx(
        0.0, abs=TOL
    )
    po = problems.middle_protocol(4, "one_clean")
    assert simulator.run_density(po, {ALICE: "1100", BOB: "1010"}).acceptance == pytest.approx(
        2 / 64, abs=TOL
    )


def test_middle_one_clean_same_communication():
    for n in (2, 4, 8):
        a = protocol.communication_cost(problems.middle_protocol(n))
        b = protocol.communication_cost(problems.middle_protocol(n, "one_clean"))
        assert a == b


def test_middle_rejects_bad_n():
    with pytest.raises(DomainError):
        problems.middle_protocol(6)
    with pytest.raises(DomainError):
        problems.middle_protocol(4, "bogus")


@pytest.mark.parametrize("n", [2, 4])
def test_abc_protocol_exact(n):
    p = problems.abc_protocol(n)
    assert protocol.communication_cost(p) == 3 * (int(math.log2(n)) + 1)
    for label in (1, -1):
        for seed in range(5):
            inst = problems.abc_instance(n, label, seed=seed)
            acc = simulator.run_density(p, inst.inputs()).acceptance
            assert acc == pytest.approx(1.0 if label == 1 else 0.0, abs=TOL)


def test_abc_catalyst_property():
    p = problems.abc_protocol(4)
    inst = problems.abc_instance(4, 1, seed=3)
    want = simulator.run_density(p, inst.inputs()).acceptance
    # substitute the mixed register: every basis state gives the same answer
    for b1 in (0, 1):
        for b2 in (0, 1):
            acc = simulator.run_density(p, inst.inputs(), pin={1: b1, 2: b2}).acceptance
            assert acc == pytest.approx(want, abs=TOL)
    acc = simulator.run_ensemble(p, inst.inputs(), sample="all").acceptance
    assert acc == pytest.approx(want, abs=TOL)


def test_abc_instance_invariants():
    for label in (1, -1):
        inst = problems.abc_instance(2, label, seed=0)
        assert np.max(np.abs(inst.a @ inst.b @ inst.c - label * np.eye(2))) < 1e-9
    worst = 0.0
    for seed in range(1000):
        inst = problems.abc_instance(8, 1 if seed % 2 else -1, seed=seed)
        for m in (inst.a, inst.b, inst.c):
            worst = max(worst, np.max(np.abs(m.T @ m - np.eye(8))))
    assert worst < 1e-9


def test_abc_rejects_odd_and_non_power():
    with pytest.raises(DomainError):
        problems.abc_protocol(3)
    with pytest.raises(DomainError):
        problems.abc_instance(5, 1, seed=0)
    with pytest.raises(DomainError):
        problems.abc_instance(4, 2, seed=0)


def test_razborov_constraints_every_draw():
    n = 14
    weight = (n // 2 + 1) // 4
    rng = np.random.default_rng(0)
    for which, inter in (("mu1", 0), ("mu0", 1)):
        for _ in range(500):
            x, y = problems.razborov_sample(n, which, seed=rng)
            assert x.count("1") == weight and y.count("1") == weight
            assert sum(int(a) & int(b) for a, b in zip(x, y)) == inter


@pytest.mark.parametrize("n", [14, 30, 62])
def test_razborov_draws_equal_the_numpy_index_oracle(n):
    for which in ("mu0", "mu1"):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(1000):
            assert problems.razborov_sample(n, which, seed=rng) == razborov_sample_oracle(n, which, seed=ref)
    assert problems.razborov_sample(n, "mu0", seed=9) == razborov_sample_oracle(n, "mu0", seed=9)


def test_razborov_disjoint_supports_example():
    x, y = problems.razborov_sample(14, "mu1", seed=5)
    assert all(not (a == b == "1") for a, b in zip(x, y))


def _assert_razborov_uniform(which: str, intersection: int):
    n = 14
    rng = np.random.default_rng(1)
    draws = 10**5
    counts = Counter(problems.razborov_sample(n, which, seed=rng) for _ in range(draws))
    length, weight = n // 2 + 1, (n // 2 + 1) // 4
    support = [
        frozenset(s) for s in itertools.combinations(range(length), weight)
    ]
    admissible = sum(
        1 for sx in support for sy in support if len(sx & sy) == intersection
    )
    assert len(counts) == admissible
    res = chisquare(list(counts.values()))
    assert res.pvalue > 0.001


def test_razborov_uniformity_chisquare():
    _assert_razborov_uniform("mu1", 0)


def test_razborov_mu0_uniformity_chisquare():
    _assert_razborov_uniform("mu0", 1)


def test_razborov_rejects_bad_parameters():
    with pytest.raises(DomainError):
        problems.razborov_sample(16, "mu1", seed=0)  # n/2+1 = 9 not divisible by 4
    with pytest.raises(DomainError):
        problems.razborov_sample(14, "mu2", seed=0)


def test_middle_pad_offsets():
    n = 14
    rng = np.random.default_rng(2)
    x1, y1 = problems.razborov_sample(n, "mu1", seed=rng)
    px, py = problems.middle_pad(x1, y1, n)
    assert sum(int(a) & int(b) for a, b in zip(px, py)) == n // 2 - 1
    assert problems.MiddleInstance.from_strings(px, py).t == -1
    x0, y0 = problems.razborov_sample(n, "mu0", seed=rng)
    px, py = problems.middle_pad(x0, y0, n)
    assert sum(int(a) & int(b) for a, b in zip(px, py)) == n // 2
    assert problems.MiddleInstance.from_strings(px, py).t == 0


def test_middle_pad_all_zero_strings():
    n = 14
    z = "0" * (n // 2 + 1)
    px, py = problems.middle_pad(z, z, n)
    assert sum(int(a) & int(b) for a, b in zip(px, py)) == n // 2 - 1


def test_middle_pad_length_check():
    # a short string, odd n, n below 2, and strings that are not all 0s and 1s:
    # no padded pair would be a MIDDLE instance of length n
    for xt, yt, n in [("01", "01", 14), ("0000011", "0010001", 13), ("0", "1", 0), ("01", "10", 1),
                      ("00000a2", "0010001", 12), ("0000011", "001 001", 12)]:
        with pytest.raises(DomainError):
            problems.middle_pad(xt, yt, n)
