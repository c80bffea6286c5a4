"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated later.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oneclean import classical, problems, protocol, qstate, simulator, transforms
from oneclean.protocol import ALICE, BOB

from helpers import (
    bit_inputs,
    embed_operator,
    oneway_protocol,
    random_sq_base,
    recursive_disc_oracle,
    random_trace_form,
    random_two_clean,
    toy_rotation_base,
)

TOL = 1e-9


class Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def report(criterion, detail, timer=None):
    suffix = f" [{timer.elapsed:.1f}s < {timer.limit}s]" if timer else ""
    print(f"PASS criterion {criterion}: {detail}{suffix}")


def test_criterion_01_ip2_example():
    with Timer(10) as t:
        for n in (1, 2, 3):
            clocked = problems.ip2_clocked(n)
            one = problems.ip2_one_clean(n)
            assert protocol.communication_cost(clocked) == 2 * n
            assert protocol.communication_cost(one) == 2 * n + 1
            assert protocol.q1_cost(2 * n + 1, Fraction(1, 8)) == 64 * (2 * n + 1)
            for inp, label in problems.ip2_inputs(n):
                acc_c = simulator.run_density(clocked, inp).acceptance
                assert abs(acc_c - label) < TOL  # zero error
                acc_o = simulator.run_density(one, inp).acceptance
                correct = acc_o if label == 1 else 1.0 - acc_o
                assert abs(correct - 5 / 8) < TOL
            eps = simulator.measure_bias(one, problems.ip2_inputs(n), Fraction(1, 2))
            assert abs(eps - 1 / 8) < TOL
    assert t.elapsed < t.limit
    report(1, "IP2 exact at n in {1,2,3}; bias 1/8; costs 2n, 2n+1, 64(2n+1)", t)


def test_criterion_02_k_to_one_clean_cert():
    # the IP2 chain
    base = problems.ip2_clocked(2)
    out, cert = transforms.k_to_one_clean(base)
    assert cert.predicted_bias == Fraction(1, 8)
    eps_out = simulator.measure_bias(out, problems.ip2_inputs(2), out.declared_p)
    assert abs(eps_out - 1 / 8) < TOL
    # 20 random 2-clean protocols on <= 6 qubits
    for seed in range(20):
        b = random_two_clean(seed, mixed=seed % 2)
        o, c = transforms.k_to_one_clean(b)
        assert o.layout.total <= 6
        accs = {
            inp[ALICE]: simulator.run_density(b, inp).acceptance for inp, _ in bit_inputs()
        }
        lo_key, hi_key = sorted(accs, key=accs.get)
        eps_base = (accs[hi_key] - accs[lo_key]) / 2
        p_base = (accs[hi_key] + accs[lo_key]) / 2
        labeled = [({ALICE: lo_key, BOB: ""}, 0), ({ALICE: hi_key, BOB: ""}, 1)]
        measured = simulator.measure_bias(o, labeled, 3 / 8 + p_base / 4)
        assert abs(measured - eps_base / 4) < TOL, seed
    report(2, "output bias = eps/2^k exactly on the IP2 chain and 20 random 2-clean bases")


def test_criterion_03_trace_estimation():
    with Timer(60) as t:
        # trace-form wrap of a tiny base: p0 = 1/2 + 1/16 + eps/2^(k+3), k = 1
        th1 = math.pi / 5
        base = toy_rotation_base(math.pi / 2 - th1, th1)  # acceptances 1/2 -+ eps
        k1, _ = transforms.k_to_one_clean(base)
        sq = transforms.projective_to_single_qubit(k1)
        tf, _ = transforms.to_trace_form(sq)
        eps = math.cos(th1) ** 2 - 0.5
        for bit, sign in (("0", -1), ("1", 1)):
            acc = simulator.run_trace(tf, {ALICE: bit, BOB: ""}).acceptance
            assert abs(acc - (0.5 + 1 / 16 + sign * eps / 16)) < TOL
        # run_trace vs run_density on trace-form protocols <= 10 qubits
        for seed in range(6):
            p = random_sq_base(seed, rounds=2 + seed % 2)
            wrapped, _ = transforms.to_trace_form(p)
            assert wrapped.layout.total <= 10
            d = simulator.run_density(wrapped).acceptance
            tr = simulator.run_trace(wrapped).acceptance
            assert abs(d - tr) < TOL
        for seed in range(4):
            p = random_trace_form(seed, pairs=4)
            assert p.layout.total <= 10
            assert abs(
                simulator.run_density(p).acceptance - simulator.run_trace(p).acceptance
            ) < TOL
        # counter-start invariance for every start at r <= 8 rounds
        for pairs in (2, 4):
            tfp = random_trace_form(pairs, pairs=pairs)
            uc, _ = transforms.unclock(tfp)
            assert len(tfp.rounds) <= 8
            ref = simulator.run_trace(tfp).acceptance
            w = len(uc.trace_plan.counter)
            for j in range(pairs):
                assert abs(simulator.run_trace(uc, counter_start=j).acceptance - ref) < TOL
                pin = {q: (j >> (w - 1 - i)) & 1 for i, q in enumerate(uc.trace_plan.counter)}
                assert abs(simulator.run_density(uc, pin=pin).acceptance - ref) < TOL
            assert abs(simulator.run_density(uc).acceptance - ref) < TOL
    assert t.elapsed < t.limit
    report(3, "1/2 + 1/16 + eps/2^(k+3) exact; trace == density <= 10 qubits; counter starts equal", t)


def _middle_pairs(n, count, rng):
    pairs = []
    for _ in range(count):
        x = "".join(rng.choice(["0", "1"], size=n))
        y = "".join(rng.choice(["0", "1"], size=n))
        pairs.append((x, y))
    # force some 0-inputs (t = 0) into the sample
    half = "1" * (n // 2) + "0" * (n // 2)
    pairs.append((half, half))
    return pairs


def test_criterion_04_middle():
    with Timer(60) as t:
        for n in (2, 4):
            std = problems.middle_protocol(n)
            one = problems.middle_protocol(n, "one_clean")
            for xv in range(1 << n):
                for yv in range(1 << n):
                    x, y = format(xv, f"0{n}b"), format(yv, f"0{n}b")
                    tt = problems.MiddleInstance.from_strings(x, y).t
                    inp = {ALICE: x, BOB: y}
                    a = simulator.run_density(std, inp).acceptance
                    assert abs(a - float(Fraction(4 * tt * tt, n * n))) < TOL
                    if tt == 0:
                        assert a < TOL  # rejected with certainty
                    b = simulator.run_density(one, inp).acceptance
                    assert abs(b - float(Fraction(2 * tt * tt, n**3))) < TOL
        n = 8
        std = problems.middle_protocol(n)
        one = problems.middle_protocol(n, "one_clean")
        rng = np.random.default_rng(42)
        for x, y in _middle_pairs(n, 1000, rng):
            tt = problems.MiddleInstance.from_strings(x, y).t
            inp = {ALICE: x, BOB: y}
            a = simulator.run_density(std, inp).acceptance
            assert abs(a - float(Fraction(4 * tt * tt, n * n))) < TOL
            b = simulator.run_density(one, inp).acceptance
            assert abs(b - float(Fraction(2 * tt * tt, n**3))) < TOL
    assert t.elapsed < t.limit
    report(4, "acceptance 4t^2/n^2 and 2t^2/n^3 exact at n in {2,4,8}", t)


def test_criterion_05_abc():
    with Timer(30) as t:
        rng = np.random.default_rng(7)
        for n in (2, 4, 8):
            p = problems.abc_protocol(n)
            for label in (1, -1):
                want = 1.0 if label == 1 else 0.0
                for trial in range(100):
                    inst = problems.abc_instance(n, label, seed=rng)
                    acc = simulator.run_density(p, inst.inputs()).acceptance
                    assert abs(acc - want) < TOL
            # catalyst: substitute the mixed register and nothing changes
            inst = problems.abc_instance(n, 1, seed=rng)
            mixed = list(range(1, p.layout.total))
            for value in (0, (1 << len(mixed)) - 1):
                pin = {q: (value >> (len(mixed) - 1 - i)) & 1 for i, q in enumerate(mixed)}
                acc = simulator.run_density(p, inst.inputs(), pin=pin).acceptance
                assert abs(acc - 1.0) < TOL
    assert t.elapsed < t.limit
    report(5, "acceptance exactly 1/0 on 100 instances per label at n in {2,4,8}; catalyst holds", t)


def test_criterion_06_pp_to_oneway():
    for c, eps in ((1, Fraction(1, 4)), (2, Fraction(1, 8))):
        t_map = {format(v, f"0{c}b"): format(v, f"0{c}b") for v in range(1 << c)}
        btable = {}
        for yv in range(1 << c):
            y = format(yv, f"0{c}b")
            row = {}
            for zv in range(1 << c):
                z = format(zv, f"0{c}b")
                bit = int(z[0]) ^ int(y[0])
                if c > 1:
                    bit ^= sum(int(a) & int(b) for a, b in zip(z[1:], y[1:])) % 2
                row[z] = str(Fraction(1, 2) + (-eps if bit else eps))
            btable[y] = row
        p, cert = transforms.pp_to_oneway(t_map, btable, c=c, eps=eps)
        assert cert.q1_bound == Fraction(c + 1) * (1 << (2 * c)) / eps**2
        for xv in range(1 << c):
            for yv in range(1 << c):
                x, y = format(xv, f"0{c}b"), format(yv, f"0{c}b")
                acc = simulator.run_density(p, {ALICE: x, BOB: y}).acceptance
                want = Fraction(1, 2) + (Fraction(btable[x][y]) - Fraction(1, 2)) / (1 << c)
                assert abs(acc - float(want)) < TOL
    report(6, "acceptance 1/2 + eps/2^c per input; cert cost (c+1) 2^(2c)/eps^2")


def test_criterion_07_oneway_bias_formula():
    rng = np.random.default_rng(3)
    for trial in range(50):
        m = int(rng.integers(2, 8))  # total qubits = m + 1 <= 8
        sa = int(rng.integers(1, min(m, 3) + 1))
        sb = int(rng.integers(1, min(m, 3) + 1))
        ta = tuple(sorted(rng.choice(m, size=sa, replace=False).tolist()))
        tb = tuple(sorted(rng.choice(m, size=sb, replace=False).tolist()))
        ua = qstate.haar_unitary(1 << sa, rng)
        ub = qstate.haar_unitary(1 << sb, rng)
        p = oneway_protocol(ua, ta, ub, tb, m)
        assert p.layout.total <= 8
        acc = simulator.run_density(p).acceptance
        bias = simulator.oneway_bias(
            embed_operator(ua, ta, m), embed_operator(ub, tb, m)
        )
        assert abs((acc - 0.5) - bias) < TOL
        assert abs(bias) <= 0.5 + TOL
    report(7, "formula tr(B A)/2^(m+1) equals acceptance - 1/2 on 50 random protocols")


def test_criterion_08_amplification():
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        plan = simulator.repetition_plan(eps, Fraction(1, 2))
        assert plan.t == math.ceil(4 / (eps * eps))
        err = simulator.amplify(
            Fraction(1, 2) - eps, Fraction(1, 2) + eps, Fraction(1, 2), eps
        )
        assert err <= 1 / 3
    report(8, "exact binomial error <= 1/3 after t = ceil(4/eps^2) repetitions")


def test_criterion_09_cap_probability_bound():
    with Timer(60) as t:
        for n, k in ((4, 1), (8, 2), (16, 2)):
            est = classical.cap_probability_mc(n, k, 10**5, seed=100 + n + k)
            assert est > classical.caps_lower_bound(k)
            if (n, k) == (4, 1):
                closed = (4 / math.pi) * (math.pi / 6 - math.sqrt(3) / 8)
                assert abs(est - closed) < 0.01
    assert t.elapsed < t.limit
    report(9, "empirical cap probability beats e^-k/(16 sqrt k); (4,1) matches 0.391", t)


def test_criterion_10_classical_abc():
    rng = np.random.default_rng(11)
    totals = set()
    for label in (1, -1):
        ok = 0
        for trial in range(100):
            inst = problems.abc_instance(16, label, seed=rng)
            ans, tr = classical.abc_classical(inst, k=2, seed=rng)
            ok += int(ans == (1 if label == 1 else 0))
            totals.add(tr.total)
        assert ok / 100 >= 0.9, f"label {label}: {ok}/100"
    index_bits = math.ceil(math.log2(math.ceil(32 * math.sqrt(2) * math.e**4)))
    eps = math.sqrt(2 / 16) / 100
    sketch = math.ceil(classical.KNR_CONSTANT / eps**2)
    assert totals == {index_bits + sketch}
    report(10, f"success >= 0.9 both labels; transcript {index_bits}+{sketch} bits, seed-independent")


def test_criterion_11_discrepancy():
    m = classical.SignMatrix.uniform([[1, -1], [-1, 1]])
    val, rows, cols = classical.disc_bruteforce(m)
    assert val == 0.25 and rows == (0,) and cols == (0,)
    rng = np.random.default_rng(13)
    for trial in range(20):
        entries = rng.choice([-1.0, 1.0], size=(6, 6))
        mm = classical.SignMatrix.uniform(entries)
        got, _, _ = classical.disc_bruteforce(mm)
        want = recursive_disc_oracle(mm.entries, mm.weights)
        assert abs(got - want) < 1e-12
    report(11, "equality matrix = 1/4 exactly; 20 random 6x6 match the independent oracle")


def test_criterion_12_razborov_samplers():
    n = 14
    length, weight = n // 2 + 1, (n // 2 + 1) // 4
    rng = np.random.default_rng(17)
    draws = 10**5
    for i in range(draws):
        which = "mu1" if i % 2 else "mu0"
        x, y = problems.razborov_sample(n, which, seed=rng)
        inter = sum(int(a) & int(b) for a, b in zip(x, y))
        assert x.count("1") == weight and y.count("1") == weight
        assert inter == (0 if which == "mu1" else 1)
        px, py = problems.middle_pad(x, y, n)
        t = problems.MiddleInstance.from_strings(px, py).t
        assert t == (-1 if which == "mu1" else 0)
    report(12, f"all {draws} draws satisfy weight/intersection constraints; padding maps t exactly")
