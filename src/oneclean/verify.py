"""Invariant battery behind the ``oneclean verify`` subcommand.

Each check returns (name, passed, detail). The battery is a fast subset
of the full pytest suite, meant as a field sanity check. Its kernel check
compares the two engines that ship, density's ring and ensemble's sparse
branches. A passing deviation prints as the bound it met, not as its BLAS roundoff.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import classical, problems, protocol, qstate, simulator, transforms
from .protocol import ALICE, BOB
from .qstate import TOL


def _toy_rotation_base(th0: float, th1: float) -> protocol.ProtocolSpec:
    """One-clean one-round base whose acceptance is cos^2(theta_input)."""
    return protocol.ProtocolSpec(
        name="toy-rotation",
        players=2,
        layout=protocol.RegisterLayout(clean=1, mixed=0),
        initial_owner=(ALICE,),
        rounds=(
            protocol.RoundAction(
                ALICE,
                protocol.GenU("toy_rotation", {"theta0": th0, "theta1": th1}, ALICE),
                (0,),
                frozenset({0}),
                BOB,
            ),
        ),
        measurement=protocol.Measurement(single_qubit=0),
    )


@protocol.register_generator("toy_rotation")
def _gen_toy_rotation(params, bit):
    th = params["theta0"] if bit == "0" else params["theta1"]
    c, s = math.cos(th), math.sin(th)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _dev(worst: float) -> str:
    """A check's worst deviation: the bound it met, or in full if it missed it."""
    return "within 1e-9" if worst < TOL else f"worst dev {worst:.2e}"


def check_kernel(quick: bool):
    q = qstate.haar_orthogonal(5, seed=3)
    ok = abs(np.linalg.det(q) - 1.0) < 1e-9
    ok &= np.max(np.abs(q.T @ q - np.eye(5))) < TOL
    # projector measurement over pinned Haar slots; a pin on the clean qubit 0 is ignored
    k1, _ = transforms.k_to_one_clean(_haar_trace_form(7, 4))
    worst = 0.0
    for pin in ({}, {2: 0}, {3: 1}, {2: 1, 4: 0}, {0: 1}):
        want = simulator.run_density(k1, pin=pin).acceptance
        worst = max(worst, abs(simulator.run_ensemble(k1, pin=pin).acceptance - want))
    ok &= worst < TOL
    return ok, f"SO(5) sample exact; ring density vs sparse ensemble at 5 pins; {_dev(worst)}"


def check_ip2(quick: bool):
    worst = 0.0
    for n in (1, 2):
        pc = problems.ip2_clocked(n)
        po = problems.ip2_one_clean(n)
        for inp, label in problems.ip2_inputs(n):
            a = simulator.run_density(pc, inp).acceptance
            worst = max(worst, abs(a - label))
            b = simulator.run_density(po, inp).acceptance
            worst = max(worst, abs(b - (0.375 + 0.25 * label)))
    return worst < TOL, f"clocked exact and one-clean 3/8+[IP]/4; {_dev(worst)}"


def check_middle(quick: bool):
    worst = 0.0
    for n in (2, 4):
        ps = problems.middle_protocol(n)
        po = problems.middle_protocol(n, "one_clean")
        for xv in range(1 << n):
            for yv in range(1 << n):
                x, y = format(xv, f"0{n}b"), format(yv, f"0{n}b")
                t = problems.MiddleInstance.from_strings(x, y).t
                inp = {ALICE: x, BOB: y}
                a = simulator.run_density(ps, inp).acceptance
                worst = max(worst, abs(a - float(problems.middle_acceptance(n, t))))
                b = simulator.run_density(po, inp).acceptance
                worst = max(
                    worst, abs(b - float(problems.middle_acceptance(n, t, "one_clean")))
                )
    return worst < TOL, f"4t^2/n^2 and 2t^2/n^3 exact at n in {{2,4}}; {_dev(worst)}"


def check_abc(quick: bool):
    p = problems.abc_protocol(2)
    worst = 0.0
    for label in (1, -1):
        for seed in range(3 if quick else 10):
            inst = problems.abc_instance(2, label, seed=seed)
            a = simulator.run_density(p, inst.inputs()).acceptance
            worst = max(worst, abs(a - (1.0 if label == 1 else 0.0)))
    return worst < TOL, f"exact 1/0 acceptance; {_dev(worst)}"


def check_k1_cert(quick: bool):
    base = problems.ip2_clocked(2)
    out, cert = transforms.k_to_one_clean(base)
    worst = 0.0
    for inp, _label in problems.ip2_inputs(2):
        a = simulator.run_density(base, inp).acceptance
        b = simulator.run_density(out, inp).acceptance
        worst = max(worst, abs(b - float(cert.predict(Fraction(round(a))))))
    eps = simulator.measure_bias(out, problems.ip2_inputs(2), out.declared_p)
    ok = worst < TOL and abs(eps - 1 / 8) < TOL
    return ok, f"acceptance map 3/8 + a/4 and bias 1/8; {_dev(worst)}"


def check_trace_chain(quick: bool):
    base = _toy_rotation_base(2 * math.pi / 3, math.pi / 5)
    k1, _ = transforms.k_to_one_clean(base)
    sq = transforms.projective_to_single_qubit(k1)
    tf, _cert = transforms.to_trace_form(sq)
    worst = 0.0
    for bit in ("0", "1"):
        inp = {ALICE: bit, BOB: ""}
        want = 0.5 + simulator.run_density(sq, inp).acceptance / 8
        a_tr = simulator.run_trace(tf, inp).acceptance
        worst = max(worst, abs(a_tr - want))
        if not quick:
            a_de = simulator.run_density(tf, inp).acceptance
            worst = max(worst, abs(a_de - want))
    return worst < TOL, f"1/2 + a/8 via trace (and density) backend; {_dev(worst)}"


def _haar_trace_form(seed: int, count: int) -> protocol.ProtocolSpec:
    """Hadamard test over ``count`` Haar 2-qubit pieces alternating B and A slots."""
    rng = np.random.default_rng(seed)
    owners = (BOB, BOB, ALICE, BOB)  # control, B slot, A slot, channel (starts with B)
    ch = 3
    pieces = []
    for i in range(count):
        tg = (1, ch) if i % 2 == 0 else (2, ch)
        pieces.append((transforms.explicit(qstate.haar_unitary(4, rng)), tg))
    return protocol.trace_form_spec(protocol.TracePlan(0, ch, pieces), owners, "hadamard-test")


def check_unclock(quick: bool):
    tf = _haar_trace_form(7, 8)
    uc, _ = transforms.unclock(tf)
    ref = simulator.run_trace(tf).acceptance
    worst = abs(simulator.run_density(tf).acceptance - ref)
    for j in range(uc.trace_plan.pairs):
        worst = max(worst, abs(simulator.run_trace(uc, counter_start=j).acceptance - ref))
    pins = {}
    w = len(uc.trace_plan.counter)
    for j in (0, uc.trace_plan.pairs - 1):
        for bitpos, qb in enumerate(uc.trace_plan.counter):
            pins[qb] = (j >> (w - 1 - bitpos)) & 1
        worst = max(worst, abs(simulator.run_density(uc, pin=dict(pins)).acceptance - ref))
    worst = max(worst, abs(simulator.run_density(uc).acceptance - ref))
    return worst < TOL, f"acceptance invariant over counter starts; {_dev(worst)}"


def check_oneway(quick: bool):
    rng = np.random.default_rng(11)
    ua = qstate.haar_unitary(4, rng)
    ub = qstate.haar_unitary(4, rng)
    bias = simulator.oneway_bias(np.kron(ua, qstate.I2), np.kron(qstate.I2, ub))
    ok = abs(bias) <= 0.5 + TOL
    return ok, f"|bias| = {abs(bias):.4f} <= 1/2"


def check_pp(quick: bool):
    eps = Fraction(1, 4)
    t_map = {"0": "0", "1": "1"}
    btable = {
        y: {z: str(Fraction(1, 2) + (eps if z == y else -eps)) for z in "01"} for y in "01"
    }
    p, cert = transforms.pp_to_oneway(t_map, btable, c=1, eps=eps)
    worst = 0.0
    for x in "01":
        for y in "01":
            acc = simulator.run_density(p, {ALICE: x, BOB: y}).acceptance
            want = 0.5 + (float(Fraction(btable[x][y])) - 0.5) / 2
            worst = max(worst, abs(acc - want))
    ok = worst < TOL and cert.q1_bound == Fraction(128)
    return ok, f"acceptance 1/2 + (b-1/2)/2 and cost bound 128; {_dev(worst)}"


def check_amplify(quick: bool):
    worst = 0.0
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        err = simulator.amplify(
            Fraction(1, 2) - eps, Fraction(1, 2) + eps, Fraction(1, 2), eps
        )
        worst = max(worst, err)
    return worst <= 1 / 3, f"worst exact repetition error {worst:.3e} <= 1/3"


def check_caps(quick: bool):
    exact = classical.cap_probability(4, 1)
    est = classical.cap_probability_mc(4, 1, 10**4 if quick else 10**5, seed=5)
    closed = (4 / math.pi) * (math.pi / 6 - math.sqrt(3) / 8)
    ok = abs(exact - closed) < 1e-12 and abs(est - closed) < 0.02
    ok &= est >= classical.caps_lower_bound(1)
    ok &= classical.codebook_size(2) == 2471 and classical.codebook_size(1) == 237
    return ok, f"Pr {exact:.12f} vs closed form {closed:.12f}, estimate {est:.4f}, sizes 2471/237"


def check_knr(quick: bool):
    rng = np.random.default_rng(2)
    a = qstate.haar_unit_vector(16, rng)
    b = qstate.haar_unit_vector(16, rng)
    true = float(a @ b)
    trials = 20 if quick else 100
    fails = sum(
        abs(classical.knr_estimate(a, b, 0.15, seed=s)[0] - true) > 0.15
        for s in range(trials)
    )
    return fails / trials <= 0.1, f"failure rate {fails}/{trials} <= 0.1 at eps=0.15"


def check_razborov(quick: bool):
    rng = np.random.default_rng(9)
    n = 14
    bad = 0
    for _ in range(200 if quick else 2000):
        for which, inter in (("mu0", 1), ("mu1", 0)):
            x, y = problems.razborov_sample(n, which, seed=rng)
            w = (n // 2 + 1) // 4
            if x.count("1") != w or y.count("1") != w:
                bad += 1
            if sum(int(a) & int(b) for a, b in zip(x, y)) != inter:
                bad += 1
            px, py = problems.middle_pad(x, y, n)
            t = problems.MiddleInstance.from_strings(px, py).t
            if t != (0 if which == "mu0" else -1):
                bad += 1
    return bad == 0, f"weight/intersection/padding constraints, {bad} violations"


def check_disc(quick: bool):
    m = classical.SignMatrix.uniform([[1, -1], [-1, 1]])
    val, rows, cols = classical.disc_bruteforce(m)
    ok = abs(val - 0.25) < 1e-15 and rows == (0,) and cols == (0,)
    ones = classical.SignMatrix.uniform(np.ones((3, 3)))
    val2, rows2, cols2 = classical.disc_bruteforce(ones)
    ok &= abs(val2 - 1.0) < 1e-12 and rows2 == (0, 1, 2) and cols2 == (0, 1, 2)
    ip2 = [[(-1) ** bin(x & y).count("1") for y in range(4)] for x in range(4)]
    val3 = classical.disc_bruteforce(classical.SignMatrix.uniform(ip2))[0]
    ok &= abs(val3 - 0.3125) < 1e-15
    return ok, f"equality matrix 1/4 at cell (0,0); all-ones 1 at full rectangle; IP_2 {val3}"


def check_serde(quick: bool):
    tf = _haar_trace_form(7, 8)
    specs = (problems.ip2_one_clean(2), tf, transforms.unclock(tf)[0])
    ok = all(protocol.protocol_equal(p, protocol.deserialize(protocol.serialize(p))) for p in specs)
    return ok, "descriptor round-trip is exact"


CHECKS = [
    ("kernel", check_kernel),
    ("ip2", check_ip2),
    ("middle", check_middle),
    ("abc", check_abc),
    ("k1-cert", check_k1_cert),
    ("trace-chain", check_trace_chain),
    ("unclock", check_unclock),
    ("oneway-bias", check_oneway),
    ("pp-oneway", check_pp),
    ("amplify", check_amplify),
    ("caps", check_caps),
    ("knr", check_knr),
    ("razborov", check_razborov),
    ("discrepancy", check_disc),
    ("serde", check_serde),
]


def run_all(quick: bool = False):
    out = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn(quick)
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        out.append((name, ok, detail))
    return out
