"""The three seeded workloads: set-up, item lists and the oracle of each item.

Every workload is a closed loop of one client: the next item starts only
after the previous one returned. A pass runs the workload's fixed item list
once; the loop repeats whole passes. Inputs come only from the seed (and,
for the randomized classical protocols, the pass index), so the same seed
gives the same inputs.

Oracles never reuse the code path under test: they are closed forms
computed here, certificate predictions, a second backend evaluated before
the timed loop, or invariants checked on the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from oneclean import classical, cli, problems, protocol, simulator, transforms
from oneclean.protocol import ALICE, BOB

from tracing import span_call

TOL = 1e-9
WORK_DIR = Path("perfbench/out/work")

# abc_classical at n = 16, k = 2: index bits ceil(log2 ceil(32 sqrt(2) e^4))
# plus one bit per sketch round, ceil(8 / eps^2) at eps = sqrt(2/16)/100.
ABC_N, ABC_K = 16, 2
ABC_BITS = math.ceil(math.log2(math.ceil(32 * math.sqrt(ABC_K) * math.exp(2 * ABC_K)))) + 640_000
ABC_MIN_SUCCESS = 0.9


@dataclass
class Item:
    """One unit of work: ``run(pass_index)`` is timed, ``check`` is not."""

    kind: str
    run: Callable[[int], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Context:
    """What items share within one run."""

    workload: str
    seed: int
    code: str  # sha256 of the package sources under test
    tracer: object = None
    digests: dict = field(default_factory=dict)  # CLI call key -> sha256
    abc_tally: dict = field(default_factory=lambda: {1: [0, 0], -1: [0, 0]})


def _near(value, want, what: str) -> Optional[str]:
    if abs(float(value) - float(want)) > TOL:
        return f"{what}: got {value!r}, oracle {float(want)!r}"
    return None


def _first_error(*errors) -> Optional[str]:
    return next((e for e in errors if e), None)


def _ip(x: str, y: str) -> int:
    return sum(int(a) & int(b) for a, b in zip(x, y)) % 2


def _offset_t(x: str, y: str) -> int:
    return sum(int(a) & int(b) for a, b in zip(x, y)) - len(x) // 2


def _bits(rng, n: int) -> str:
    return "".join(str(b) for b in rng.integers(0, 2, size=n))


def _interleave(first: list, second: list) -> list:
    """first[0], second[0], first[1], second[1], ..., then the longer list's tail."""
    out = [x for pair in zip(first, second) for x in pair]
    return out + first[len(second):] + second[len(first):]


def _backend_item(kind: str, backend: str, spec, inputs, check) -> Item:
    """Evaluate ``simulator.run_<backend>``, looked up at call time so tracing sees it."""
    return Item(kind, lambda _p: getattr(simulator, f"run_{backend}")(spec, inputs).acceptance, check)


# ---------------------------------------------------------------- CLI calls


def _cli_call(ctx: Context, span: str, argv: list[str], out_dir: Optional[Path] = None):
    """Run ``oneclean`` in-process; return (exit code, stdout, sha256 of all output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = span_call(ctx.tracer, span, cli.main, argv)
    text = buf.getvalue()
    h = hashlib.sha256(text.encode())
    if out_dir is not None:
        for f in sorted(out_dir.iterdir()):
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return code, text, h.hexdigest()


def _digest_error(ctx: Context, argv: list[str], digest: str) -> Optional[str]:
    """Byte-identical output across passes, and across runs of the same seed
    on the same package sources."""
    key = f"{ctx.code[:16]}|{ctx.workload}|{ctx.seed}|{' '.join(argv)}"
    ref = ctx.digests.setdefault(key, digest)
    if ref != digest:
        return f"CLI output of {argv[:2]} differs from an earlier pass or run"
    return None


def _cli_run_item(ctx: Context, rng) -> Item:
    """``oneclean run`` on ip2-one-clean n=3 at a seeded input: 3/8 + IP/4."""
    x, y = _bits(rng, 3), _bits(rng, 3)
    argv = ["run", "--protocol", "ip2-one-clean", "--n", "3", "--x", x, "--y", y,
            "--seed", str(ctx.seed)]
    want = Fraction(3, 8) + Fraction(_ip(x, y), 4)

    def check(v):
        code, text, digest = v
        if code != 0:
            return f"run exited {code}"
        return _first_error(
            _near(json.loads(text)["records"][0]["acceptance"], want, "CLI 3/8 + IP/4"),
            _digest_error(ctx, argv, digest),
        )

    return Item("cli-run", lambda _p: _cli_call(ctx, "cli.run", argv), check)


# ----------------------------------------------------------- ip2-clocked n=2


def _k1_ip2() -> tuple:
    """The k1 output of ip2-clocked n=2 and its cert."""
    return transforms.k_to_one_clean(problems.ip2_clocked(2))


def _k1_inputs() -> list[tuple[dict, int]]:
    """All 16 inputs of ip2-clocked n=2, each with its inner product."""
    pairs = [(format(xv, "02b"), format(yv, "02b")) for xv in range(4) for yv in range(4)]
    return [({ALICE: x, BOB: y}, _ip(x, y)) for x, y in pairs]


def _measure_bias_item(k1) -> Item:
    """``measure_bias`` of the k1 output over its 16 inputs: exactly 1/8."""
    labeled = _k1_inputs()
    return Item(
        "k1-measure-bias",
        lambda _p: simulator.measure_bias(k1, labeled, k1.declared_p),
        lambda v: _near(v, Fraction(1, 8), "bias 1/8"),
    )


# ----------------------------------------------------------- wide-exact


@protocol.register_generator("perfbench_rotation")
def _gen_rotation(params, bit):
    th = params["theta" + bit]
    c, s = math.cos(th), math.sin(th)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rotation_base(th0: float, th1: float) -> protocol.ProtocolSpec:
    """One clean qubit, one round; accepts input b with probability cos^2(theta_b)."""
    return protocol.ProtocolSpec(
        name="perfbench-rotation",
        players=2,
        layout=protocol.RegisterLayout(clean=1, mixed=0),
        initial_owner=(ALICE,),
        rounds=(
            protocol.RoundAction(
                ALICE,
                protocol.GenU("perfbench_rotation", {"theta0": th0, "theta1": th1}, ALICE),
                (0,),
                frozenset({0}),
                BOB,
            ),
        ),
        measurement=protocol.Measurement(single_qubit=0),
    )


def _trace_chain(base):
    """k1 -> sq-measure -> trace-form; returns the output and the two certs."""
    k1, c1 = transforms.k_to_one_clean(base)
    sq = transforms.projective_to_single_qubit(k1)
    tf, c2 = transforms.to_trace_form(sq)
    return tf, c1, c2


def _chain_closed_form(a, k: int) -> Fraction:
    """Paper formula along k1 -> trace-form: 1/2 + a'/8, a' = (1 - 2^-k)/2 + a/2^k."""
    a1 = (1 - Fraction(1, 2**k)) / 2 + Fraction(a) / 2**k
    return Fraction(1, 2) + a1 / 8


def _cert_chain(c1, c2, a) -> Fraction:
    a1 = c1.acceptance_slope * Fraction(a) + c1.acceptance_offset
    return c2.acceptance_slope * a1 + c2.acceptance_offset


def setup_wide_exact(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    ip2 = problems.ip2_clocked(1)
    ip2_tf, ip2_c1, ip2_c2 = _trace_chain(ip2)
    ip2_uc, _ = transforms.unclock(ip2_tf)
    mid = problems.middle_protocol(2)
    mid_tf, mid_c1, mid_c2 = _trace_chain(mid)
    thetas = tuple(float(t) for t in rng.uniform(0.1, math.pi / 2 - 0.1, size=2))
    rot_tf, _, _ = _trace_chain(_rotation_base(*thetas))
    return {
        "ip2": (ip2_tf, ip2_c1, ip2_c2, ip2.layout.clean),
        "ip2_uc": ip2_uc,
        "mid": (mid_tf, mid_c1, mid_c2, mid.layout.clean),
        "rot": (rot_tf, thetas),
        "k1": _k1_ip2()[0],
    }


def items_wide_exact(ctx: Context, s: dict) -> list[Item]:
    rng = np.random.default_rng([ctx.seed, 11])
    items = []

    def chain_item(kind, spec, certs, k, inputs, a, counter_start=0):
        c1, c2 = certs
        want = _chain_closed_form(a, k)
        cert = _cert_chain(c1, c2, a)

        def run(_p):
            return simulator.run_trace(spec, inputs, counter_start=counter_start).acceptance

        def check(v):
            return _first_error(_near(v, want, "closed form"), _near(v, cert, "cert chain"))

        return Item(kind, run, check)

    ip2_tf, c1, c2, k = s["ip2"]
    x, y = _bits(rng, 1), _bits(rng, 1)
    items.append(chain_item("trace-ip2", ip2_tf, (c1, c2), k, {ALICE: x, BOB: y}, _ip(x, y)))
    uc = s["ip2_uc"]
    start = int(rng.integers(uc.trace_plan.pairs))
    x, y = _bits(rng, 1), _bits(rng, 1)
    items.append(
        chain_item("trace-unclock", uc, (c1, c2), k, {ALICE: x, BOB: y}, _ip(x, y), start)
    )
    mid_tf, m1, m2, mk = s["mid"]
    middle = []
    for _ in range(5):
        x, y = _bits(rng, 2), _bits(rng, 2)
        t = _offset_t(x, y)
        middle.append(
            chain_item("trace-middle", mid_tf, (m1, m2), mk, {ALICE: x, BOB: y}, Fraction(t * t))
        )

    # the 11-qubit chain on all three backends
    rot_tf, thetas = s["rot"]
    want = {b: _chain_closed_form(math.cos(thetas[int(b)]) ** 2, 1) for b in "01"}
    trace_values = {b: simulator.run_trace(rot_tf, {ALICE: b, BOB: ""}).acceptance for b in "01"}
    bit = _bits(rng, 1)
    items.append(_backend_item("trace-11q", "trace", rot_tf, {ALICE: bit, BOB: ""},
                               lambda v: _near(v, want[bit], "1/2 + a/8")))
    # density on both inputs; ensemble, like trace, on one (the other bit)
    for backend, bits in (("density", "01"), ("ensemble", "10"[int(bit)])):
        for b in bits:
            def check(v, b=b):
                return _first_error(_near(v, want[b], "1/2 + a/8"),
                                    _near(v, trace_values[b], "run_trace"))

            items.append(_backend_item(f"{backend}-11q", backend, rot_tf, {ALICE: b, BOB: ""}, check))

    out_dir = WORK_DIR / ctx.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["transform", "--protocol", "ip2-clocked", "--n", "1", "--pass", "k1",
            "--pass", "sq-measure", "--pass", "trace-form", "--pass", "unclock",
            "--out-dir", str(out_dir)]
    expected = protocol.serialize(uc)

    def run_cli(_p):
        code, text, digest = _cli_call(ctx, "cli.transform", argv, out_dir)
        descriptor = (out_dir / "protocol.json").read_text()
        round_trip = protocol.serialize(protocol.deserialize(descriptor))
        return code, text, digest, descriptor, round_trip

    def check_cli(v):
        code, text, digest, descriptor, round_trip = v
        if code != 0:
            return f"transform exited {code}"
        if json.loads(text)["qubits"] != uc.layout.total:
            return "transform summary reports the wrong width"
        if descriptor != expected + "\n":
            return "CLI descriptor differs from the in-process unclock chain"
        if round_trip != expected:
            return "descriptor does not survive deserialize -> serialize"
        return _digest_error(ctx, argv, digest)

    items.append(Item("cli-transform", run_cli, check_cli))
    # two calls that take milliseconds, so that measure_bias and `oneclean
    # run` are measured on this workload too
    items.append(_measure_bias_item(s["k1"]))
    items.append(_cli_run_item(ctx, rng))
    # Five items are cheaper than a MIDDLE trace (the 11-qubit trace and
    # ensemble items, the three calls above) and four dearer (density, the
    # 12-core traces), so the run's median item lies between the second and
    # third of the five MIDDLE items. Interleaving spreads those over the pass.
    return _interleave(middle, items)


# --------------------------------------------------------- narrow-sweep


def setup_narrow_sweep(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    abc_n = 8
    return {
        "ip2": problems.ip2_one_clean(3),
        "mid_std": problems.middle_protocol(8),
        "mid_one": problems.middle_protocol(8, "one_clean"),
        "abc": problems.abc_protocol(abc_n),
        "abc_inst": [problems.abc_instance(abc_n, label, seed=rng) for label in (1, -1) * 4],
        "k1": _k1_ip2(),
    }


def items_narrow_sweep(ctx: Context, s: dict) -> list[Item]:
    rng = np.random.default_rng([ctx.seed, 12])
    items = []

    def exact_item(kind, backend, spec, inputs, want, what):
        return _backend_item(kind, backend, spec, inputs, lambda v: _near(v, want, what))

    for xv in range(8):
        for yv in range(8):
            x, y = format(xv, "03b"), format(yv, "03b")
            want = Fraction(3, 8) + Fraction(_ip(x, y), 4)
            inputs = {ALICE: x, BOB: y}
            items.append(exact_item("ip2-density", "density", s["ip2"], inputs, want, "3/8 + IP/4"))
            items.append(exact_item("ip2-ensemble", "ensemble", s["ip2"], inputs, want, "3/8 + IP/4"))
    n = 8
    for _ in range(16):
        x, y = _bits(rng, n), _bits(rng, n)
        t = _offset_t(x, y)
        inputs = {ALICE: x, BOB: y}
        items.append(exact_item("middle-std", "density", s["mid_std"], inputs,
                                Fraction(4 * t * t, n * n), "4t^2/n^2"))
        items.append(exact_item("middle-one-clean", "density", s["mid_one"], inputs,
                                Fraction(2 * t * t, n**3), "2t^2/n^3"))
    for inst in s["abc_inst"]:
        items.append(exact_item("abc-quantum", "density", s["abc"], inst.inputs(),
                                1 if inst.label == 1 else 0, "ABC exact 1/0"))
    k1, cert = s["k1"]
    for inputs, a in _k1_inputs():
        want = Fraction(3, 8) + Fraction(a, 4)
        pred = cert.acceptance_slope * a + cert.acceptance_offset
        items.append(_backend_item(
            "k1-density", "density", k1, inputs,
            lambda v, want=want, pred=pred: _first_error(
                _near(v, want, "3/8 + a/4"), _near(v, pred, "cert map")),
        ))
    items.append(_measure_bias_item(k1))
    items.append(_cli_run_item(ctx, rng))
    return items


# --------------------------------------------------- classical-baselines


def setup_classical_baselines(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    return {"disc": classical.SignMatrix.uniform(np.where(rng.random((12, 12)) < 0.5, -1.0, 1.0))}


def _disc_oracle(signed: np.ndarray) -> float:
    """Best rectangle by row subsets: the best column set for fixed rows takes
    every positive column sum or every negative one."""
    rows = signed.shape[0]
    masks = (np.arange(1 << rows)[:, None] >> np.arange(rows)) & 1
    col_sums = masks @ signed
    pos = np.clip(col_sums, 0, None).sum(axis=1)
    neg = np.clip(col_sums, None, 0).sum(axis=1)
    return float(np.max(np.maximum(pos, -neg)))


def _simpson(f, a: float, b: float, steps: int = 400_000) -> float:
    x = np.linspace(a, b, steps + 1)
    w = np.full(steps + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return float(np.sum(w * f(x))) * (b - a) / (3 * steps)


def _cap_probability(n: int, k: int) -> float:
    """Pr(W_1^2 >= k/n) for W uniform on S^(n-1), by quadrature of the
    marginal density of W_1, which is proportional to (1 - x^2)^((n-3)/2)."""
    def density(x):
        return (1.0 - x * x) ** ((n - 3) / 2)

    return _simpson(density, math.sqrt(k / n), 1.0) / _simpson(density, 0.0, 1.0)


def items_classical_baselines(ctx: Context, s: dict) -> list[Item]:
    seed = ctx.seed
    abc_items, items = [], []
    for j, label in enumerate((1, -1) * 5):
        def run_abc(p, j=j, label=label):
            inst = problems.abc_instance(ABC_N, label, seed=[seed, p, j])
            answer, transcript = classical.abc_classical(inst, i=0, k=ABC_K, seed=[seed, p, j, 1])
            return label, answer, transcript.total

        def check_abc(v):
            label, answer, bits = v
            if bits != ABC_BITS:
                return f"transcript {bits} bits, want {ABC_BITS}"
            if answer not in (0, 1):
                return f"answer {answer!r} is not a bit"
            tally = ctx.abc_tally[label]
            tally[0] += 1
            tally[1] += int(answer == (1 if label == 1 else 0))
            return None

        abc_items.append(Item("abc-classical", run_abc, check_abc))

    n = 14
    weight = (n // 2 + 1) // 4

    def run_razborov(p):
        r = np.random.default_rng([seed, p, 100])
        out = []
        for i in range(1000):
            which = "mu0" if i % 2 == 0 else "mu1"
            x, y = problems.razborov_sample(n, which, seed=r)
            out.append((which, x, y) + problems.middle_pad(x, y, n))
        return out

    def check_razborov(draws):
        for which, x, y, px, py in draws:
            if x.count("1") != weight or y.count("1") != weight or len(x) != n // 2 + 1:
                return f"draw {x},{y} breaks the weight {weight}"
            inter = sum(int(a) & int(b) for a, b in zip(x, y))
            if inter != (1 if which == "mu0" else 0):
                return f"{which} draw intersects in {inter}"
            if len(px) != n or _offset_t(px, py) != (0 if which == "mu0" else -1):
                return f"padded {which} draw has the wrong offset t"
        return None

    items.append(Item("razborov-batch", run_razborov, check_razborov))

    m = s["disc"]
    signed = m.entries * m.weights
    want = _disc_oracle(signed)

    def check_disc(v):
        value, rows, cols = v
        at_witness = abs(float(signed[np.ix_(list(rows), list(cols))].sum())) if rows and cols else 0.0
        return _first_error(_near(value, want, "row-subset oracle"),
                            _near(at_witness, value, "value at the witness rectangle"))

    items.append(Item("disc", lambda _p: classical.disc_bruteforce(m), check_disc))

    cap_n, cap_k, samples = 16, 2, 10**5
    bound = math.exp(-cap_k) / (16 * math.sqrt(cap_k))
    exact = _cap_probability(cap_n, cap_k)
    sigma = math.sqrt(exact * (1 - exact) / samples)

    def check_caps(v):
        if not v > bound:
            return f"estimate {v} does not exceed the cap bound {bound}"
        if abs(v - exact) > 6 * sigma:
            return f"estimate {v} is more than 6 sigma from {exact}"
        return None

    items.append(Item(
        "caps",
        lambda p: classical.cap_probability_mc(cap_n, cap_k, samples, seed=[seed, p, 200]),
        check_caps,
    ))

    abc_argv = ["classical", "abc", "--n", str(ABC_N), "--k", str(ABC_K), "--trials", "1",
                "--seed", str(seed)]

    def check_cli_abc(v):
        code, text, digest = v
        if code != 0:
            return f"classical abc exited {code}"
        records = json.loads(text)["records"]
        if len(records) != 2 or any(r["transcript_bits"] != ABC_BITS for r in records):
            return "classical abc transcript sizes are wrong"
        return _digest_error(ctx, abc_argv, digest)

    items.append(Item("cli-classical-abc",
                      lambda _p: _cli_call(ctx, "cli.classical_abc", abc_argv), check_cli_abc))

    raz_argv = ["gen", "razborov", "--n", str(n), "--which", "mu1", "--count", "200", "--pad",
                "--seed", str(seed)]

    def check_cli_raz(v):
        code, text, digest = v
        if code != 0:
            return f"gen razborov exited {code}"
        lines = text.splitlines()
        if lines[0] != "x,y,label" or len(lines) != 201:
            return "gen razborov printed the wrong table shape"
        for line in lines[1:]:
            x, y, label = line.split(",")
            if label != "1" or len(x) != n or _offset_t(x, y) != -1:
                return f"padded mu1 row {line} is not a MIDDLE 1-input at t = -1"
        return _digest_error(ctx, raz_argv, digest)

    items.append(Item("cli-gen-razborov",
                      lambda _p: _cli_call(ctx, "cli.gen_razborov", raz_argv), check_cli_raz))
    # Four items are cheaper than an abc_classical trial (razborov, disc,
    # caps, the gen CLI call) and one dearer (the abc CLI call), so the
    # run's median item is the fourth of the ten abc_classical trials, away
    # from the boundary with another item kind. Interleaving spreads the
    # trials over the pass.
    return _interleave(abc_items, items)


def final_errors(ctx: Context) -> list[str]:
    """Run-level checks over all items: classical ABC success per label."""
    errors = []
    for label, (trials, ok) in ctx.abc_tally.items():
        if trials and ok / trials < ABC_MIN_SUCCESS:
            errors.append(f"abc_classical success {ok}/{trials} < {ABC_MIN_SUCCESS} at label {label:+d}")
    return errors


WORKLOADS = {
    "wide-exact": (setup_wide_exact, items_wide_exact),
    "narrow-sweep": (setup_narrow_sweep, items_narrow_sweep),
    "classical-baselines": (setup_classical_baselines, items_classical_baselines),
}
