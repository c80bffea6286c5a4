"""Built-in protocol families and input generators.

IP2 (inner product mod 2) in its clocked two-clean and one-clean forms,
the MIDDLE protocol, the three-player ABC protocol, and the hard-input
samplers used by the MIDDLE reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qstate
from .errors import DomainError
from .protocol import (
    ALICE,
    BOB,
    CHARLIE,
    ComposedU,
    ControlledU,
    GenU,
    Measurement,
    ProtocolSpec,
    RegisterLayout,
    RoundAction,
    explicit,
    register_generator,
)


def _check_bits(s, n: int, who: str) -> str:
    if not isinstance(s, str) or len(s) != n or any(ch not in "01" for ch in s):
        raise DomainError(f"{who} input must be a length-{n} bit string, got {s!r}")
    return s


def _pow2(n: int, what: str) -> int:
    q = int(n).bit_length() - 1
    if n < 2 or (1 << q) != n:
        raise DomainError(f"{what} must be a power of two >= 2, got {n}")
    return q


# ---------------------------------------------------------------------------
# IP2: clocked two-clean protocol and its one-clean simulation
# ---------------------------------------------------------------------------


@register_generator("ip2_alice")
def _gen_ip2_alice(params, x):
    """Round-i x loader: X^(x_{i-1} xor x_i) on the carrier (X^(x_1) at i=1)."""
    i, n = int(params["i"]), int(params["n"])
    x = _check_bits(x, n, "alice")
    bit = int(x[0]) if i == 1 else int(x[i - 2]) ^ int(x[i - 1])
    return qstate.X if bit else qstate.I2


@register_generator("ip2_bob")
def _gen_ip2_bob(params, y):
    """Round-i accumulator update: adds y_i * carrier into the sum qubit."""
    i, n = int(params["i"]), int(params["n"])
    y = _check_bits(y, n, "bob")
    return qstate.CNOT if int(y[i - 1]) else np.eye(4, dtype=complex)


def _ip2_rounds(n: int, shift: int) -> list:
    """Shared round schedule for both IP2 variants, on working qubits (shift, shift+1)."""
    q1, q2 = shift, shift + 1
    rounds = []
    for i in range(1, n + 1):
        ax = GenU("ip2_alice", {"i": i, "n": n}, ALICE)
        rounds.append(RoundAction(ALICE, ax, (q1,), frozenset({q1, q2} if i == 1 else {q1}), BOB))
        by = GenU("ip2_bob", {"i": i, "n": n}, BOB)
        msg_back = frozenset({q1}) if i < n else frozenset()
        rounds.append(RoundAction(BOB, by, (q1, q2), msg_back, ALICE if i < n else None))
    return rounds


def ip2_clocked(n: int) -> ProtocolSpec:
    """Clocked two-clean-qubit IP2 protocol: zero error, communication 2n."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return ProtocolSpec(
        name=f"ip2-clocked(n={n})",
        players=2,
        layout=RegisterLayout(clean=2, mixed=0),
        initial_owner=(ALICE, ALICE),
        rounds=tuple(_ip2_rounds(n, shift=0)),
        measurement=Measurement(qubits=(1,), projector=qstate.basis_projector(1)),
        declared_p=Fraction(1, 2),
        declared_eps=Fraction(1, 2),
    )


def ip2_one_clean(n: int) -> ProtocolSpec:
    """One-clean IP2 simulation: 1 clean flag + 2 mixed working qubits.

    Alice first flips the flag when the working pair is |00> and then runs
    the clocked protocol on it. The final projector accepts the clocked
    outcome when the flag reads 1 and otherwise tosses a fair coin by
    measuring the carrier qubit in the Hadamard basis (exact because every
    branch state is a computational basis state). Communication 2n+1,
    bias 1/8 around p = 1/2.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rounds = _ip2_rounds(n, shift=1)
    # |000> <-> |100>: the flag flips iff the workers are 00, then Alice's first load
    flag = (explicit(qstate.flip_if_zero(2)), (0, 1, 2))
    first = ComposedU(3, (flag, (rounds[0].unitary, (1,))))
    rounds[0] = RoundAction(ALICE, first, (0, 1, 2), frozenset({0, 1, 2}), BOB)
    plus = np.full((2, 2), 0.5, dtype=complex)
    proj = np.kron(
        qstate.basis_projector(1), np.kron(qstate.I2, qstate.basis_projector(1))
    ) + np.kron(qstate.basis_projector(0), np.kron(plus, qstate.I2))
    return ProtocolSpec(
        name=f"ip2-one-clean(n={n})",
        players=2,
        layout=RegisterLayout(clean=1, mixed=2),
        initial_owner=(ALICE, ALICE, ALICE),
        rounds=tuple(rounds),
        measurement=Measurement(qubits=(0, 1, 2), projector=proj),
        declared_p=Fraction(1, 2),
        declared_eps=Fraction(1, 8),
    )


def ip2_value(x: str, y: str) -> int:
    return sum(int(a) & int(b) for a, b in zip(x, y)) % 2


def ip2_inputs(n: int):
    """All 4^n labeled (inputs, IP2) pairs."""
    out = []
    for xv in range(1 << n):
        for yv in range(1 << n):
            x = format(xv, f"0{n}b")
            y = format(yv, f"0{n}b")
            out.append(({ALICE: x, BOB: y}, ip2_value(x, y)))
    return out


# ---------------------------------------------------------------------------
# MIDDLE: acceptance 4t^2/n^2, one-clean variant 2t^2/n^3
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MiddleInstance:
    """Input pair with its offset t, where sum x_i y_i = n/2 + t.

    Any even n is a valid instance length (the hard-input reduction uses
    n = 6 mod 8); only the quantum register demands a power of two.
    """

    n: int
    x: str
    y: str
    t: int

    @classmethod
    def from_strings(cls, x: str, y: str) -> "MiddleInstance":
        n = len(x)
        if n < 2 or n % 2:
            raise DomainError(f"instance length must be even and >= 2, got {n}")
        _check_bits(x, n, "x")
        _check_bits(y, n, "y")
        s = sum(int(a) & int(b) for a, b in zip(x, y))
        return cls(n=n, x=x, y=y, t=s - n // 2)

    @property
    def label(self) -> int:
        return 0 if self.t == 0 else 1


@register_generator("middle_load")
def _gen_middle_load(params, x):
    """|i>|b> -> |i>|b xor x_i> on log(n)+1 qubits."""
    n = int(params["n"])
    x = _check_bits(x, n, "alice")
    dim = 2 * n
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        for b in (0, 1):
            m[2 * i + (b ^ int(x[i])), 2 * i + b] = 1.0
    return m


@register_generator("middle_phase")
def _gen_middle_phase(params, y):
    """|i>|b> -> (-1)^(b * y_i) |i>|b>."""
    n = int(params["n"])
    y = _check_bits(y, n, "bob")
    diag = np.ones(2 * n, dtype=complex)
    for i in range(n):
        if int(y[i]):
            diag[2 * i + 1] = -1.0
    return np.diag(diag)


def middle_protocol(n: int, variant: str = "standard") -> ProtocolSpec:
    """Two-round MIDDLE protocol on log(n)+1 clean qubits.

    Acceptance is exactly 4t^2/n^2 at offset t (0 at t = 0). The
    ``one_clean`` variant is the two-round one-clean simulation, with
    acceptance 2t^2/n^3.
    """
    logn = _pow2(n, "n")
    k = logn + 1
    if variant == "one_clean":
        from .transforms import two_round_one_clean

        base = middle_protocol(n, "standard")
        out, _cert = two_round_one_clean(base)
        return out
    if variant != "standard":
        raise DomainError(f"unknown MIDDLE variant {variant!r}")

    hn = qstate.tensor_all([qstate.H] * logn)
    idx = tuple(range(logn))
    allq = tuple(range(k))
    load = GenU("middle_load", {"n": n}, ALICE)
    w1 = ComposedU(k, ((explicit(hn), idx), (load, allq)))
    w2 = ComposedU(k, ((load, allq), (explicit(hn), idx)))
    phase = GenU("middle_phase", {"n": n}, BOB)
    zero = np.zeros((1 << k, 1 << k), dtype=complex)
    zero[0, 0] = 1.0
    return ProtocolSpec(
        name=f"middle(n={n})",
        players=2,
        layout=RegisterLayout(clean=k, mixed=0),
        initial_owner=(ALICE,) * k,
        rounds=(
            RoundAction(ALICE, w1, allq, frozenset(allq), BOB),
            RoundAction(BOB, phase, allq, frozenset(allq), ALICE),
            RoundAction(ALICE, w2, allq, frozenset(), None),
        ),
        measurement=Measurement(qubits=allq, projector=zero),
        declared_p=Fraction(2, n * n),
        declared_eps=Fraction(2, n * n),
    )


def middle_acceptance(n: int, t: int, variant: str = "standard") -> Fraction:
    if variant == "standard":
        return Fraction(4 * t * t, n * n)
    if variant == "one_clean":
        return Fraction(2 * t * t, n**3)
    raise DomainError(f"unknown MIDDLE variant {variant!r}")


# ---------------------------------------------------------------------------
# ABC (three-player number-in-hand, exact via a controlled product)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AbcInstance:
    """Orthogonal triple with A B C = label * I."""

    n: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    label: int

    def check(self) -> None:
        for name, m in (("A", self.a), ("B", self.b), ("C", self.c)):
            if np.max(np.abs(m.T @ m - np.eye(self.n))) > 1e-9:
                raise DomainError(f"{name} is not orthogonal within 1e-9")
        if np.max(np.abs(self.a @ self.b @ self.c - self.label * np.eye(self.n))) > 1e-8:
            raise DomainError("A B C differs from label * I by more than 1e-8")

    def inputs(self) -> dict:
        return {ALICE: self.a, BOB: self.b, CHARLIE: self.c}


@register_generator("player_matrix_t")
def _gen_player_matrix_t(params, m):
    if m is None:
        raise DomainError("this round needs the player's matrix as input")
    return np.asarray(m, dtype=complex).T


def abc_protocol(n: int) -> ProtocolSpec:
    """One-clean-qubit ABC test: controlled-A,B,C inside a Hadamard test.

    Accepts with probability exactly 1 when ABC = I and 0 when ABC = -I;
    the log(n) mixed qubits act as a catalyst. The register hops
    Alice -> Bob -> Charlie -> Alice, so communication is 3(log n + 1).
    Each player applies the controlled transpose of their matrix so the
    composite reads A B C in message order: (ABC)^T = label * I exactly.
    """
    if n % 2:
        raise DomainError(f"ABC needs even n (else -I is detectable by determinant), got {n}")
    logn = _pow2(n, "n")
    allq = tuple(range(logn + 1))
    msg = frozenset(allq)

    def ctrl(player):
        return ControlledU(GenU("player_matrix_t", {}, player))

    r1 = ComposedU(logn + 1, ((explicit(qstate.H), (0,)), (ctrl(ALICE), allq)))
    r3 = ComposedU(logn + 1, ((ctrl(CHARLIE), allq), (explicit(qstate.H), (0,))))
    return ProtocolSpec(
        name=f"abc(n={n})",
        players=3,
        layout=RegisterLayout(clean=1, mixed=logn),
        initial_owner=(ALICE,) * (logn + 1),
        rounds=(
            RoundAction(ALICE, r1, allq, msg, BOB),
            RoundAction(BOB, ctrl(BOB), allq, msg, CHARLIE),
            RoundAction(CHARLIE, r3, allq, msg, ALICE),
        ),
        measurement=Measurement(single_qubit=0),
        declared_p=Fraction(1, 2),
        declared_eps=Fraction(1, 2),
    )


def abc_instance(n: int, label: int, seed=None) -> AbcInstance:
    """B, C Haar from SO(n); A = label * (BC)^T, so ABC = label * I."""
    if n % 2:
        raise DomainError(f"ABC instances need even n, got {n}")
    if label not in (1, -1):
        raise DomainError(f"label must be +1 or -1, got {label}")
    rng = np.random.default_rng(seed)
    b = qstate.haar_orthogonal(n, seed=rng)
    c = qstate.haar_orthogonal(n, seed=rng)
    a = label * (b @ c).T
    inst = AbcInstance(n=n, a=a, b=b, c=c, label=label)
    inst.check()
    return inst


# ---------------------------------------------------------------------------
# Razborov hard-input samplers and the dummy-padding reduction
# ---------------------------------------------------------------------------


def razborov_sample(n: int, which: str, seed=None) -> tuple[str, str]:
    """Draw a hard input pair of length n/2+1 from mu0 or mu1.

    Both strings have exactly (n/2+1)/4 ones; the supports intersect in
    exactly one index under mu0 and are disjoint under mu1. Uniform over
    the admissible set.
    """
    if n % 2:
        raise DomainError(f"n must be even, got {n}")
    length = n // 2 + 1
    if length % 4:
        raise DomainError(f"n/2+1 = {length} must be divisible by 4")
    weight = length // 4
    if which not in ("mu0", "mu1"):
        raise DomainError(f"which must be 'mu0' or 'mu1', got {which!r}")
    # one uniform permutation: x takes its first w places and y the next w,
    # except that under mu0 y trades the last of those for x's first place
    perm = np.random.default_rng(seed).permutation(length).tolist()
    ys = perm[weight : 2 * weight] if which == "mu1" else perm[:1] + perm[weight : 2 * weight - 1]
    x, y = bytearray(b"0" * length), bytearray(b"0" * length)
    for s, ones in ((x, perm[:weight]), (y, ys)):
        for i in ones:
            s[i] = ord("1")
    return x.decode(), y.decode()


def middle_pad(xt: str, yt: str, n: int) -> tuple[str, str]:
    """Prefix both strings with n/2-1 dummy ones.

    The padded pair has sum x_i y_i = (n/2 - 1) + |x~ ^ y~|, so mu1
    samples become MIDDLE 1-inputs at t = -1 and mu0 samples 0-inputs.
    """
    length = n // 2 + 1
    if n < 2 or n % 2 or len(xt) != length or len(yt) != length or xt.strip("01") or yt.strip("01"):
        raise DomainError(f"MIDDLE padding needs an even n >= 2 and bit strings of length n/2+1, got n = {n}")
    pad = "1" * (n // 2 - 1)
    return pad + xt, pad + yt
