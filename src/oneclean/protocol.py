"""Protocol intermediate representation.

A protocol is a register layout (clean qubits first, then totally mixed
ones), an ownership assignment, an ordered list of rounds (local unitary
plus an optional message), a final input-independent measurement, and
cost metadata. Round unitaries are either explicit matrices or small
expression trees over named input-parameterized generators, so the same
protocol object describes the whole input-indexed family.
"""

from __future__ import annotations

import copy
import json
import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from fractions import Fraction
from typing import Any, NamedTuple, Optional

import numpy as np

from . import qstate
from .errors import DomainError, OneCleanError, ParseError, ValidationError

CLOCKED = "clocked"
SEMI_UNCLOCKED = "semi-unclocked"
GHOSTED = "ghosted"
FIXED = "fixed"

ALICE, BOB, CHARLIE = 0, 1, 2


# ---------------------------------------------------------------------------
# Unitary references
# ---------------------------------------------------------------------------

_GENERATORS: dict[str, Any] = {}


def register_generator(name: str):
    """Register an input-parameterized unitary generator.

    A generator is a callable ``fn(params: dict, player_input) -> ndarray``.
    The registry is write-once: built-ins register at import time and the
    table is read-only afterwards.
    """

    def deco(fn):
        if name in _GENERATORS and _GENERATORS[name] is not fn:
            raise ValueError(f"generator {name!r} already registered")
        _GENERATORS[name] = fn
        return fn

    return deco


def generator(name: str):
    if name not in _GENERATORS:
        raise ParseError(f"unknown unitary generator {name!r}")
    return _GENERATORS[name]


def _int_tuple(xs) -> tuple:
    return tuple(int(x) for x in xs)


def _frozen(m) -> np.ndarray:
    """A read-only copy, so a validated spec cannot change under its caller."""
    m = np.array(m, dtype=complex)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class ExplicitU:
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))

    @cached_property
    def is_unitary(self) -> bool:
        """Unitary within 1e-9; checked once, as the matrix is read-only."""
        return qstate.is_unitary(self.matrix)


class _Built(ExplicitU):
    """A leaf that ``lower`` or ``trace_form_spec`` builds: unitary by construction."""

    is_unitary = True


@dataclass(frozen=True, eq=False)
class GenU:
    """Named generator; resolved with ``input_player``'s input at run time.
    ``params`` is the generator's own deep copy, so no caller's dict can change it."""

    name: str
    params: dict
    input_player: int

    def __post_init__(self):
        object.__setattr__(self, "params", copy.deepcopy(self.params))


@dataclass(frozen=True, eq=False)
class AdjointU:
    inner: Any


@dataclass(frozen=True, eq=False)
class ControlledU:
    """Controlled version of ``inner``; the control is the first target."""

    inner: Any


@dataclass(frozen=True, eq=False)
class ComposedU:
    """Product of factors applied in time order (first factor acts first).

    Each factor carries the local positions (indices into the enclosing
    target tuple) its unitary acts on.
    """

    width: int
    factors: tuple  # ((ref, (pos, ...)), ...)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple((ref, _int_tuple(pos)) for ref, pos in self.factors))


@dataclass(frozen=True, eq=False)
class DispatchU:
    """Counter-conditioned dispatch with optional increment.

    Acts as sum_i |i + inc mod 2^w><i| on the selector qubits tensored
    with branch i on the remaining qubits. ``branches[i] is None`` means
    identity. ``selector``/branch positions are local indices.
    """

    width: int
    selector: tuple
    branches: tuple  # entries: None or (ref, (pos, ...))
    increment: int = 0

    def __post_init__(self):
        object.__setattr__(self, "selector", _int_tuple(self.selector))
        branches = tuple(b if b is None else (b[0], _int_tuple(b[1])) for b in self.branches)
        object.__setattr__(self, "branches", branches)


@dataclass(frozen=True, eq=False)
class FlagStateU:
    """Flip local qubit 0 exactly on the state ``inner |0...0>``.

    Resolves to X (x) P + I (x) (I-P) with P the projector on the state
    the inner unitary prepares from all-zeros.
    """

    inner: Any


class Piece(NamedTuple):
    """One lowered piece: the ExplicitU or GenU ``leaf`` (conjugate-transposed
    when ``adjoint``) acts on ``qubits`` where the ``controls`` read ``value``
    (first control most significant), and as the identity elsewhere."""

    leaf: Any
    qubits: tuple
    adjoint: bool = False
    controls: tuple = ()
    value: int = 0


def lower(ref, targets) -> tuple:
    """A unitary reference on ``targets`` as its ``Piece``s in time order. The walk
    is input-independent; a malformed reference raises ``DomainError``."""
    targets = tuple(targets)
    if isinstance(ref, (ExplicitU, GenU)):
        return (Piece(ref, targets),)
    if isinstance(ref, (ControlledU, FlagStateU)) and not targets:
        raise DomainError(f"{type(ref).__name__} has no control qubit")
    if isinstance(ref, (ComposedU, DispatchU)) and ref.width != len(targets):
        raise DomainError(f"{type(ref).__name__} width {ref.width} != {len(targets)}")
    if isinstance(ref, AdjointU):
        return _adjoint(lower(ref.inner, targets))
    if isinstance(ref, ControlledU):
        return _conditioned(lower(ref.inner, targets[1:]), targets[:1], 1)
    if isinstance(ref, ComposedU):
        return tuple(pc for sub, pos in ref.factors for pc in lower(sub, _at(pos, targets)))
    if isinstance(ref, DispatchU):
        sel = _at(ref.selector, targets)
        w = len(sel)
        if len(ref.branches) != 1 << w:
            raise DomainError(
                f"dispatch needs {1 << w} branches for a {w}-qubit selector, got {len(ref.branches)}"
            )
        out = []
        for i, branch in enumerate(ref.branches):
            if branch is not None:
                out.extend(_conditioned(lower(branch[0], _at(branch[1], targets)), sel, i))
        if ref.increment % (1 << w):
            # the selector increment |i + inc mod 2^w><i|, after every branch
            step = np.roll(np.eye(1 << w, dtype=complex), ref.increment, axis=0)
            out.append(Piece(_Built(step), sel))
        return tuple(out)
    if isinstance(ref, FlagStateU):
        # X (x) P + I (x) (I - P) with P = W|0><0|W^dagger is W^dagger, flip-if-zero, W
        inner = lower(ref.inner, targets[1:])
        flip = Piece(_Built(qstate.flip_if_zero(len(targets) - 1)), targets)
        return _adjoint(inner) + (flip,) + inner
    raise DomainError(f"unknown unitary reference {type(ref).__name__}")


def _adjoint(pieces) -> tuple:
    return tuple(Piece(pc.leaf, pc.qubits, not pc.adjoint, pc.controls, pc.value) for pc in reversed(pieces))


def _conditioned(pieces, controls: tuple, value: int) -> tuple:
    """``pieces`` acting only where ``controls`` read ``value``."""
    if any(set(controls) & set(pc.qubits + pc.controls) for pc in pieces):
        raise DomainError(f"control qubits {controls} repeat a piece axis")
    return tuple(
        Piece(pc.leaf, pc.qubits, pc.adjoint, controls + pc.controls, value << len(pc.controls) | pc.value)
        for pc in pieces
    )


def _at(positions, targets: tuple) -> tuple:
    """Local positions mapped onto ``targets``, each in range and used once."""
    if len(set(positions)) != len(positions) or not all(0 <= p < len(targets) for p in positions):
        raise DomainError(
            f"piece axes {tuple(positions)} repeat or leave a {len(targets)}-qubit target list"
        )
    return tuple(targets[p] for p in positions)


def resolve_ref(leaf, width: int, inputs) -> np.ndarray:
    """The matrix of an ExplicitU or GenU ``leaf`` on ``width`` qubits."""
    if isinstance(leaf, ExplicitU):
        m, what = leaf.matrix, "explicit matrix"
    else:
        fn, what = generator(leaf.name), f"generator {leaf.name!r}"
        try:
            m = np.asarray(fn(leaf.params, (inputs or {}).get(leaf.input_player)), dtype=complex)
        except OneCleanError:
            raise
        except Exception as e:  # the generator's own failure on its params or input
            raise DomainError(f"{what} failed: {type(e).__name__}: {e}") from e
    if m.shape != (1 << width,) * 2:
        raise DomainError(f"{what} has shape {m.shape}, expected dim 2^{width}")
    return m


# ---------------------------------------------------------------------------
# Protocol data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisterLayout:
    """k clean qubits (indices 0..k-1) followed by m totally mixed ones."""

    clean: int
    mixed: int

    @property
    def total(self) -> int:
        return self.clean + self.mixed


@dataclass(frozen=True, eq=False)
class RoundAction:
    player: int
    unitary: Any
    targets: tuple
    message: frozenset
    to: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "targets", _int_tuple(self.targets))
        object.__setattr__(self, "message", frozenset(int(q) for q in self.message))


@dataclass(frozen=True, eq=False)
class Measurement:
    """Accepting projector: |0> on ``single_qubit``, or ``projector`` on the ``qubits`` list."""

    single_qubit: Optional[int] = None
    qubits: Optional[tuple] = None
    projector: Optional[np.ndarray] = None

    def __post_init__(self):
        given = (self.single_qubit is not None, self.qubits is not None, self.projector is not None)
        if given not in ((True, False, False), (False, True, True)):
            raise DomainError("measurement needs either single_qubit, or a projector and its qubit list")
        if self.projector is not None:
            object.__setattr__(self, "projector", _frozen(self.projector))
            object.__setattr__(self, "qubits", _int_tuple(self.qubits))

    def support(self) -> tuple:
        if self.single_qubit is not None:
            return (self.single_qubit,)
        return self.qubits

    def operator(self) -> tuple[np.ndarray, tuple]:
        """The accepting projector and the qubits it acts on, in its factor order."""
        if self.single_qubit is not None:
            return qstate.basis_projector(0), (self.single_qubit,)
        return self.projector, self.qubits


@dataclass(frozen=True, eq=False)
class TracePlan:
    """Hadamard-test structure of a trace-form protocol.

    ``pieces`` are the uncontrolled operators whose product's trace sets
    the acceptance probability: p0 = 1/2 + Re Tr(prod)/2^(d+1), with d the
    number of non-control, non-counter qubits. For semi-unclocked
    protocols ``counter`` lists the counter qubits and ``pairs`` the
    number of dispatch pairs (pieces come in (even, odd) pairs).
    ``trace_form_spec`` is the one place that builds rounds from a plan and
    attaches one, and a descriptor stores a trace form as its plan only.
    """

    control: int
    channel: int
    pieces: tuple  # ((ref, targets), ...) targets exclude the control
    counter: tuple = ()
    pairs: int = 0

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple((ref, _int_tuple(tg)) for ref, tg in self.pieces))
        object.__setattr__(self, "counter", _int_tuple(self.counter))


@dataclass(frozen=True, eq=False)
class ProtocolSpec:
    """Valid once built: the constructor and ``dataclasses.replace`` raise ``ValidationError``
    with ``validate``'s violations. Only ``trace_form_spec`` sets ``trace_plan``."""

    name: str
    players: int
    layout: RegisterLayout
    initial_owner: tuple
    rounds: tuple
    measurement: Measurement
    mode: str = CLOCKED
    channel: str = GHOSTED
    declared_p: Any = Fraction(1, 2)
    declared_eps: Any = None
    trace_plan: Optional[TracePlan] = field(default=None, init=False)

    def __post_init__(self):
        object.__setattr__(self, "initial_owner", tuple(int(o) for o in self.initial_owner))
        object.__setattr__(self, "rounds", tuple(self.rounds))
        if violations := validate(self):
            raise ValidationError(violations)


@dataclass(frozen=True)
class CostReport:
    communication: int
    bias: Any
    q1_cost: Any
    pp_cost: Any
    qubits: int

    def to_obj(self) -> dict:
        """The report as JSON values, an exact bias and Q1 cost as rational strings."""
        return {**vars(self), "bias": _num_to_obj(self.bias), "q1_cost": _num_to_obj(self.q1_cost)}


# ---------------------------------------------------------------------------
# Validation and cost accounting
# ---------------------------------------------------------------------------


def ownership_schedule(p: ProtocolSpec) -> list:
    """Owner tuple before round 0, after round 0, ..., after the last round."""
    owners = list(p.initial_owner)
    out = [tuple(owners)]
    for r in p.rounds:
        for q in r.message:
            owners[q] = r.to
        out.append(tuple(owners))
    return out


_ENTRIES = weakref.WeakKeyDictionary()  # spec -> {key: entry}: its "lowered", then each backend's


def kept(p: ProtocolSpec, key, build):
    """``build()``, kept for spec ``p`` under ``key`` while ``p`` lives. A build
    that raises keeps nothing; racing callers may both build, with equal results."""
    entries = _ENTRIES[p]  # made by ``validate`` when ``p`` was built
    return entries[key] if key in entries else entries.setdefault(key, build())


def lowered(p: ProtocolSpec) -> tuple:
    """``p``'s rounds' pieces in time order, as ``validate`` lowered them (rounds with one key
    share pieces), and a piece tuple per plan piece from ``trace_form_spec`` (None without a plan)."""
    return _ENTRIES[p]["lowered"]


def validate(p: ProtocolSpec) -> list:
    """Check every ProtocolSpec invariant but the plan's, which ``trace_form_spec`` checks; return
    the list of violations. A valid ``p`` keeps the pieces its rounds lower to, for ``lowered``."""
    v: list[str] = []
    if p.players not in (2, 3):
        v.append(f"players must be 2 or 3, got {p.players}")
    total = p.layout.total
    if p.layout.clean < 0 or p.layout.mixed < 0:
        v.append("negative register counts")
    if len(p.initial_owner) != total:
        v.append(f"initial_owner has {len(p.initial_owner)} entries for {total} qubits")
    elif any(not 0 <= o < p.players for o in p.initial_owner):
        v.append("initial owner out of player range")
    if p.mode not in (CLOCKED, SEMI_UNCLOCKED):
        v.append(f"unknown mode {p.mode!r}")
    if p.channel not in (GHOSTED, FIXED):
        v.append(f"unknown channel {p.channel!r}")
    if p.declared_eps is not None and not (0 < p.declared_eps <= Fraction(1, 2)):
        v.append(f"declared bias {p.declared_eps} outside (0, 1/2]")
    if not (0 < p.declared_p < 1):
        v.append(f"declared reference point {p.declared_p} outside (0, 1)")

    owners = list(p.initial_owner)
    memo: dict = {}  # (unitary, targets) -> (pieces, violations); unclock shares one ref per player
    bad: dict = {}  # violation -> the rounds that have it, so a repeated one reads once
    for i, r in enumerate(p.rounds):
        if not 0 <= r.player < p.players:
            bad.setdefault(f"player {r.player} out of range", []).append(i)
            continue
        seen, msgs = set(), []
        for t in r.targets:
            if not 0 <= t < total:
                msgs.append(f"target {t} out of range")
            elif t in seen:
                msgs.append(f"repeated target {t}")
            elif owners[t] != r.player:
                msgs.append(f"unitary touches qubit {t} owned by player {owners[t]}")
            seen.add(t)
        for q in sorted(r.message):
            if not 0 <= q < total:
                msgs.append(f"message qubit {q} out of range")
            elif owners[q] != r.player:
                msgs.append(f"message qubit {q} not owned by sender")
        if r.message:
            if r.to is None or not 0 <= r.to < p.players or r.to == r.player:
                msgs.append(f"bad receiver {r.to}")
            else:
                for q in r.message:
                    if 0 <= q < total:
                        owners[q] = r.to
        for msg in dict.fromkeys(msgs + _lowering(memo, r.unitary, r.targets)[1]):
            bad.setdefault(msg, []).append(i)
    for msg, rounds in bad.items():
        v.append(f"round{'s' * (len(rounds) > 1)} {', '.join(map(str, rounds))}: {msg}")

    support = p.measurement.support()
    for k, q in enumerate(support):
        if not 0 <= q < total:
            v.append(f"measurement qubit {q} out of range")
        elif q in support[:k]:
            v.append(f"repeated measurement qubit {q}")
    in_range = [q for q in support if 0 <= q < total]
    if in_range and len({owners[q] for q in in_range}) > 1:
        v.append("measurement qubits not all owned by one player at the end")
    if p.measurement.projector is not None:
        d = 1 << len(p.measurement.qubits)
        if p.measurement.projector.shape != (d, d):
            v.append("measurement projector dim does not match its qubit list")
        elif not qstate.is_projector(p.measurement.projector):
            v.append("measurement matrix is not a projector within 1e-9")

    if p.mode == SEMI_UNCLOCKED:
        v.extend(_validate_semi_unclocked(p))
    if p.channel == FIXED:
        msgs = [r.message for r in p.rounds if r.message]
        if msgs and any(m != msgs[0] for m in msgs[1:]):
            v.append("fixed channel but message sets differ across rounds")
    if not v:
        rounds = tuple(pc for r in p.rounds for pc in _lowering(memo, r.unitary, r.targets)[0])
        _ENTRIES.setdefault(p, {}).setdefault("lowered", (rounds, None))
    return v


def _lowering(memo: dict, ref, targets) -> tuple:
    """``lower(ref, targets)``, once per key of ``memo``, and why ``ref`` cannot act on ``targets``:
    a ``lower`` failure, or an explicit leaf of the wrong dimension or not unitary within 1e-9."""
    key = (ref, tuple(targets))
    if key not in memo:
        try:
            pieces = lower(ref, targets)
            leaves = [(pc.leaf, len(pc.qubits)) for pc in pieces if isinstance(pc.leaf, ExplicitU)]
            for leaf, width in dict.fromkeys(leaves):
                resolve_ref(leaf, width, None)  # the shape check
            unitary = all(u.is_unitary for u, _ in leaves)
            memo[key] = pieces, [] if unitary else ["explicit matrix is not unitary within 1e-9"]
        except DomainError as e:
            memo[key] = (), [str(e)]
    return memo[key]


def _validate_trace_plan(tp: TracePlan, total: int, memo: dict) -> list:
    """Why ``trace_form_spec`` cannot build the plan's rounds: its qubits, each piece's targets and
    the piece count of a counter plan, or else the pieces that do not lower (into ``memo``)."""
    named = [("control", tp.control), ("channel", tp.channel)]
    named += [("counter qubit", c) for c in tp.counter]
    v = [f"trace_plan: {what} {q} out of range" for what, q in named if not 0 <= q < total]
    if 0 < tp.control < total:
        v.append(f"trace_plan: control {tp.control} is not the clean qubit 0")
    reserved = {tp.control: "the control", **{c: "a counter qubit" for c in tp.counter}}
    for j, (_, targets) in enumerate(tp.pieces):
        where = f"trace_plan piece {j}"
        for k, t in enumerate(targets):
            if not 0 <= t < total:
                v.append(f"{where}: target {t} out of range")
            elif t in targets[:k]:
                v.append(f"{where}: repeated target {t}")
            elif t in reserved:
                v.append(f"{where}: target {t} is {reserved[t]}")
    if tp.counter or tp.pairs:
        if 1 << len(tp.counter) != tp.pairs:
            v.append(f"trace_plan: {tp.pairs} counter pairs, not 2^{len(tp.counter)}")
        if len(tp.pieces) != 2 * tp.pairs:
            v.append(f"trace_plan: {len(tp.pieces)} pieces for {tp.pairs} counter pairs")
    return v or [
        f"trace_plan piece {j}: {msg}" for j, pc in enumerate(tp.pieces) for msg in _lowering(memo, *pc)[1]
    ]


def _validate_semi_unclocked(p: ProtocolSpec) -> list:
    v = []
    if not p.rounds:
        return ["semi-unclocked protocol has no rounds"]
    players = [r.player for r in p.rounds]
    if len(set(players)) != 2:
        v.append("semi-unclocked rounds must alternate between exactly two players")
    for i in range(1, len(p.rounds)):
        if players[i] == players[i - 1]:
            v.append(f"semi-unclocked rounds {i - 1},{i} have the same player")
            break
    msgs = [r.message for r in p.rounds]
    if any(m != msgs[0] for m in msgs[1:]):
        v.append("semi-unclocked message sets differ across rounds")
    first: dict = {}  # player -> that player's first round
    for i, r in enumerate(p.rounds):
        r0 = first.setdefault(r.player, r)
        # each player applies one fixed unitary: the same reference every round
        if r.targets != r0.targets or r.unitary is not r0.unitary:
            v.append(f"semi-unclocked round {i} unitary differs from earlier rounds")
            break
    if p.channel != FIXED:
        v.append("semi-unclocked protocols require a fixed channel")
    return v


def measuring_player(p: ProtocolSpec) -> int:
    owners = ownership_schedule(p)[-1]
    support = p.measurement.support()
    return owners[support[0]]


def communication_cost(p: ProtocolSpec) -> int:
    """Total qubits transferred: sum of message sizes over rounds."""
    return sum(len(r.message) for r in p.rounds)


def floor_log2(eps) -> int:
    """Exact floor(log2 eps) for Fractions; frexp-based for floats."""
    if eps <= 0:
        raise DomainError(f"floor_log2 needs a positive argument, got {eps}")
    if isinstance(eps, (int, Fraction)):
        f = Fraction(eps)
        # 2^(k-1) < f < 2^(k+1), so one exact comparison settles the floor
        k = f.numerator.bit_length() - f.denominator.bit_length()
        return k - (f < Fraction(2) ** k)
    m, e = math.frexp(float(eps))  # eps = m * 2^e with 0.5 <= m < 1
    return e - 1


def q1_cost(c: int, eps):
    """c / eps^2; exact rational when eps is a Fraction (or int)."""
    if not 0 < eps <= Fraction(1, 2):
        raise DomainError(f"bias {eps} outside (0, 1/2]")
    if isinstance(eps, (int, Fraction)):
        return Fraction(c) / (Fraction(eps) * Fraction(eps))
    return c / (eps * eps)


def pp_cost(c: int, eps) -> int:
    """Weakly unbounded-error cost c - floor(log2 eps)."""
    if not 0 < eps < Fraction(1, 2):
        raise DomainError(f"bias {eps} outside (0, 1/2)")
    return c - floor_log2(eps)


def cost_report(p: ProtocolSpec) -> CostReport:
    if p.declared_eps is None:
        raise DomainError("protocol declares no bias; cannot build a cost report")
    c = communication_cost(p)
    eps = p.declared_eps
    return CostReport(
        communication=c,
        bias=eps,
        q1_cost=q1_cost(c, eps),
        pp_cost=c - floor_log2(eps),
        qubits=p.layout.total,
    )


# ---------------------------------------------------------------------------
# Trace forms: the rounds of a Hadamard-test plan
# ---------------------------------------------------------------------------


_H = _Built(qstate.H)


def _compose(factors) -> tuple[ComposedU, tuple]:
    """One ComposedU over the union of the factors' global targets, in time order."""
    targets = tuple(sorted({t for _, tg in factors for t in tg}))
    local = {q: i for i, q in enumerate(targets)}
    return (
        ComposedU(len(targets), tuple((ref, tuple(local[t] for t in tg)) for ref, tg in factors)),
        targets,
    )


def _dispatch(plan: TracePlan, parity: int) -> tuple[ComposedU, tuple]:
    """One player's fixed unitary: H on the control, the controlled piece
    ``2 * counter + parity``, H; the odd player increments the counter."""
    pieces = plan.pieces[parity::2]
    targets = sorted({plan.control, *plan.counter, *(t for _, tg in pieces for t in tg)})
    local = {q: i for i, q in enumerate(targets)}
    branches = tuple(
        (ControlledU(ref), tuple(local[t] for t in (plan.control,) + tg)) for ref, tg in pieces
    )
    disp = DispatchU(len(targets), tuple(local[q] for q in plan.counter), branches, parity)
    h = (_H, (plan.control,))
    return _compose([h, (disp, tuple(targets)), h])


def trace_form_spec(
    plan: TracePlan, owners, name: str, declared_p=Fraction(1, 2), declared_eps=None
) -> ProtocolSpec:
    """The trace-form protocol of ``plan``, whose acceptance is the plan's
    1/2 + Re Tr(prod pieces) / 2^(d+1); the only code that sets ``trace_plan``.

    The control (qubit 0, the one clean qubit) is measured at the end. Its
    owner plays the even rounds and the other player the odd ones, and
    each round sends the control, the channel and the counter. A clocked
    plan (``pairs == 0``) runs piece i, controlled, in round i, with H on
    the control before the first and after the last. A counter plan runs
    ``2 * pairs`` rounds of one fixed unitary per player (``_dispatch``),
    so every counter start runs the pieces in a cyclic rotation. A bad plan, or
    rounds that ``owners`` cannot run, raise ``ValidationError`` naming ``trace_plan``.
    """
    memo: dict = {}  # plan piece -> (pieces, violations)
    if v := _validate_trace_plan(plan, len(owners), memo):
        raise ValidationError(v)
    players = (owners[plan.control], 1 - owners[plan.control])
    message = frozenset({plan.control, plan.channel, *plan.counter})
    if plan.pairs:
        steps = [_dispatch(plan, 0), _dispatch(plan, 1)] * plan.pairs
    else:
        h, last = (_H, (plan.control,)), len(plan.pieces) - 1
        steps = []
        for i, (ref, tg) in enumerate(plan.pieces):
            factors = [h] * (i == 0) + [(ControlledU(ref), (plan.control,) + tg)] + [h] * (i == last)
            steps.append(_compose(factors) if len(factors) > 1 else factors[0])
    rounds = [
        RoundAction(players[t % 2], ref, tg, message, players[1 - t % 2])
        for t, (ref, tg) in enumerate(steps)
    ]
    try:
        spec = ProtocolSpec(
            name=name, players=2, layout=RegisterLayout(clean=1, mixed=len(owners) - 1),
            initial_owner=owners, rounds=rounds, measurement=Measurement(single_qubit=plan.control),
            mode=SEMI_UNCLOCKED if plan.pairs else CLOCKED, channel=FIXED,
            declared_p=declared_p, declared_eps=declared_eps,
        )
    except ValidationError as e:  # the rounds, or the owners or declared values they carry
        raise ValidationError([f"trace_plan: {msg}" for msg in e.violations]) from None
    object.__setattr__(spec, "trace_plan", plan)
    _ENTRIES[spec]["lowered"] = lowered(spec)[0], tuple(_lowering(memo, *piece)[0] for piece in plan.pieces)
    return spec


# ---------------------------------------------------------------------------
# Descriptor serialization (exact round trip, floats via shortest repr)
# ---------------------------------------------------------------------------

DESCRIPTOR_VERSION = 3


def _num_to_obj(x):
    if x is None:
        return None
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    return float(x)


def _num_from_obj(x, where: str):
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"{where}: bad rational {x!r}") from e
    if isinstance(x, (int, float)):
        return float(x)
    raise ParseError(f"{where}: expected number or rational string")


_KINDS = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


def _expect(val, kind: type, what: str):
    # bool is an int subclass, but true/false is never a valid integer field
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise ParseError(f"{what} must be {_KINDS[kind]}")
    return val


def _require(obj: dict, key: str, where: str, kind: type = object):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return _expect(obj[key], kind, f"{where}: field {key!r}")


def _optional(obj: dict, key: str, where: str, kind: type):
    """``obj[key]`` checked against ``kind``, or None when absent or null."""
    val = obj.get(key)
    return None if val is None else _expect(val, kind, f"{where}: field {key!r}")


def _int_list(obj: dict, key: str, where: str, optional: bool = False) -> tuple[int, ...]:
    """``obj[key]`` as a tuple of integers (empty when optional and absent)."""
    vals = (_optional(obj, key, where, list) or []) if optional else _require(obj, key, where, list)
    return tuple(_expect(v, int, f"{where}: field {key!r} entry {i}") for i, v in enumerate(vals))


# A field codec is a pair: write(value, matrices) gives the JSON value, and
# read(obj, key, where, matrices) reads ``obj[key]``. The writer's ``matrices``
# maps each explicit matrix, keyed by its exact value, to (index, matrix) in
# first-occurrence order. The reader's lists the explicit leaves of a version-3
# descriptor, and is None for versions 1 and 2, which write each matrix inline.


def _field(kind: type, default=None):
    """A JSON integer, string or object (written as a deep copy, so a descriptor
    shares no dict with its spec); absent or null reads as ``default()`` if given."""

    def read(obj, key, where, matrices):
        return default() if default and obj.get(key) is None else _require(obj, key, where, kind)

    return (lambda val, matrices: copy.deepcopy(val) if kind is dict else val), read


def _ints(write=list, optional: bool = False):
    """A list of integers, written by ``write``; absent reads as () if ``optional``."""
    return (lambda val, matrices: write(val)), lambda obj, key, where, _: _int_list(obj, key, where, optional)


def _placed(identity_ok: bool, pos: str = "pos"):
    """A list of ``{ref, pos}`` entries, and ``None`` (the identity) if ``identity_ok``."""

    def write(entries, matrices):
        return [None if e is None else {"ref": _ref_to_obj(e[0], matrices), pos: list(e[1])} for e in entries]

    def read(obj, key, where, matrices):
        out = list(_require(obj, key, where, list))
        for i, e in enumerate(out):
            if e is not None or not identity_ok:
                ew = f"{where}.{key}[{i}]"
                out[i] = (_ref_from_obj(_expect(e, dict, ew), "ref", ew, matrices), _int_list(e, pos, ew))
        return tuple(out)

    return write, read


def _matrix(val, where: str) -> np.ndarray:
    """``qstate.matrix_from_obj``, its error naming the descriptor path ``where``."""
    try:
        return qstate.matrix_from_obj(val)
    except ParseError as e:
        raise ParseError(f"{where}: {e}") from None


def _write_matrix(m: np.ndarray, matrices: dict) -> int:
    return matrices.setdefault((m.shape, m.tobytes()), (len(matrices), m))[0]


def _read_matrix(obj, key, where, matrices) -> ExplicitU:
    val = _require(obj, key, where)
    if matrices is None:  # versions 1 and 2 write the matrix inline
        return ExplicitU(_matrix(val, f"{where}: field {key!r}"))
    i = _expect(val, int, f"{where}: field {key!r}")
    if not 0 <= i < len(matrices):
        raise ParseError(f"{where}: field {key!r} is {i}, not an index into the {len(matrices)} matrices")
    return matrices[i]


def _write(x, fields, matrices) -> dict:
    return {key: write(getattr(x, key), matrices) for key, (write, _) in fields}


def _read(obj: dict, fields, where: str, matrices) -> dict:
    return {key: read(obj, key, where, matrices) for key, (_, read) in fields}


def _ref_to_obj(ref, matrices: dict) -> dict:
    kind = _KIND_OF.get(type(ref))
    if kind is None:
        raise ParseError(f"cannot serialize unitary reference {type(ref).__name__}")
    return {"kind": kind, **_write(ref, _REF_KINDS[kind][1], matrices)}


def _ref_from_obj(obj, key: str, where: str, matrices):
    ref, where = _require(obj, key, where), f"{where}.{key}"
    kind = _require(_expect(ref, dict, where), "kind", where, str)
    if kind not in _REF_KINDS:
        raise ParseError(f"{where}: unknown unitary kind {kind!r}")
    cls, fields = _REF_KINDS[kind]
    vals = _read(ref, fields, where, matrices)
    # an explicit leaf is the reader's own object, so equal matrices share one leaf
    return vals["matrix"] if cls is ExplicitU else cls(**vals)


def _object(cls, fields):
    """A JSON object of ``fields``, read as ``cls``."""

    def read(obj, key, where, matrices):
        return cls(**_read(_require(obj, key, where, dict), fields, key, matrices))

    return (lambda val, matrices: _write(val, fields, matrices)), read


def _write_rounds(rounds, matrices) -> list:
    return [_write(r, _ROUND, matrices) for r in rounds]


def _read_rounds(obj, key, where, matrices) -> tuple:
    """A list of ``_ROUND`` objects; equal unitary JSON reads as one object, as a
    semi-unclocked spec needs."""
    out, refs = [], {}
    for i, r in enumerate(_require(obj, key, where, list)):
        vals = _read(_expect(r, dict, f"{key}[{i}]"), _ROUND, f"{key}[{i}]", matrices)
        vals["unitary"] = refs.setdefault(json.dumps(r["unitary"], sort_keys=True), vals["unitary"])
        out.append(RoundAction(**vals))
    return tuple(out)


def _write_measurement(m: Measurement, matrices) -> dict:
    return _write(m, _MEASUREMENT[m.single_qubit is None], matrices)


def _read_measurement(obj, key, where, matrices) -> Measurement:
    m = _require(obj, key, where, dict)
    return Measurement(**_read(m, _MEASUREMENT["single_qubit" not in m], key, matrices))


_INT, _INTS, _REF = _field(int), _ints(), (_ref_to_obj, _ref_from_obj)
# kind -> (class, ((field, codec), ...)), the fields in descriptor order
_REF_KINDS = {
    "explicit": (ExplicitU, (("matrix", (_write_matrix, _read_matrix)),)),
    "generator": (GenU, (("name", _field(str)), ("params", _field(dict, dict)), ("input_player", _INT))),
    "adjoint": (AdjointU, (("inner", _REF),)),
    "controlled": (ControlledU, (("inner", _REF),)),
    "flag_state": (FlagStateU, (("inner", _REF),)),
    "composed": (ComposedU, (("width", _INT), ("factors", _placed(False)))),
    "dispatch": (DispatchU, (("width", _INT), ("selector", _INTS), ("increment", _field(int, int)),
                             ("branches", _placed(True)))),
}
_KIND_OF = {_Built: "explicit", **{cls: kind for kind, (cls, _) in _REF_KINDS.items()}}
_LAYOUT = (("clean", _INT), ("mixed", _INT))
_ROUND = (("player", _INT), ("unitary", _REF), ("targets", _INTS), ("message", _ints(sorted)),
          ("to", _field(int, lambda: None)))
_PLAN = (("control", _INT), ("channel", _INT), ("pieces", _placed(False, "targets")),
         ("counter", _ints(optional=True)), ("pairs", _field(int, int)))
_INLINE = (lambda m, _: qstate.matrix_to_obj(m),
           lambda obj, key, where, _: _matrix(_require(obj, key, where), f"{where}.{key}"))
# accept on |0> of one qubit, or on a projector over a qubit list, written inline
_MEASUREMENT = ((("single_qubit", _INT),), (("qubits", _INTS), ("projector", _INLINE)))
# the body of a spec stored with its rounds, which a trace form rebuilds from its plan
_BODY = (("players", _INT), ("layout", _object(RegisterLayout, _LAYOUT)), ("mode", _field(str)),
         ("channel", _field(str)), ("rounds", (_write_rounds, _read_rounds)),
         ("measurement", (_write_measurement, _read_measurement)))


def to_descriptor(p: ProtocolSpec) -> dict:
    """Version 3: a trace form is stored as its plan, any other spec with its
    rounds, and each distinct explicit matrix once, in ``matrices``."""
    matrices: dict = {}
    obj = {
        "version": DESCRIPTOR_VERSION,
        "name": p.name,
        "initial_owner": list(p.initial_owner),
        "declared": {"p": _num_to_obj(p.declared_p), "eps": _num_to_obj(p.declared_eps)},
    }
    if p.trace_plan is None:
        obj.update(_write(p, _BODY, matrices))
    else:
        obj["trace_plan"] = _write(p.trace_plan, _PLAN, matrices)
    obj["matrices"] = [qstate.matrix_to_obj(m) for _, m in matrices.values()]
    return obj


def serialize(p: ProtocolSpec) -> str:
    return json.dumps(to_descriptor(p), separators=(",", ":"))


def from_descriptor(obj: dict) -> ProtocolSpec:
    """The spec a version-1, -2 or -3 descriptor states (no version field reads as 1).

    A trace form is built from its plan by ``trace_form_spec``; from version
    2 on it stores nothing else, and a version-1 one must state the rounds
    and layout that its plan builds. Version 3 reads each explicit leaf from
    ``matrices`` by index, one object per entry; earlier ones write it inline.
    """
    try:
        return _from_descriptor(obj)
    except RecursionError:  # the reference reader recurses once per nesting level
        raise ParseError("descriptor: its references nest too deeply") from None


def _from_descriptor(obj) -> ProtocolSpec:
    where = "descriptor"
    _expect(obj, dict, where)
    version = _expect(obj.get("version", 1), int, f"{where}: field 'version'")
    if not 1 <= version <= DESCRIPTOR_VERSION:
        raise ParseError(f"{where}: field 'version' is {version}, expected 1 to {DESCRIPTOR_VERSION}")
    matrices = None
    if version == 3:
        listed = _require(obj, "matrices", where, list)
        matrices = [ExplicitU(_matrix(m, f"matrices[{i}]")) for i, m in enumerate(listed)]
    declared = _optional(obj, "declared", where, dict) or {}
    eps = declared.get("eps")  # p has a default; eps may be absent or null
    head = {
        "name": _expect(obj.get("name", "protocol"), str, f"{where}: field 'name'"),
        "declared_p": _num_from_obj(declared.get("p", "1/2"), "declared.p"),
        "declared_eps": None if eps is None else _num_from_obj(eps, "declared.eps"),
    }
    owners = _int_list(obj, "initial_owner", where)
    tp = _optional(obj, "trace_plan", where, dict)
    plan = None if tp is None else TracePlan(**_read(tp, _PLAN, "trace_plan", matrices))
    if plan is None or version == 1:
        fields = _read(obj, _BODY, where, matrices)
    elif stray := [k for k, _ in _BODY if k in obj]:
        raise ParseError(f"{where}: field {stray[0]!r} is not stored in a version-{version} trace form")
    if plan is None:
        return ProtocolSpec(initial_owner=owners, **head, **fields)
    spec = trace_form_spec(plan, owners, **head)
    written: dict = {}  # one matrix table, so equal indices are equal matrices
    if version == 1 and _write(SimpleNamespace(**fields), _BODY, written) != _write(spec, _BODY, written):
        raise ValidationError(["trace_plan: the rounds or layout differ from the ones the plan builds"])
    return spec


def deserialize(text: str) -> ProtocolSpec:
    try:
        return from_descriptor(json.loads(text))
    except json.JSONDecodeError as e:
        raise ParseError(f"descriptor is not valid JSON at line {e.lineno}, column {e.colno}") from e
    except RecursionError:  # in json.loads
        raise ParseError("descriptor: its references nest too deeply") from None


def protocol_equal(a: ProtocolSpec, b: ProtocolSpec) -> bool:
    """Descriptor equality: every field and every matrix entry compared exactly."""
    return to_descriptor(a) == to_descriptor(b)


explicit = ExplicitU  # the short name that transforms and built-ins use
