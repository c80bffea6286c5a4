"""Protocol intermediate representation.

A protocol is a register layout (clean qubits first, then totally mixed
ones), an ownership assignment, an ordered list of rounds (local unitary
plus an optional message), a final input-independent measurement, and
cost metadata. Round unitaries are either explicit matrices or small
expression trees over named input-parameterized generators, so the same
protocol object describes the whole input-indexed family.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from . import qstate
from .errors import DomainError, ParseError, ValidationError

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


@dataclass(frozen=True, eq=False)
class GenU:
    """Named generator; resolved with ``input_player``'s input at run time."""

    name: str
    params: dict
    input_player: int


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


@dataclass(frozen=True, eq=False)
class FlagStateU:
    """Flip local qubit 0 exactly on the state ``inner |0...0>``.

    Resolves to X (x) P + I (x) (I-P) with P the projector on the state
    the inner unitary prepares from all-zeros.
    """

    inner: Any


def lower(ref, targets) -> tuple:
    """A unitary reference on ``targets`` as local pieces in time order.

    Each piece is ``(leaf, qubits, adjoint, controls, value)``: the
    ExplicitU or GenU ``leaf`` (conjugate-transposed when ``adjoint``)
    acts on ``qubits`` where the ``controls`` read ``value`` (first
    control most significant), and as the identity elsewhere. The walk
    is input-independent; a malformed reference raises ``DomainError``.
    """
    targets = tuple(targets)
    if isinstance(ref, (ExplicitU, GenU)):
        return ((ref, targets, False, (), 0),)
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
            out.append((ExplicitU(step), sel, False, (), 0))
        return tuple(out)
    if isinstance(ref, FlagStateU):
        # X (x) P + I (x) (I - P) with P = W|0><0|W^dagger is W^dagger, flip-if-zero, W
        inner = lower(ref.inner, targets[1:])
        flip = (ExplicitU(qstate.flip_if_zero(len(targets) - 1)), targets, False, (), 0)
        return _adjoint(inner) + (flip,) + inner
    raise DomainError(f"unknown unitary reference {type(ref).__name__}")


def _adjoint(pieces) -> tuple:
    return tuple((leaf, q, not adj, c, v) for leaf, q, adj, c, v in reversed(pieces))


def _conditioned(pieces, controls: tuple, value: int) -> tuple:
    """``pieces`` acting only where ``controls`` read ``value``."""
    if any(set(controls) & set(q + c) for _, q, _, c, _ in pieces):
        raise DomainError(f"control qubits {controls} repeat a piece axis")
    return tuple((leaf, q, adj, controls + c, (value << len(c)) | v) for leaf, q, adj, c, v in pieces)


def _at(positions, targets: tuple) -> tuple:
    """Local positions mapped onto ``targets``, each in range and used once."""
    if len(set(positions)) != len(positions) or not all(0 <= p < len(targets) for p in positions):
        raise DomainError(
            f"piece axes {tuple(positions)} repeat or leave a {len(targets)}-qubit target list"
        )
    return tuple(targets[p] for p in positions)


def resolve_ref(piece, inputs) -> np.ndarray:
    """The matrix of a lowered piece's leaf on its qubits, adjoint applied."""
    leaf, qubits, adjoint = piece[:3]
    if isinstance(leaf, ExplicitU):
        m, what = leaf.matrix, "explicit matrix"
    else:
        fn, what = generator(leaf.name), f"generator {leaf.name!r}"
        m = np.asarray(fn(leaf.params, (inputs or {}).get(leaf.input_player)), dtype=complex)
    if m.shape != (1 << len(qubits),) * 2:
        raise DomainError(f"{what} has shape {m.shape}, expected dim 2^{len(qubits)}")
    return m.conj().T if adjoint else m


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
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "message", frozenset(int(q) for q in self.message))


@dataclass(frozen=True, eq=False)
class Measurement:
    """Accepting projector. ``single_qubit`` means accept on |0> there."""

    single_qubit: Optional[int] = None
    qubits: Optional[tuple] = None
    projector: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.single_qubit is None) == (self.projector is None):
            raise DomainError("measurement needs either single_qubit or projector")
        if self.projector is not None:
            object.__setattr__(self, "projector", _frozen(self.projector))
            object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))

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
    """

    control: int
    channel: int
    pieces: tuple  # ((ref, targets), ...) targets exclude the control
    counter: tuple = ()
    pairs: int = 0


@dataclass(frozen=True, eq=False)
class ProtocolSpec:
    """Valid once built: the constructor, ``dataclasses.replace`` and
    ``from_descriptor`` raise ``ValidationError`` with ``validate``'s violations."""

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
    trace_plan: Optional[TracePlan] = None

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

    CSV_HEADER = "communication,bias,q1_cost,pp_cost,qubits"

    def csv_row(self) -> str:
        return f"{self.communication},{self.bias},{self.q1_cost},{self.pp_cost},{self.qubits}"


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


def validate(p: ProtocolSpec) -> list:
    """Check every ProtocolSpec invariant; return the list of violations."""
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
    lowered: dict = {}  # (unitary, targets) -> its violations; unclock shares one ref per player
    for i, r in enumerate(p.rounds):
        if not 0 <= r.player < p.players:
            v.append(f"round {i}: player {r.player} out of range")
            continue
        seen = set()
        for t in r.targets:
            if not 0 <= t < total:
                v.append(f"round {i}: target {t} out of range")
            elif t in seen:
                v.append(f"round {i}: repeated target {t}")
            elif owners[t] != r.player:
                v.append(
                    f"round {i}: unitary touches qubit {t} owned by player {owners[t]}"
                )
            seen.add(t)
        for q in sorted(r.message):
            if not 0 <= q < total:
                v.append(f"round {i}: message qubit {q} out of range")
            elif owners[q] != r.player:
                v.append(f"round {i}: message qubit {q} not owned by sender")
        if r.message:
            if r.to is None or not 0 <= r.to < p.players or r.to == r.player:
                v.append(f"round {i}: bad receiver {r.to}")
            else:
                for q in r.message:
                    if 0 <= q < total:
                        owners[q] = r.to
        key = (r.unitary, r.targets)
        if key not in lowered:
            lowered[key] = _lowering_violations(r.unitary, r.targets)
        v.extend(f"round {i}: {msg}" for msg in lowered[key])

    support = p.measurement.support()
    for q in support:
        if not 0 <= q < total:
            v.append(f"measurement qubit {q} out of range")
    in_range = [q for q in support if 0 <= q < total]
    if in_range and len({owners[q] for q in in_range}) > 1:
        v.append("measurement qubits not all owned by one player at the end")
    if p.measurement.projector is not None:
        d = 1 << len(p.measurement.qubits)
        if p.measurement.projector.shape != (d, d):
            v.append("measurement projector dim does not match its qubit list")
        elif not qstate.is_projector(p.measurement.projector):
            v.append("measurement matrix is not a projector within 1e-9")

    if p.trace_plan is not None:
        v.extend(_validate_trace_plan(p.trace_plan, total))
    if p.mode == SEMI_UNCLOCKED:
        v.extend(_validate_semi_unclocked(p))
    if p.channel == FIXED:
        msgs = [r.message for r in p.rounds if r.message]
        if msgs and any(m != msgs[0] for m in msgs[1:]):
            v.append("fixed channel but message sets differ across rounds")
    return v


def _lowering_violations(ref, targets: tuple) -> list:
    """Why ``ref`` cannot act on ``targets``: a ``lower`` failure, or an
    explicit leaf of the wrong dimension or not unitary within 1e-9."""
    try:
        pieces = lower(ref, targets)
        leaves = {(pc[0], len(pc[1])): pc for pc in pieces if isinstance(pc[0], ExplicitU)}
        bad = [pc for pc in leaves.values() if not qstate.is_unitary(resolve_ref(pc, None))]
    except DomainError as e:
        return [str(e)]
    return ["explicit matrix is not unitary within 1e-9"] * len(bad)


def _validate_trace_plan(tp: TracePlan, total: int) -> list:
    """Why ``run_trace`` cannot contract the plan: its qubits, each piece's
    targets and lowering, and the piece count of a counter plan."""
    named = [("control", tp.control), ("channel", tp.channel)]
    named += [("counter qubit", c) for c in tp.counter]
    v = [f"trace_plan: {what} {q} out of range" for what, q in named if not 0 <= q < total]
    reserved = {tp.control: "the control", **{c: "a counter qubit" for c in tp.counter}}
    for j, (ref, targets) in enumerate(tp.pieces):
        where = f"trace_plan piece {j}"
        for k, t in enumerate(targets):
            if not 0 <= t < total:
                v.append(f"{where}: target {t} out of range")
            elif t in targets[:k]:
                v.append(f"{where}: repeated target {t}")
            elif t in reserved:
                v.append(f"{where}: target {t} is {reserved[t]}")
        v.extend(f"{where}: {msg}" for msg in _lowering_violations(ref, targets))
    if tp.counter and len(tp.pieces) != 2 * tp.pairs:
        v.append(f"trace_plan: {len(tp.pieces)} pieces for {tp.pairs} counter pairs")
    return v


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
        # identity first: unclock shares one ref per player, and serializing it costs
        if r.targets != r0.targets or (
            r.unitary is not r0.unitary and _ref_to_obj(r.unitary) != _ref_to_obj(r0.unitary)
        ):
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
# Descriptor serialization (exact round trip, floats via shortest repr)
# ---------------------------------------------------------------------------

DESCRIPTOR_VERSION = 1


def _num_to_obj(x):
    if x is None:
        return None
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    return float(x)


def _num_from_obj(x, where: str):
    if x is None:
        return None
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ValueError as e:
            raise ParseError(f"{where}: bad rational {x!r}") from e
    if isinstance(x, (int, float)):
        return float(x)
    raise ParseError(f"{where}: expected number or rational string")


def _ref_to_obj(ref) -> dict:
    if isinstance(ref, ExplicitU):
        return {"kind": "explicit", "matrix": qstate.matrix_to_obj(ref.matrix)}
    if isinstance(ref, GenU):
        return {
            "kind": "generator",
            "name": ref.name,
            "params": ref.params,
            "input_player": ref.input_player,
        }
    if isinstance(ref, AdjointU):
        return {"kind": "adjoint", "inner": _ref_to_obj(ref.inner)}
    if isinstance(ref, ControlledU):
        return {"kind": "controlled", "inner": _ref_to_obj(ref.inner)}
    if isinstance(ref, FlagStateU):
        return {"kind": "flag_state", "inner": _ref_to_obj(ref.inner)}
    if isinstance(ref, ComposedU):
        return {
            "kind": "composed",
            "width": ref.width,
            "factors": [
                {"ref": _ref_to_obj(sub), "pos": list(pos)} for sub, pos in ref.factors
            ],
        }
    if isinstance(ref, DispatchU):
        return {
            "kind": "dispatch",
            "width": ref.width,
            "selector": list(ref.selector),
            "increment": ref.increment,
            "branches": [
                None if b is None else {"ref": _ref_to_obj(b[0]), "pos": list(b[1])}
                for b in ref.branches
            ],
        }
    raise ParseError(f"cannot serialize unitary reference {type(ref).__name__}")


def _ref_from_obj(obj, where: str):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"{where}: unitary reference needs a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "explicit":
            return ExplicitU(qstate.matrix_from_obj(obj["matrix"]))
        if kind == "generator":
            return GenU(
                _require(obj, "name", where, str),
                _optional(obj, "params", where, dict) or {},
                _require(obj, "input_player", where, int),
            )
        if kind == "adjoint":
            return AdjointU(_ref_from_obj(obj["inner"], where))
        if kind == "controlled":
            return ControlledU(_ref_from_obj(obj["inner"], where))
        if kind == "flag_state":
            return FlagStateU(_ref_from_obj(obj["inner"], where))
        if kind == "composed":
            return ComposedU(
                _require(obj, "width", where, int),
                tuple(
                    (_ref_from_obj(f["ref"], where), _int_list(f, "pos", where))
                    for f in obj["factors"]
                ),
            )
        if kind == "dispatch":
            return DispatchU(
                _require(obj, "width", where, int),
                _int_list(obj, "selector", where),
                tuple(
                    None
                    if b is None
                    else (_ref_from_obj(b["ref"], where), _int_list(b, "pos", where))
                    for b in obj["branches"]
                ),
                _optional(obj, "increment", where, int) or 0,
            )
    except KeyError as e:
        raise ParseError(f"{where}: missing field {e.args[0]!r}") from e
    raise ParseError(f"{where}: unknown unitary kind {kind!r}")


def to_descriptor(p: ProtocolSpec) -> dict:
    obj = {
        "version": DESCRIPTOR_VERSION,
        "name": p.name,
        "players": p.players,
        "layout": {"clean": p.layout.clean, "mixed": p.layout.mixed},
        "initial_owner": list(p.initial_owner),
        "mode": p.mode,
        "channel": p.channel,
        "rounds": [
            {
                "player": r.player,
                "unitary": _ref_to_obj(r.unitary),
                "targets": list(r.targets),
                "message": sorted(r.message),
                "to": r.to,
            }
            for r in p.rounds
        ],
        "declared": {"p": _num_to_obj(p.declared_p), "eps": _num_to_obj(p.declared_eps)},
    }
    if p.measurement.single_qubit is not None:
        obj["measurement"] = {"single_qubit": p.measurement.single_qubit}
    else:
        obj["measurement"] = {
            "qubits": list(p.measurement.qubits),
            "projector": qstate.matrix_to_obj(p.measurement.projector),
        }
    if p.trace_plan is not None:
        tp = p.trace_plan
        obj["trace_plan"] = {
            "control": tp.control,
            "channel": tp.channel,
            "pieces": [
                {"ref": _ref_to_obj(ref), "targets": list(tg)} for ref, tg in tp.pieces
            ],
            "counter": list(tp.counter),
            "pairs": tp.pairs,
        }
    return obj


def serialize(p: ProtocolSpec) -> str:
    return json.dumps(to_descriptor(p), indent=1)


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


def from_descriptor(obj: dict) -> ProtocolSpec:
    where = "descriptor"
    _expect(obj, dict, where)
    layout_obj = _require(obj, "layout", where, dict)
    layout = RegisterLayout(
        _require(layout_obj, "clean", "layout", int),
        _require(layout_obj, "mixed", "layout", int),
    )
    rounds = []
    for i, r in enumerate(_require(obj, "rounds", where, list)):
        rw = f"rounds[{i}]"
        _expect(r, dict, rw)
        rounds.append(
            RoundAction(
                player=_require(r, "player", rw, int),
                unitary=_ref_from_obj(_require(r, "unitary", rw), rw),
                targets=_int_list(r, "targets", rw),
                message=frozenset(_int_list(r, "message", rw)),
                to=_optional(r, "to", rw, int),
            )
        )
    mobj = _require(obj, "measurement", where, dict)
    if "single_qubit" in mobj:
        meas = Measurement(single_qubit=_require(mobj, "single_qubit", "measurement", int))
    else:
        meas = Measurement(
            qubits=_int_list(mobj, "qubits", "measurement"),
            projector=qstate.matrix_from_obj(_require(mobj, "projector", "measurement")),
        )
    declared = _optional(obj, "declared", where, dict) or {}
    plan = None
    tp = _optional(obj, "trace_plan", where, dict)
    if tp is not None:
        pieces = []
        for j, pc in enumerate(_require(tp, "pieces", "trace_plan", list)):
            pw = f"trace_plan.pieces[{j}]"
            _expect(pc, dict, pw)
            pieces.append(
                (
                    _ref_from_obj(_require(pc, "ref", pw), pw),
                    _int_list(pc, "targets", pw),
                )
            )
        plan = TracePlan(
            control=_require(tp, "control", "trace_plan", int),
            channel=_require(tp, "channel", "trace_plan", int),
            pieces=tuple(pieces),
            counter=_int_list(tp, "counter", "trace_plan", optional=True),
            pairs=_optional(tp, "pairs", "trace_plan", int) or 0,
        )
    return ProtocolSpec(
        name=_expect(obj.get("name", "protocol"), str, f"{where}: field 'name'"),
        players=_require(obj, "players", where, int),
        layout=layout,
        initial_owner=_int_list(obj, "initial_owner", where),
        rounds=tuple(rounds),
        measurement=meas,
        mode=_require(obj, "mode", where, str),
        channel=_require(obj, "channel", where, str),
        declared_p=_num_from_obj(declared.get("p", "1/2"), "declared.p"),
        declared_eps=_num_from_obj(declared.get("eps"), "declared.eps"),
        trace_plan=plan,
    )


def deserialize(text: str) -> ProtocolSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"descriptor is not valid JSON at line {e.lineno}, column {e.colno}") from e
    return from_descriptor(obj)


def protocol_equal(a: ProtocolSpec, b: ProtocolSpec) -> bool:
    """Descriptor equality: every field and every matrix entry compared exactly."""
    return to_descriptor(a) == to_descriptor(b)


# Convenience constructors used by transforms and built-ins.


def explicit(matrix) -> ExplicitU:
    return ExplicitU(matrix)
