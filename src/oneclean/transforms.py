"""Protocol-to-protocol constructions with their exact acceptance arithmetic.

Every transform returns the rewritten protocol together with a
TransformCert whose affine map alpha*a + beta predicts the output's
acceptance from the base acceptance a, exactly (rational arithmetic).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qstate
from .errors import DomainError, ShapeError
from .protocol import (
    ALICE,
    BOB,
    AdjointU,
    ComposedU,
    FlagStateU,
    GenU,
    Measurement,
    ProtocolSpec,
    RegisterLayout,
    RoundAction,
    SEMI_UNCLOCKED,
    TracePlan,
    _compose,
    _num_to_obj,
    communication_cost,
    explicit,
    measuring_player,
    register_generator,
    trace_form_spec,
)


@dataclass(frozen=True)
class TransformCert:
    """Exact prediction attached to a transform's output.

    The output's acceptance on any input equals
    ``acceptance_slope * a + acceptance_offset`` where a is the base
    protocol's acceptance on that input.
    """

    input_bias: object
    predicted_bias: object
    acceptance_slope: Fraction
    acceptance_offset: Fraction
    communication_before: int
    communication_after: int
    reference_before: object = None
    reference_after: object = None
    q1_bound: object = None
    notes: str = ""

    def predict(self, acceptance):
        return self.acceptance_slope * acceptance + self.acceptance_offset

    def to_obj(self) -> dict:
        enc = _num_to_obj
        return {
            "input_bias": enc(self.input_bias),
            "predicted_bias": enc(self.predicted_bias),
            "acceptance_map": {
                "slope": enc(self.acceptance_slope),
                "offset": enc(self.acceptance_offset),
            },
            "communication_before": self.communication_before,
            "communication_after": self.communication_after,
            "reference_before": enc(self.reference_before),
            "reference_after": enc(self.reference_after),
            "q1_bound": enc(self.q1_bound),
            "notes": self.notes,
        }


def _affine(x, slope: Fraction, offset: Fraction):
    if x is None:
        return None
    if isinstance(x, (int, Fraction)):
        return slope * x + offset
    return float(slope) * x + float(offset)


def _declared(p: ProtocolSpec, slope: Fraction, offset: Fraction) -> dict:
    """The output's declared reference point and bias under a -> slope*a + offset."""
    return {
        "declared_p": _affine(p.declared_p, slope, offset),
        "declared_eps": _affine(p.declared_eps, slope, Fraction(0)),
    }


def _cert(
    p: ProtocolSpec, out: ProtocolSpec, slope: Fraction, offset: Fraction, notes: str
) -> TransformCert:
    """The certificate of p -> out, read off both specs."""
    return TransformCert(
        input_bias=p.declared_eps,
        predicted_bias=out.declared_eps,
        acceptance_slope=slope,
        acceptance_offset=offset,
        communication_before=communication_cost(p),
        communication_after=communication_cost(out),
        reference_before=p.declared_p,
        reference_after=out.declared_p,
        notes=notes,
    )


def _shift_round(r: RoundAction, shift: int) -> RoundAction:
    return RoundAction(
        player=r.player,
        unitary=r.unitary,
        targets=tuple(t + shift for t in r.targets),
        message=frozenset(q + shift for q in r.message),
        to=r.to,
    )


# ---------------------------------------------------------------------------
# Clocked k-clean -> clocked one-clean: bias eps/2^k behind a flag qubit
# ---------------------------------------------------------------------------


def k_to_one_clean(p: ProtocolSpec) -> tuple[ProtocolSpec, TransformCert]:
    """Demote the k clean qubits to mixed ones behind a flag qubit.

    The prepended unitary flips the new clean flag exactly when the
    demoted register is all-zero, so with probability 2^-k the original
    run happens under the flag; otherwise the measurement falls back to a
    coin toss on a fresh mixed qubit that no unitary ever touches (the
    fresh qubit keeps the coin exactly fair). Acceptance maps to
    (1 - 2^-k)/2 + 2^-k * a, hence bias eps/2^k; communication grows by
    one only when somebody other than the starting player measures.
    """
    if p.mode == SEMI_UNCLOCKED:
        raise ShapeError("k-to-one-clean prepends a round, so it needs a clocked protocol")
    k = p.layout.clean
    if k < 1:
        raise DomainError("base protocol has no clean qubits")
    if p.players != 2:
        raise ShapeError("k-to-one-clean handles two-player protocols")
    if not p.rounds:
        raise ShapeError("base protocol has no rounds")
    starter = p.rounds[0].player
    if any(p.initial_owner[q] != starter for q in range(k)):
        raise ShapeError("the starting player must own every clean qubit initially")
    measurer = measuring_player(p)

    total = p.layout.total
    coin = total + 1  # after the shift below
    rounds = [
        RoundAction(starter, explicit(qstate.flip_if_zero(k)), tuple(range(k + 1)), frozenset(), None)
    ]
    rounds.extend(_shift_round(r, 1) for r in p.rounds)

    if measurer != starter:
        # carry the flag with the starter's last message to the measurer
        for i in range(len(rounds) - 1, 0, -1):
            r = rounds[i]
            if r.player == starter and r.message and r.to == measurer:
                rounds[i] = dataclasses.replace(r, message=r.message | {0})
                break
        else:
            raise ShapeError("no message from the starter to the measurer can carry the flag")

    base_proj, base_support = p.measurement.operator()
    support = (0,) + tuple(q + 1 for q in base_support) + (coin,)
    dim_base = base_proj.shape[0]
    accept_heads = qstate.basis_projector(1)
    proj = np.kron(
        qstate.basis_projector(1), np.kron(base_proj, qstate.I2)
    ) + np.kron(qstate.basis_projector(0), np.kron(np.eye(dim_base), accept_heads))

    slope = Fraction(1, 1 << k)
    offset = (1 - slope) / 2
    out = ProtocolSpec(
        name=p.name + "+k1",
        players=2,
        layout=RegisterLayout(clean=1, mixed=p.layout.mixed + k + 1),
        initial_owner=(starter,) + p.initial_owner + (measurer,),
        rounds=tuple(rounds),
        measurement=Measurement(qubits=support, projector=proj),
        mode=p.mode,
        channel=p.channel,
        **_declared(p, slope, offset),
    )
    notes = f"k={k}; flag + coin qubit added; acceptance a -> {offset} + a/{1 << k}"
    return out, _cert(p, out, slope, offset, notes)


# ---------------------------------------------------------------------------
# Arbitrary projective measurement -> single-qubit measurement
# ---------------------------------------------------------------------------


def projective_to_single_qubit(p: ProtocolSpec) -> ProtocolSpec:
    """Replace the final measurement by a flip unitary plus one-qubit readout.

    A new clean qubit is prepended and flipped on the rejecting subspace
    (X (x) (I-P) + I (x) P), so measuring the new qubit in the standard
    basis accepts on |0> with exactly the original probability.
    """
    if p.mode == SEMI_UNCLOCKED:
        raise ShapeError("sq-measure appends a round, so it needs a clocked protocol")
    measurer = measuring_player(p)
    base_proj, base_support = p.measurement.operator()
    dim = base_proj.shape[0]
    u_s = np.kron(qstate.X, np.eye(dim) - base_proj) + np.kron(qstate.I2, base_proj)
    rounds = [_shift_round(r, 1) for r in p.rounds]
    targets = (0,) + tuple(q + 1 for q in base_support)
    rounds.append(RoundAction(measurer, explicit(u_s), targets, frozenset(), None))
    return ProtocolSpec(
        name=p.name + "+sq",
        players=p.players,
        layout=RegisterLayout(clean=p.layout.clean + 1, mixed=p.layout.mixed),
        initial_owner=(measurer,) + p.initial_owner,
        rounds=tuple(rounds),
        measurement=Measurement(single_qubit=0),
        mode=p.mode,
        channel=p.channel,
        declared_p=p.declared_p,
        declared_eps=p.declared_eps,
    )


# ---------------------------------------------------------------------------
# Trace-estimation wrap: Hadamard test around the courier schedule
# ---------------------------------------------------------------------------


def _courier_slots(p: ProtocolSpec) -> tuple[list, tuple]:
    """The fixed-channel (courier) schedule of ``p``: its slots and owners.

    Original qubits become fixed slots owned by their initial holder;
    message content travels via SWAPs into the courier, qubit
    ``p.layout.total``, with receiver-side guest slots allocated on
    demand. Slots strictly alternate, the non-measuring player first, and
    a player's consecutive rounds share one slot. Returns one
    ``(ref, targets)`` per slot, padded to a power of two (at least 2)
    with the identity on the courier, and the initial owner of each
    original qubit, the courier and each guest slot. Acceptance is
    exactly preserved (pure wire bookkeeping).
    """
    if p.players != 2:
        raise ShapeError("fixed-channel conversion handles two-player protocols")
    support = p.measurement.support()
    measurer = measuring_player(p)
    starter = 1 - measurer
    for q in support:
        if p.initial_owner[q] != measurer:
            raise ShapeError("measured qubits must start with the measuring player")
    for r in p.rounds:
        if r.message & set(support):
            raise ShapeError("a measured qubit is communicated; not in courier shape")

    total = p.layout.total
    ch = total
    pos = {q: q for q in range(total)}
    free: dict[int, list] = {0: [], 1: []}
    factors: dict[int, list] = {}
    guest_owner: list[int] = []

    def player_of(t: int) -> int:
        return starter if t % 2 == 1 else measurer

    def next_round_for(player: int, at_least: int) -> int:
        t = max(at_least, 1)
        return t if player_of(t) == player else t + 1

    def add(t: int, ref, slots) -> None:
        factors.setdefault(t, []).append((ref, tuple(slots)))

    cur = 1
    for orig in p.rounds:
        t_u = next_round_for(orig.player, cur)
        add(t_u, orig.unitary, (pos[q] for q in orig.targets))
        cur = t_u
        for q in sorted(orig.message):
            t_s = next_round_for(orig.player, cur)
            add(t_s, explicit(qstate.SWAP2), (pos[q], ch))
            free[orig.player].append(pos[q])
            free[orig.player].sort()
            if free[orig.to]:
                dest = free[orig.to].pop(0)
            else:
                dest = total + 1 + len(guest_owner)
                guest_owner.append(orig.to)
            add(t_s + 1, explicit(qstate.SWAP2), (ch, dest))
            pos[q] = dest
            cur = t_s + 1

    last = max(factors) if factors else 1
    slots = [
        _compose(factors[t]) if t in factors else (explicit(qstate.I2), (ch,))
        for t in range(1, max(2, 1 << (last - 1).bit_length()) + 1)
    ]
    return slots, p.initial_owner + (starter,) + tuple(guest_owner)


def to_trace_form(p: ProtocolSpec) -> tuple[ProtocolSpec, TransformCert]:
    """Wrap a single-qubit-measuring protocol into a Hadamard test.

    The controlled operator runs the courier schedule (``_courier_slots``)
    backwards and forwards with one CNOT onto a fresh mixed ancilla per
    clean slot plus one for the measured slot; each CNOT realizes a
    |0><0| projector inside the trace, so with j clean qubits the
    acceptance becomes p0 = 1/2 + a / 2^(j+1)  (j = 2 along the standard
    chain: 1/2 + a/8, i.e. 1/2 + 1/16 + eps/2^(k+3) at a = 1/2 + eps/2^k).
    """
    if p.measurement.single_qubit is None:
        raise ShapeError("trace form needs a single-qubit measurement; apply sq-measure first")
    j = p.layout.clean
    slots, owners = _courier_slots(p)
    measurer = measuring_player(p)
    starter = 1 - measurer
    channel = p.layout.total
    r = len(slots)
    measured = p.measurement.single_qubit

    # wrapper register: control 0, the slots shifted by one, then the CNOT
    # ancillas (one per clean slot + one for the measured slot's final
    # projector). Everything but the control starts totally mixed.
    clean_slots = range(j)
    anc_base = 1 + len(owners)  # clean slot c's ancilla is anc_base + c
    end_anc = anc_base + j

    m_cleans = [c for c in clean_slots if owners[c] == measurer]
    s_cleans = [c for c in clean_slots if owners[c] == starter]

    def cnot_factor(src_slot: int, anc: int):
        return (explicit(qstate.CNOT), (1 + src_slot, anc))

    # slot unitaries lifted to wrapper coordinates
    lifted = [(ref, tuple(t + 1 for t in tg)) for ref, tg in slots]
    # piece 0 (measurer): initial projectors for measurer-owned clean slots
    head = [cnot_factor(c, anc_base + c) for c in m_cleans]
    if not head:
        head = [(explicit(qstate.I2), (1 + channel,))]
    pieces = [_compose(head)]
    # forward pass, with the end projector folded into U_r
    pieces += lifted[:-1]
    last_ref, last_tg = lifted[-1]
    pieces.append(
        _compose(
            [
                (last_ref, last_tg),
                cnot_factor(measured, end_anc),
                (AdjointU(last_ref), last_tg),
            ]
        )
    )
    # backward pass
    pieces += [(AdjointU(ref), tg) for ref, tg in reversed(lifted[1:-1])]
    first_ref, first_tg = lifted[0]
    tail = [(AdjointU(first_ref), first_tg)]
    tail.extend(cnot_factor(c, anc_base + c) for c in s_cleans)
    pieces.append(_compose(tail))
    assert len(pieces) == 2 * r

    # the control, the slots with the courier at round 0's sender, each init
    # ancilla with its slot's owner, and the end ancilla
    new_owner = (measurer, *owners[:channel], measurer, *owners[channel + 1 :], *owners[:j], measurer)

    slope = Fraction(1, 1 << (j + 1))
    offset = Fraction(1, 2)
    plan = TracePlan(0, 1 + channel, pieces)
    out = trace_form_spec(plan, new_owner, p.name + "+trace", **_declared(p, slope, offset))
    notes = f"j={j} clean slots -> p0 = 1/2 + a/{1 << (j + 1)}; {2 * r} rounds of 2 qubits"
    return out, _cert(p, out, slope, offset, notes)


# ---------------------------------------------------------------------------
# Clocked trace form -> semi-unclocked via a counter register
# ---------------------------------------------------------------------------


def unclock(p: ProtocolSpec) -> tuple[ProtocolSpec, TransformCert]:
    """One fixed unitary per player, dispatched on a mixed counter.

    Round pairs become branches of a counter-conditioned dispatch wrapped
    in (H (x) I) sandwiches on the control; the second player of each pair
    increments the counter mod 2^w. The pair count is a power of two (the
    courier padding guarantees it), so every counter start runs the
    pieces in a cyclic rotation and by the cyclic property of the trace
    the acceptance is exactly that of the clocked input.
    """
    plan = p.trace_plan
    if plan is None or plan.pairs:
        raise ShapeError("unclock expects a clocked trace-form protocol")
    pairs, odd = divmod(len(plan.pieces), 2)
    if odd:
        raise ShapeError("trace-form protocol must have an even round count")
    if not pairs or pairs & (pairs - 1):
        raise ShapeError(f"round pair count {pairs} is not a power of two")
    w = pairs.bit_length() - 1
    base = p.layout.total
    out = trace_form_spec(
        dataclasses.replace(plan, counter=tuple(range(base, base + w)), pairs=pairs),
        p.initial_owner + (p.initial_owner[plan.control],) * w,
        p.name + "+unclocked",
        **_declared(p, Fraction(1), Fraction(0)),
    )
    notes = f"{w} counter qubits over {pairs} pairs; acceptance unchanged for every start"
    return out, _cert(p, out, Fraction(1), Fraction(0), notes)


# ---------------------------------------------------------------------------
# Two-round k-clean -> two-round one-clean: acceptance a/2^k
# ---------------------------------------------------------------------------


def two_round_one_clean(p: ProtocolSpec) -> tuple[ProtocolSpec, TransformCert]:
    """Replace Alice's prepared state |phi_x> by a flag on it.

    Alice's first unitary becomes "flip a fresh clean qubit exactly on
    |phi_x>" over the now-mixed message register; the measurement accepts
    only under the flag, which singles out the |phi_x> member of any
    orthonormal basis completing it. Acceptance scales by exactly 2^-k on
    every input and the communication (2k) is unchanged.
    """
    if p.players != 2:
        raise ShapeError("two-round construction handles two-player protocols")
    msg_rounds = [r for r in p.rounds if r.message]
    if len(msg_rounds) != 2 or len(p.rounds) not in (2, 3):
        raise ShapeError("expected exactly two messages (Alice -> Bob -> Alice)")
    r1, r2 = msg_rounds
    if r1 is not p.rounds[0]:
        raise ShapeError("the first round must send the k clean qubits")
    k = p.layout.clean
    clean = frozenset(range(k))
    alice, bob = r1.player, r2.player
    if alice == bob:
        raise ShapeError("both messages sent by the same player")
    if r1.message != clean or r2.message != clean:
        raise ShapeError("both messages must be exactly the k clean qubits")
    if set(r1.targets) != set(clean):
        raise ShapeError("Alice's first unitary must act on exactly the k clean qubits")
    if measuring_player(p) != alice:
        raise ShapeError("the first player must measure")

    # |phi_x> is prepared from |0^k>; lift W1 to the k qubits in index order
    if r1.targets == tuple(range(k)):
        w1 = r1.unitary
    else:
        w1 = ComposedU(k, ((r1.unitary, r1.targets),))

    flag_ref = FlagStateU(w1)
    rounds = [RoundAction(alice, flag_ref, (0,) + tuple(range(1, k + 1)), frozenset(range(1, k + 1)), bob)]
    for r in p.rounds[1:]:
        rounds.append(_shift_round(r, 1))

    base_proj, base_support = p.measurement.operator()
    proj = np.kron(qstate.basis_projector(1), base_proj)
    support = (0,) + tuple(q + 1 for q in base_support)

    slope = Fraction(1, 1 << k)
    out = ProtocolSpec(
        name=p.name + "+lemma1",
        players=2,
        layout=RegisterLayout(clean=1, mixed=p.layout.mixed + k),
        initial_owner=(alice,) + p.initial_owner,
        rounds=tuple(rounds),
        measurement=Measurement(qubits=support, projector=proj),
        **_declared(p, slope, Fraction(0)),
    )
    notes = f"two-round flag construction at k={k}; acceptance a -> a/{1 << k}"
    return out, _cert(p, out, slope, Fraction(0), notes)


# ---------------------------------------------------------------------------
# Classical weakly-unbounded-error protocol -> one-way one-clean protocol
# ---------------------------------------------------------------------------


@register_generator("pp_alice_flag")
def _gen_pp_alice_flag(params, x):
    """Swap |0>|T(x)> with |1>|T(x)>; identity elsewhere."""
    c = int(params["c"])
    table = params["table"]
    if x not in table:
        raise DomainError(f"no message defined for input {x!r}")
    z = int(table[x], 2)
    dim = 1 << (c + 1)
    m = np.eye(dim, dtype=complex)
    m[[z, z + (1 << c)]] = m[[z + (1 << c), z]]
    return m


@register_generator("pp_bob_decide")
def _gen_pp_bob_decide(params, y):
    """Bob's combined coin-toss / decision permutation.

    Flag 0: right-rotate (message, fresh qubit) so the fresh mixed qubit
    lands on the measured slot (a fair coin). Flag 1: a permutation of
    (z1, fresh, coins) that puts 1 on the measured slot for exactly
    2 * b(z,y) * 2^s of the 2^(s+1) (fresh, coins) values; pairwise
    balance b(0 z') + b(1 z') = 1 makes the counts match a bijection.
    """
    c, s = int(params["c"]), int(params["coins"])
    btable = {z: Fraction(v) for z, v in params["btable"][y].items()}
    nz = 1 << c
    sub = 1 << (c + 1 + s)  # (z block, fresh, coins)
    rot = np.zeros((sub, sub), dtype=complex)
    for v in range(sub):
        coins_v = v & ((1 << s) - 1)
        zw = v >> s  # c+1 bits: z then fresh
        zw_rot = ((zw & 1) << c) | (zw >> 1)
        rot[(zw_rot << s) | coins_v, v] = 1.0
    dec = np.zeros((sub, sub), dtype=complex)
    for zp in range(nz >> 1):  # z' = low c-1 bits of z
        t = {}
        for z1 in (0, 1):
            z = (z1 << (c - 1)) | zp
            b = btable[format(z, f"0{c}b")]
            tz = b * (1 << s)
            if tz.denominator != 1:
                raise DomainError(f"acceptance {b} is not dyadic with {s} coins")
            t[z1] = int(tz)
        if t[0] + t[1] != 1 << s:
            raise DomainError("acceptance table is not pairwise balanced")
        outs = {0: 0, 1: 0}
        for z1 in (0, 1):
            for w in (0, 1):
                for coins_v in range(1 << s):
                    beta = 1 if coins_v < t[z1] else 0
                    slot = outs[beta]
                    outs[beta] += 1
                    vin = (((z1 << (c - 1)) | zp) << (s + 1)) | (w << s) | coins_v
                    vout = ((beta << (c - 1)) | zp) << (s + 1) | slot
                    dec[vout, vin] = 1.0
    full = np.zeros((2 * sub, 2 * sub), dtype=complex)
    full[:sub, :sub] = rot
    full[sub:, sub:] = dec
    return full


def pp_to_oneway(
    t_map: dict, accept_table: dict, c: int, eps
) -> tuple[ProtocolSpec, TransformCert]:
    """Embed a deterministic-message PP protocol into one quantum message.

    Alice flags the correct message z = T(x) inside a mixed c-qubit
    register and sends flag plus register (c+1 qubits); Bob either applies
    his decision (under the flag, probability 2^-c) or tosses a fair coin,
    giving acceptance exactly 1/2 + (b(T(x), y) - 1/2)/2^c, i.e.
    1/2 + eps/2^c on 1-inputs. The cert carries the resulting cost bound
    (c+1) * 2^(2c) / eps^2.
    """
    eps = Fraction(eps)
    if not 0 <= eps < Fraction(1, 2):
        raise DomainError(f"bias {eps} outside [0, 1/2)")
    for x, z in t_map.items():
        if not isinstance(z, str):
            raise ShapeError(f"message map is not deterministic at input {x!r}")
        if len(z) != c or any(ch not in "01" for ch in z):
            raise DomainError(f"message {z!r} is not a {c}-bit string")
    denom = 1
    btable = {}
    for y, row in accept_table.items():
        btable[y] = {z: Fraction(v) for z, v in row.items()}
        if set(btable[y]) != {format(v, f"0{c}b") for v in range(1 << c)}:
            raise DomainError(f"acceptance table row {y!r} must cover all {1 << c} messages")
        for b in btable[y].values():
            if not 0 <= b <= 1:
                raise DomainError(f"acceptance probability {b} outside [0, 1]")
            denom = max(denom, b.denominator)
    if denom & (denom - 1):
        raise DomainError("acceptance probabilities must be dyadic (denominator a power of two)")
    s = denom.bit_length() - 1
    for y, row in btable.items():
        for zp in range(1 << (c - 1)):
            z0 = format(zp, f"0{c}b")
            z1 = format(zp | (1 << (c - 1)), f"0{c}b")
            if row[z0] + row[z1] != 1:
                raise DomainError(
                    "acceptance table must be pairwise balanced: "
                    "b(0z',y) + b(1z',y) = 1 (unitarity of Bob's decision)"
                )

    ser_btable = {y: {z: str(b) for z, b in row.items()} for y, row in btable.items()}
    total = 1 + c + 1 + s
    alice_u = GenU("pp_alice_flag", {"c": c, "table": t_map}, ALICE)
    bob_u = GenU("pp_bob_decide", {"c": c, "coins": s, "btable": ser_btable}, BOB)
    out = ProtocolSpec(
        name=f"pp-oneway(c={c})",
        players=2,
        layout=RegisterLayout(clean=1, mixed=c + 1 + s),
        initial_owner=(ALICE,) * (c + 1) + (BOB,) * (1 + s),
        rounds=(
            RoundAction(ALICE, alice_u, tuple(range(c + 1)), frozenset(range(c + 1)), BOB),
            RoundAction(BOB, bob_u, tuple(range(total)), frozenset(), None),
        ),
        measurement=Measurement(qubits=(1,), projector=qstate.basis_projector(1)),
        declared_p=Fraction(1, 2),
        declared_eps=(eps / (1 << c)) or None,
    )
    slope = Fraction(1, 1 << c)
    cert = TransformCert(
        input_bias=eps,
        predicted_bias=eps / (1 << c),
        acceptance_slope=slope,
        acceptance_offset=(1 - slope) / 2,
        communication_before=c,
        communication_after=communication_cost(out),
        reference_before=Fraction(1, 2),
        reference_after=Fraction(1, 2),
        q1_bound=Fraction(c + 1) * (1 << (2 * c)) / eps**2 if eps else None,
        notes=f"acceptance = 1/2 + (b(T(x),y) - 1/2)/2^{c}",
    )
    return out, cert
