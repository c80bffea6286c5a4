"""Descriptor fuzz: one-field mutants of committed and built descriptors.

Each mutant deletes a field, puts a value of another JSON type in the place
of a field or a list entry, or shifts an integer by one; one more nests a
unitary reference deeper than the reader recurses. ``from_descriptor``
may refuse a mutant only with a ``OneCleanError``; a mutant it accepts, of at
most 9 qubits, gets one acceptance within 1e-9 from density, ensemble and,
with a plan, trace, or a ``OneCleanError`` from each. The walk is fixed, so
every run tries the same mutants.
"""

import copy
import json

import pytest

from oneclean import problems, protocol, simulator, transforms
from oneclean.errors import OneCleanError
from oneclean.protocol import ALICE, BOB

from helpers import DATA

_DELETE = object()
# the other JSON types, taken in turn from one value to the next
_OTHER_TYPES = ("two", 7, 0.5, None, True, [], {})
_IP2 = {ALICE: "1", BOB: "1"}

# name -> (the descriptor, the player inputs it runs on)
_BASES = {
    **{path.stem: (lambda path=path: json.loads(path.read_text()), _IP2) for path in DATA.glob("*.json")},
    "ip2-clocked": (lambda: protocol.to_descriptor(problems.ip2_clocked(1)), _IP2),
    "ip2-one-clean": (lambda: protocol.to_descriptor(problems.ip2_one_clean(1)), _IP2),
    "middle": (lambda: protocol.to_descriptor(problems.middle_protocol(2)), {ALICE: "01", BOB: "11"}),
    "ip2-clocked-k1": (lambda: protocol.to_descriptor(transforms.k_to_one_clean(problems.ip2_clocked(1))[0]),
                       _IP2),
}


def _values(obj, path=()):
    """(path, value) for each value under ``obj``, depth first; of a matrix's
    ``entries``, only the first entry of the first row."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        if key and "entries" in path[-2:]:
            continue
        yield path + (key,), val
        yield from _values(val, path + (key,))


def _mutated(obj, path, new):
    """``obj`` with the value at ``path`` set to ``new``, or deleted; only the
    containers on the path are copied."""
    out = copy.copy(obj)
    if len(path) > 1:
        out[path[0]] = _mutated(obj[path[0]], path[1:], new)
    elif new is _DELETE:
        del out[path[0]]
    else:
        out[path[0]] = new
    return out


def _mutants(desc):
    for i, (path, val) in enumerate(_values(desc)):
        others = [o for o in _OTHER_TYPES if type(o) is not type(val)]
        news = [others[i % len(others)]] + [_DELETE] * isinstance(path[-1], str)
        if type(val) is int:
            news += [val + 1, val - 1]
        for new in news:
            yield f"{path} {'deleted' if new is _DELETE else f'set to {new!r}'}", _mutated(desc, path, new)
    # the first unitary reference under 400 adjoints, deeper than the reference reader recurses
    path, ref = next((path, val) for path, val in _values(desc) if isinstance(val, dict) and "kind" in val)
    for _ in range(400):
        ref = {"kind": "adjoint", "inner": ref}
    yield f"{path} under 400 adjoints", _mutated(desc, path, ref)


def _acceptance(spec, inputs, backend):
    try:
        return simulator.run(spec, inputs, backend).acceptance
    except OneCleanError:
        return None


@pytest.mark.parametrize("name", sorted(_BASES))
def test_a_mutated_descriptor_gives_one_number_or_a_named_error(name):
    build, inputs = _BASES[name]
    ran = 0
    for what, obj in _mutants(build()):
        try:
            spec = protocol.from_descriptor(obj)
        except OneCleanError:
            continue
        if spec.layout.total > 9:
            continue
        backends = ["density", "ensemble"] + ["trace"] * (spec.trace_plan is not None)
        got = [_acceptance(spec, inputs, backend) for backend in backends]
        if None in got:
            assert got == [None] * len(got), what
        else:
            assert max(got) - min(got) <= 1e-9, what
        ran += 1
    assert ran  # some mutants still validate, so the backends are compared
