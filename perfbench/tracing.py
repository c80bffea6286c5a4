"""Span tracing around oneclean's layer entry points, installed from outside.

Each entry point is wrapped at every binding a caller looks up: the
module attribute, names imported into other ``oneclean`` modules (for
example ``simulator.resolve_ref``) and values of module-level dicts (for
example ``simulator.BACKENDS``). A wrapper records one span (id, name,
start, end, parent, item id, self time) and per-name counters. Self time
is the span's duration minus the time its child spans cover.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _contract_extra(tr, args, kwargs, out):
    arr, u, axes = args[0], args[1], args[2]
    tr.counters["qstate.contract.cmacs"] += arr.size << len(axes)
    tr.counters["qstate.contract.bytes"] += arr.nbytes + u.nbytes + out.nbytes
    tr.maxima["qstate.contract.max_elems"] = max(
        tr.maxima["qstate.contract.max_elems"], arr.size, out.size
    )
    tr.trace_workspace = max(tr.trace_workspace, arr.nbytes, out.nbytes)


def _resolve_extra(tr, args, kwargs, out):
    tr.counters["protocol.resolve_ref.out_elems"] += out.size


def _run_trace_before(tr):
    tr.trace_workspace = 0


def _run_trace_extra(tr, args, kwargs, out):
    # largest array any contraction inside this call read or wrote
    tr.maxima["simulator.run_trace.workspace_bytes"] = max(
        tr.maxima["simulator.run_trace.workspace_bytes"], tr.trace_workspace
    )


def _ensemble_extra(tr, args, kwargs, out):
    p = args[0]
    sample = kwargs.get("sample", args[2] if len(args) > 2 else "all")
    pin = kwargs.get("pin", args[4] if len(args) > 4 else None) or {}
    if sample == "all":
        branches = 1 << (p.layout.total - p.layout.clean - len(pin))
    else:
        branches = int(sample)
    tr.counters["simulator.run_ensemble.branches"] += branches


def _knr_extra(tr, args, kwargs, out):
    tr.counters["classical.knr_estimate.rounds"] += out[1].total


def _disc_extra(tr, args, kwargs, out):
    rows, cols = args[0].entries.shape
    tr.counters["classical.disc_bruteforce.rectangles"] += (1 << rows) * (1 << cols)


def _abc_extra(tr, args, kwargs, out):
    tr.abc_trials += 1
    tr.abc_successes += int(out[0] == (1 if args[0].label == 1 else 0))


# (module, attribute, span name, before hook, extra hook)
ENTRY_POINTS = [
    ("qstate", "_contract", "qstate.contract", None, _contract_extra),
    ("qstate", "apply_on_subset", "qstate.apply_on_subset", None, None),
    ("qstate", "apply_to_vector", "qstate.apply_to_vector", None, None),
    ("qstate", "embed_operator", "qstate.embed_operator", None, None),
    ("qstate", "accept_probability", "qstate.accept_probability", None, None),
    ("protocol", "validate", "protocol.validate", None, None),
    ("protocol", "resolve_ref", "protocol.resolve_ref", None, _resolve_extra),
    ("protocol", "serialize", "protocol.serialize", None, None),
    ("protocol", "deserialize", "protocol.deserialize", None, None),
    ("simulator", "run_trace", "simulator.run_trace", _run_trace_before, _run_trace_extra),
    ("simulator", "run_density", "simulator.run_density", None, None),
    ("simulator", "run_ensemble", "simulator.run_ensemble", None, _ensemble_extra),
    ("simulator", "measure_bias", "simulator.measure_bias", None, None),
    ("transforms", "k_to_one_clean", "transforms.k_to_one_clean", None, None),
    ("transforms", "projective_to_single_qubit", "transforms.projective_to_single_qubit", None, None),
    ("transforms", "to_trace_form", "transforms.to_trace_form", None, None),
    ("transforms", "unclock", "transforms.unclock", None, None),
    ("problems", "razborov_sample", "problems.razborov_sample", None, None),
    ("problems", "middle_pad", "problems.middle_pad", None, None),
    ("problems", "abc_instance", "problems.abc_instance", None, None),
    ("classical", "knr_estimate", "classical.knr_estimate", None, _knr_extra),
    ("classical", "cap_codebook", "classical.cap_codebook", None, None),
    ("classical", "abc_classical", "classical.abc_classical", None, _abc_extra),
    ("classical", "disc_bruteforce", "classical.disc_bruteforce", None, _disc_extra),
    ("classical", "cap_probability_mc", "classical.cap_probability_mc", None, None),
]

# CLI subcommands the workloads call in-process, timed as whole calls.
CLI_SPANS = ["cli.transform", "cli.run", "cli.classical_abc", "cli.gen_razborov"]

# Extras summed per pass, and extras reported as the largest value seen.
SUMMED = [
    ("qstate.contract.cmacs", "count"),
    ("qstate.contract.bytes", "B"),
    ("protocol.resolve_ref.out_elems", "count"),
    ("simulator.run_ensemble.branches", "count"),
    ("classical.knr_estimate.rounds", "count"),
    ("classical.disc_bruteforce.rectangles", "count"),
]
MAXED = [
    ("qstate.contract.max_elems", "count"),
    ("simulator.run_trace.workspace_bytes", "B"),
]

# Median share of one item's wall time spent in the named spans' self time.
SHARES = {
    "share.wide_trace_items.run_trace_contract": (
        ("trace-ip2", "trace-unclock", "trace-middle"),
        ("simulator.run_trace", "qstate.contract"),
    ),
    "share.abc_items.knr_estimate": (("abc-classical",), ("classical.knr_estimate",)),
}


class Tracer:
    """Records spans for the calls made while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, child seconds]
        self.next_id = 0
        self.item = None
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self s, total s
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.trace_workspace = 0
        self.abc_trials = 0
        self.abc_successes = 0
        self.missing: list[str] = []
        self.extra_errors: set[str] = set()
        self._patched: list[tuple] = []

    def wrap(self, name, fn, before=None, extra=None):
        tr = self

        def wrapper(*args, **kwargs):
            tr.next_id += 1
            sid = tr.next_id
            stack = tr.stack
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            if before is not None:
                before(tr)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                st = tr.stats[name]
                st[0] += 1
                st[1] += own
                st[2] += dur
                if stack:
                    stack[-1][1] += dur
                tr.spans.append((sid, name, start, end, parent, tr.item, own))
            if extra is not None:
                try:
                    extra(tr, args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tr.extra_errors.add(name)
            return out

        return wrapper

    def install(self) -> None:
        """Replace every binding of each entry point in loaded oneclean modules."""
        mods = [m for k, m in list(sys.modules.items()) if k == "oneclean" or k.startswith("oneclean.")]
        for mod_name, attr, name, before, extra in ENTRY_POINTS:
            orig = getattr(sys.modules.get(f"oneclean.{mod_name}"), attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, orig, before, extra)
            for m in mods:
                ns = vars(m)
                for key, val in list(ns.items()):
                    if val is orig:
                        self._patched.append((ns, key, orig))
                        ns[key] = wrapper
                    elif type(val) is dict:
                        for dk, dv in list(val.items()):
                            if dv is orig:
                                self._patched.append((val, dk, orig))
                                val[dk] = wrapper

    def uninstall(self) -> None:
        for container, key, orig in reversed(self._patched):
            container[key] = orig
        self._patched.clear()

    def metrics(self, passes: int, items: list[tuple], items_per_s: float,
                untraced_items_per_s: float) -> dict:
        """Per-layer metrics, per pass of the traced loop.

        ``items`` holds (item id, kind, seconds) for every traced item.
        """
        out = {}
        for _mod, _attr, name, _before, _extra in ENTRY_POINTS:
            calls, own, _total = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls / passes, "count")
            out[f"{name}.self_s"] = (own / passes, "s")
        for name, unit in SUMMED:
            out[name] = (self.counters.get(name, 0) / passes, unit)
        for name, unit in MAXED:
            out[name] = (self.maxima.get(name, 0), unit)
        rate = self.abc_successes / self.abc_trials if self.abc_trials else 0.0
        out["classical.abc_classical.success_rate"] = (rate, "ratio")
        for name in CLI_SPANS:
            out[f"{name}.s"] = (self.stats.get(name, (0, 0.0, 0.0))[2] / passes, "s")
        own_by_item = defaultdict(float)
        wanted = {n for _kinds, names in SHARES.values() for n in names}
        for _sid, name, _s, _e, _parent, item, own in self.spans:
            if name in wanted:
                own_by_item[(item, name)] += own
        for metric, (kinds, names) in SHARES.items():
            shares = [
                sum(own_by_item[(iid, n)] for n in names) / dt
                for iid, kind, dt in items
                if kind in kinds and dt > 0
            ]
            out[metric] = (statistics.median(shares) if shares else 0.0, "ratio")
        out["trace.items_per_s"] = (items_per_s, "1/s")
        # tracing overhead: 1 is free, 0.5 halves the throughput
        out["trace.items_per_s_ratio"] = (items_per_s / untraced_items_per_s, "ratio")
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, name, start, end, parent, item, own in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "item": item, "self": own,
                }) + "\n")


def span_call(tracer, name, fn, *args, **kwargs):
    """Call fn inside a span when a tracer is active, directly otherwise."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.wrap(name, fn)(*args, **kwargs)

