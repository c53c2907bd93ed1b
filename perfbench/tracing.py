"""Span tracing of the handlebody package from outside it.

``Tracer.install()`` replaces each traced function or method with a
wrapper at every attribute of a ``handlebody`` module that refers to it,
so a call is recorded whichever import path it takes (``handlebody.homs.
pack_words`` and ``handlebody.kernel_orbit.pack_words`` are one target).
Nothing under ``src/`` changes.  A target the package no longer has is
reported as missing instead of failing the run, so the benchmark keeps
working when a refactor deletes or renames a layer.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples;
``parent`` is the index of the enclosing span (-1 for none) and ``op`` the
id of the benchmark op that caused it (``SETUP`` during set-up).  Wrappers
record nothing while no op or set-up is open, so the benchmark's own
answer checks stay out of the trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

SETUP = -1

# (layer, "module:qualname", observe).  ``observe(args, kwargs, result)``
# returns values counted at the same boundary as the span.
TARGETS = (
    ("orbit.generate", "handlebody.orbit:generate_c0",
     lambda a, k, r: {"orbit.words": len(r)}),
    ("orbit.scan_order", "handlebody.orbit:OrbitSet.__iter__", None),
    ("backend.pack", "handlebody.backend:pack_words", None),
    ("backend.find_identity", "handlebody.backend:Backend.find_identity_word",
     None),
    ("backend.evaluate_words", "handlebody.backend:Backend.evaluate_words",
     None),
    ("homs.witness", "handlebody.homs:handlebody_witness", None),
    ("homs.batch", "handlebody.homs:batch_pair_witnesses",
     lambda a, k, r: {"homs.batch_pairs": len(r),
                      "homs.batch_resolved": int((r >= 0).sum())}),
    ("homs.partner_pairs", "handlebody.homs:partner_pairs",
     lambda a, k, r: {"homs.partner_pairs_found": len(r)}),
    ("homs.epimorphism", "handlebody.homs:Epimorphism.__init__", None),
    ("homs.evaluate", "handlebody.homs:evaluate", None),
    ("homs.quadruple", "handlebody.homs:quadruple_search", None),
    ("kernel_orbit.bfs", "handlebody.kernel_orbit:kernel_orbit",
     lambda a, k, r: {"kernel_orbit.classes": len(r[0])}),
    ("kernel_orbit.precompose", "handlebody.kernel_orbit:precompose", None),
    ("kernel_orbit.intersection",
     "handlebody.kernel_orbit:intersection_avoids_c0",
     lambda a, k, r: {"kernel_orbit.survivors_last": r.survivors[-1]}),
    ("kernel_orbit.fiber", "handlebody.kernel_orbit:fiber_group_order",
     lambda a, k, r: {"kernel_orbit.fiber_capped": int(r is None)}),
    ("groups.coset_enumerate", "handlebody.groups:coset_enumerate", None),
    ("groups.automorphisms", "handlebody.groups:automorphisms",
     lambda a, k, r: {"groups.automorphisms_found": len(r)}),
    ("groups.aut_perms", "handlebody.groups:automorphism_permutations", None),
    ("groups.subgroup_closure",
     "handlebody.groups:FiniteGroup.subgroup_closure", None),
    ("groups.pair_orbit_count", "handlebody.groups:pair_orbit_count", None),
    ("bogomolov.b0_status", "handlebody.bogomolov:b0_status",
     lambda a, k, r: {"bogomolov.unknown": int(r.value == "Unknown")}),
    ("config.load", "handlebody.config:load_config", None),
    ("cli.orbit", "handlebody.cli:cmd_orbit", None),
    ("cli.check", "handlebody.cli:cmd_check", None),
    ("cli.table1", "handlebody.cli:cmd_table1", None),
    ("cli.counts", "handlebody.cli:cmd_counts", None),
    ("cli.quadruple", "handlebody.cli:cmd_quadruple", None),
    ("cli.kernel_orbit", "handlebody.cli:cmd_kernel_orbit", None),
    ("cli.self", "handlebody.cli:main", None),
)

KERNEL_CLASS_CAP = 10000  # kernel_orbit's default class_cap


def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [end - start - covered(children.get(i, ()), start, end)
            for i, (name, start, end, parent, op) in enumerate(spans)]


def _resolve(spec):
    """(owner, attribute, original) for "module:qualname"; raises
    ImportError or AttributeError when the package lacks the target."""
    module_name, _, qualname = spec.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self.observed = []      # (op, {counter: value})
        self.missing = set()    # layers the package does not have
        self.broken = set()     # layers whose return value could not be read
        self.op = None
        self._stack = []
        self._patches = []

    # -- installation ----------------------------------------------------

    def install(self, targets=TARGETS):
        for layer, spec, observe in targets:
            try:
                owner, attr, original = _resolve(spec)
            except (ImportError, AttributeError):
                self.missing.add(layer)
                continue
            wrapper = self._wrap(layer, original, observe)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module_name, module in list(sys.modules.items()):
                if module_name != "handlebody" and \
                        not module_name.startswith("handlebody."):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if observe is not None:
                try:
                    tracer.observed.append((tracer.op,
                                            observe(args, kwargs, result)))
                except (AttributeError, TypeError, IndexError, KeyError):
                    tracer.broken.add(layer)
            return result
        return wrapper

    # -- spans -------------------------------------------------------------

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self.op))
        self._stack.append(sid)
        return sid

    def close(self, sid):
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, op = self.spans[sid]
        self.spans[sid] = (name, start, end, parent, op)

    def begin(self, op):
        """Open the root span of an op (or of set-up, ``op=SETUP``)."""
        self.op = op
        return self.open("op" if op != SETUP else "setup")

    def end(self, sid):
        self.close(sid)
        self.op = None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


# -- per-layer metrics ------------------------------------------------------

def _self_s(layer):
    return (layer + "_s", "s", layer, lambda a: a.self_per_op(layer))


def _calls(layer):
    return (layer + "_calls", "count", layer, lambda a: a.calls_per_op(layer))


def _mean(name, layer, counter=None):
    return (name, "count", layer, lambda a: a.mean(counter or name))


def _ratio(name, layer, num, den=None):
    return (name, "ratio", layer, lambda a: a.ratio(num, den))


def _setup_s(layer):
    return ("setup." + layer + "_s", "s", layer,
            lambda a: a.setup_self(layer))


# (metric, unit, layer it depends on or None, value from an Aggregate).
PER_LAYER = (
    _self_s("orbit.generate"), _mean("orbit.words", "orbit.generate"),
    _self_s("orbit.scan_order"), _calls("orbit.scan_order"),
    _self_s("backend.pack"), _calls("backend.pack"),
    _self_s("backend.find_identity"), _calls("backend.find_identity"),
    _self_s("backend.evaluate_words"), _calls("backend.evaluate_words"),
    _self_s("homs.witness"),
    ("homs.witness_index_max", "count", None,
     lambda a: max(a.witness_indices, default=0)),
    ("homs.witness_index_mean", "count", None,
     lambda a: (sum(a.witness_indices) / len(a.witness_indices)
                if a.witness_indices else 0.0)),
    _self_s("homs.batch"), _mean("homs.batch_pairs", "homs.batch"),
    _ratio("homs.batch_resolved_ratio", "homs.batch",
           "homs.batch_resolved", "homs.batch_pairs"),
    _self_s("homs.partner_pairs"),
    _mean("homs.partner_pairs_found", "homs.partner_pairs"),
    _self_s("homs.epimorphism"), _calls("homs.epimorphism"),
    _self_s("homs.evaluate"), _calls("homs.evaluate"),
    _self_s("homs.quadruple"),
    _self_s("kernel_orbit.bfs"), _mean("kernel_orbit.classes",
                                       "kernel_orbit.bfs"),
    ("kernel_orbit.class_cap_headroom", "ratio", "kernel_orbit.bfs",
     lambda a: a.mean("kernel_orbit.classes") / KERNEL_CLASS_CAP),
    _self_s("kernel_orbit.precompose"), _calls("kernel_orbit.precompose"),
    _self_s("kernel_orbit.intersection"),
    _mean("kernel_orbit.survivors_last", "kernel_orbit.intersection"),
    _self_s("kernel_orbit.fiber"),
    _ratio("kernel_orbit.fiber_capped_ratio", "kernel_orbit.fiber",
           "kernel_orbit.fiber_capped"),
    _self_s("groups.coset_enumerate"), _calls("groups.coset_enumerate"),
    _self_s("groups.automorphisms"),
    _mean("groups.automorphisms_found", "groups.automorphisms"),
    _self_s("groups.aut_perms"),
    _self_s("groups.subgroup_closure"), _calls("groups.subgroup_closure"),
    _self_s("groups.pair_orbit_count"),
    _self_s("bogomolov.b0_status"),
    _ratio("bogomolov.unknown_ratio", "bogomolov.b0_status",
           "bogomolov.unknown"),
    _self_s("config.load"),
    _self_s("cli.orbit"), _self_s("cli.check"), _self_s("cli.table1"),
    _self_s("cli.counts"), _self_s("cli.quadruple"),
    _self_s("cli.kernel_orbit"), _self_s("cli.self"),
    ("op.self_s", "s", None, lambda a: a.self_per_op("op")),
    _setup_s("orbit.generate"), _setup_s("homs.partner_pairs"),
    _setup_s("groups.coset_enumerate"), _setup_s("homs.epimorphism"),
    ("setup.self_s", "s", None, lambda a: a.setup_self("setup")),
    ("trace.ops_per_s", "ops/s", None, lambda a: a.ops_per_s),
    ("trace.spans_per_op", "count", None,
     lambda a: sum(1 for s in a.spans if s[4] is not None and s[4] >= 0)
     / a.ops),
)


class Aggregate:
    """Per-layer sums over a finished traced run."""

    def __init__(self, tracer, ops, wall, witness_indices=()):
        self.spans = tracer.spans
        self.ops = max(ops, 1)
        self.ops_per_s = ops / wall if wall > 0 else 0.0
        self.witness_indices = list(witness_indices)
        self.op_self = {}
        self.op_calls = {}
        self.setup_selfs = {}
        for (name, start, end, parent, op), own in zip(
                self.spans, self_times(self.spans)):
            if op == SETUP:
                self.setup_selfs[name] = self.setup_selfs.get(name, 0.0) + own
            elif op is not None:
                self.op_self[name] = self.op_self.get(name, 0.0) + own
                self.op_calls[name] = self.op_calls.get(name, 0) + 1
        self.counters = {}
        for op, values in tracer.observed:
            for key, value in values.items():
                self.counters.setdefault(key, []).append(value)

    def self_per_op(self, name):
        return self.op_self.get(name, 0.0) / self.ops

    def calls_per_op(self, name):
        return self.op_calls.get(name, 0) / self.ops

    def setup_self(self, name):
        return self.setup_selfs.get(name, 0.0)

    def mean(self, counter):
        values = self.counters.get(counter, ())
        return sum(values) / len(values) if values else 0.0

    def ratio(self, num, den=None):
        values = self.counters.get(num, ())
        total = (sum(self.counters.get(den, ())) if den is not None
                 else len(values))
        return sum(values) / total if total else 0.0


def per_layer_metrics(tracer, ops, wall, witness_indices=()):
    """{metric: (value, unit)} plus the sorted names reported as missing
    (the package lacks the layer, or its return value changed shape)."""
    agg = Aggregate(tracer, ops, wall, witness_indices)
    unavailable = tracer.missing | tracer.broken
    metrics, missing = {}, []
    for name, unit, layer, value in PER_LAYER:
        if layer in unavailable:
            missing.append(name)
            metrics[name] = (0.0, unit)
        else:
            metrics[name] = (float(value(agg)), unit)
    return metrics, sorted(missing)
