"""Spans and counters recorded around calls into the library's modules.

A traced run replaces module attributes that callers look up at call time
(for example ``aliquot.count_points_naive`` or ``harness.isprime``) with
wrappers that record one span per call: a name, start, end, parent span
and iteration id.  Spans are kept in memory in flat arrays and written out
when the run ends.  Nothing in the library itself changes.

Span names are ``<layer>.<function>``; the layer is the library module
(``arith``, ``curves_mod_p``, ``eisenstein``, ``aliquot``, ``cm_density``,
``constructor``, ``harness``, ``cli``), ``isprime`` for the external sympy
primality test, or ``bench`` for the benchmark's own code.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array

from ecaliquot import (
    aliquot,
    arith,
    cli,
    cm_density,
    constructor,
    curves_mod_p,
    eisenstein,
    harness,
)

LAYERS = (
    "arith",
    "curves_mod_p",
    "eisenstein",
    "aliquot",
    "cm_density",
    "constructor",
    "harness",
    "cli",
    "isprime",
    "bench",
)

_MODULES = {
    "arith": arith,
    "curves_mod_p": curves_mod_p,
    "eisenstein": eisenstein,
    "aliquot": aliquot,
    "cm_density": cm_density,
    "constructor": constructor,
    "harness": harness,
    "cli": cli,
}

# Span name -> the (module, attribute) pairs through which callers reach
# the function.  A function imported into several modules is wrapped in
# each, so every call site is seen exactly once.
SPANNED = {
    "arith.primes_in_range": (
        ("harness", "primes_in_range"),
        ("aliquot", "primes_in_range"),
        ("cli", "primes_in_range"),
    ),
    "curves_mod_p.count_points.naive": (
        ("curves_mod_p", "count_points_naive"),
        ("aliquot", "count_points_naive"),
        ("constructor", "count_points_naive"),
    ),
    "curves_mod_p.count_points.cm": (
        ("curves_mod_p", "count_points_cm_j0"),
        ("aliquot", "count_points_cm_j0"),
    ),
    "curves_mod_p.reduce_curve": (
        ("curves_mod_p", "reduce_curve"),
        ("aliquot", "reduce_curve"),
    ),
    "eisenstein.primary_split": (
        ("curves_mod_p", "primary_split"),
        ("aliquot", "primary_split"),
        ("eisenstein", "primary_split"),
    ),
    "eisenstein.sextic_symbol": (
        ("curves_mod_p", "sextic_symbol"),
        ("aliquot", "sextic_symbol"),
        ("cm_density", "sextic_symbol"),
        ("eisenstein", "sextic_symbol"),
    ),
    "aliquot.classify_type1": (("harness", "classify_type1"),),
    "aliquot.verify_cycle": (
        ("aliquot", "verify_cycle"),
        ("constructor", "verify_cycle"),
        ("cli", "verify_cycle"),
    ),
    "aliquot.aliquot_cycles_up_to": (
        ("aliquot", "aliquot_cycles_up_to"),
        ("cli", "aliquot_cycles_up_to"),
    ),
    "cm_density.m_counts": (("cm_density", "m_counts"), ("cli", "m_counts")),
    "cm_density.c6_count_bruteforce": (
        ("cm_density", "c6_count_bruteforce"),
        ("cli", "c6_count_bruteforce"),
    ),
    "cm_density.c6_count_trace": (
        ("cm_density", "c6_count_trace"),
        ("cli", "c6_count_trace"),
    ),
    "cm_density.class_witness_sextic": (("cli", "class_witness_sextic"),),
    "cm_density.class_witness_cubic": (("cli", "class_witness_cubic"),),
    "constructor.build_cycle_curve": (
        ("constructor", "build_cycle_curve"),
        ("cli", "build_cycle_curve"),
    ),
    "constructor.curve_with_order": (("constructor", "curve_with_order"),),
    "harness.run_pair_sweep": (
        ("harness", "run_pair_sweep"),
        ("cli", "run_pair_sweep"),
    ),
    "harness.run_density_report": (
        ("harness", "run_density_report"),
        ("cli", "run_density_report"),
    ),
    "harness.segment": (("harness", "_sweep_segment"),),
    "harness.load_checkpoint": (("harness", "_load_checkpoint"),),
}

# sympy's isprime, counted per calling module.
ISPRIME_CALLERS = ("harness", "aliquot", "curves_mod_p", "eisenstein", "constructor")

# BSGS spans are binned by the decade of p: (upper bound, label).
BSGS_BINS = ((10**3, "lt1e3"), (10**4, "1e3"), (10**5, "1e4"), (10**6, "1e5"), (None, "ge1e6"))


class Tracer:
    """In-memory span store plus named call counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("I")
        self.parent = array("i")
        self.iteration = array("I")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_iteration = 0
        self.counters: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def counter(self, name: str) -> list[int]:
        """A one-element cell that call sites increment in place."""
        return self.counters.setdefault(name, [0])

    def take_counters(self) -> dict[str, int]:
        """Current counter values; every counter restarts at zero."""
        out = {}
        for name, cell in self.counters.items():
            out[name] = cell[0]
            cell[0] = 0
        return out

    def _traced(self, fn, nid: int | None = None, choose=None):
        """fn wrapped to run inside a span.

        The span is named by nid, or by choose(args) when nid is None;
        choose runs before the span opens, so its cost is charged to the
        caller.
        """
        names, parents, iters = self.name, self.parent, self.iteration
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid if choose is None else choose(args))
            parents.append(stack[-1])
            iters.append(tracer.current_iteration)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def wrap(self, name: str, fn):
        return self._traced(fn, nid=self.name_id(name))

    def wrap_bsgs(self, fn):
        """Span each BSGS count under the decade bin of its prime."""
        ids = [
            (bound, self.name_id(f"curves_mod_p.count_points.bsgs.{label}"))
            for bound, label in BSGS_BINS
        ]

        def choose(args):
            p = args[0].p
            for bound, nid in ids:
                if bound is None or p < bound:
                    return nid

        return self._traced(fn, choose=choose)

    def count_calls(self, name: str, fn):
        """Count calls without a span, for functions too hot to time."""
        cell = self.counter(name)

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Put the tracer's wrappers in place; returns what uninstall needs."""
    saved: list[tuple[object, str, object]] = []

    def replace(module, attr: str, value) -> None:
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    for name, sites in SPANNED.items():
        for mod_name, attr in sites:
            module = _MODULES[mod_name]
            replace(module, attr, tracer.wrap(name, getattr(module, attr)))
    for mod_name in ISPRIME_CALLERS:
        module = _MODULES[mod_name]
        replace(module, "isprime", tracer.wrap(f"isprime.{mod_name}", module.isprime))
    for command_name, command in cli.main.commands.items():
        replace(command, "callback", tracer.wrap(f"cli.{command_name}", command.callback))
    replace(curves_mod_p, "count_points_bsgs", tracer.wrap_bsgs(curves_mod_p.count_points_bsgs))
    replace(curves_mod_p, "ec_add", tracer.count_calls("curves_mod_p.ec_add", curves_mod_p.ec_add))

    # The memo every sweep counts through: lookups, and lookups that missed.
    base_counter = aliquot._Counter
    base_call = base_counter.__call__
    lookups = tracer.counter("aliquot.counter.lookups")
    misses = tracer.counter("aliquot.counter.misses")

    def counted_call(self, p):
        lookups[0] += 1
        if p not in self.memo:
            misses[0] += 1
        return base_call(self, p)

    counting = type("_Counter", (base_counter,), {"__call__": counted_call})
    replace(harness, "_Counter", counting)
    replace(aliquot, "_Counter", counting)

    base_writer = harness._CheckpointWriter
    append = tracer.wrap("harness.checkpoint.append", base_writer.append)
    replace(harness, "_CheckpointWriter", type("_CheckpointWriter", (base_writer,), {"append": append}))
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(parent, start, end) -> array:
    """Each span's duration minus the part of it that its children cover.

    Spans must be listed in order of start time, as the tracer records
    them, so that every parent precedes its children.  Overlapping
    children are merged, and children are clipped to the parent.
    """
    n = len(start)
    covered = array("d", [0.0]) * n
    reach = array("d", start)  # how far the merged child intervals extend
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


def aggregate(tracer: Tracer) -> dict[int, dict]:
    """Per-iteration totals of the recorded spans.

    For each iteration id: ``names`` maps span name -> [calls, inclusive
    seconds, self seconds]; ``layers`` maps layer -> [calls, seconds,
    self seconds], where a layer's seconds count only its outermost spans
    so that nested spans of one layer are not counted twice; ``segments``
    lists the durations of the harness segment spans.
    """
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    names = tracer.names
    layers = [layer_of(name) for name in names]
    bits = [1 << LAYERS.index(layer) for layer in layers]
    segment_id = tracer._ids.get("harness.segment")
    masks = array("H", [0]) * len(selfs)  # layers open around each span
    out: dict[int, dict] = {}
    for i, (nid, p, it, s, e) in enumerate(
        zip(tracer.name, tracer.parent, tracer.iteration, tracer.start, tracer.end)
    ):
        agg = out.get(it)
        if agg is None:
            agg = out[it] = {"names": {}, "layers": {}, "segments": []}
        above = masks[p] if p >= 0 else 0
        bit = bits[nid]
        masks[i] = above | bit
        dur = e - s
        row = agg["names"].setdefault(names[nid], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += selfs[i]
        layer = agg["layers"].setdefault(layers[nid], [0, 0.0, 0.0])
        layer[0] += 1
        if not above & bit:
            layer[1] += dur
        layer[2] += selfs[i]
        if nid == segment_id:
            agg["segments"].append(dur)
    return out


def write(tracer: Tracer, path, header: dict) -> None:
    """Write every span as gzip-compressed text.

    The first line is a JSON header holding ``names`` (the span name
    table) and the caller's fields; each further line is
    ``name_id,parent,iteration,start_ns,end_ns`` with times in
    nanoseconds from the first span's start and parent -1 for a root.
    """
    t0 = tracer.start[0] if len(tracer) else 0.0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({**header, "names": tracer.names}) + "\n")
        fh.writelines(
            f"{nid},{p},{it},{round((s - t0) * 1e9)},{round((e - t0) * 1e9)}\n"
            for nid, p, it, s, e in zip(
                tracer.name, tracer.parent, tracer.iteration, tracer.start, tracer.end
            )
        )
