"""Benchmark-side tracing of epshift's layers.

Nothing in the package is instrumented.  :func:`install` rebinds each
layer's public functions, in every epshift module that imported them, to
wrappers that time the call.  Calls into coarse layers (suites, closure,
validation, the CLI's phases) are kept as spans: name, start, end, parent
and operation id.  Hot calls (kernel, ``EpSet`` wrappers, products, ...)
would not fit in memory as spans, so they are aggregated per enclosing span
name into ``[calls, total seconds, self seconds]``.

A call's self time is its duration minus the time its traced children
cover.  Everything runs on one thread here, so children never overlap and
the online accounting is exact; :func:`self_time` applies the general
interval-union definition to spans that come from another process.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# layer modules, in dependency order; the layer of a metric is the part of
# its name before the first dot
LAYER_MODULES = ("kernel", "omega_sets", "family", "core", "classify",
                 "morphisms", "partial_maps", "grammar", "selftest", "cli")

# calls kept as spans; every other wrapped call is aggregated
SPAN_NAMES = {"family.close", "family.validate", "grammar.parse",
              "cli.main", "cli.run"}

# public functions whose metric name is not ``<module>.<function>``
RENAMED = {
    "family.omega_closure_witness": "family.validate",
    "grammar.parse_command": "grammar.parse",
    "cli.run_with_code": "cli.run",
    "core.natural_leq": "core.order",
    "core.idempotent_leq": "core.order",
}

# functions left unwrapped: pure formatting helpers and entry points that
# only dispatch to wrapped functions
SKIPPED = {"omega_sets.format_epset", "omega_sets.sort_key", "cli.parse",
           "cli.run", "cli.console_main"}

# prefixes the JSON trace a traced child appends to its stderr
TRACE_MARK = b"@@perfbench-trace "


class Tracer:
    """Span list plus per-(enclosing span, name) aggregates for one run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []   # (name, start, end, parent index or None, op id)
        self.agg = {}     # (enclosing span name, name) -> [calls, total, self]
        self.counts = Counter()
        self.op = None
        self.on = True
        # open frames: [child seconds, enclosing span index, its name]
        self._stack = [[0.0, None, "bench"]]
        self._op = self.wrap("bench.op", lambda fn, *args: fn(*args))
        self._check = self.wrap("bench.check", self._paused)

    def wrap(self, name, fn):
        """Return ``fn`` timed under ``name``; a span if ``name`` is coarse."""
        stack, clock, agg, spans = self._stack, self.clock, self.agg, self.spans
        is_span = name in SPAN_NAMES or name.startswith("selftest.") \
            or name == "bench.op"

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if is_span:
                index = len(spans)
                spans.append(None)
                frame = [0.0, index, name]
            else:
                frame = [0.0, parent[1], parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                rec = agg.get((parent[2], name))
                if rec is None:
                    rec = agg[(parent[2], name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += d
                rec[2] += d - frame[0]
                if is_span:
                    spans[index] = (name, t0, t1, parent[1], self.op)

        return traced

    def run_op(self, op_id, fn, *args):
        """Run one benchmark operation as a root ``bench.op`` span."""
        self.op = op_id
        return self._op(fn, *args)

    def check(self, fn, *args):
        """Run the benchmark's own check of an outcome, with tracing paused.

        Its whole duration is benchmark self time (``bench.check``).
        """
        return self._check(fn, *args)

    def _paused(self, fn, *args):
        self.on = False
        try:
            return fn(*args)
        finally:
            self.on = True

    def totals(self):
        """``name -> [calls, total, self]`` summed over enclosing spans."""
        out = {}
        for (_, name), (calls, total, own) in self.agg.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        return out

    def dump(self):
        """JSON-ready form, for a child process to hand to its parent."""
        return {"spans": self.spans,
                "agg": [[p, n, *rec] for (p, n), rec in self.agg.items()],
                "counts": dict(self.counts)}

    def merge(self, dumped, parent_index, op_id):
        """Add a child process's trace; its root spans hang off ``parent_index``."""
        base = len(self.spans)
        for name, t0, t1, parent, _ in dumped["spans"]:
            self.spans.append((name, t0, t1,
                               parent_index if parent is None else base + parent,
                               op_id))
        for p, n, calls, total, own in dumped["agg"]:
            rec = self.agg.setdefault((p, n), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        self.counts.update(dumped["counts"])

    def write(self, path):
        """Write the spans out as JSON lines, one per span."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children):
    """A span's duration minus the part of it that its children cover."""
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - covered([(s, e) for s, e in clipped if e > s])


def _public_functions(module):
    short = module.__name__.rsplit(".", 1)[1]
    if short == "kernel":
        # the kernel re-exports the backend's functions under its own names
        for op in ("canon", "member", "window", "shift", "intersect", "union",
                   "subset", "exists_shift_subset"):
            yield f"kernel.{op}", getattr(module, op)
        return
    for attr, value in vars(module).items():
        if (attr.startswith("_") or not callable(value) or isinstance(value, type)
                or getattr(value, "__module__", None) != module.__name__):
            continue
        qual = f"{short}.{attr}"
        if qual not in SKIPPED:
            yield qual, value


def _counting(tracer, qual, fn):
    """The function to time under ``qual``, with the layer's own counters."""
    from epshift.errors import ClosureDiverged

    counts = tracer.counts
    if qual == "family.close":
        def close(*args, **kwargs):
            try:
                fam = fn(*args, **kwargs)
            except ClosureDiverged:
                counts["family.diverged"] += 1
                raise
            counts["family.members_out"] += len(fam)
            return fam
        return close
    if qual == "core.mul":
        def mul(ctx, a, b):
            # the product cache is consulted only when both factors are nonzero
            before = len(ctx._prod_cache)
            out = fn(ctx, a, b)
            if a.fset is not None and b.fset is not None:
                counts["core.cache_lookups"] += 1
                counts["core.cache_misses"] += len(ctx._prod_cache) - before
            return out
        return mul
    return fn


def install(tracer):
    """Rebind every layer's public functions, wherever they were imported.

    Also wraps ``SemigroupCtx.mul`` and the suites in ``selftest.SUITES``.
    Returns a callable that restores the original bindings.
    """
    modules = {m: importlib.import_module(f"epshift.{m}") for m in LAYER_MODULES}
    core, selftest = modules["core"], modules["selftest"]
    wrappers = {}  # id(original) -> (original, wrapper)
    for short, module in modules.items():
        if short == "selftest":
            continue  # its draws count as its own time; suites are wrapped below
        for qual, fn in _public_functions(module):
            inner = _counting(tracer, qual, fn)
            wrappers[id(fn)] = (fn, tracer.wrap(RENAMED.get(qual, qual), inner))
    undo = []
    for module in [*modules.values(), importlib.import_module("epshift")]:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))

    ctx_cls = core.SemigroupCtx
    plain_mul = ctx_cls.mul
    ctx_cls.mul = tracer.wrap("core.mul", _counting(tracer, "core.mul", plain_mul))
    suites = dict(selftest.SUITES)
    for name, fn in suites.items():
        selftest.SUITES[name] = tracer.wrap(f"selftest.{name}", fn)

    def restore():
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)
        ctx_cls.mul = plain_mul
        selftest.SUITES.update(suites)

    return restore
