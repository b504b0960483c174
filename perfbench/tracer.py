"""Per-layer tracing for the traced benchmark run.

The layers are the ``fuzzdyn`` modules.  :func:`install` wraps every public
module-level function and every public method of every class each layer
defines, then rebinds each wrapped function under every name that refers to
it in any ``fuzzdyn`` module: ``from x import y`` binds early, so
``theorems.lift_system`` must be patched where it is bound, not only in
``hyperspace``.  Nothing under ``src/`` is changed; the wrappers live only
in the traced child process.

Every wrapped call adds to its layer's self time (its duration minus the
time spent in nested wrapped calls) and to a per-function call count.
Coarse calls (commands, theorem runs, lift and product builds, checkers,
report emission) also record a span with name, start, end, parent span and
operation index.  Hot calls that run millions of times (distances,
membership, cuts, labels, opens) record only counters, so trace memory
stays bounded.  Generator functions are counted, not timed: their body runs
in the consumer's frame.
"""

from __future__ import annotations

import gc
import inspect
import sys
import time
from collections import Counter, defaultdict

#: the package modules, one layer each
LAYERS = ("spaces", "symbolic", "hyperspace", "fuzzy", "families",
          "analysis", "theorems", "serialize", "cli", "catalog")

#: calls that record a span; everything else records counters only
SPAN_CALLS = frozenset({
    "cli.main", "cli.cmd_verify", "cli.cmd_check",
    "theorems.verify_theorem",
    "spaces.product_system", "hyperspace.lift_system",
    "fuzzy.fuzzy_lift_system", "hyperspace.hyperspace_displacement_curve",
    "analysis.is_transitive", "analysis.is_weakly_mixing",
    "analysis.is_mixing", "analysis.is_F_transitive",
    "analysis.is_a_transitive", "analysis.weakly_disjoint",
    "analysis.is_mildly_mixing_bounded", "analysis.equicontinuity_modulus",
    "analysis.is_uniformly_rigid", "analysis.is_proximal",
    "analysis.diam_decay", "analysis.is_sensitive",
    "analysis.is_periodically_dense", "analysis.displacement_curve",
    "serialize.write_atomic",
})

#: inclusive timers: calls of one kind, timed at the outermost call only
KINDS = {
    "spaces.MetricSpace.d": "spaces.distance_s",
    "spaces.MetricSpace.d_by_index": "spaces.distance_s",
    "spaces.SystemMap.eventual_period": "spaces.eventual_period_s",
    "spaces.product_system": "spaces.product_build_s",
    "hyperspace.lift_system": "hyperspace.lift_build_s",
    "hyperspace.hyperspace_displacement_curve": "hyperspace.displacement_s",
    "fuzzy.fuzzy_lift_system": "fuzzy.lift_build_s",
    "fuzzy.g_fuzzify_apply": "fuzzy.step_s",
    "fuzzy.zadeh_apply": "fuzzy.step_s",
    "analysis.TableDyn.return_membership": "analysis.membership_s",
    "analysis.ShiftDyn.return_membership": "analysis.membership_s",
    "analysis.ProductDyn.return_membership": "analysis.membership_s",
    "analysis.HyperShiftDyn.return_membership": "analysis.membership_s",
}

#: call counters summed into per-layer metrics
CALL_COUNTERS = {
    "spaces.d_calls": ("spaces.MetricSpace.d_by_index",),
    "spaces.point_label_calls": ("spaces.point_label",),
    "analysis.opens_built": ("analysis.points_open",),
    "analysis.membership_calls": (
        "analysis.TableDyn.return_membership",
        "analysis.ShiftDyn.return_membership",
        "analysis.ProductDyn.return_membership",
        "analysis.HyperShiftDyn.return_membership"),
    "symbolic.membership_calls": ("symbolic.ShiftSystem.return_membership",),
    "families.classify_calls": (
        "families.FamilyClassifier.classify", "families.classify_syndetic",
        "families.classify_thick", "families.classify_cofinite",
        "families.classify_infinite"),
    "fuzzy.steps": ("fuzzy.g_fuzzify_apply", "fuzzy.zadeh_apply"),
    "fuzzy.alpha_cuts": ("fuzzy.alpha_cut",),
}

#: spans kept in memory at most; later ones are counted as dropped
SPAN_CAP = 200_000


class Tracer:
    """Counters, self times and spans of one traced child process."""

    def __init__(self):
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.kind_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op = -1
        self._stack: list[float] = []
        self._span_stack: list[int] = []
        self._next_span = 0
        self._depth: Counter[str] = Counter()
        self._gc_start = 0.0

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn, layer: str, qual: str, after=None):
        """A timed wrapper for ``fn``; ``after(args, kwargs, result)`` adds
        counters once a call returns."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, qual, after)
        stack = self._stack
        busy = self.busy
        calls = self.calls
        clock = time.perf_counter
        kind = KINDS.get(qual)
        span = qual in SPAN_CALLS

        def enter():
            if kind is not None:
                self._depth[kind] += 1
            if span:
                self._span_stack.append(self._next_span)
                self._next_span += 1

        def leave(t0, t1):
            if kind is not None:
                self._depth[kind] -= 1
                if not self._depth[kind]:
                    self.kind_s[kind] += t1 - t0
            if span:
                sid = self._span_stack.pop()
                parent = self._span_stack[-1] if self._span_stack else None
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, parent, qual, t0, t1, self.op))
                else:
                    self.dropped_spans += 1

        plain = kind is None and not span

        def wrapper(*args, **kwargs):
            if not plain:
                enter()
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                busy[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                calls[qual] += 1
                if not plain:
                    leave(t0, t1)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, qual, after):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[qual] += 1
            first = True
            for item in fn(*args, **kwargs):
                if first and after is not None:
                    after(args, kwargs, None)
                first = False
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- garbage collector -------------------------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["python.gc_collections"] += 1
            self.kind_s["python.gc_s"] += time.perf_counter() - self._gc_start

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = self.busy.get(layer, 0.0)
        for kind in set(KINDS.values()) | {"python.gc_s"}:
            out[kind] = self.kind_s.get(kind, 0.0)
        for name, quals in CALL_COUNTERS.items():
            out[name] = sum(self.calls[q] for q in quals)
        for name in ("spaces.points_indexed", "spaces.product_states",
                     "hyperspace.lift_states", "fuzzy.lift_states",
                     "fuzzy.enumerated_states", "serialize.bytes_written",
                     "theorems.items", "python.gc_collections"):
            out[name] = self.counts.get(name, 0)
        queries = out["analysis.membership_calls"]
        out["symbolic.calls_per_query"] = (
            out["symbolic.membership_calls"] / queries if queries else 0.0)
        return out

    def span_records(self):
        for sid, parent, name, t0, t1, op in self.spans:
            yield {"id": sid, "parent": parent, "name": name, "start": t0,
                   "end": t1, "op": op}


def _layer_of(module_name: str) -> str | None:
    head, _, tail = module_name.partition(".")
    if head != "fuzzdyn" or tail not in LAYERS:
        return None
    return tail


def _counter_hooks(tracer: Tracer, fuzzy_mod) -> dict:
    """``after`` hooks that turn call arguments and results into counts."""
    counts = tracer.counts
    enumeration_cost = fuzzy_mod.enumeration_cost  # the unwrapped function

    def add(name, value):
        counts[name] += value

    def states(name):
        return lambda args, kwargs, result: add(name, len(result.space.points))

    def fuzzy_visited(args, kwargs, result):
        constraint = args[2] if len(args) > 2 else kwargs.get("constraint")
        space = args[0].space if hasattr(args[0], "space") else args[0]
        add("fuzzy.enumerated_states",
            enumeration_cost(len(space.points), args[1], constraint))

    def lift_built(args, kwargs, result):
        add("fuzzy.lift_states", len(result.space.points))
        fuzzy_visited(args, kwargs, result)

    return {
        "spaces.MetricSpace.__init__": lambda args, kwargs, result: add(
            "spaces.points_indexed", len(args[0].points)),
        "spaces.product_system": states("spaces.product_states"),
        "hyperspace.lift_system": states("hyperspace.lift_states"),
        "fuzzy.fuzzy_lift_system": lift_built,
        "fuzzy.enumerate_fuzzy": fuzzy_visited,
        "serialize.write_atomic": lambda args, kwargs, result: add(
            "serialize.bytes_written", len(args[1].encode())),
        "theorems.verify_theorem": lambda args, kwargs, result: add(
            "theorems.items", len(result.items)),
    }


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every loaded ``fuzzdyn`` module."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "fuzzdyn" or name.startswith("fuzzdyn.")}
    hooks = _counter_hooks(tracer, modules["fuzzdyn.fuzzy"])
    replaced: dict = {}
    for name, mod in modules.items():
        layer = _layer_of(name)
        if layer is None:
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                continue
            if inspect.isfunction(obj):
                qual = f"{layer}.{attr}"
                replaced[obj] = tracer.wrap(obj, layer, qual, hooks.get(qual))
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    qual = f"{layer}.{attr}.{meth}"
                    if not inspect.isfunction(fn):
                        continue
                    if meth.startswith("_") and qual not in hooks:
                        continue
                    setattr(obj, meth,
                            tracer.wrap(fn, layer, qual, hooks.get(qual)))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    gc.callbacks.append(tracer._on_gc)
