"""Span tracer for the benchmark's traced run.

The tracer wraps stdrefine's public functions from outside the program: it
replaces each function at every stdrefine module that holds it (the defining
module and each module that imported the name), plus the `Machine.step` and
`TraceSet.sequences` methods.  Each wrapped call records a span (name, start,
end, parent, operation); spans stay in memory until the run ends, when
`layer_metrics` turns them into per-layer counts and times.

A span's self time is its duration minus the time covered by its child spans,
so the self times of all spans under one operation add up to the duration of
that operation's root span.
"""

from __future__ import annotations

import collections
import sys
import weakref
from time import perf_counter

#: (defining module, function name, span name) for every timed function.
SPANS = (
    ("stdrefine.textlang", "parse_std", "textlang.parse"),
    ("stdrefine.textlang", "parse_env", "textlang.parse"),
    ("stdrefine.textlang", "parse_feature", "textlang.parse"),
    ("stdrefine.textlang", "parse_messages", "textlang.parse"),
    ("stdrefine.textlang", "print_std", "textlang.print"),
    ("stdrefine.textlang", "print_env", "textlang.print"),
    ("stdrefine.textlang", "print_feature", "textlang.print"),
    ("stdrefine.textlang", "export_dot", "textlang.print"),
    ("stdrefine.textlang", "std_to_json", "textlang.print"),
    ("stdrefine.cli", "main", "cli.main"),
    ("stdrefine.model", "desugar", "model.desugar"),
    ("stdrefine.model", "bind_environment", "model.bind_environment"),
    ("stdrefine.model", "validate_std", "model.validate_std"),
    ("stdrefine.model", "enabled_transitions", "model.enabled_transitions"),
    ("stdrefine.model", "reachable_configurations", "model.reachable_configurations"),
    ("stdrefine.interp", "traces", "interp.traces"),
    ("stdrefine.interp", "machine_traces", "interp.machine_traces"),
    ("stdrefine.interp", "check_monotone", "interp.check_monotone"),
    ("stdrefine.interp", "simulate", "interp.simulate"),
    ("stdrefine.interp", "simulate_prefixes", "interp.simulate"),
    ("stdrefine.refine", "check_refinement", "refine.check_refinement"),
    ("stdrefine.refine", "trace_inclusion", "refine.trace_inclusion"),
    ("stdrefine.refine", "trace_equivalence", "refine.trace_equivalence"),
    ("stdrefine.features", "apply_feature", "features.apply_feature"),
    ("stdrefine.features", "detect_conflict", "features.detect_conflict"),
)

RULE_KINDS = (
    "add-states",
    "remove-states",
    "split-state",
    "add-transitions",
    "remove-transitions",
    "remove-initial-states",
)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.child: list[float] = []  # time covered by direct children
        self.nested: list[bool] = []  # inside another span of the same name
        self.counts: collections.Counter[str] = collections.Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._active: collections.Counter[str] = collections.Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.nested.append(self._active[name] > 0)
        self._active[name] += 1
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        self._active[self.names[idx]] -= 1
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += t - self.start[idx]

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    # -- patching -----------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, home: str, attr: str, make) -> None:
        original = getattr(sys.modules[home], attr, None)
        if original is None:  # the function is gone; its metrics read zero
            return
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "stdrefine" and getattr(module, attr, None) is original:
                self._replace(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function; `uninstall` restores the originals."""
        import stdrefine.cli  # noqa: F401  (make sure every module is loaded)
        from stdrefine import interp, refine

        for home, attr, span in SPANS:
            self._replace_everywhere(home, attr, lambda fn, span=span: self._timed(span, fn))
        self._replace_everywhere("stdrefine.model", "eval_expr", self._counted)
        self._replace_everywhere("stdrefine.refine", "apply_rule", self._apply_rule)
        self._replace(interp.Machine, "step", self._step(interp.Machine.step))
        self._replace(interp.TraceSet, "sequences",
                      self._timed("refine.sequences", interp.TraceSet.sequences))
        self._rule_error = refine.RuleError
        self._rule_name = refine.rule_name

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------------

    def _timed(self, span: str, fn):
        enter, exit_, counts = self.enter, self.exit, self.counts

        def timed(*args, **kwargs):
            if span == "interp.traces" and self.active("features.detect_conflict"):
                counts["features.conflict_traces"] += 1
            idx = enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if span == "interp.machine_traces":
                counts["interp.traces.entries"] += len(result.entries)
            return result

        return timed

    def _counted(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["model.eval_expr.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _apply_rule(self, fn):
        def apply_rule(std, app, *args, **kwargs):
            kind = self._rule_name(app)
            idx = self.enter(f"refine.apply_rule.{kind}")
            try:
                result = fn(std, app, *args, **kwargs)
            except self._rule_error:
                self.counts[f"refine.apply_rule.{kind}.rejected"] += 1
                raise
            finally:
                self.exit(idx)
            self.counts[f"refine.apply_rule.{kind}.applied"] += 1
            return result

        return apply_rule

    def _step(self, fn):
        """Count calls; a (config, message) key not seen before on this
        machine is a miss and gets a span, a repeated key is a hit."""
        seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        counts = self.counts

        def step(machine, config, message):
            counts["interp.step.calls"] += 1
            keys = seen.get(machine)
            if keys is None:
                keys = seen[machine] = set()
            key = (config, message)
            if key in keys:
                return fn(machine, config, message)
            keys.add(key)
            counts["interp.step.misses"] += 1
            idx = self.enter("interp.step.miss")
            try:
                return fn(machine, config, message)
            finally:
                self.exit(idx)

        return step

    # -- reporting ----------------------------------------------------------

    def self_sum_residual(self) -> float:
        """Largest gap, over operations, between the sum of the self times of
        the spans under an operation and the duration of its root span."""
        self_sum: collections.Counter[int] = collections.Counter()
        root: dict[int, float] = {}
        for i, op in enumerate(self.op):
            duration = self.end[i] - self.start[i]
            self_sum[op] += duration - self.child[i]
            if self.parent[i] < 0:
                root[op] = root.get(op, 0.0) + duration
        return max((abs(self_sum[op] - root[op]) for op in root), default=0.0)

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Counts and times per operation (over `ops` traced operations), so
        that a run which completes more operations reads the same; ratios
        are over the whole run."""
        inclusive: collections.Counter[str] = collections.Counter()
        self_time: collections.Counter[str] = collections.Counter()
        calls: collections.Counter[str] = collections.Counter()
        for i, name in enumerate(self.names):
            duration = self.end[i] - self.start[i]
            self_time[name] += duration - self.child[i]
            calls[name] += 1
            if not self.nested[i]:
                inclusive[name] += duration
        counts = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def per_op(value: float, unit: str) -> tuple[float, str]:
            return value / ops, f"{unit}/op"

        m: dict[str, tuple[float, str]] = {
            "textlang.parse.calls": per_op(calls["textlang.parse"], "count"),
            "textlang.parse.s": per_op(inclusive["textlang.parse"], "s"),
            "textlang.print.s": per_op(inclusive["textlang.print"], "s"),
            "cli.main.s": per_op(inclusive["cli.main"], "s"),
            "model.desugar.calls": per_op(calls["model.desugar"], "count"),
            "model.desugar.s": per_op(inclusive["model.desugar"], "s"),
            "model.bind_environment.s": per_op(inclusive["model.bind_environment"], "s"),
            "model.validate_std.s": per_op(inclusive["model.validate_std"], "s"),
            "model.enabled_transitions.calls": per_op(calls["model.enabled_transitions"], "count"),
            "model.enabled_transitions.self_s": per_op(self_time["model.enabled_transitions"], "s"),
            "model.eval_expr.calls": per_op(counts["model.eval_expr.calls"], "count"),
            "model.reachable_configurations.calls": per_op(
                calls["model.reachable_configurations"], "count"),
            "model.reachable_configurations.s": per_op(
                inclusive["model.reachable_configurations"], "s"),
        }
        applied = rejected = 0
        for kind in RULE_KINDS:
            prefix = f"refine.apply_rule.{kind}"
            m[f"{prefix}.applied"] = per_op(counts[f"{prefix}.applied"], "count")
            m[f"{prefix}.rejected"] = per_op(counts[f"{prefix}.rejected"], "count")
            m[f"{prefix}.s"] = per_op(inclusive[prefix], "s")
            applied += counts[f"{prefix}.applied"]
            rejected += counts[f"{prefix}.rejected"]
        misses = counts["interp.step.misses"]
        m.update({
            "refine.apply_rule.accept_ratio": (ratio(applied, applied + rejected), "ratio"),
            "interp.machine_traces.calls": per_op(calls["interp.machine_traces"], "count"),
            "interp.machine_traces.self_s": per_op(self_time["interp.machine_traces"], "s"),
            "interp.traces.entries": per_op(counts["interp.traces.entries"], "count"),
            "interp.traces.entries_per_step_miss": (
                ratio(counts["interp.traces.entries"], misses), "entries/miss"),
            "interp.step.calls": per_op(counts["interp.step.calls"], "count"),
            "interp.step.misses": per_op(misses, "count"),
            "interp.step.hit_ratio": (
                ratio(counts["interp.step.calls"] - misses, counts["interp.step.calls"]),
                "ratio"),
            "interp.step.miss_s": per_op(inclusive["interp.step.miss"], "s"),
            "interp.check_monotone.s": per_op(inclusive["interp.check_monotone"], "s"),
            "interp.simulate.s": per_op(inclusive["interp.simulate"], "s"),
            "refine.trace_inclusion.calls": per_op(calls["refine.trace_inclusion"], "count"),
            "refine.trace_inclusion.self_s": per_op(self_time["refine.trace_inclusion"], "s"),
            "refine.sequences.s": per_op(inclusive["refine.sequences"], "s"),
            "refine.trace_equivalence.s": per_op(inclusive["refine.trace_equivalence"], "s"),
            "features.detect_conflict.s": per_op(inclusive["features.detect_conflict"], "s"),
            "features.apply_feature.s": per_op(inclusive["features.apply_feature"], "s"),
            "features.traces_per_conflict": (
                ratio(counts["features.conflict_traces"], calls["features.detect_conflict"]),
                "traces/conflict"),
            "trace.spans": per_op(len(self.names), "count"),
        })
        return m
