"""Span tracing of niceset's layers from outside the package.

Each public function is rebound, for the duration of a traced run, at the
name its caller looks it up under (``niceset.harness.sample_instance``,
``niceset.solvers.union_conflict_graph``, ...), so the package itself is
not modified.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  A name missing from its module is skipped,
# so the tracer keeps working when a later commit moves a call site.
TARGETS = (
    ("niceset.cli", "main", "cli.main"),
    ("niceset.cli", "run_upper_bound_experiment", "harness.run_bound_experiment"),
    ("niceset.cli", "run_lower_bound_experiment", "harness.run_bound_experiment"),
    ("niceset.cli", "load_csv", "features.load_csv"),
    ("niceset.cli", "select_features", "features.select_features"),
    ("niceset.features", "build_instance", "features.build_instance"),
    ("niceset.features", "pearson_matrix", "features.pearson_matrix"),
    ("niceset.features", "collinearity_graph", "features.collinearity_graph"),
    ("niceset.features", "conflict_sets", "features.conflict_sets"),
    ("niceset.features", "max_nice_exact", "solvers.max_nice_exact"),
    ("niceset.features", "greedy_nice", "solvers.greedy_nice"),
    ("niceset.features", "randomized_nice", "solvers.randomized_nice"),
    ("niceset.features", "is_nice", "instance.is_nice"),
    ("niceset.harness", "sample_instance", "instance.sample_instance"),
    ("niceset.harness", "max_nice_exact", "solvers.max_nice_exact"),
    ("niceset.harness", "greedy_nice", "solvers.greedy_nice"),
    ("niceset.harness", "randomized_nice", "solvers.randomized_nice"),
    ("niceset.solvers", "union_conflict_graph", "instance.union_conflict_graph"),
    ("niceset.solvers", "is_nice", "instance.is_nice"),
    ("niceset.goodness", "instance_system", "goodness.instance_system"),
    ("niceset.goodness", "randomized_construct", "goodness.randomized_construct"),
)

# Per-layer metrics reported by a traced run, with their units.  Span
# statistics are named <span>.<calls|total_s|self_s>; a layer that a
# workload does not exercise reports 0.
PER_LAYER = (
    ("cli.main.calls", "count"), ("cli.main.total_s", "s"), ("cli.main.self_s", "s"),
    ("harness.run_bound_experiment.calls", "count"),
    ("harness.run_bound_experiment.self_s", "s"),
    ("instance.sample_instance.calls", "count"), ("instance.sample_instance.total_s", "s"),
    ("instance.sample_instance.self_s", "s"),
    ("instance.Instance.calls", "count"), ("instance.Instance.total_s", "s"),
    ("instance.edges_built", "count"),
    ("instance.union_conflict_graph.calls", "count"),
    ("instance.union_conflict_graph.total_s", "s"),
    ("instance.is_nice.calls", "count"), ("instance.is_nice.total_s", "s"),
    ("solvers.max_nice_exact.calls", "count"), ("solvers.max_nice_exact.total_s", "s"),
    ("solvers.max_nice_exact.self_s", "s"),
    ("solvers.greedy_nice.calls", "count"), ("solvers.greedy_nice.total_s", "s"),
    ("solvers.greedy_nice.self_s", "s"),
    ("solvers.randomized_nice.calls", "count"), ("solvers.randomized_nice.total_s", "s"),
    ("solvers.randomized_nice.self_s", "s"), ("solvers.randomized_nice.size_ratio", "ratio"),
    ("goodness.instance_system.calls", "count"), ("goodness.instance_system.total_s", "s"),
    ("goodness.randomized_construct.calls", "count"),
    ("goodness.randomized_construct.total_s", "s"),
    ("goodness.randomized_construct.hit_ratio", "ratio"),
    ("features.load_csv.calls", "count"), ("features.load_csv.total_s", "s"),
    ("features.load_csv.bytes", "bytes"),
    ("features.pearson_matrix.total_s", "s"), ("features.collinearity_graph.total_s", "s"),
    ("features.conflict_sets.calls", "count"), ("features.conflict_sets.total_s", "s"),
    ("features.build_instance.calls", "count"), ("features.build_instance.total_s", "s"),
    ("features.build_instance.self_s", "s"),
    ("features.select_features.calls", "count"), ("features.select_features.total_s", "s"),
    ("features.select_features.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Records ``[name, start, end, parent index, job]`` spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.job = -1
        self._open: list[int] = []

    def wrap(self, fn, name: str, after=None):
        """``fn`` timed as span ``name``; ``after(result, args)`` runs once
        the span has closed."""
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, self.job])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if after is not None:
                after(result, args)
            return result

        return traced

    def _after(self, name: str):
        counters = self.counters
        if name == "features.load_csv":
            return lambda _, args: counters.update({name + ".bytes": os.path.getsize(args[0])})
        if name == "goodness.randomized_construct":
            return lambda found, _: counters.update({name + ".hits": found is not None})
        return None

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target, and ``Instance.__init__``, until exit."""
        import niceset.instance

        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self.wrap(getattr(module, attr), name, self._after(name)))
            cls = niceset.instance.Instance
            saved.append((cls, "__init__", cls.__init__))
            counters = self.counters
            cls.__init__ = self.wrap(cls.__init__, "instance.Instance", lambda _, args: counters.update(
                {"instance.edges_built": len(getattr(args[0], "edges", ()))}))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def span_stats(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name.  Self time is a span's
        duration minus that of its children; nesting is strict, so children
        never overlap."""
        children = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children[index]
        return dict(stats)

    def metrics(self, size_ratio: float, overhead_ratio: float) -> dict[str, float]:
        """Every PER_LAYER metric by name."""
        stats = self.span_stats()
        construct = stats.get("goodness.randomized_construct", {}).get("calls", 0)
        derived = {
            "instance.edges_built": self.counters["instance.edges_built"],
            "features.load_csv.bytes": self.counters["features.load_csv.bytes"],
            "goodness.randomized_construct.hit_ratio":
                self.counters["goodness.randomized_construct.hits"] / construct
                if construct else 0.0,
            "solvers.randomized_nice.size_ratio": size_ratio,
            "trace.overhead_ratio": overhead_ratio,
        }
        values = {}
        for metric, _ in PER_LAYER:
            if metric in derived:
                values[metric] = derived[metric]
            else:
                span, stat = metric.rsplit(".", 1)
                values[metric] = stats.get(span, {}).get(stat, 0)
        return values

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "job": job}) + "\n")
