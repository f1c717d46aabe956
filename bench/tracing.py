"""Spans around calls into cityform's layers, recorded from outside the program.

While a :class:`Tracer` is installed, each traced public function is
replaced, in every loaded ``cityform`` module that refers to it, by a
wrapper that records a span (name, start, end, parent). Because the
defining module's own binding is replaced too, calls made inside a layer
(``topo_metrics`` calling ``betweenness``, ``elbow`` calling ``kmeans``)
are traced as children of the caller's span. The program's code is not
changed, so the traced pass runs exactly the code the untraced pass runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass

# (defining module, function, layer span name). The span name is
# "<module>.<layer>": the per-layer metrics sum these spans.
TRACED = (
    ("cityform.graph", "load_graph", "graph.load"),
    ("cityform.graph", "load_boundaries", "graph.load"),
    ("cityform.graph", "clip_to_city", "graph.clip"),
    ("cityform.topology", "betweenness", "topology.betweenness"),
    ("cityform.topology", "degree_profile", "topology.summaries"),
    ("cityform.topology", "geometric_summaries", "topology.summaries"),
    ("cityform.geometry", "pattern_counts", "geometry.patterns"),
    ("cityform.geometry", "node_patterns", "geometry.patterns"),
    ("cityform.features", "bearing_histogram", "features.bearings"),
    ("cityform.features", "assemble_features", "features.matrix"),
    ("cityform.features", "drop_features", "features.matrix"),
    ("cityform.features", "zscore", "features.matrix"),
    ("cityform.features", "pearson_report", "features.matrix"),
    ("cityform.reduction", "extract_factors", "reduction.factors"),
    ("cityform.clustering", "kmeans", "clustering.kmeans"),
    ("cityform.clustering", "elbow", "clustering.elbow"),
    ("cityform.clustering", "silhouette", "clustering.eval"),
    ("cityform.clustering", "davies_bouldin", "clustering.eval"),
)


@dataclass
class Span:
    id: int
    name: str
    function: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records spans in memory; ``install``/``uninstall`` patch the program."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, function: str = ""):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, function, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, func, name: str):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name, func.__name__):
                return func(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "cityform" or key.startswith("cityform.")]
        for module_name, func_name, span_name in TRACED:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def as_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds a traced call takes beyond an untraced one: the median over
    ``repeats`` of timing ``calls`` no-op calls with and without the wrapper."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "noop")
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        elapsed = []
        for func in (noop, wrapped):
            start = time.perf_counter()
            for _ in range(calls):
                func()
            elapsed.append(time.perf_counter() - start)
        costs.append((elapsed[1] - elapsed[0]) / calls)
    return statistics.median(costs)
