"""Spans and counts at the public functions of each gcflsim module.

A traced workload process calls ``Tracer.install`` right after importing
gcflsim. Each wrap point below is replaced, wherever gcflsim looks it up, by a
wrapper that records a span (name, start, end, enclosing span) and the counts
the benchmark reports. Callers bind many of these names at import time
(``fed`` binds ``gin_loss_and_grad``, ``harness`` and ``cli`` bind
``pairwise_heterogeneity``) and ``properties._PER_GRAPH`` holds function
references in a dict, so the wrapper replaces every module attribute and
every module-level dict value that is the original function object. Patching
only the defining module would record nothing for those callers.

A wrap point that no longer exists (a refactor removed or renamed it) is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute, span name). ``awe_distribution`` records its span as
# hetero.awe_exact or hetero.awe_sampled by its ``mode`` argument.
WRAP_POINTS = (
    ("gnn", "gin_loss_and_grad", "gnn.loss_and_grad"),
    ("gnn", "gin_forward", "gnn.forward"),
    ("gnn", "adam_step", "gnn.adam_step"),
    ("gnn", "GinModel.load_flat", "gnn.load_flat"),
    ("fed", "local_train", "fed.local_train"),
    ("fed", "evaluate_client", "fed.evaluate_client"),
    ("fed", "run_federation", "fed.run_federation"),
    ("clustering", "cluster_aggregate", "clustering.aggregate"),
    ("clustering", "delta_stats", "clustering.delta_stats"),
    ("clustering", "cosine_matrix", "clustering.cosine_matrix"),
    ("clustering", "bipartition_cluster", "clustering.bipartition"),
    ("dtwseries", "push_norms", "dtwseries.push_norms"),
    ("dtwseries", "dtw_matrix", "dtwseries.dtw_matrix"),
    ("hetero", "awe_distribution", "hetero.awe"),
    ("hetero", "exact_walk_count", "hetero.walk_count"),
    ("hetero", "pairwise_heterogeneity", "hetero.pairwise"),
    ("hetero", "feature_sim_histogram", "hetero.feature_hist"),
    ("hetero", "js_divergence", "hetero.js"),
    ("hetero", "js_distance", "hetero.js"),
    ("properties", "property_significance", "properties.significance"),
    ("properties", "avg_shortest_path", "properties.shortest_path"),
    ("properties", "largest_component_fraction", "properties.components"),
    ("properties", "avg_clustering_coefficient", "properties.clustering_coeff"),
    ("properties", "welch_p_value", "properties.welch"),
    ("graphs", "load_tu_dataset", "graphs.load_tu"),
    ("graphs", "erdos_renyi_gnm", "graphs.gnm"),
    ("harness", "build_clients", "harness.build_clients"),
    ("harness", "cluster_heterogeneity_report", "harness.hetero_report"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("cli", "main", "cli.main"),
)

# Counts that are not a span's calls, with the span whose wrap point feeds them.
COUNT_SOURCES = {
    "gnn.loss_and_grad.graphs": "gnn.loss_and_grad",
    "fed.client_rounds": "fed.run_federation",
    "clustering.splits": "clustering.bipartition",
    "dtwseries.dtw_pairs": "dtwseries.dtw_matrix",
    "hetero.pairs": "hetero.js",
    "hetero.awe_reuse_ratio": "hetero.awe",
}


def span_of(metric: str) -> str:
    if metric in COUNT_SOURCES:
        return COUNT_SOURCES[metric]
    span = metric.rsplit(".", 1)[0]
    return "hetero.awe" if span.startswith("hetero.awe_") else span


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, enclosing span index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._open: list[int] = []
        self._awe_inputs: dict[int, object] = {}  # holding the graphs keeps their ids distinct

    def install(self) -> None:
        for module in {module for module, _, _ in WRAP_POINTS}:
            try:
                importlib.import_module(f"gcflsim.{module}")
            except ImportError:
                pass  # its wrap points are reported absent
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gcflsim" or n.startswith("gcflsim.")]
        found: set[str] = set()
        for module, attribute, span in WRAP_POINTS:
            owner = sys.modules.get(f"gcflsim.{module}")
            cls_name, _, name = attribute.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            original = getattr(holder, name, None)
            if not callable(original):
                continue
            found.add(span)
            traced = self._wrap(original, span, name)
            if cls_name:
                setattr(holder, name, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = traced
        self.absent = {span for _, _, span in WRAP_POINTS} - found

    def _wrap(self, original, span: str, name: str):
        signature = inspect.signature(original) if name in _NOTES else None
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            label = span
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                label = note(self, bound.arguments) or span
            index = len(self.spans)
            self.spans.append([label, time.perf_counter(), None,
                               self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()

        return traced

    def metrics(self) -> dict[str, float]:
        """Self time and calls per span name, plus the named counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(int)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[f"{name}.self_s"] += (end - start) - child
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        awe = out.get("hetero.awe_exact.calls", 0) + out.get("hetero.awe_sampled.calls", 0)
        out["hetero.awe_reuse_ratio"] = len(self._awe_inputs) / awe if awe else 0.0
        return dict(out)

    def is_absent(self, metric: str) -> bool:
        return span_of(metric) in self.absent


def _note_loss_and_grad(tracer, a):
    tracer.counts["gnn.loss_and_grad.graphs"] += len(a["graphs"])


def _note_run_federation(tracer, a):
    tracer.counts["fed.client_rounds"] += a["rounds"] * len(a["clients"])


def _note_bipartition(tracer, a):
    tracer.counts["clustering.splits"] += 1


def _note_dtw_matrix(tracer, a):
    n = len(a["members"])
    tracer.counts["dtwseries.dtw_pairs"] += n * (n - 1) // 2


def _note_awe(tracer, a):
    tracer._awe_inputs[id(a["graph"])] = a["graph"]
    return f"hetero.awe_{a['mode']}"


def _note_js_distance(tracer, a):
    tracer.counts["hetero.pairs"] += 1


_NOTES = {
    "gin_loss_and_grad": _note_loss_and_grad,
    "run_federation": _note_run_federation,
    "bipartition_cluster": _note_bipartition,
    "dtw_matrix": _note_dtw_matrix,
    "awe_distribution": _note_awe,
    "js_distance": _note_js_distance,
}
