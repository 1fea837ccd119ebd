"""Spans around the public functions of every ecx module, from outside the package.

``Tracer.install`` replaces each reference to a traced function in the
loaded ``ecx`` modules, so a call is recorded at whatever attribute its
caller looks up (``ecx.pipeline.parse_firms``, ``ecx.cli.stage_mst``,
``ecx.eci.second_eigenpair``, ...).  Nothing under ``src/`` changes.
Spans (name, start, end, parent) stay in memory until ``dump``; the
per-layer metrics of each pass are derived from them by ``end_pass``.

A traced name that no longer exists is listed in ``Tracer.absent`` and
the metrics built on it are reported as ``None`` instead of failing.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

STAGES = ("ingest", "matrix", "eci", "fitness", "mst", "correlate", "report")

#: span name -> (defining module, attribute path) of each function it covers
TARGETS = {
    "cli.main": [("ecx.cli", "main")],
    **{f"pipeline.{s}": [("ecx.pipeline", f"stage_{s}")] for s in STAGES},
    "catalogs.load": [("ecx.catalogs", "RegionCatalog.from_csv"),
                      ("ecx.catalogs", "SectorCatalog.from_csv")],
    "ingest.parse_firms": [("ecx.ingest", "parse_firms")],
    "ingest.aggregate_sales": [("ecx.ingest", "aggregate_sales")],
    "ingest.parse_macro": [("ecx.ingest", "parse_macro")],
    "matrixio.write": [("ecx.matrixio", "write_matrix_csv")],
    "matrixio.read": [("ecx.matrixio", "read_matrix_csv")],
    "rca.compute_rca": [("ecx.rca", "compute_rca")],
    "rca.binarize": [("ecx.rca", "binarize")],
    "eci.build_transition": [("ecx.eci", "build_transition")],
    "eci.second_eigenpair": [("ecx.eci", "second_eigenpair")],
    "fitness.fitness_complexity": [("ecx.fitness", "fitness_complexity")],
    "fitness.convergence_report": [("ecx.fitness", "convergence_report")],
    "fitness.order_by_rank": [("ecx.fitness", "order_by_rank")],
    "projections.project": [("ecx.projections", "project")],
    "projections.similarity": [("ecx.projections", "similarity")],
    "projections.max_similarity_tree": [("ecx.projections",
                                         "max_similarity_tree")],
    "projections.export_tree": [("ecx.projections", "export_tree")],
    "stats.pearson": [("ecx.stats", "pearson")],
    "stats.fit": [("ecx.stats", "fit_exponential"),
                  ("ecx.stats", "fit_power")],
    "stats.summary": [("ecx.stats", "quadrants"),
                      ("ecx.stats", "region_averages")],
}

#: counted metric -> (span whose calls add to it, count one call adds);
#: ``ingest.records`` is only the numerator of ``ingest.accept_ratio``
COUNTED = {
    "ingest.rows": ("ingest.parse_firms", lambda args, res:
                    len(res.records) + len(res.rejections)),
    "ingest.records": ("ingest.parse_firms",
                       lambda args, res: len(res.records)),
    "matrixio.bytes_written": ("matrixio.write",
                               lambda args, res: os.path.getsize(args[0])),
    "rca.ones": ("rca.binarize", lambda args, res: int(res.values.sum())),
    "eci.power_solves": ("pipeline.eci", lambda args, res: [
        res["method_region"], res["method_sector"]].count("power")),
    "fitness.iterations": ("fitness.fitness_complexity",
                           lambda args, res: res.iterations),
    "projections.tree_nodes": ("projections.max_similarity_tree",
                               lambda args, res: res.n),
}

#: every per-layer metric: (name, unit, better)
LAYER_METRICS = (
    *((f"pipeline.{s}_s", "s", "lower") for s in STAGES),
    *((f"pipeline.{s}_self_s", "s", "lower") for s in STAGES),
    ("cli.overhead_s", "s", "lower"),
    ("catalogs.load_s", "s", "lower"),
    ("catalogs.load_calls", "count", "lower"),
    ("ingest.parse_firms_s", "s", "lower"),
    ("ingest.aggregate_sales_s", "s", "lower"),
    ("ingest.parse_macro_s", "s", "lower"),
    ("ingest.rows", "count", "higher"),
    ("ingest.accept_ratio", "1", "higher"),
    ("matrixio.write_s", "s", "lower"),
    ("matrixio.read_s", "s", "lower"),
    ("matrixio.read_calls", "count", "lower"),
    ("matrixio.bytes_written", "bytes", "lower"),
    ("rca.compute_rca_s", "s", "lower"),
    ("rca.binarize_s", "s", "lower"),
    ("rca.ones", "count", "higher"),
    ("eci.build_transition_s", "s", "lower"),
    ("eci.second_eigenpair_s", "s", "lower"),
    ("eci.power_solves", "count", "lower"),
    ("fitness.fitness_complexity_s", "s", "lower"),
    ("fitness.iterations", "count", "lower"),
    ("fitness.s_per_iteration", "s", "lower"),
    ("fitness.convergence_report_s", "s", "lower"),
    ("fitness.order_by_rank_s", "s", "lower"),
    ("projections.project_s", "s", "lower"),
    ("projections.similarity_s", "s", "lower"),
    ("projections.max_similarity_tree_s", "s", "lower"),
    ("projections.export_tree_s", "s", "lower"),
    ("projections.tree_nodes", "count", "higher"),
    ("stats.pearson_s", "s", "lower"),
    ("stats.fit_s", "s", "lower"),
    ("stats.summary_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.absent = []         # "module.attr" that could not be traced
        self.broken = set()      # counted metrics whose count raised
        self.passes = []         # spans and counts of each finished pass
        self._stack = []

    def _wrap(self, name, fn):
        counters = [(metric, count) for metric, (span, count)
                    in COUNTED.items() if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, perf_counter(), None,
                    self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            for metric, count in counters:
                try:
                    self.counts[metric] += count(args, result)
                except (AttributeError, KeyError, TypeError, OSError):
                    self.broken.add(metric)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "ecx" or n.startswith("ecx.")) and m is not None]
        for name, targets in TARGETS.items():
            for module_name, path in targets:
                *owners, attr = path.split(".")
                owner = sys.modules.get(module_name)
                for part in owners:
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, attr):
                    self.absent.append(f"{module_name}.{path}")
                elif isinstance(owner, type):
                    raw = inspect.getattr_static(owner, attr)
                    if isinstance(raw, classmethod):
                        setattr(owner, attr,
                                classmethod(self._wrap(name, raw.__func__)))
                    else:
                        setattr(owner, attr, self._wrap(name, raw))
                else:
                    original = getattr(owner, attr)
                    wrapped = self._wrap(name, original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapped)

    def end_pass(self) -> dict:
        """Close the current pass; returns its per-layer metrics."""
        metrics = self._layer_metrics()
        self.passes.append({"spans": self.spans, "counts": self.counts})
        self.spans, self.counts = [], Counter()
        return metrics

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"passes": self.passes, "absent": self.absent}, fh)
            fh.write("\n")

    def _layer_metrics(self) -> dict:
        """Per-layer metrics of the current pass, except ``trace.overhead_s``,
        which needs the untraced passes and is left to the caller."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - child_time[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:       # outermost span of its name: count once
                busy[name] += end - start
        absent = {name for name, targets in TARGETS.items()
                  if all(f"{mod}.{path}" in self.absent
                         for mod, path in targets)}

        out = {}
        for metric, _, _ in LAYER_METRICS:
            if metric == "trace.overhead_s":
                continue
            span = _span_of(metric)
            if span in absent or _counts_of(metric) & self.broken:
                value = None
            elif metric in COUNTED:
                value = self.counts[metric]
            elif metric == "ingest.accept_ratio":
                rows = self.counts["ingest.rows"]
                value = self.counts["ingest.records"] / rows if rows else None
            elif metric == "fitness.s_per_iteration":
                n = self.counts["fitness.iterations"]
                value = busy[span] / n if n else None
            elif metric.endswith("_self_s") or metric == "cli.overhead_s":
                value = own[span]
            elif metric.endswith("_calls"):
                value = calls[span]
            else:
                value = busy[span]
            out[metric] = value
        return out


def _counts_of(metric: str) -> set:
    """The counted metrics a per-layer metric is computed from."""
    if metric in COUNTED:
        return {metric}
    return {"ingest.accept_ratio": {"ingest.rows", "ingest.records"},
            "fitness.s_per_iteration": {"fitness.iterations"}}.get(metric, set())


def _span_of(metric: str) -> str:
    """The span a per-layer metric is measured on."""
    if metric in COUNTED:
        return COUNTED[metric][0]
    special = {"ingest.accept_ratio": "ingest.parse_firms",
               "fitness.s_per_iteration": "fitness.fitness_complexity",
               "cli.overhead_s": "cli.main"}
    if metric in special:
        return special[metric]
    for suffix in ("_self_s", "_calls", "_s"):
        if metric.endswith(suffix):
            return metric[:-len(suffix)]
    raise ValueError(f"no span for metric {metric!r}")
