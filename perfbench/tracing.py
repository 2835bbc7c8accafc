"""Spans around calls into graphspace's modules, for the traced run only.

Tracing is installed from outside the package: every name in a graphspace
module that refers to a traced function is rebound to a wrapper, so calls
made through an imported name (``matching`` imports ``_lap_raw`` by name)
are caught as well as calls through the defining module.  ``Graph`` is
traced by wrapping its ``__post_init__``, which holds all of its validation.
``Tracer.remove`` puts every original object back, so untraced runs execute
the package's own code.

A span records its layer, start, end, parent span and the benchmark item it
belongs to.  Spans stay in memory until ``write_spans``.  A layer's self
time is its spans' durations minus the part of each interval that child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

WRAPPED_MARK = "__perfbench_wrapped__"


class Span(NamedTuple):
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    item: int | None
    info: dict | None


def _lap_info(args, kwargs, result):
    return {"n": args[0].shape[0]}


def _brute_info(args, kwargs, result):
    return {"perms": math.factorial(args[0].n)}


def _distance_info(args, kwargs, result):
    return {"padded_n": result.g2_padded.n}


def _faq_info(args, kwargs, result):
    a1, a2, tol = args[0], args[1], args[6]
    objectives, steps, converged = result[1], result[2], result[3]
    passes = len(steps)
    if converged:
        # The loop stops after a step whose objective change is within tol,
        # or on a zero step before appending it; only the latter costs an
        # extra gradient pass.
        tol_stop = len(objectives) >= 2 and abs(objectives[-1] - objectives[-2]) <= (
            tol * max(1.0, abs(objectives[-2])))
        passes += 0 if tol_stop else 1
    n1, n2 = a1.shape[0], a2.shape[0]
    # A2 X A1^T costs 2*n1*n2*(n1 + n2) flops; one before the loop and two
    # (gradient and search direction) per pass.
    flop = (1 + 2 * passes) * 2.0 * n1 * n2 * (n1 + n2)
    return {"iterations": len(steps), "converged": bool(converged), "gflop": flop / 1e9}


def _two_exchange_info(args, kwargs, result):
    return {"swaps": len(result[1])}


def _karcher_info(args, kwargs, result):
    return {"outer_iters": len(result.energy_trace)}


def _read_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _write_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


@dataclass(frozen=True)
class Target:
    """One traced function: ``module.attr`` (``attr`` may be ``Class.method``).

    With ``span=False`` calls are only counted, so the caller's self time
    keeps the callee's work.
    """

    layer: str
    module: str
    attr: str
    span: bool = True
    info: Callable | None = None


TARGETS = (
    Target("graphs.Graph", "graphspace.graphs", "Graph.__post_init__"),
    Target("graphs.permute", "graphspace.graphs", "permute"),
    Target("graphs.pad_to_size", "graphspace.graphs", "pad_to_size"),
    Target("graphs.node_distance_matrix", "graphspace.graphs", "node_distance_matrix"),
    Target("assignment.objective_value", "graphspace.assignment", "objective_value"),
    Target("assignment.lap", "graphspace.assignment", "_lap_raw", info=_lap_info),
    Target("assignment.brute_force_match", "graphspace.assignment", "brute_force_match",
           info=_brute_info),
    Target("matching.graph_distance", "graphspace.matching", "graph_distance",
           info=_distance_info),
    Target("matching.faq_descent", "graphspace.matching", "_faq_descent", info=_faq_info),
    Target("matching.two_exchange", "graphspace.matching", "greedy_two_exchange",
           info=_two_exchange_info),
    Target("matching.two_exchange.sweeps", "graphspace.matching", "_swap_deltas", span=False),
    Target("stats.karcher_mean", "graphspace.stats", "karcher_mean", info=_karcher_info),
    Target("stats.graph_pca", "graphspace.stats", "graph_pca"),
    Target("stats.sample_graphs", "graphspace.stats", "sample_graphs"),
    Target("pipelines.pairwise_distances", "graphspace.pipelines", "pairwise_distances"),
    Target("pipelines.bench_recovery", "graphspace.pipelines", "bench_recovery"),
    Target("documents.load_graph", "graphspace.documents", "load_graph", info=_read_info),
    Target("documents.save_graph", "graphspace.documents", "save_graph", info=_write_info),
    Target("documents.pca_model_document", "graphspace.documents", "pca_model_document"),
    Target("cli.main", "graphspace.cli", "main"),
)


def _resolve(target: Target):
    """(owner holding the attribute, attribute name, original object)."""
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def _package_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "graphspace" or key.startswith("graphspace."))]


def bindings(target: Target):
    """Every (owner, name) through which callers reach the target today."""
    owner, name, original = _resolve(target)
    if isinstance(owner, type):
        return original, [(owner, name)]
    found = [(mod, key) for mod in _package_modules()
             for key, value in vars(mod).items() if value is original]
    return original, found


def installed_wrappers() -> list[str]:
    """Names in graphspace that are bound to a benchmark wrapper right now."""
    out = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if getattr(value, WRAPPED_MARK, False):
                out.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and value.__module__.startswith("graphspace"):
                out.extend(f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                           if getattr(v, WRAPPED_MARK, False))
    return out


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.item: int | None = None
        self.missing: list[str] = []
        self.hook_errors: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Rebind every target; a target the package no longer has is listed
        in ``missing`` and its layer reads 0."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            try:
                original, places = bindings(target)
            except (ImportError, AttributeError):
                self.missing.append(target.layer)
                continue
            wrapper = self._wrap(target, original)
            for owner, name in places:
                self._saved.append((owner, name, original))
                setattr(owner, name, wrapper)

    def remove(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, target: Target, fn):
        layer, info = target.layer, target.info
        spans, stack, counts, errors = self.spans, self._stack, self.counts, self.hook_errors
        clock = time.perf_counter

        if not target.span:
            def counter(*args, **kwargs):
                counts[layer] += 1
                return fn(*args, **kwargs)
            wrapper = counter
        else:
            def spanned(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = Span(layer, start, end, parent, self.item, None)
                if info is not None:
                    # Counters read the callee's arguments and result; a
                    # signature change in the package must not fail the item.
                    try:
                        spans[idx] = spans[idx]._replace(info=info(args, kwargs, result))
                    except Exception:
                        errors[layer] += 1
                return result
            wrapper = spanned
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "graphs.Graph.calls": ("count", "lower"),
    "graphs.Graph.self_s": ("s", "lower"),
    "graphs.permute.calls": ("count", "lower"),
    "graphs.permute.self_s": ("s", "lower"),
    "graphs.pad_to_size.calls": ("count", "lower"),
    "graphs.pad_to_size.self_s": ("s", "lower"),
    "graphs.node_distance_matrix.self_s": ("s", "lower"),
    "assignment.objective_value.calls": ("count", "lower"),
    "assignment.objective_value.self_s": ("s", "lower"),
    "assignment.lap.calls": ("count", "lower"),
    "assignment.lap.self_s": ("s", "lower"),
    "assignment.lap.n_mean": ("nodes", "lower"),
    "assignment.brute_force_match.calls": ("count", "lower"),
    "assignment.brute_force_match.self_s": ("s", "lower"),
    "assignment.brute.perms": ("count", "lower"),
    "matching.graph_distance.calls": ("count", "lower"),
    "matching.graph_distance.self_s": ("s", "lower"),
    "matching.padded_n_mean": ("nodes", "lower"),
    "matching.faq_descent.calls": ("count", "lower"),
    "matching.faq_descent.self_s": ("s", "lower"),
    "matching.faq.iterations": ("count", "lower"),
    "matching.faq.gflop": ("GFLOP", "lower"),
    "matching.faq.nonconverged": ("count", "lower"),
    "matching.faq.converged_frac": ("ratio", "higher"),
    "matching.two_exchange.calls": ("count", "lower"),
    "matching.two_exchange.self_s": ("s", "lower"),
    "matching.two_exchange.swaps": ("count", "lower"),
    "matching.two_exchange.accept_frac": ("ratio", "higher"),
    "stats.karcher_mean.calls": ("count", "lower"),
    "stats.karcher_mean.self_s": ("s", "lower"),
    "stats.karcher.outer_iters": ("count", "lower"),
    "stats.karcher.registrations": ("count", "lower"),
    "stats.graph_pca.self_s": ("s", "lower"),
    "stats.sample_graphs.self_s": ("s", "lower"),
    "pipelines.pairwise_distances.self_s": ("s", "lower"),
    "pipelines.bench_recovery.self_s": ("s", "lower"),
    "documents.load_graph.calls": ("count", "lower"),
    "documents.load_graph.self_s": ("s", "lower"),
    "documents.save_graph.calls": ("count", "lower"),
    "documents.save_graph.self_s": ("s", "lower"),
    "documents.pca_model_document.self_s": ("s", "lower"),
    "documents.bytes_read": ("B", "lower"),
    "documents.bytes_written": ("B", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.item_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(spans, counts, item_s: float, overhead_frac: float) -> dict:
    """Every PER_LAYER value from one traced pass; 0 where a layer was not reached."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    infos = defaultdict(list)
    for span, own in zip(spans, selfs):
        calls[span.layer] += 1
        self_s[span.layer] += own
        if span.info is not None:
            infos[span.layer].append(span.info)

    def total(layer, key):
        return sum(i[key] for i in infos[layer])


    def mean(layer, key):
        return _ratio(total(layer, key), len(infos[layer]))

    def under_karcher(i):
        while i >= 0:
            if spans[i].layer == "stats.karcher_mean":
                return True
            i = spans[i].parent
        return False

    faq = infos["matching.faq_descent"]
    swaps = total("matching.two_exchange", "swaps")
    values = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls[layer]
        elif stat == "self_s":
            values[name] = self_s[layer]
    values.update({
        "assignment.lap.n_mean": mean("assignment.lap", "n"),
        "assignment.brute.perms": total("assignment.brute_force_match", "perms"),
        "matching.padded_n_mean": mean("matching.graph_distance", "padded_n"),
        "matching.faq.iterations": total("matching.faq_descent", "iterations"),
        "matching.faq.gflop": total("matching.faq_descent", "gflop"),
        "matching.faq.nonconverged": sum(1 for i in faq if not i["converged"]),
        "matching.faq.converged_frac": _ratio(sum(1 for i in faq if i["converged"]), len(faq)),
        "matching.two_exchange.swaps": swaps,
        "matching.two_exchange.accept_frac": _ratio(
            swaps, counts.get("matching.two_exchange.sweeps", 0)),
        "stats.karcher.outer_iters": total("stats.karcher_mean", "outer_iters"),
        "stats.karcher.registrations": sum(
            1 for s in spans
            if s.layer == "matching.graph_distance" and under_karcher(s.parent)),
        "documents.bytes_read": total("documents.load_graph", "bytes"),
        "documents.bytes_written": total("documents.save_graph", "bytes"),
        "trace.item_s": item_s,
        "trace.overhead_frac": overhead_frac,
    })
    return values


def write_spans(spans, path) -> None:
    """One JSON array per line: layer, start, end, parent, item, info."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps([s.layer, s.start, s.end, s.parent, s.item, s.info]))
            fh.write("\n")
