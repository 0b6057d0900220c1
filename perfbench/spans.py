"""Span tracing of the ``pseudovox`` layers from outside the package.

``Tracer.install`` rebinds every function named in a layer module's
``__all__`` (and ``concurrency.parallel_map``) in every ``pseudovox.*``
namespace that binds it, so calls that ``cli`` and ``simulate`` make through
names they imported directly are seen too.  ``uninstall`` puts every original
binding back.  Each call records one span: id, parent id, layer, name, start,
end and one work amount (rows, pairs, characters, items) read from its
arguments or result.  Span stacks are per thread; the items a ``parallel_map``
runs get spans whose parent is the map span, on whichever thread runs them.

A call made from a span of its own group (``plda_score`` ->
``plda_score_matrix``, ``project`` -> ``length_normalize``,
``seed_for_speaker`` -> ``fnv1a64``) records no span: the caller's span
already covers it.  ``formats.format_float`` is left unwrapped: the
serializers call it once per value, millions of times per command, and its
time belongs to them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

LAYERS = ("formats", "plda", "selection", "f0", "metrics", "simulate", "concurrency")
UNWRAPPED = {("formats", "format_float")}


class Span(NamedTuple):
    sid: int
    parent: int  # 0: no parent
    layer: str
    name: str
    start: float
    end: float
    amount: float  # work done, in the unit of the function's group


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _trial_count(score_set) -> int:
    return score_set.target_scores.size + score_set.nontarget_scores.size


# Group of each wrapped function (the per-layer metric its time goes to) and
# the amount of work one call does; without an amount function a call is 1.
GROUPS = {
    "plda.project": ("project", None),
    "plda.length_normalize": ("project", None),
    "plda.project_many": ("project", lambda a, k, r: len(_arg(a, k, 1, "vectors"))),
    "plda.plda_score": ("score", None),
    "plda.plda_score_matrix": (
        "score",
        lambda a, k, r: len(_arg(a, k, 1, "enroll_latents")) * len(_arg(a, k, 2, "test_latents")),
    ),
    "plda.cosine_score": ("cosine", None),
    "selection.derive_pseudo_speaker": ("derive", None),
    "selection.filter_by_gender": ("filter", None),
    "selection.rank_furthest": ("rank", None),
    "selection.seed_for_speaker": ("draw", None),
    "selection.fnv1a64": ("draw", None),
    "selection.sample_without_replacement": ("draw", None),
    "f0.compute_log_f0_stats": ("stats", None),
    "f0.transform_contour": ("transform", None),
    "f0.aggregate_target_stats": ("aggregate", None),
    "metrics.evaluate": ("evaluate", lambda a, k, r: _trial_count(_arg(a, k, 0, "scores"))),
    "metrics.eer": ("eer", None),
    "metrics.cllr": ("cllr", None),
    "metrics.min_cllr": ("min_cllr", None),
    "metrics.det_points": ("det", None),
    "simulate.generate_cohort": ("cohort", None),
    "simulate.run_scenario": ("scenario", None),
    "simulate.run_baseline": ("scenario", None),
    "concurrency.parallel_map": ("map", lambda a, k, r: len(_arg(a, k, 1, "items"))),
    "formats.decode_text": ("decode", lambda a, k, r: len(_arg(a, k, 0, "data"))),
    "formats.sha256_hex": ("hash", lambda a, k, r: len(_arg(a, k, 0, "data"))),
}


def group_of(qualname: str):
    """(group, amount function) of a wrapped function, by its qualified name."""
    if qualname in GROUPS:
        return GROUPS[qualname]
    layer, name = qualname.split(".", 1)
    if layer == "formats" and name.startswith("parse_"):
        return "parse", lambda a, k, r: len(_arg(a, k, 0, "text"))
    if layer == "formats" and name.startswith("serialize_"):
        return "serialize", lambda a, k, r: len(r)
    if layer == "cli":
        return "command", None
    return name, None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.map_threads: dict[int, int] = {}  # map span id -> threads it ran on
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str, str]]:
        """Open spans of the calling thread, as (id, layer, group)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer, group, name, fn, args, kwargs, amount, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1][0] if stack else 0
        stack.append((sid, layer, group))
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
        work = 1 if amount is None else amount(args, kwargs, result)
        self.spans.append(Span(sid, parent, layer, name, start, end, work))
        return result

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for CLI commands)."""
        return self._record(layer, "command", name, fn, args, kwargs, None)

    def _wrap(self, layer: str, name: str, fn):
        group, amount = group_of(f"{layer}.{name}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1:] == (layer, group):
                # called by its own group (plda_score -> plda_score_matrix,
                # project -> length_normalize): the caller's span counts it
                return fn(*args, **kwargs)
            return self._record(layer, group, name, fn, args, kwargs, amount)

        return wrapper

    def _wrap_parallel_map(self, fn):
        amount = group_of("concurrency.parallel_map")[1]

        @functools.wraps(fn)
        def wrapper(item_fn, items, threads=1):
            stack = self._stack()
            # item bodies are the caller's code (a closure in cli or simulate)
            caller_layer = stack[-1][1] if stack else "cli"

            def mapped(item_fn_, items_, threads_):
                map_sid = self._stack()[-1][0]
                self.map_threads[map_sid] = 1 if threads_ <= 1 or len(items_) <= 1 else threads_

                def item(x):
                    return self._record(caller_layer, "item", "item", item_fn_, (x,), {}, None, parent=map_sid)

                return fn(item, items_, threads_)

            return self._record(
                "concurrency", "map", "parallel_map", mapped, (item_fn, items, threads), {}, amount
            )

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in every ``pseudovox.*`` namespace."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "pseudovox" or n.startswith("pseudovox.")]
        for layer in LAYERS:
            module = importlib.import_module(f"pseudovox.{layer}")
            names = getattr(module, "__all__", ["parallel_map"])
            for name in names:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or (layer, name) in UNWRAPPED:
                    continue
                wrapper = self._wrap_parallel_map(fn) if name == "parallel_map" else self._wrap(layer, name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._saved.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children on worker threads may overlap one another, so the covered part
    is the length of the union of the child intervals, not their sum.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.sid] = (s.end - s.start) - covered
    return out


# (metric, unit, source, scale): source "<layer>.<group>_<s|calls|amount>",
# "<layer>.self_s" (summed self time of the layer's spans) or "busy_frac".
LAYER_METRICS = [
    ("formats.parse_s", "s", "formats.parse_s", 1.0),
    ("formats.parse_mb", "MB", "formats.parse_amount", 1e-6),
    ("formats.serialize_s", "s", "formats.serialize_s", 1.0),
    ("formats.serialize_mb", "MB", "formats.serialize_amount", 1e-6),
    ("formats.decode_calls", "count", "formats.decode_calls", 1.0),
    ("formats.decode_mb", "MB", "formats.decode_amount", 1e-6),
    ("formats.hash_s", "s", "formats.hash_s", 1.0),
    ("formats.hash_mb", "MB", "formats.hash_amount", 1e-6),
    ("plda.project_s", "s", "plda.project_s", 1.0),
    ("plda.project_rows", "count", "plda.project_amount", 1.0),
    ("plda.score_s", "s", "plda.score_s", 1.0),
    ("plda.score_calls", "count", "plda.score_calls", 1.0),
    ("plda.score_pairs", "count", "plda.score_amount", 1.0),
    ("plda.cosine_s", "s", "plda.cosine_s", 1.0),
    ("plda.cosine_calls", "count", "plda.cosine_calls", 1.0),
    ("selection.derive_s", "s", "selection.derive_s", 1.0),
    ("selection.self_s", "s", "selection.self_s", 1.0),
    ("selection.speakers", "count", "selection.derive_calls", 1.0),
    ("selection.filter_s", "s", "selection.filter_s", 1.0),
    ("selection.rank_s", "s", "selection.rank_s", 1.0),
    ("selection.draw_s", "s", "selection.draw_s", 1.0),
    ("f0.stats_s", "s", "f0.stats_s", 1.0),
    ("f0.transform_s", "s", "f0.transform_s", 1.0),
    ("f0.aggregate_s", "s", "f0.aggregate_s", 1.0),
    ("f0.contours", "count", "f0.transform_calls", 1.0),
    ("metrics.evaluate_s", "s", "metrics.evaluate_s", 1.0),
    ("metrics.eer_s", "s", "metrics.eer_s", 1.0),
    ("metrics.cllr_s", "s", "metrics.cllr_s", 1.0),
    ("metrics.min_cllr_s", "s", "metrics.min_cllr_s", 1.0),
    ("metrics.det_s", "s", "metrics.det_s", 1.0),
    ("metrics.trials", "count", "metrics.evaluate_amount", 1.0),
    ("simulate.cohort_s", "s", "simulate.cohort_s", 1.0),
    ("simulate.scenario_s", "s", "simulate.scenario_s", 1.0),
    ("simulate.self_s", "s", "simulate.self_s", 1.0),
    ("concurrency.map_s", "s", "concurrency.map_s", 1.0),
    ("concurrency.items", "count", "concurrency.map_amount", 1.0),
    ("concurrency.busy_frac", "ratio", "busy_frac", 1.0),
    ("cli.command_s", "s", "cli.command_s", 1.0),
    ("cli.self_s", "s", "cli.self_s", 1.0),
]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    spans = tracer.spans
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    busy = capacity = 0.0
    for s in spans:
        totals[f"{s.layer}.self_s"] += selfs[s.sid]
        if s.name == "item":
            busy += s.end - s.start
            continue
        group = group_of(f"{s.layer}.{s.name}")[0]
        key = f"{s.layer}.{group}"
        totals[key + "_s"] += s.end - s.start
        totals[key + "_calls"] += 1
        totals[key + "_amount"] += s.amount
        if key == "concurrency.map":
            capacity += (s.end - s.start) * tracer.map_threads[s.sid]
    totals["busy_frac"] = busy / capacity if capacity else 0.0
    return {name: (totals[source] * scale, unit) for name, unit, source, scale in LAYER_METRICS}
