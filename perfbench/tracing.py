"""Span recording around the package's public functions, and the
per-layer metrics computed from the spans.

`Tracer.install` replaces every public function of the traced modules at
the module attribute its callers look up (for example
`gap.batch_return_successes` or `exact.poly_det_bareiss`), plus the two
return-stream iterators, with a wrapper that records one span per call:
name, start, end, parent span and job id.  Nothing in the package itself
is edited; `uninstall` puts the original attributes back.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

LAYERS = ("cli", "graphs", "ratfun", "exact", "treefun", "walk", "gap")


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _batch_info(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    return {"count": a["count"], "ticks": a["count"] * a["stride"] * a["k"]}


def _first_return_info(fn, args, kwargs, result):
    return {"samples": int(len(result)), "ticks": int(result.sum())}


def _pk_info(fn, args, kwargs, result):
    return {"experiments": result.experiments}


def _det_info(fn, args, kwargs, result):
    return {"bits": max((abs(c).bit_length() for c in result.c), default=0)}


def _series_info(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    graph = a.get("g", a.get("source"))
    edges = graph.edge_count if hasattr(graph, "edge_count") else 0
    return {"work": a["k_max"] * edges}


# info hooks, keyed by span name; each runs after the call returns
INFO = {
    "walk.batch_return_successes": _batch_info,
    "walk.sample_first_returns": _first_return_info,
    "walk.estimate_pk": _pk_info,
    "ratfun.poly_det_bareiss": _det_info,
    "exact.lazy_series": _series_info,
    "exact.transition_series": _series_info,
}

STREAM_SPAN = "walk.return_stream"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, job, info]
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if hook is not None:
                rec[5] = hook(fn, args, kwargs, result)
            return result
        return wrapper

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def install(self, package) -> None:
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith(package.__name__ + ".")):
                    self._patch(module, attr,
                                f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}")
        self._patch(package.walk.ReturnTimes, "__next__", STREAM_SPAN)
        self._patch(package.walk.SampledReturnTimes, "__next__", STREAM_SPAN)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def job_span(self, job_id: str):
        """The benchmark's own span around one job; the package's spans
        inside it become its descendants."""
        self.job = job_id
        rec = ["bench.job", time.perf_counter_ns(), 0, -1, job_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter_ns()
            self.job = None

    def write(self, fh, label: str) -> None:
        """One JSON line per span; `label` tells the traced passes apart."""
        for i, (name, t0, t1, parent, job, info) in enumerate(self.spans):
            fh.write(json.dumps({"pass": label, "id": i, "name": name,
                                 "start_ns": t0, "end_ns": t1, "parent": parent,
                                 "job": job, "info": info}) + "\n")


def _ns_per(seconds: float, units: int) -> float:
    return seconds * 1e9 / units if units else 0.0


def layer_metrics(spans: list[list], exact_jobs: set[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass.

    `<layer>.self_s` is the layer's self time: its spans' durations minus
    the time covered by their direct children.  A function's `_s` metric
    is the inclusive time of its outermost calls.  `exact_jobs` holds the
    ids of the pass's `exact` subcommand jobs."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, (name, t0, t1, *_rest) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if layer in self_s:
            self_s[layer] += (t1 - t0 - child_ns[i]) / 1e9

    def outermost(names: set[str]):
        for span in spans:
            if span[0] not in names:
                continue
            p = span[3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                yield span

    def total_s(*names: str) -> float:
        return sum(s[2] - s[1] for s in outermost(set(names))) / 1e9

    def calls(name: str) -> list[list]:
        return [s for s in spans if s[0] == name]

    batch = calls("walk.batch_return_successes")
    first = calls("walk.sample_first_returns")
    dets = calls("ratfun.poly_det_bareiss")
    series = list(outermost({"exact.lazy_series", "exact.transition_series"}))

    # gap evaluations: batch calls made directly by an estimate_gap call; a
    # retry re-evaluates the bracket top with a multiple of the base count
    evals: dict[int, list[int]] = {}
    for s in batch:
        if s[3] >= 0 and spans[s[3]][0] == "gap.estimate_gap":
            evals.setdefault(s[3], []).append(s[5]["count"])
    experiments = sum(sum(c) for c in evals.values())
    retry_counts = [c for counts in evals.values() for c in counts if c > min(counts)]

    genfun = calls("exact.return_gen_fun")
    genfun_in_exact_jobs = sum(s[4] in exact_jobs for s in genfun)
    walk_ticks = sum(s[5]["ticks"] for s in batch)
    first_ticks = sum(s[5]["ticks"] for s in first)
    series_work = sum(s[5]["work"] for s in series)
    batch_s = total_s("walk.batch_return_successes")
    first_s = total_s("walk.sample_first_returns")
    series_s = total_s("exact.lazy_series", "exact.transition_series")
    m = {
        "walk.batch_s": (batch_s, "s"),
        "walk.batch_calls": (len(batch), "count"),
        "walk.walker_ticks": (walk_ticks, "count"),
        "walk.batch_ns_per_tick": (_ns_per(batch_s, walk_ticks), "ns"),
        "walk.first_return_s": (first_s, "s"),
        "walk.first_return_samples": (sum(s[5]["samples"] for s in first), "count"),
        "walk.first_return_ticks": (first_ticks, "count"),
        "walk.first_return_ns_per_tick": (_ns_per(first_s, first_ticks), "ns"),
        "walk.pk_s": (total_s("walk.estimate_pk"), "s"),
        "walk.pk_experiments": (sum(s[5]["experiments"] for s in calls("walk.estimate_pk")), "count"),
        "walk.stream_s": (total_s(STREAM_SPAN), "s"),
        "walk.stream_returns": (len(calls(STREAM_SPAN)), "count"),
        "gap.evaluations": (sum(len(c) for c in evals.values()), "count"),
        "gap.experiments": (experiments, "count"),
        "gap.retries": (len(retry_counts), "count"),
        "gap.retry_experiment_frac": (sum(retry_counts) / experiments if experiments else 0.0, "ratio"),
        "ratfun.det_s": (total_s("ratfun.poly_det_bareiss"), "s"),
        "ratfun.det_calls": (len(dets), "count"),
        "ratfun.det_max_bits": (max((s[5]["bits"] for s in dets), default=0), "bits"),
        "ratfun.gcd_s": (total_s("ratfun.poly_gcd"), "s"),
        "ratfun.gcd_calls": (len(calls("ratfun.poly_gcd")), "count"),
        "exact.series_s": (series_s, "s"),
        "exact.series_work": (series_work, "count"),
        "exact.series_ns_per_unit": (_ns_per(series_s, series_work), "ns"),
        "exact.genfun_s": (total_s("exact.return_gen_fun"), "s"),
        "exact.genfun_calls": (len(genfun), "count"),
        "exact.genfun_calls_per_exact_job": (genfun_in_exact_jobs / len(exact_jobs) if exact_jobs else 0.0, "ratio"),
        "exact.hitting_s": (total_s("exact.hitting_from_stationary"), "s"),
        "exact.spectrum_s": (total_s("exact.spectrum"), "s"),
        "exact.first_return_s": (total_s("exact.first_return_series"), "s"),
        "treefun.forge_s": (total_s("treefun.forge_tree_pair"), "s"),
        "treefun.h_series_s": (total_s("treefun.h_from_series"), "s"),
        "graphs.build_s": (total_s("graphs.build_family", "graphs.build_gab",
                                   "graphs.build_leafy", "graphs.glue_at_roots",
                                   "graphs.attach_new_root", "graphs.from_text",
                                   "graphs.from_edge_list"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["trace.spans"] = (len(spans), "count")
    return m


# count metrics a same-seed replay must reproduce exactly
DETERMINISTIC = (
    "walk.batch_calls", "walk.walker_ticks", "walk.first_return_samples",
    "walk.first_return_ticks", "walk.pk_experiments", "walk.stream_returns",
    "gap.evaluations", "gap.experiments", "gap.retries",
    "ratfun.det_calls", "ratfun.det_max_bits", "ratfun.gcd_calls",
    "exact.series_work", "exact.genfun_calls", "trace.spans")
