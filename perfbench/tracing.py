"""Spans recorded from outside the program, and the per-layer metrics.

The benchmark never edits ``src/``: :func:`install` replaces public
functions and methods of ``repro`` with thin wrappers that record one
span per call.  A function imported by name into other modules
(``from repro.eval.cache import schedule_key``) is rebound there too, so
every call site is seen.  A target that no longer exists is reported as
a missing layer instead of failing the run.

Spans stay in memory.  :meth:`Tracer.write_chrome_trace` writes them as
Chrome trace-event JSON (opens in Perfetto or ``chrome://tracing``), and
:func:`layer_metrics` reduces them to the per-layer metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: (layer, span name, "module:attribute path") of every wrapped target.
#: The span name is what the Chrome trace shows; metrics group spans by it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads", "workloads.build_workbench", "repro.workloads.suite:build_workbench"),
    ("core", "core.schedule_loop", "repro.core.engine:SchedulerEngine.schedule_loop"),
    ("core.analysis_cache", "analysis.mii", "repro.core.analysis_cache:AnalysisCache.mii"),
    ("core.analysis_cache", "analysis.order", "repro.core.analysis_cache:AnalysisCache.order"),
    ("eval.experiments", "eval.schedule_suite", "repro.eval.experiments:schedule_suite"),
    ("eval.experiments", "eval.evaluate_configuration",
     "repro.session.core:Session.evaluate_configuration"),
    ("eval.cache", "eval.schedule_key", "repro.eval.cache:schedule_key"),
    ("eval.cache", "eval.cache.get", "repro.eval.cache:EvalCache.get"),
    ("eval.cache", "eval.cache.put", "repro.eval.cache:EvalCache.put"),
    ("eval.shards", "eval.shards.get", "repro.eval.shards:ResultStore.get"),
    ("eval.shards", "eval.shards.put", "repro.eval.shards:ResultStore.put"),
    ("serialize", "serialize.to_dict", "repro.serialize:to_dict"),
    ("serialize", "serialize.dumps", "repro.serialize:dumps"),
    ("serialize", "serialize.from_dict", "repro.serialize:from_dict"),
    ("serialize", "serialize.loads", "repro.serialize:loads"),
    ("serialize", "serialize.load", "repro.serialize:load"),
    ("store", "store.upsert_job", "repro.store.db:RunDatabase.upsert_job"),
    ("store", "store.update_job", "repro.store.db:RunDatabase.update_job"),
    ("store", "store.add_runs", "repro.store.db:RunDatabase.add_runs"),
    ("store", "store.job", "repro.store.db:RunDatabase.job"),
    ("store", "store.job_by_key", "repro.store.db:RunDatabase.job_by_key"),
    ("store", "store.jobs", "repro.store.db:RunDatabase.jobs"),
    ("store", "store.query_runs", "repro.store.db:RunDatabase.query_runs"),
    ("service.batch", "service.submit", "repro.service.batch:BatchScheduler.submit"),
    ("service.http", "http.submit_job", "repro.service.http:submit_job"),
    ("service.http", "http.fetch_json", "repro.service.http:fetch_json"),
)

ENCODE_SPANS = ("serialize.to_dict", "serialize.dumps")
DECODE_SPANS = ("serialize.from_dict", "serialize.loads", "serialize.load")
STORE_WRITES = ("store.upsert_job", "store.update_job", "store.add_runs")
STORE_READS = ("store.job", "store.job_by_key", "store.jobs", "store.query_runs")
#: Spans made once per loop: their request id also carries the call's
#: index within the request, which is the loop's position in a serial,
#: uncached pass.
PER_LOOP = ("core.schedule_loop", "eval.schedule_key", "eval.cache.get", "eval.cache.put")


class Span:
    """One timed call: name, start/end (perf_counter seconds), parent, request."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "request", "thread", "value")

    def __init__(self, span_id, name, start, parent, request, thread):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread
        #: What the wrapped call returned, reduced to what a metric needs.
        self.value = None


class Tracer:
    """In-memory span recorder shared by every thread of the process.

    ``request`` is the id stamped on new spans: the benchmark sets it to
    the configuration pass, or to ``#n`` for the n-th service job (the
    client is a closed loop with one connection, so every server thread
    works for the job in flight).  Spans made once per loop append the
    loop's position within the request (see ``PER_LOOP``).
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Span] = []
        self.enabled = True
        self.request: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._calls: Dict[Tuple[object, str], int] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        request = self.request
        if name in PER_LOOP:
            index = self._calls.get((request, name), 0)
            self._calls[(request, name)] = index + 1
            request = f"{request}:{index}"
        span = Span(
            next(self._ids), name, time.perf_counter(),
            stack[-1].span_id if stack else None, request,
            threading.get_ident(),
        )
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Context manager recording one span from the benchmark's own code."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.finish(span)

    def wrap(self, name: str, function: Callable, reduce: Optional[Callable] = None):
        """A wrapper recording one span per call of ``function``."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            span = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.finish(span)
            if reduce is not None:
                try:
                    span.value = reduce(result)
                except (AttributeError, TypeError, ValueError):
                    span.value = None
            return result

        return traced

    def write_chrome_trace(self, path, metadata: Dict[str, object]) -> None:
        """Write every span as Chrome trace-event JSON ("X" complete events)."""
        pid = os.getpid()
        threads: Dict[int, int] = {}
        events: List[Dict[str, object]] = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": round((span.start - self.origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"id": span.span_id, "parent": span.parent,
                         "request": None if span.request is None else str(span.request)},
            })
        for ident, tid in threads.items():
            events.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                           "args": {"name": "main" if ident == threading.main_thread().ident
                                    else f"thread-{tid}"}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, handle)


# --------------------------------------------------------------------------- #
# Installing the wrappers
# --------------------------------------------------------------------------- #
def _attempts(result) -> Tuple[int, int, int, int]:
    """(attempts, successes, spill memory ops, communication ops) of one result.

    Only serialized result fields are read: ``attempted_iis`` (its int
    entries; a policy may append a string audit note), ``success``,
    ``n_spill_memory_ops`` and ``n_comm_ops``.
    """
    attempts = sum(1 for ii in result.attempted_iis if isinstance(ii, int))
    return (attempts, int(bool(result.success)),
            int(result.n_spill_memory_ops), int(result.n_comm_ops))


def _reuses(components: int) -> Callable:
    """Reduce an ``AnalysisCache`` answer ``(value, n_reuses)`` to (reuses, looked up)."""

    def reduce(result):
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], int):
            return (result[1], components)
        return None

    return reduce


def _hit(result) -> bool:
    return result is not None


def _rows(result) -> int:
    return result if isinstance(result, int) else 1


_REDUCERS: Dict[str, Callable] = {
    "core.schedule_loop": _attempts,
    "analysis.mii": _reuses(2),
    "analysis.order": _reuses(1),
    "eval.cache.get": _hit,
    "eval.shards.get": _hit,
    "store.upsert_job": _rows,
    "store.update_job": _rows,
    "store.add_runs": _rows,
}


def _resolve(path: str):
    """(owner, attribute name, current value) of ``"module:Attr.path"``."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, leaf = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def install(tracer: Tracer, targets: Sequence[Tuple[str, str, str]] = TARGETS) -> List[str]:
    """Wrap every target; returns the span names whose target is missing.

    A module-level function is replaced in its own module and in every
    loaded ``repro`` module that imported it by name.  A method is
    replaced on its class.
    """
    missing: List[str] = []
    for _layer, name, path in targets:
        try:
            owner, leaf, original = _resolve(path)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        wrapper = tracer.wrap(name, original, _REDUCERS.get(name))
        setattr(owner, leaf, wrapper)
        if isinstance(owner, type):
            continue
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro") or module is owner:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return missing


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = max(0.0, (span.end - span.start) - covered)
    return result


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


#: Per-layer metric -> (unit, the span names whose target it needs).
LAYER_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "setup.import_s": ("s", ()),
    "workloads.build_s": ("s", ("workloads.build_workbench",)),
    "session.open_s": ("s", ()),
    "core.schedule_loop_s": ("s", ("core.schedule_loop",)),
    "core.loop_p50_ms": ("ms", ("core.schedule_loop",)),
    "core.loop_p90_ms": ("ms", ("core.schedule_loop",)),
    "core.attempts": ("count", ("core.schedule_loop",)),
    "core.failed_attempts": ("count", ("core.schedule_loop",)),
    "core.useful_attempt_ratio": ("ratio", ("core.schedule_loop",)),
    "core.spill_mem_ops": ("count", ("core.schedule_loop",)),
    "core.comm_ops": ("count", ("core.schedule_loop",)),
    "analysis.s": ("s", ("analysis.mii", "analysis.order")),
    "analysis.calls": ("count", ("analysis.mii", "analysis.order")),
    "analysis.reuse_ratio": ("ratio", ("analysis.mii", "analysis.order")),
    "eval.suite_self_s": ("s", ("eval.schedule_suite", "eval.evaluate_configuration")),
    "eval.schedule_key_s": ("s", ("eval.schedule_key",)),
    "eval.schedule_key.calls": ("count", ("eval.schedule_key",)),
    "eval.cache.get_s": ("s", ("eval.cache.get",)),
    "eval.cache.put_s": ("s", ("eval.cache.put",)),
    "eval.cache.hit_ratio": ("ratio", ("eval.cache.get",)),
    "eval.shards.get_s": ("s", ("eval.shards.get",)),
    "eval.shards.put_s": ("s", ("eval.shards.put",)),
    "eval.shards.hit_ratio": ("ratio", ("eval.shards.get",)),
    "serialize.encode_s": ("s", ENCODE_SPANS),
    "serialize.decode_s": ("s", DECODE_SPANS),
    "serialize.calls": ("count", ENCODE_SPANS + DECODE_SPANS),
    "store.write_s": ("s", STORE_WRITES),
    "store.writes": ("count", STORE_WRITES),
    "store.rows_written": ("count", STORE_WRITES),
    "store.read_s": ("s", STORE_READS),
    "store.reads": ("count", STORE_READS),
    "service.submit_ms_p50": ("ms", ("service.submit",)),
    "service.queue_wait_ms_p50": ("ms", ()),
    "service.execute_ms_p50": ("ms", ()),
    "service.execute_ms_p99": ("ms", ()),
    "service.dedup_share": ("ratio", ()),
    "http.post_ms_p50": ("ms", ("http.submit_job", "service.submit")),
    "http.fetch_ms_p50": ("ms", ("http.fetch_json",)),
    "http.fetch_ms_p99": ("ms", ("http.fetch_json",)),
    "http.fetch_kb_p50": ("kB", ()),
    "verify.check_s": ("s", ()),
    "trace.overhead_share": ("ratio", ()),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Span], missing: Sequence[str], extra: Dict[str, float]
) -> Tuple[Dict[str, Dict[str, object]], List[str]]:
    """Reduce spans to the per-layer metrics; returns (metrics, missing metric names).

    ``extra`` carries the values measured outside the wrappers (setup
    spans, service status timestamps, response sizes, the oracle time,
    the tracing overhead).  A metric whose wrap target is missing reads 0
    and is listed in the second return value.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(*names: str) -> List[Span]:
        return [span for name in names for span in by_name.get(name, ())]

    def total(*names: str) -> float:
        return sum(span.end - span.start for span in named(*names))

    def self_total(*names: str) -> float:
        return sum(selfs[span.span_id] for span in named(*names))

    loops = named("core.schedule_loop")
    counts = [span.value for span in loops if span.value is not None]
    attempts = sum(c[0] for c in counts)
    successes = sum(c[1] for c in counts)
    analysis = [span.value for span in named("analysis.mii", "analysis.order")
                if span.value is not None]
    serialize_ids = {span.span_id for span in named(*ENCODE_SPANS, *DECODE_SPANS)}
    outermost = [span for span in named(*ENCODE_SPANS, *DECODE_SPANS)
                 if span.parent not in serialize_ids]
    cache_gets = named("eval.cache.get")
    shard_gets = named("eval.shards.get")
    loop_ms = [(span.end - span.start) * 1e3 for span in loops]

    values: Dict[str, float] = {
        "workloads.build_s": total("workloads.build_workbench"),
        "core.schedule_loop_s": self_total("core.schedule_loop"),
        "core.loop_p50_ms": percentile(loop_ms, 50),
        "core.loop_p90_ms": percentile(loop_ms, 90),
        "core.attempts": attempts,
        "core.failed_attempts": attempts - successes,
        "core.useful_attempt_ratio": _ratio(successes, attempts),
        "core.spill_mem_ops": sum(c[2] for c in counts),
        "core.comm_ops": sum(c[3] for c in counts),
        "analysis.s": total("analysis.mii", "analysis.order"),
        "analysis.calls": len(named("analysis.mii", "analysis.order")),
        "analysis.reuse_ratio": _ratio(sum(a[0] for a in analysis),
                                       sum(a[1] for a in analysis)),
        "eval.suite_self_s": self_total("eval.schedule_suite", "eval.evaluate_configuration"),
        "eval.schedule_key_s": total("eval.schedule_key"),
        "eval.schedule_key.calls": len(named("eval.schedule_key")),
        "eval.cache.get_s": total("eval.cache.get"),
        "eval.cache.put_s": total("eval.cache.put"),
        "eval.cache.hit_ratio": _ratio(sum(1 for s in cache_gets if s.value), len(cache_gets)),
        "eval.shards.get_s": total("eval.shards.get"),
        "eval.shards.put_s": total("eval.shards.put"),
        "eval.shards.hit_ratio": _ratio(sum(1 for s in shard_gets if s.value), len(shard_gets)),
        "serialize.encode_s": self_total(*ENCODE_SPANS),
        "serialize.decode_s": self_total(*DECODE_SPANS),
        "serialize.calls": len(outermost),
        "store.write_s": total(*STORE_WRITES),
        "store.writes": len(named(*STORE_WRITES)),
        "store.rows_written": sum(span.value or 0 for span in named(*STORE_WRITES)),
        "store.read_s": total(*STORE_READS),
        "store.reads": len(named(*STORE_READS)),
        "service.submit_ms_p50": percentile(
            [(s.end - s.start) * 1e3 for s in named("service.submit")], 50),
        "http.fetch_ms_p50": percentile(
            [(s.end - s.start) * 1e3 for s in named("http.fetch_json")], 50),
        "http.fetch_ms_p99": percentile(
            [(s.end - s.start) * 1e3 for s in named("http.fetch_json")], 99),
    }
    server_submit = {s.request: s.end - s.start for s in named("service.submit")}
    values["http.post_ms_p50"] = percentile(
        [(s.end - s.start - server_submit.get(s.request, 0.0)) * 1e3
         for s in named("http.submit_job")], 50)
    values.update(extra)

    missing_set = set(missing)
    absent = [name for name, (_unit, needs) in LAYER_METRICS.items()
              if any(need in missing_set for need in needs)]
    metrics = {
        name: {"value": 0.0 if name in absent else float(values.get(name, 0.0)), "unit": unit}
        for name, (unit, _needs) in LAYER_METRICS.items()
    }
    return metrics, absent
