"""What a workload measurement hands back to the runner, plus the
per-layer counters every in-process scheduling workload reads from
``ScheduleResult.perf``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

#: EvalCache memo tables (``repro.core.evalcache``).
EVALCACHE_TABLES = ("compute", "static", "chain", "window", "affinity")


@dataclass
class Measurement:
    """One measured run of a workload.

    ``latencies_s`` holds every operation's latency, split into
    ``first_s`` (the first time the run's program state sees that input:
    a search on a fresh session, a memo miss, a cold lint) and
    ``repeat_s`` (an input seen before: a repeat search on a warm
    session, a memo hit, a lint after a one-file edit).  ``figures`` are the
    workload's own named figures (value, unit), printed for people and
    recorded with the run; ``errors`` lists every failed output check.

    Times are wall-clock.  ``starts`` holds when each operation began and
    ``timed`` the (start, end) intervals that add up to ``elapsed_s``, so
    the runner can turn them into reference-speed times (``hostspeed``).
    Throughput is the timed operations over the ``timed`` intervals,
    unless ``throughput`` gives a workload's own (operations, start, end).
    """

    latencies_s: list[float] = field(default_factory=list)
    first_s: list[float] = field(default_factory=list)
    repeat_s: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    repeats: list[bool] = field(default_factory=list)
    elapsed_s: float = 0.0
    timed: list[tuple[float, float]] = field(default_factory=list)
    throughput: tuple[int, float, float] | None = None
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    figures: dict[str, tuple[float, str]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)

    def record(self, latency: float, repeat: bool, start: float) -> None:
        self.latencies_s.append(latency)
        self.starts.append(start)
        self.repeats.append(repeat)
        (self.repeat_s if repeat else self.first_s).append(latency)

    def add_time(self, start: float, end: float) -> None:
        """Count ``[start, end]`` as measured time."""
        self.timed.append((start, end))
        self.elapsed_s += end - start

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 50:
            self.errors.append(message)


def perf_layers(perfs: Iterable[Any], ops: int) -> dict[str, float]:
    """Engine and EvalCache counters of a set of ``PerfReport`` values,
    counts per operation and ratios over the whole set."""
    perfs = [perf for perf in perfs if perf is not None]
    layers: dict[str, float] = {}
    hits = {table: 0 for table in EVALCACHE_TABLES}
    lookups = {table: 0 for table in EVALCACHE_TABLES}
    evictions = 0
    for perf in perfs:
        for table, stats in perf.cache.items():
            if table in hits:
                hits[table] += stats.hits
                lookups[table] += stats.lookups
            evictions += stats.evictions
    for table in EVALCACHE_TABLES:
        layers[f"evalcache.{table}.lookups"] = lookups[table] / ops
        layers[f"evalcache.{table}.hit_ratio"] = \
            hits[table] / lookups[table] if lookups[table] else 0.0
    layers["evalcache.evictions"] = evictions / ops
    evaluated = sum(perf.num_evaluated for perf in perfs)
    wall = sum(perf.wall_s for perf in perfs)
    segments = sum(perf.num_segments for perf in perfs)
    recosted = sum(perf.num_segments_recosted for perf in perfs)
    layers["engine.candidates"] = evaluated / ops
    layers["engine.evals_per_s"] = evaluated / wall if wall else 0.0
    layers["engine.segments"] = segments / ops
    layers["engine.segments_recosted"] = recosted / ops
    layers["engine.segment_reuse_ratio"] = \
        1.0 - recosted / segments if segments else 0.0
    return layers


#: Span name -> per-layer metric of its self seconds per operation.
SELF_TIME_METRICS = {
    "api.submit": "api.submit.self_s",
    "workloads.resolve": "workloads.resolve_s",
    "mcm.template_build": "mcm.template_build_s",
    "dataflow.cost": "dataflow.cost_s",
    "core.pack": "core.pack_s",
    "core.seg": "core.seg_s",
    "core.window_build": "core.window_build_s",
    "core.evaluate_window": "core.evaluate_window_s",
    "engine.prov": "engine.prov_s",
    "engine.sched": "engine.sched.self_s",
}

#: Span name -> per-layer metric of its calls per operation.
CALL_METRICS = {
    "dataflow.cost": "dataflow.cost.calls",
    "core.seg": "core.seg.calls",
    "core.window_build": "core.window_build.calls",
    "core.evaluate_window": "core.evaluate_window.calls",
}


def span_layers(tracer: Any, ops: int) -> dict[str, float]:
    """Per-layer self times and call counts of a traced run."""
    layers = {metric: tracer.self_s.get(span, 0.0) / ops
              for span, metric in SELF_TIME_METRICS.items()}
    layers.update({metric: tracer.calls.get(span, 0) / ops
                   for span, metric in CALL_METRICS.items()})
    layers["engine.prov.allocations"] = \
        tracer.counts.get("engine.prov.allocations", 0.0) / ops
    for span, metric in (("api.cache_key", "api.cache_key_ms"),
                         ("api.wire.encode", "api.wire.encode_ms"),
                         ("api.wire.decode", "api.wire.decode_ms")):
        calls = tracer.calls.get(span, 0)
        layers[metric] = \
            tracer.inclusive_s[span] * 1e3 / calls if calls else 0.0
    layers["trace.spans"] = float(sum(tracer.calls.values()))
    return layers


def breakdown(tracer: Any) -> dict[str, float]:
    """Share of ``Session.submit`` time each layer's self time takes."""
    total = tracer.inclusive_s.get("api.submit", 0.0)
    if not total:
        return {}
    return {span: tracer.self_s.get(span, 0.0) / total
            for span in SELF_TIME_METRICS}
