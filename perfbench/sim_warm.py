"""sim-warm: warm trace replay on the scalar reference kernel.

``repro.sim.replay(mode="warm")`` over a trace of two resident tenants
and six bursty tenants.  Each bursty tenant arrives and departs three
times with the same workload, so after its first burst every visit to
its tenant set is a session-memo hit: 8 of the 38 events schedule a new
tenant set and 30 revisit one.  The seed shuffles the burst order only;
the set of tenant sets visited, and therefore every result and the
deadline-miss rate, is the same for every seed.
"""

from __future__ import annotations

import gc
import random
import resource
from typing import Any

from common import median, now, payload_digest
from measure import Measurement, breakdown, perf_layers, span_layers

NAME = "sim-warm"
TRACE_NAME = "perfbench-sim-warm"
#: (tenant, zoo model, batch, deadline_s); deadlines are set so three
#: of the eight tenants miss their SLA on the reference schedules.
RESIDENTS = (("r1", "resnet50", 8, 0.020), ("r2", "bert_base", 3, 0.025))
BURSTERS = (("b1", "googlenet", 1, 0.005), ("b2", "bert_large", 1, 0.030),
            ("b3", "unet", 3, 0.080), ("b4", "gpt_l", 1, 0.050),
            ("b5", "resnet50", 24, 0.012), ("b6", "bert_base", 32, 0.120))
BURSTS_PER_TENANT = 3
NSPLITS = 2
#: Seconds one replay took on the reference host; a run makes
#: round(seconds / NOMINAL_REPLAY_S) replays (at least one).
NOMINAL_REPLAY_S = 4.0


def budget():
    from repro.core.budget import SearchBudget

    return SearchBudget(max_candidates_per_window=100, max_root_combos=8)


def build_trace(seed: int):
    from repro.sim import TenantEvent, Trace

    events = []
    tick = 0
    for tenant, model, batch, deadline in RESIDENTS:
        events.append(TenantEvent(tick=tick, kind="arrive", tenant=tenant,
                                  model=model, batch=batch,
                                  deadline_s=deadline))
        tick += 1
    bursts = [entry for entry in BURSTERS
              for _ in range(BURSTS_PER_TENANT)]
    random.Random(f"{NAME}:{seed}").shuffle(bursts)
    for tenant, model, batch, deadline in bursts:
        events.append(TenantEvent(tick=tick, kind="arrive", tenant=tenant,
                                  model=model, batch=batch,
                                  deadline_s=deadline))
        events.append(TenantEvent(tick=tick + 1, kind="depart",
                                  tenant=tenant))
        tick += 2
    return Trace(name=TRACE_NAME, events=tuple(events))


def setup(ctx) -> dict[str, Any]:
    from repro.sim import replay  # noqa: F401 - part of set-up

    return {"trace": build_trace(ctx.seed)}


def teardown(state: dict[str, Any]) -> None:
    state.clear()


def replays(ctx) -> int:
    return max(1, round(ctx.seconds / NOMINAL_REPLAY_S))


def _replay(trace, m: Measurement) -> list:
    from repro.sim import replay

    m.attempted += len(trace.events)
    start = now()
    try:
        outcomes = replay(trace, mode="warm", nsplits=NSPLITS,
                          budget=budget())
    except Exception as exc:  # noqa: BLE001 - every event failed
        m.add_time(start, now())
        m.failed += len(trace.events)
        m.errors.append(f"replay: {type(exc).__name__}: {exc}")
        return []
    end = now()
    m.add_time(start, end)
    # replay times each event itself but does not say when it began:
    # place the events back to back, with the untimed rest of the
    # replay spread evenly in front of each.
    gap = (end - start - sum(o.wall_s for o in outcomes)) / \
        max(1, len(outcomes))
    at = start
    for outcome in outcomes:
        at += gap
        m.record(outcome.wall_s, repeat=outcome.memo_hit, start=at)
        at += outcome.wall_s
    return outcomes


def set_key(outcome) -> str:
    return "+".join(outcome.tenants)


def check(trace, outcomes: list, digests: dict, m: Measurement) -> None:
    """Every event's payload against the digest of its tenant set, each
    memo hit against the miss that produced it, and the report's
    deadline-miss rate against the recorded one."""
    from repro.api import ScheduleResult
    from repro.sim import build_report

    seen: dict[str, str] = {}
    for index, outcome in enumerate(outcomes):
        if outcome.result is None:
            continue
        key = set_key(outcome)
        digest = payload_digest(outcome.result.to_dict())
        expected = digests["payloads"].get(key) or seen.get(key)
        if expected is not None and digest != expected:
            m.fail(f"event {index} ({key}): payload differs from the "
                   f"recorded one")
            continue
        seen.setdefault(key, digest)
        if not outcome.memo_hit and not ScheduleResult.from_json(
                outcome.result.to_json()).same_payload(outcome.result):
            m.fail(f"event {index} ({key}): result does not survive a "
                   f"wire round trip")
    if outcomes:
        report = build_report(trace, "warm", outcomes)
        m.figures["sim_deadline_miss_rate"] = (
            report.deadline_miss_rate, "ratio")
        if repr(report.deadline_miss_rate) != digests["deadline_miss_rate"]:
            m.fail(f"deadline-miss rate {report.deadline_miss_rate!r} "
                   f"differs from the recorded "
                   f"{digests['deadline_miss_rate']}")


def run(ctx, state) -> Measurement:
    m = Measurement()
    trace = state["trace"]
    for _ in range(replays(ctx)):
        gc.collect()
        check(trace, _replay(trace, m), ctx.digests[NAME], m)
    m.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m.figures["sim_events_per_s"] = (len(m.latencies_s) / m.elapsed_s,
                                     "1/s")
    if m.latencies_s:
        m.figures["sim_event_p50_s"] = (median(m.latencies_s), "s")
    return m


def sim_layers(outcomes: list) -> dict[str, float]:
    hits = [o.wall_s for o in outcomes if o.memo_hit]
    misses = [o.wall_s for o in outcomes
              if not o.memo_hit and o.result is not None]
    return {
        "sim.memo_hit_ratio": len(hits) / len(outcomes),
        "api.memo.hit_ratio": len(hits) / len(outcomes),
        "sim.event_s.hit": median(hits) if hits else 0.0,
        "sim.event_s.miss": median(misses) if misses else 0.0,
    }


def run_traced(ctx, state, tracer) -> Measurement:
    """Replays in the order untraced, traced, traced, untraced, so a
    linear drift in host speed cancels out of the overhead.  The traced
    replays give the per-layer numbers."""
    from spans import install_scheduling

    trace = state["trace"]
    untraced, traced = Measurement(), Measurement()
    outcomes: list = []
    for trace_it in (False, True, True, False):
        gc.collect()
        if not trace_it:
            check(trace, _replay(trace, untraced), ctx.digests[NAME],
                  untraced)
            continue
        tracer.wrap("repro.sim", "replay", "sim.replay")
        install_scheduling(tracer, new_request=True)
        try:
            replayed = _replay(trace, traced)
        finally:
            tracer.uninstall()
        check(trace, replayed, ctx.digests[NAME], traced)
        outcomes.extend(replayed)

    ops = max(1, len(outcomes))
    traced.layers.update(span_layers(tracer, ops))
    traced.layers.update(perf_layers(
        (o.result.perf for o in outcomes
         if o.result is not None and not o.memo_hit), ops))
    traced.layers.update(sim_layers(outcomes))
    traced.layers["trace.overhead_pct"] = \
        100.0 * (traced.elapsed_s / untraced.elapsed_s - 1.0)
    traced.notes["breakdown"] = breakdown(tracer)
    traced.failed += untraced.failed
    traced.attempted += untraced.attempted
    return traced
