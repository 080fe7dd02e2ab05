"""search-table3: the paper's evaluation grid through ``Session.submit``.

One client in a closed loop on an in-process session: Table III
scenarios 1-10 on three heterogeneous templates, evolutionary SEG
search, vector kernel, serial backend.  Every request opts out of the
result memo, so each one is a full search.  A unit of work submits each
of the 30 grid requests twice on one fresh session: its first
submission, and a repeat one request later, when the session's cost
database and the process-wide caches already hold its layers.  First
and repeat submissions alternate through the whole unit, so both
medians sample the same stretch of time.  The seed shuffles the order
of the fixed grid, so every seed has recorded digests.
"""

from __future__ import annotations

import gc
import math
import random
import resource
from typing import Any

from common import median, now, payload_digest
from measure import Measurement, breakdown, perf_layers, span_layers

NAME = "search-table3"
TEMPLATES = ("het_sides_3x3", "het_t", "het_cross_6x6")
SCENARIOS = tuple(range(1, 11))
#: Seconds one unit (60 submissions) took on the reference host; a run
#: makes round(seconds / NOMINAL_UNIT_S) units (at least one).
NOMINAL_UNIT_S = 21.0


def grid_key(scenario_id: int, template: str) -> str:
    return f"{scenario_id}:{template}"


def build_requests(seed: int) -> list[tuple[str, Any]]:
    from repro.api import ScheduleRequest

    grid = [(grid_key(sid, template),
             ScheduleRequest(scenario_id=sid, template=template,
                             seg_search="evolutionary",
                             eval_mode="vector", backend="serial",
                             memoize=False))
            for template in TEMPLATES for sid in SCENARIOS]
    random.Random(f"{NAME}:{seed}").shuffle(grid)
    return grid


def interleave(grid: list) -> list[tuple[tuple[str, Any], bool]]:
    """(request, repeat) pairs: each request's repeat follows the next
    request's first submission (``A B A' C B' D C' ...``)."""
    sequence = []
    for index, item in enumerate(grid):
        sequence.append((item, False))
        if index:
            sequence.append((grid[index - 1], True))
    sequence.append((grid[-1], True))
    return sequence


def setup(ctx) -> dict[str, Any]:
    from repro.api import Session

    requests = build_requests(ctx.seed)
    return {"session": Session(), "requests": requests,
            "sequence": interleave(requests)}


def teardown(state: dict[str, Any]) -> None:
    state.clear()


def units(ctx) -> int:
    return max(1, round(ctx.seconds / NOMINAL_UNIT_S))


def _submit_all(session, sequence, edps: dict, m: Measurement,
                digests: dict) -> None:
    """Submit each (request, repeat) in order; each result is checked
    (outside the timed call) and dropped, so the harness holds none."""
    for (key, request), repeat in sequence:
        m.attempted += 1
        t0 = now()
        try:
            result = session.submit(request)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            m.fail(f"{key}: {type(exc).__name__}: {exc}")
            continue
        t1 = now()
        if check(key, result, digests, m):
            m.record(t1 - t0, repeat, start=t0)
            m.add_time(t0, t1)
            edps[key] = result.edp


def check(key: str, result, digests: dict, m: Measurement) -> bool:
    """The result's payload against its recorded digest (or, without
    one, a wire round trip); a mismatch is a failed operation."""
    from repro.api import ScheduleResult

    if key in digests["payloads"]:
        ok = payload_digest(result.to_dict()) == digests["payloads"][key]
    else:
        ok = ScheduleResult.from_json(result.to_json()).same_payload(result)
    if not ok:
        m.fail(f"{key}: payload differs from the recorded one")
    return ok


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run(ctx, state) -> Measurement:
    """``units(ctx)`` units of 60 submissions each; ``elapsed_s``
    is the time spent inside ``Session.submit``."""
    from repro.api import Session

    m = Measurement()
    digests = ctx.digests[NAME]
    edps: dict[str, float] = {}
    session = state["session"]
    for unit in range(units(ctx)):
        if unit:
            session = Session()
        gc.collect()
        _submit_all(session, state["sequence"], edps, m, digests)
    m.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if m.elapsed_s:
        m.figures["search_sched_per_s"] = (
            len(m.latencies_s) / m.elapsed_s, "1/s")
    if m.first_s:
        m.figures["search_p50_s"] = (median(m.first_s), "s")
    if len(edps) == len(SCENARIOS) * len(TEMPLATES):
        value = geomean([edps[key] for key in sorted(edps)])
        m.figures["search_edp_geomean"] = (value, "J.s")
        if repr(value) != digests["edp_geomean"]:
            m.fail(f"EDP geomean {value!r} differs from the recorded "
                   f"{digests['edp_geomean']}")
    return m


def run_traced(ctx, state, tracer) -> Measurement:
    """First submissions of the grid on two fresh sessions in lockstep:
    each request runs untraced on one and traced on the other,
    alternating which goes first, so both see the same cache history and
    host-speed drift cancels out of the overhead.  The traced session
    gives the per-layer numbers."""
    from repro.api import Session

    from spans import install_scheduling

    digests = ctx.digests[NAME]
    plain, traced = Session(), Session()
    untraced_m, traced_m = Measurement(), Measurement()
    gc.collect()
    for index, item in enumerate(state["requests"]):
        order = (False, True) if index % 2 == 0 else (True, False)
        for trace_it in order:
            if trace_it:
                install_scheduling(tracer, new_request=True)
                try:
                    _submit_all(traced, [(item, False)], {}, traced_m,
                                digests)
                finally:
                    tracer.uninstall()
            else:
                _submit_all(plain, [(item, False)], {}, untraced_m, digests)

    ops = max(1, len(traced_m.latencies_s))
    traced_m.layers.update(span_layers(tracer, ops))
    traced_m.layers.update(perf_layers(traced.perf_reports, ops))
    traced_m.layers["trace.overhead_pct"] = \
        100.0 * (traced_m.elapsed_s / untraced_m.elapsed_s - 1.0)
    traced_m.notes["breakdown"] = breakdown(tracer)
    traced_m.notes["untraced_elapsed_s"] = untraced_m.elapsed_s
    traced_m.failed += untraced_m.failed
    traced_m.attempted += untraced_m.attempted
    return traced_m
