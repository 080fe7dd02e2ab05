"""serve-mixed: open-loop traffic to a separate ``scar serve`` process.

The server runs ``--job-backend process --workers 2 --eval-mode vector
--store <scratch>`` and the benchmark drives it over HTTP with
``ServiceClient``: one sender thread POSTs each request when it is due,
one poller thread fetches results, so the client never holds more than
two connections.

Each run sends ``MISS_RATE * seconds`` distinct requests (first
sightings, session-memo misses) and ``HIT_RATE * seconds`` repeats (memo
hits).  The repeats are a seeded Poisson process conditioned on its
count: times drawn uniformly over the window.  The distinct requests
come one per ``1 / MISS_RATE`` slot, at a seeded uniform time within it
(``miss_times``).  Each repeat names one of the
least-repeated requests first sent at least ``REPEAT_GAP_S`` earlier.
The distinct requests are a fixed pool of seeded ``random_mix`` tenant
sets, so every seed has recorded digests; the seed decides the arrival
times, which request arrives when, and which earlier request each
repeat names.

Every request is timed from when it was due to be sent until its result
has been parsed, so a stall in the server also delays the requests
queued behind it.

The open loop's completion rate is the offered load, whatever the
server's speed, so throughput comes from a saturation burst sent after
the open loop has drained: ``BURST_MISSES`` new requests, each with
``HITS_PER_MISS`` repeats of open-loop requests, all due at once.  The
burst's correct results per second, from its first send to its last
result, are the run's ``ops_per_s``.

Polling starts at ``POLL_S`` and widens with a job's age to a tenth of
it (at most ``10 * POLL_S``), which keeps the polling error under about
10% of any latency without flooding the server.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from common import (
    TreeRss,
    child_env,
    median,
    now,
    payload_digest,
    short_digest,
    stop_process,
    tail,
)
from measure import Measurement

NAME = "serve-mixed"
#: Offered load (requests per second).  Misses take ~0.25 s in a warm
#: server worker on the reference host, so this keeps the two process
#: workers about an eighth busy (``service.worker_utilization``).  At
#: half busy ~40% of hits queued behind misses, which put the hit median
#: on the edge between its two modes; at a third busy the hit median
#: still spread 34% over five seeds, against 7% here.
MISS_RATE = 1.0
HITS_PER_MISS = 3
HIT_RATE = HITS_PER_MISS * MISS_RATE
REPEAT_GAP_S = 2.0
#: New requests in the saturation burst: ~4 s of both workers' time.
BURST_MISSES = 30
#: ``random_mix`` family of the distinct requests (seed, tenants) and
#: their search budget.
POOL_SEED = 1234
POOL_TENANTS = 3
POOL_NSPLITS = 2
POOL_BUDGET = {"max_candidates_per_window": 100, "max_root_combos": 8}
POLL_S = 0.002
POLL_CAP_S = 10 * POLL_S
#: Sends are scheduled from this long after the run starts.
LEAD_S = 0.25
#: A send later than this behind schedule marks the generator as behind.
LATE_SEND_MS = 50.0
SERVER_START_TIMEOUT_S = 60.0
#: Pool requests no run times, sent during set-up with ``memoize=False``
#: (three per pool worker), so timed requests do not pay for forking the
#: pool and filling the workers' cost databases.
WARMUP_POOL = range(100, 106)
_URL = re.compile(r"(http://[0-9.]+:[0-9]+)")


@dataclass(frozen=True)
class Arrival:
    due_s: float  # offset from the run's start
    pool_index: int
    repeat: bool


def pool_request(index: int):
    from repro.api import ScheduleRequest
    from repro.core.budget import SearchBudget
    from repro.workloads.generator import random_mix

    return ScheduleRequest.for_scenario(
        random_mix(POOL_SEED, tenants=POOL_TENANTS, index=index),
        nsplits=POOL_NSPLITS, budget=SearchBudget(**POOL_BUDGET))


def pool_key(request) -> str:
    return short_digest(request.cache_key())


def miss_times(rng: random.Random, misses: int,
               seconds: float) -> list[float]:
    """One miss at a seeded uniform time in each of ``misses`` equal
    slots of the window.

    Independent (Poisson) miss times let the number of misses that
    overlap on the two workers swing from seed to seed, and that decided
    the miss median: over 20 runs one seed's misses were 1.5x slower than
    the rest in both sets, with no steal.  Drawing the gaps at fixed
    exponential quantiles in seeded order still left runs of short gaps.
    One miss per slot keeps the local miss rate near the mean.
    """
    slot = seconds / misses
    return [(index + rng.random()) * slot for index in range(misses)]


def schedule(seed: int, seconds: float) -> list[Arrival]:
    rng = random.Random(f"{NAME}:{seed}")
    misses = max(1, round(MISS_RATE * seconds))
    hits = round(HIT_RATE * seconds)
    order = list(range(misses))
    rng.shuffle(order)
    miss_due = miss_times(rng, misses, seconds)
    arrivals = [Arrival(due, index, False)
                for due, index in zip(miss_due, order)]
    earliest_repeat = min(miss_due[0] + REPEAT_GAP_S, seconds)
    repeats = {index: 0 for index in order}
    for due in sorted(rng.uniform(earliest_repeat, seconds)
                      for _ in range(hits)):
        # Balanced: each repeat names one of the least-repeated requests
        # first sent at least REPEAT_GAP_S earlier.
        eligible = [a.pool_index for a in arrivals[:misses]
                    if a.due_s <= due - REPEAT_GAP_S] or [order[0]]
        fewest = min(repeats[index] for index in eligible)
        index = rng.choice([i for i in eligible if repeats[i] == fewest])
        repeats[index] += 1
        arrivals.append(Arrival(due, index, True))
    arrivals.sort(key=lambda a: (a.due_s, a.repeat, a.pool_index))
    return arrivals


def burst_schedule(seconds: float) -> list[Arrival]:
    """The saturation burst: the next ``BURST_MISSES`` pool requests,
    each followed by ``HITS_PER_MISS`` repeats of open-loop requests, all
    due at the burst's start.  The order is the same for every seed: on
    two workers the burst's length depends on the order of its
    unequal misses, and that should not vary from run to run."""
    rng = random.Random(f"{NAME}:burst")
    first = max(1, round(MISS_RATE * seconds))
    fresh = list(range(first, first + BURST_MISSES))
    rng.shuffle(fresh)
    arrivals = []
    for index in fresh:
        arrivals.append(Arrival(0.0, index, False))
        arrivals.extend(Arrival(0.0, rng.randrange(first), True)
                        for _ in range(HITS_PER_MISS))
    return arrivals


# -- server lifecycle --------------------------------------------------------

def start_server(ctx, tag: str) -> dict[str, Any]:
    """Spawn ``scar serve``, wait for its first 200 from /v1/health, then
    warm both pool workers."""
    from repro.service import ServiceClient

    work = ctx.work_dir / f"serve-{tag}"
    work.mkdir(parents=True, exist_ok=True)
    store = work / "store.jsonl"
    store.unlink(missing_ok=True)
    log_path = work / "server.log"
    argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", "2", "--job-backend", "process",
            "--eval-mode", "vector", "--store", str(store)]
    with log_path.open("w") as log:
        proc = subprocess.Popen(argv, cwd=ctx.root, env=child_env(ctx.root),
                                stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    url = None
    try:
        while url is None:
            match = _URL.search(log_path.read_text())
            if match:
                url = match.group(1)
            elif proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"scar serve did not start: {log_path.read_text()}")
            else:
                time.sleep(0.005)
        probe = ServiceClient(url, timeout_s=5.0)
        while True:
            try:
                probe.health()
                break
            except Exception:  # noqa: BLE001 - not accepting yet
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        warmup = [probe.submit(dataclasses.replace(
            pool_request(index), memoize=False))
            for index in WARMUP_POOL]
        for job in warmup:
            job.result(timeout=SERVER_START_TIMEOUT_S)
    except BaseException:
        stop_process(proc)
        raise
    return {"proc": proc, "url": url, "store": store}


def stop_server(server: dict[str, Any]) -> None:
    stop_process(server["proc"])


def setup(ctx) -> dict[str, Any]:
    arrivals = schedule(ctx.seed, ctx.seconds)
    burst = burst_schedule(ctx.seconds)
    pool = [pool_request(i) for i in range(
        max(a.pool_index for a in arrivals + burst) + 1)]
    return {"arrivals": arrivals, "burst": burst, "pool": pool,
            "server": start_server(ctx, "main")}


def teardown(state: dict[str, Any]) -> None:
    server = state.pop("server", None)
    if server is not None:
        stop_server(server)
    state.clear()


# -- the load generator -------------------------------------------------------

@dataclass
class _Job:
    index: int
    job_id: str
    due: float  # absolute perf_counter time
    next_poll: float


class _Load:
    """State shared by the sender and poller threads of one run."""

    def __init__(self, total: int) -> None:
        self.cond = threading.Condition()
        self.heap: list[tuple[float, int, _Job]] = []
        self.remaining = total
        self.latency: dict[int, float] = {}
        self.done_at: dict[int, float] = {}
        self.results: dict[int, Any] = {}
        self.job_ids: dict[int, str] = {}
        self.polls = 0
        self.errors: dict[int, str] = {}

    def add(self, job: _Job) -> None:
        with self.cond:
            heapq.heappush(self.heap, (job.next_poll, job.index, job))
            self.cond.notify()

    def finish(self, index: int, error: str | None = None) -> None:
        with self.cond:
            if error is not None:
                self.errors[index] = error
            self.remaining -= 1
            self.cond.notify()


def _poller(client, load: _Load, deadline: float, tracer) -> None:
    from repro.errors import ServiceError

    while True:
        with load.cond:
            while True:
                if load.remaining <= 0 or now() > deadline:
                    return
                if load.heap and load.heap[0][0] <= now():
                    _, _, job = heapq.heappop(load.heap)
                    break
                timeout = load.heap[0][0] - now() if load.heap else 0.05
                load.cond.wait(timeout=max(0.0, min(timeout, 0.05)))
        load.polls += 1
        try:
            if tracer is not None:
                with tracer.span("service.poll"):
                    result = client.result(job.job_id)
            else:
                result = client.result(job.job_id)
        except ServiceError as exc:
            if getattr(exc, "code", None) == "job_not_done":
                age = now() - job.due
                job.next_poll = now() + min(POLL_CAP_S,
                                            max(POLL_S, 0.1 * age))
                load.add(job)
            else:
                load.finish(job.index, f"{type(exc).__name__}: {exc}")
            continue
        except Exception as exc:  # noqa: BLE001 - a failed operation
            load.finish(job.index, f"{type(exc).__name__}: {exc}")
            continue
        done = now()
        load.latency[job.index] = done - job.due
        load.done_at[job.index] = done
        load.results[job.index] = result
        load.finish(job.index)


def _send(arrivals: list[Arrival], window_s: float, pool, client,
          load: _Load, tracer) -> tuple[list[float], list[float], int, float]:
    """The sender: POST each arrival when due, hand it to the poller,
    and wait for the poller.  Returns (send lags ms, POST round trips
    ms, 429 rejections, the start time)."""
    from repro.errors import ServiceOverloadedError

    start = now() + LEAD_S
    deadline = start + window_s + 120.0
    poller = threading.Thread(target=_poller,
                              args=(client, load, deadline, tracer),
                              daemon=True)
    poller.start()
    lags_ms: list[float] = []
    post_ms: list[float] = []
    rejected = 0
    for index, arrival in enumerate(arrivals):
        due = start + arrival.due_s
        delay = due - now()
        if delay > 0:
            time.sleep(delay)
        sent = now()
        lags_ms.append((sent - due) * 1e3)
        while True:
            try:
                if tracer is not None:
                    with tracer.span("service.post"):
                        handle = client.submit(pool[arrival.pool_index])
                else:
                    handle = client.submit(pool[arrival.pool_index])
                break
            except ServiceOverloadedError as exc:
                rejected += 1
                time.sleep(getattr(exc, "retry_after_s", None) or POLL_S)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                handle = None
                load.finish(index, f"submit: {type(exc).__name__}: {exc}")
                break
        post_ms.append((now() - sent) * 1e3)
        if handle is not None:
            load.job_ids[index] = handle.job_id
            load.add(_Job(index, handle.job_id, due, now()))
    poller.join(timeout=max(1.0, deadline - now()))
    return lags_ms, post_ms, rejected, start


def drive(ctx, state, server: dict[str, Any], tracer=None
          ) -> tuple[Measurement, dict[str, Any]]:
    """Send the open-loop schedule, then the saturation burst, to
    ``server`` and check every result."""
    from repro.service import ServiceClient

    arrivals: list[Arrival] = state["arrivals"]
    burst: list[Arrival] = state["burst"]
    client = ServiceClient(server["url"], poll_s=POLL_S,
                           overload_retries=0, timeout_s=30.0)
    load, burst_load = _Load(len(arrivals)), _Load(len(burst))
    # Hand the interpreter lock between the sender and the poller every
    # 0.5 ms instead of 5 ms, so neither thread's bookkeeping delays the
    # other's timestamps.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        lags_ms, post_ms, rejected, start = _send(
            arrivals, ctx.seconds, state["pool"], client, load, tracer)
        _, _, burst_rejected, burst_start = _send(
            burst, 0.0, state["pool"], client, burst_load, tracer)
    finally:
        sys.setswitchinterval(switch)

    m = Measurement(attempted=len(arrivals) + len(burst))
    rss = TreeRss()
    rss.sample(server["proc"].pid)
    m.peak_rss_mb = rss.total_mb
    m.elapsed_s = max(load.done_at.values(), default=now()) - start
    produced: dict[int, str] = {}
    _check(state, arrivals, load, m, produced, timed=True)
    correct = _check(state, burst, burst_load, m, produced, timed=False)
    burst_end = max(burst_load.done_at.values(), default=now())
    m.throughput = (correct, burst_start, burst_end)
    stats = {"lags_ms": lags_ms, "post_ms": post_ms,
             "rejected": rejected + burst_rejected, "polls": load.polls,
             "client": client, "load": load,
             "burst_s": burst_end - burst_start,
             "goodput_rps": correct / (burst_end - burst_start)}
    return m, stats


def _check(state, arrivals: list[Arrival], load: _Load, m: Measurement,
           produced: dict[int, str], timed: bool) -> int:
    """Misses against recorded digests (or, for requests without one, a
    wire round trip); every repeat against the miss that produced it.
    ``produced`` maps each pool request to its first result's digest.
    Records the latencies when ``timed``; returns the correct results."""
    from repro.api import ScheduleResult

    pool = state["pool"]
    recorded = state["digests"]["payloads"]
    for index, error in sorted(load.errors.items()):
        m.fail(f"request {index}: {error}")
    correct = 0
    for index in sorted(load.results):
        arrival = arrivals[index]
        result = load.results[index]
        document = result.to_dict()
        digest = payload_digest(document)
        if arrival.repeat:
            ok = digest == produced.get(arrival.pool_index)
        else:
            produced[arrival.pool_index] = digest
            key = pool_key(pool[arrival.pool_index])
            ok = digest == recorded[key] if key in recorded else \
                ScheduleResult.from_dict(document).same_payload(result)
        if not ok:
            m.fail(f"request {index}: payload differs from the "
                   + ("miss that first produced it" if arrival.repeat
                      else "recorded one"))
            continue
        correct += 1
        if timed:
            latency = load.latency[index]
            m.record(latency, arrival.repeat,
                     start=load.done_at[index] - latency)
    missing = len(arrivals) - len(load.results) - len(load.errors)
    for _ in range(missing):
        m.fail("request never completed")
    return correct


def _figures(state, m: Measurement, stats: dict[str, Any]) -> None:
    arrivals: list[Arrival] = state["arrivals"]
    load: _Load = stats["load"]
    hits = [load.latency[i] * 1e3 for i in load.results
            if arrivals[i].repeat]
    misses = [load.latency[i] * 1e3 for i in load.results
              if not arrivals[i].repeat]
    for label, sample in (("hit", hits), ("miss", misses)):
        if sample:
            m.figures[f"serve_{label}_p50_ms"] = (median(sample), "ms")
            high = tail(sample)
            m.figures[f"serve_{label}_tail_ms"] = (high.value, "ms")
            m.notes[f"serve_{label}_tail"] = high.label
    m.figures["serve_goodput_rps"] = (stats["goodput_rps"], "1/s")
    m.notes["burst_s"] = stats["burst_s"]
    m.notes["open_loop_rps"] = \
        len(m.latencies_s) / m.elapsed_s if m.elapsed_s > 0 else 0.0
    lags = stats["lags_ms"]
    late = sum(1 for lag in lags if lag > LATE_SEND_MS)
    m.notes["loadgen_send_lag_ms_p50"] = median(lags) if lags else 0.0
    m.notes["loadgen_send_lag_ms_max"] = max(lags, default=0.0)
    m.notes["loadgen_behind"] = late > 0
    if late:
        print(f"perfbench: warning: the load generator fell behind "
              f"({late} sends more than {LATE_SEND_MS:.0f} ms late)",
              file=sys.stderr)


def run(ctx, state) -> Measurement:
    state["digests"] = ctx.digests[NAME]
    m, stats = drive(ctx, state, state["server"])
    _figures(state, m, stats)
    return m


def _records(client, load: _Load) -> dict[int, Any]:
    return {index: client.job(job_id)
            for index, job_id in load.job_ids.items()}


def serve_layers(state, m: Measurement, stats: dict[str, Any],
                 server: dict[str, Any]) -> dict[str, float]:
    """Service, store, api and load-generator figures of one run."""
    from repro.api import ScheduleResult

    arrivals: list[Arrival] = state["arrivals"]
    load: _Load = stats["load"]
    records = _records(stats["client"], load)
    layers: dict[str, float] = {}
    for label, repeat in (("hit", True), ("miss", False)):
        chosen = [r for i, r in records.items()
                  if arrivals[i].repeat == repeat]
        for field in ("queue_s", "run_s"):
            values = [getattr(r, field) or 0.0 for r in chosen]
            layers[f"service.{field}.{label}"] = \
                sum(values) / len(values) if values else 0.0
    miss_run = sum(r.run_s or 0.0 for i, r in records.items()
                   if not arrivals[i].repeat)
    layers["service.worker_utilization"] = \
        miss_run / (2 * m.elapsed_s) if m.elapsed_s > 0 else 0.0
    jobs = max(1, len(load.job_ids))
    layers["service.polls_per_job"] = stats["polls"] / jobs
    layers["service.rejected_429"] = float(stats["rejected"])
    layers["service.post_ms"] = \
        sum(stats["post_ms"]) / len(stats["post_ms"])
    lags = stats["lags_ms"]
    layers["loadgen.send_lag_ms.p50"] = median(lags)
    layers["loadgen.send_lag_ms.max"] = max(lags)
    layers["loadgen.late_sends"] = float(
        sum(1 for lag in lags if lag > LATE_SEND_MS))

    # A memo hit hands back the stored result, perf block included; a
    # repeat that had to be searched again carries its own perf.
    first: dict[int, Any] = {}
    for index in sorted(load.results):
        if not arrivals[index].repeat:
            first[arrivals[index].pool_index] = load.results[index].perf
    memo_hits = sum(
        1 for index in load.results if arrivals[index].repeat
        and load.results[index].perf == first.get(
            arrivals[index].pool_index))
    layers["api.memo.hit_ratio"] = memo_hits / max(1, len(load.results))

    pool = state["pool"]
    key_s = []
    for request in pool:
        t0 = now()
        request.cache_key()
        key_s.append(now() - t0)
    layers["api.cache_key_ms"] = 1e3 * sum(key_s) / len(key_s)
    encode, decode, size = [], [], []
    for result in load.results.values():
        t0 = now()
        text = result.to_json()
        t1 = now()
        ScheduleResult.from_json(text)
        decode.append(now() - t1)
        encode.append(t1 - t0)
        size.append(len(text) / 1024.0)
    if size:
        layers["api.wire.encode_ms"] = 1e3 * sum(encode) / len(encode)
        layers["api.wire.decode_ms"] = 1e3 * sum(decode) / len(decode)
        layers["api.wire.result_kb"] = sum(size) / len(size)
    store: Path = server["store"]
    if store.exists():
        layers["store.appended_kb"] = store.stat().st_size / 1024.0
        layers["store.records"] = float(
            sum(1 for line in store.read_text().splitlines() if line))
    return layers


def run_traced(ctx, state, tracer) -> Measurement:
    """An untraced run on the set-up server as the overhead baseline,
    then the same schedule on a fresh server with spans around every
    HTTP call.  Per-layer figures come from the traced run."""
    state["digests"] = ctx.digests[NAME]
    untraced, _ = drive(ctx, state, state["server"])
    server = start_server(ctx, "traced")
    try:
        traced, stats = drive(ctx, state, server, tracer=tracer)
        traced.layers.update(serve_layers(state, traced, stats, server))
    finally:
        stop_server(server)
    # The client-side spans sit on every request; the hit median is where
    # they weigh most.
    if traced.repeat_s and untraced.repeat_s:
        traced.layers["trace.overhead_pct"] = 100.0 * (
            median(traced.repeat_s) / median(untraced.repeat_s) - 1.0)
    traced.layers["trace.spans"] = float(sum(tracer.calls.values()))
    traced.failed += untraced.failed
    traced.attempted += untraced.attempted
    return traced
