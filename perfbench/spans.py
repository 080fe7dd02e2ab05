"""In-memory span tracing around the program's public layer boundaries.

The benchmark's traced runs install wrappers on the bindings callers
actually look up (``repro.core.scar.rank_segmentations`` rather than
``repro.core.segmentation.rank_segmentations``, because ``scar`` imports
the function by name).  Each call becomes a span with a name, start,
end, parent span and request id.  Spans stay in memory and are written
out as Chrome trace-event JSON (loadable in Perfetto or chrome://tracing)
when the run ends.

Self time is computed as the spans close: a span's duration minus the
part of it its child spans cover.  Untraced runs never import this
module's wrappers, so end-to-end metrics are measured without them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

#: Spans kept for the Chrome trace; aggregates cover every span even
#: past the cap, which only bounds the trace file and memory.
MAX_STORED_SPANS = 250_000


class Tracer:
    """Records spans from wrapped callables, per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._epoch_ns = time.perf_counter_ns()
        self._next_request = 0
        #: (name, start_ns, end_ns, parent index or -1, request id, tid)
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        #: inclusive seconds of outermost spans of each name (a span
        #: nested in a same-named span is not counted twice)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: per-name sums a wrapper's ``on_result`` hook adds
        self.counts: dict[str, float] = defaultdict(float)

    # -- request context --------------------------------------------------

    def new_request(self) -> int:
        with self._lock:
            self._next_request += 1
            return self._next_request

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body (for the harness's
        own boundaries, such as an HTTP round trip)."""
        frame = self._enter(name, False)
        try:
            yield
        finally:
            self._exit(frame)

    def _enter(self, name: str, new_request: bool) -> list:
        stack = self._stack()
        # frame: name, start, child ns, stored index, outermost-of-name
        outermost = all(frame[0] != name for frame in stack)
        if new_request and outermost:
            self._local.request = self.new_request()
        frame = [name, time.perf_counter_ns(), 0, -1, outermost]
        with self._lock:
            if len(self.spans) < MAX_STORED_SPANS:
                frame[3] = len(self.spans)
                self.spans.append(None)  # filled on exit
            else:
                self.dropped += 1
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        name, start, child_ns, index, outermost = frame
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        request = getattr(self._local, "request", 0)
        with self._lock:
            self.calls[name] += 1
            self.self_s[name] += (duration - child_ns) / 1e9
            if outermost:
                self.inclusive_s[name] += duration / 1e9
            if index >= 0:
                self.spans[index] = (
                    name, start, end,
                    parent[3] if parent is not None else -1,
                    request, threading.get_ident())

    # -- installation -----------------------------------------------------

    def wrap(self, module: str, attr: str, name: str, *,
             new_request: bool = False,
             on_result: Callable[["Tracer", Any], None] | None = None
             ) -> None:
        """Replace ``module.attr`` (``attr`` may be ``Class.method``)
        with a span-recording wrapper; ``uninstall`` restores it."""
        owner: Any = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if isinstance(owner, type) \
            else getattr(owner, leaf)
        target = original.__func__ if isinstance(
            original, (staticmethod, classmethod)) else original
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, new_request)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_result is not None:
                on_result(tracer, result)
            return result

        if isinstance(original, staticmethod):
            replacement: Any = staticmethod(wrapper)
        elif isinstance(original, classmethod):
            replacement = classmethod(wrapper)
        else:
            replacement = wrapper
        setattr(owner, leaf, replacement)
        self._patches.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    # -- output -----------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> int:
        """Chrome trace-event JSON ("X" complete events, microseconds)."""
        events = []
        for index, span in enumerate(self.spans):
            if span is None:  # still open when the run ended
                continue
            name, start, end, parent, request, tid = span
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (start - self._epoch_ns) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1, "tid": tid,
                "args": {"span": index, "parent": parent,
                         "request_id": request},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"dropped_spans": self.dropped}},
                      handle)
        return len(events)


def count_allocations(tracer: Tracer, allocations: Any) -> None:
    """``on_result`` hook of ``window_allocations``: PROV allocations."""
    tracer.counts["engine.prov.allocations"] += len(allocations)


#: The scheduling-path boundaries (in-process workloads), as
#: (module, attribute, span name).  PROV's two calls share one span name
#: and MCM-Reconfig's three share another, so each layer reports once.
SCHEDULING_BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("repro.api.session", "Session.submit", "api.submit"),
    ("repro.api.request", "ScheduleRequest.cache_key", "api.cache_key"),
    ("repro.api.request", "ScheduleRequest.resolve_scenario",
     "workloads.resolve"),
    ("repro.api.request", "ScheduleResult.to_json", "api.wire.encode"),
    ("repro.api.request", "ScheduleResult.from_json", "api.wire.decode"),
    ("repro.mcm.templates", "build", "mcm.template_build"),
    ("repro.dataflow.database", "LayerCostDatabase.cost", "dataflow.cost"),
    ("repro.core.scar", "expected_layer_latencies", "core.pack"),
    ("repro.core.scar", "expected_layer_energies", "core.pack"),
    ("repro.core.scar", "greedy_pack", "core.pack"),
    ("repro.core.scar", "rank_segmentations", "core.seg"),
    ("repro.core.sched_engine", "build_window_schedule",
     "core.window_build"),
    ("repro.core.metrics", "ScheduleEvaluator.evaluate_window",
     "core.evaluate_window"),
    ("repro.core.scar", "window_shares", "engine.prov"),
    ("repro.engine.search", "WindowSearch.run", "engine.sched"),
)


def install_scheduling(tracer: Tracer, *, new_request: bool) -> None:
    """Wrap every scheduling-path boundary.

    ``new_request=True`` makes each outermost ``Session.submit`` open a
    new request id (the replay submits from inside one call, so the
    harness cannot tag events itself).
    """
    for module, attr, name in SCHEDULING_BOUNDARIES:
        tracer.wrap(module, attr, name,
                    new_request=new_request and name == "api.submit")
    tracer.wrap("repro.core.scar", "window_allocations", "engine.prov",
                on_result=count_allocations)
