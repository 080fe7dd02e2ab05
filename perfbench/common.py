"""Shared helpers of the benchmark: statistics, digests, host facts and
process control.

Everything here is standard library only, so the harness can start
(and fail cleanly) even when the program under test cannot be imported.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

#: Directory (relative to the checkout root) that runs write results,
#: Chrome traces and scratch inputs into.  Listed in the root .gitignore.
OUT_DIR = ".perfbench_out"

#: Samples a timing needs beyond its tail percentile (see ``tail``).
TAIL_BEYOND = 10


# -- statistics ---------------------------------------------------------------

def percentile(values: Iterable[float], pct: float) -> float:
    """Linear-interpolated percentile (the numpy default convention)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


@dataclass(frozen=True)
class Tail:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above.

    That is the (TAIL_BEYOND + 1)-th largest sample; ``pct`` is its rank
    as a percentile and ``n`` the sample count.  With too few samples the
    tail falls back to the maximum (``pct`` 100) and says so.
    """

    value: float
    pct: float
    n: int

    @property
    def label(self) -> str:
        if self.pct >= 100.0:
            return f"max of {self.n} (fewer than {TAIL_BEYOND + 1} samples)"
        return f"p{self.pct:.1f} of {self.n}"


def tail(values: Iterable[float]) -> Tail:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= TAIL_BEYOND:
        return Tail(ordered[-1], 100.0, n)
    index = n - 1 - TAIL_BEYOND
    pct = 100.0 * index / (n - 1)
    return Tail(ordered[index], pct, n)


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    import statistics

    ordered = sorted(values)
    if len(ordered) < 2:
        only = ordered[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(ordered, n=4)
    return q1, q2, q3


# -- output digests -----------------------------------------------------------

def canonical_json(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def payload_digest(result_document: dict[str, Any]) -> str:
    """Digest of a ``schedule_result`` document without its perf block.

    The same fields ``ScheduleResult.same_payload`` compares: request,
    schedule, metrics, window candidates and evaluation count.
    """
    stripped = {key: value for key, value in result_document.items()
                if key != "perf"}
    return hashlib.sha256(canonical_json(stripped).encode()).hexdigest()


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests(bench_dir: Path) -> dict[str, Any]:
    return json.loads((bench_dir / "data" / "digests.json").read_text())


# -- host facts ---------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: Path) -> str:
    """Digest of every file under ``src/``: identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_info(root: Path) -> dict[str, Any]:
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 - absent numpy is a fact to record
        numpy_version = None
    return {
        "git_sha": _git_sha(root),
        "src_digest": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (jiffies per state)."""
    try:
        with open("/proc/stat") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except OSError:
        return []


def cpu_shares(before: list[int], after: list[int]) -> dict[str, float]:
    """Busy and steal shares of all CPUs between two ``cpu_times``:
    steal is time the hypervisor ran something else on our CPUs."""
    if len(before) < 8 or len(after) < 8:
        return {}
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8]) or 1
    idle = delta[3] + delta[4]
    return {"busy_pct": 100.0 * (total - idle - delta[7]) / total,
            "steal_pct": 100.0 * delta[7] / total}


# -- processes ----------------------------------------------------------------

def child_env(root: Path) -> dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def descendants(pid: int) -> list[int]:
    """``pid`` and every live descendant, from /proc."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found, frontier = [pid], [pid]
    while frontier:
        nxt = []
        for parent in frontier:
            nxt.extend(children.get(parent, []))
        found.extend(nxt)
        frontier = nxt
    return found


def peak_rss_kb(pid: int) -> int:
    """VmHWM (peak resident set) of one process, 0 once it is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass
class TreeRss:
    """Peak RSS of a process tree, sampled while it runs.

    Each process's VmHWM only grows, so the last value read before it
    exits is its peak; the tree's figure is the sum over processes.
    """

    peaks: dict[int, int] = field(default_factory=dict)

    def sample(self, pid: int) -> None:
        for proc in descendants(pid):
            kb = peak_rss_kb(proc)
            if kb:
                self.peaks[proc] = max(self.peaks.get(proc, 0), kb)

    @property
    def total_mb(self) -> float:
        return sum(self.peaks.values()) / 1024.0


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """SIGTERM a process started with ``start_new_session=True``, then
    SIGKILL its whole group if it lingers; always reaps it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait(timeout=timeout)


def now() -> float:
    return time.perf_counter()


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)
