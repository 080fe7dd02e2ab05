"""lint-tree: ``scar lint --jobs 2 --cache`` cold, then warm after edits.

The input is a pinned snapshot (``data/lint_tree.tar.xz``) of the
repository's ``src/ tests/ benchmarks/ analysis/`` plus the README and
DESIGN documents SCAR005 reads, taken at the commit named in
``data/digests.json``.  Pinning keeps later code growth from reading as
a lint slowdown; the lint code itself always comes from the checkout.

One cycle is a cold lint (no cache file) followed by three warm lints,
each after appending a comment line to one more file.  The seed picks
the edited files from the modules of ``repro.experiments``; an edit
re-analyses the file and its import-graph dependents (about six files).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import tarfile
import threading
from pathlib import Path
from typing import Any

from common import TreeRss, canonical_json, child_env, median, now
from measure import Measurement

NAME = "lint-tree"
SNAPSHOT = Path("data") / "lint_tree.tar.xz"
LINT_PATHS = ("src", "tests", "benchmarks", "analysis")
WARM_EDITS = 3
#: Seconds one cold + three warm lints took on the reference host; a run
#: makes round(seconds / NOMINAL_CYCLE_S) cycles (at least one).
NOMINAL_CYCLE_S = 7.0
#: Report fields that describe how a lint ran rather than what it found.
_PERF_FIELDS = ("timings", "cache", "jobs")


def identity_digest(document: dict[str, Any]) -> str:
    """Digest of what a lint checked and found (perf fields dropped)."""
    stripped = {key: value for key, value in document.items()
                if key not in _PERF_FIELDS}
    return hashlib.sha256(canonical_json(stripped).encode()).hexdigest()


def extract(ctx, digests: dict) -> Path:
    archive = ctx.bench_dir / SNAPSHOT
    data = archive.read_bytes()
    if hashlib.sha256(data).hexdigest() != digests["snapshot_sha256"]:
        raise RuntimeError(f"{archive} does not match its recorded sha256")
    tree = ctx.work_dir / "lint-tree"
    if tree.exists():
        shutil.rmtree(tree)
    tree.mkdir(parents=True)
    with tarfile.open(archive, "r:xz") as bundle:
        bundle.extractall(tree, filter="data")
    return tree


def edit_targets(tree: Path, seed: int) -> list[Path]:
    candidates = sorted(
        path for path in (tree / "src/repro/experiments").glob("*.py")
        if path.name != "__init__.py")
    return random.Random(f"{NAME}:{seed}").sample(candidates, WARM_EDITS)


def setup(ctx) -> dict[str, Any]:
    digests = ctx.digests[NAME]
    tree = extract(ctx, digests)
    targets = edit_targets(tree, ctx.seed)
    return {"tree": tree, "targets": targets,
            "pristine": {path: path.read_bytes() for path in targets},
            "cache": ctx.work_dir / "lint.cache"}


def teardown(state: dict[str, Any]) -> None:
    tree = state.get("tree")
    if tree is not None and tree.exists():
        shutil.rmtree(tree)
    state.clear()


def cycles(ctx) -> int:
    return max(1, round(ctx.seconds / NOMINAL_CYCLE_S))


def _lint(ctx, state) -> tuple[float, float, float, dict | None, str]:
    """One ``scar lint`` process: (start, seconds, peak RSS of its
    process tree in MB, report document, error)."""
    argv = [sys.executable, "-m", "repro", "lint", *LINT_PATHS,
            "--jobs", "2", "--cache", str(state["cache"]),
            "--format", "json"]
    start = now()
    proc = subprocess.Popen(argv, cwd=state["tree"],
                            env=child_env(ctx.root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    done = threading.Event()
    rss = TreeRss()

    def sample() -> None:
        while not done.wait(0.02):
            rss.sample(proc.pid)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    finally:
        done.set()
        sampler.join()
    elapsed = now() - start
    if proc.returncode not in (0, 1):
        return start, elapsed, rss.total_mb, None, \
            f"exit {proc.returncode}: {err.decode()[-300:]}"
    try:
        return start, elapsed, rss.total_mb, json.loads(out), ""
    except json.JSONDecodeError as exc:
        return start, elapsed, rss.total_mb, None, \
            f"unparseable report: {exc}"


def _cycle(ctx, state, m: Measurement, reports: list,
           tracer=None) -> None:
    """One cold lint and ``WARM_EDITS`` warm ones; appends
    ``(cold, report, seconds)`` per successful lint to ``reports``."""
    for path, content in state["pristine"].items():
        path.write_bytes(content)
    state["cache"].unlink(missing_ok=True)
    for step in range(1 + WARM_EDITS):
        cold = step == 0
        if not cold:
            target = state["targets"][step - 1]
            with target.open("a") as handle:
                handle.write(f"# edited by the lint-tree benchmark, "
                             f"step {step}\n")
        m.attempted += 1
        if tracer is not None:
            with tracer.span("lint.cold" if cold else "lint.warm"):
                start, elapsed, rss_mb, report, error = _lint(ctx, state)
        else:
            start, elapsed, rss_mb, report, error = _lint(ctx, state)
        m.add_time(start, start + elapsed)
        m.peak_rss_mb = max(m.peak_rss_mb, rss_mb)
        if report is None:
            m.fail(f"{'cold' if cold else 'warm'} lint: {error}")
            continue
        expected = ctx.digests[NAME]["report"]
        if identity_digest(report) != expected:
            m.fail(f"{'cold' if cold else 'warm'} lint reported other "
                   f"findings than the recorded ones")
            continue
        m.record(elapsed, repeat=not cold, start=start)
        reports.append((cold, report, elapsed))


def run(ctx, state) -> Measurement:
    m = Measurement()
    reports: list = []
    for _ in range(cycles(ctx)):
        _cycle(ctx, state, m, reports)
    if m.first_s:
        m.figures["lint_cold_s"] = (median(m.first_s), "s")
    if m.repeat_s:
        m.figures["lint_warm_s"] = (median(m.repeat_s), "s")
    return m


def lint_layers(reports: list) -> dict[str, float]:
    layers: dict[str, float] = {}
    cold = [report for is_cold, report, _ in reports if is_cold]
    warm = [report for is_cold, report, _ in reports if not is_cold]
    codes = sorted({code for report in cold for code in report["timings"]})
    for code in codes:
        layers[f"lint.checker.{code}_s"] = sum(
            report["timings"].get(code, 0.0) for report in cold) / len(cold)
    hits = sum(report["cache"]["hits"] for report in warm)
    misses = sum(report["cache"]["misses"] for report in warm)
    layers["lint.cache.hit_ratio"] = \
        hits / (hits + misses) if hits + misses else 0.0
    layers["lint.files_reanalyzed"] = misses / len(warm) if warm else 0.0
    return layers


def run_traced(ctx, state, tracer) -> Measurement:
    """An untraced cycle as the overhead baseline, then a cycle with a
    span around each lint process.  Per-layer figures come from the
    traced cycle's lint reports."""
    untraced = Measurement()
    _cycle(ctx, state, untraced, [])
    traced = Measurement()
    reports: list = []
    _cycle(ctx, state, traced, reports, tracer=tracer)
    traced.layers.update(lint_layers(reports))
    traced.layers["trace.overhead_pct"] = \
        100.0 * (traced.elapsed_s / untraced.elapsed_s - 1.0)
    traced.layers["trace.spans"] = float(sum(tracer.calls.values()))
    traced.failed += untraced.failed
    traced.attempted += untraced.attempted
    return traced
