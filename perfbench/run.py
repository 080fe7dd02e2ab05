"""The benchmark of record for the SCAR reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search-table3 --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/DESIGN.md``):
``search-table3``, ``serve-mixed``, ``sim-warm`` and ``lint-tree``.
The program is used only through its public entry points, imported
from the checkout's ``src/``.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload again with spans around the program's layer boundaries and
reports the per-layer metrics, the tracing overhead and a Chrome trace
under ``.perfbench_out/traces/``.  Either way every metric is printed
by name with its unit, the full record (host facts included) is written
under ``.perfbench_out/results/``, and the last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--seconds`` sets how much work a run does: each workload repeats a
fixed unit (a grid pass, a replay, a load schedule, a lint cycle) as
many times as fit in that many seconds on the reference host, so both
sides of a comparison always measure the same work.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from common import (  # noqa: E402 - after the path set-up above
    OUT_DIR,
    cpu_shares,
    cpu_times,
    fail,
    host_info,
    load_digests,
    median,
    now,
    tail,
)

WORKLOADS = {
    "search-table3": "search_table3",
    "serve-mixed": "serve_mixed",
    "sim-warm": "sim_warm",
    "lint-tree": "lint_tree",
}
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120.0


class Context:
    """What a workload needs to know about the run."""

    def __init__(self, root: Path, args: argparse.Namespace) -> None:
        self.root = root
        self.bench_dir = BENCH_DIR
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.out_dir = root / OUT_DIR
        self.work_dir = self.out_dir / f"work-{os.getpid()}"
        self.digests = load_digests(BENCH_DIR)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program(root: Path) -> dict:
    """Check the checkout and import the program from its ``src/``."""
    spec_path = root / "BENCHMARK.json"
    package = root / "src" / "repro" / "__init__.py"
    if not spec_path.is_file():
        fail(f"no BENCHMARK.json in {root}; run from the checkout root")
    if not package.is_file():
        fail(f"no program source at {package.parent}")
    sys.path.insert(0, str(root / "src"))
    try:
        import repro
    except Exception as exc:  # noqa: BLE001 - any import failure is fatal
        fail(f"cannot import the program: {type(exc).__name__}: {exc}")
    if Path(repro.__file__).resolve() != package.resolve():
        fail(f"imported repro from {repro.__file__}, not {package}")
    return json.loads(spec_path.read_text())


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh interpreter until the workload is
    ready for its first timed operation."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe"]
    start = now()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = now()
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        fail(f"set-up probe failed (exit {proc.returncode})")
    return ready - start


def wall_clock(t0: float, t1: float) -> float:
    return 1.0


def end_to_end(m, setup_samples: list[float],
               scale=wall_clock) -> dict[str, float]:
    """The end-to-end metrics, every operation's time divided by
    ``scale`` over the interval it was measured in (``HostSpeed.scale``
    for reference-speed times, ``wall_clock`` for raw ones).  Set-up
    time stays wall-clock: it is mostly process start-up, file reads and
    waits on the server, which do not follow the host's CPU speed."""

    def seconds(start: float, length: float) -> float:
        return length / scale(start, start + length)

    values = {
        "setup_s": median(setup_samples),
        "peak_rss_mb": m.peak_rss_mb,
        "ops_per_s": 0.0, "first_op_p50_ms": 0.0, "repeat_op_p50_ms": 0.0,
    }
    if m.throughput is not None:
        done, t0, t1 = m.throughput
        values["ops_per_s"] = done / seconds(t0, t1 - t0)
    elif m.latencies_s and m.timed:
        values["ops_per_s"] = len(m.latencies_s) / sum(
            seconds(t0, t1 - t0) for t0, t1 in m.timed)
    ops = [(seconds(start, latency), repeat) for start, latency, repeat
           in zip(m.starts, m.latencies_s, m.repeats)]
    first = [latency for latency, repeat in ops if not repeat]
    repeat = [latency for latency, repeat in ops if repeat]
    if first:
        values["first_op_p50_ms"] = median(first) * 1e3
    if repeat:
        values["repeat_op_p50_ms"] = median(repeat) * 1e3
    return values


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    spec = load_program(root)
    module = importlib.import_module(WORKLOADS[args.workload])
    ctx = Context(root, args)
    ctx.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            state = module.setup(ctx)
            print("READY", flush=True)
            module.teardown(state)
            return 0
        return measure(args, ctx, spec, module)
    finally:
        shutil.rmtree(ctx.work_dir, ignore_errors=True)


def measure(args, ctx: Context, spec: dict, module) -> int:
    from hostspeed import HostSpeed

    speed = HostSpeed().start()
    try:
        setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
        tracer = None
        state = module.setup(ctx)
        cpu_before = cpu_times()
        try:
            if args.trace:
                from spans import Tracer

                tracer = Tracer()
                m = module.run_traced(ctx, state, tracer)
            else:
                m = module.run(ctx, state)
        finally:
            module.teardown(state)
    finally:
        speed.stop()
    m.notes.update(cpu_shares(cpu_before, cpu_times()))
    m.notes.update(speed.summary())
    if m.latencies_s:
        # Reported, not bounded: on the reference host the tail of
        # serve-mixed spread ~50% from run to run (see DESIGN.md).
        high = tail(m.latencies_s)
        m.figures["op_tail_ms"] = (high.value * 1e3, "ms")
        m.notes["op_tail"] = high.label

    if args.trace:
        declared = spec["per_layer"]
        values = {entry["name"]: m.layers.get(entry["name"], 0.0)
                  for entry in declared}
    else:
        declared = spec["end_to_end"]
        computed = end_to_end(m, setup_samples, speed.scale)
        values = {entry["name"]: computed[entry["name"]]
                  for entry in declared}
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in declared}

    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_info(ctx.root),
        "setup_samples_s": setup_samples,
        "wall_clock": end_to_end(m, setup_samples),
        "ops": [[round(start - speed.t0, 4), latency, repeat,
                 speed.scale(start, start + latency)]
                for start, latency, repeat
                in zip(m.starts, m.latencies_s, m.repeats)],
        "attempted": m.attempted, "failed": m.failed, "errors": m.errors,
        "metrics": metrics,
        "figures": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in m.figures.items()},
        "notes": m.notes,
    }
    if tracer is not None:
        trace_path = ctx.out_dir / "traces" / f"{tag}.json"
        record["chrome_trace"] = str(trace_path.relative_to(ctx.root))
        record["stored_spans"] = tracer.write_chrome_trace(trace_path)
    results = ctx.out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2))

    report(record)
    correct = m.failed == 0 and not m.errors
    print(json.dumps({"correct": correct, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


def report(record: dict) -> None:
    """The human-readable part: every metric and figure with its unit."""
    host = record["host"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={record['trace']} | "
          f"git {host['git_sha'] or '-'} src {host['src_digest']} | "
          f"python {host['python']} numpy {host['numpy']} | "
          f"nproc {host['nproc']} | {host['cpu_model']}")
    for name, metric in record["metrics"].items():
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in record["wall_clock"].items():
        print(f"  wall clock {name:23s} {value:14.6g}")
    for name, figure in record["figures"].items():
        print(f"  {name:34s} {figure['value']:14.6g} {figure['unit']}")
    for name, value in record["notes"].items():
        if name == "breakdown":
            for span, share in sorted(value.items(), key=lambda kv: -kv[1]):
                print(f"  share of submit: {span:24s} {share:7.1%}")
        else:
            print(f"  {name}: {value}")
    if "chrome_trace" in record:
        print(f"  chrome trace: {record['chrome_trace']} "
              f"({record['stored_spans']} spans)")
    print(f"  attempted {record['attempted']}, failed {record['failed']}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")


if __name__ == "__main__":
    sys.exit(main())
