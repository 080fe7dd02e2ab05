"""Run the benchmark in repeated sets and check that the sets agree.

From the root of a checkout::

    python3 perfbench/summarize.py --workload sim-warm --runs 10 --sets 2

runs ``perfbench/run.py`` once per seed 1..runs, with ``run_seconds``
from ``BENCHMARK.json``, and repeats that set ``--sets`` times.  For
every end-to-end metric and set it prints the median, the first and
third quartiles (``statistics.quantiles(n=4)``) and the spread
(Q3 - Q1) as a share of the median.  Each set's figures go to
``.perfbench_out/summary/<workload>.json``.

The exit code is the acceptance rule for a benchmark: 0 when, in every
set, each bounded metric's spread (``setup_s`` excepted) is within its
bound, and no later set's median is worse than the first set's by more
than the bound (``setup_s`` included).  The steadiness target, a spread
under a third of the bound, is printed as ``steady`` but not enforced.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from common import OUT_DIR, quartiles  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n"
                         f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def set_stats(outputs: list[dict]) -> dict:
    """Median, quartiles and spread of every metric over one set."""
    stats = {}
    for name, metric in outputs[0]["metrics"].items():
        q1, q2, q3 = quartiles(o["metrics"][name]["value"] for o in outputs)
        stats[name] = {"median": q2, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / q2 if q2 else 0.0,
                       "unit": metric["unit"]}
    return {"runs": len(outputs),
            "failed": sum(o["failed"] for o in outputs),
            "all_correct": all(o["correct"] for o in outputs),
            "metrics": stats}


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of it."""
    if not first:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def judge(workload: str, sets: list[dict], spec: dict) -> bool:
    print(f"== {workload}: {len(sets)} sets of {sets[0]['runs']} runs")
    ok = True
    for index, stats in enumerate(sets, 1):
        ok &= stats["failed"] == 0 and stats["all_correct"]
        print(f"  set {index}: {stats['failed']} failed operations, "
              f"all correct: {stats['all_correct']}")
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        for index, stats in enumerate(sets, 1):
            metric = stats["metrics"][name]
            spread_ok = name == "setup_s" or metric["spread"] <= bound
            worse = worse_by(sets[0]["metrics"][name]["median"],
                             metric["median"], entry["better"])
            agree_ok = worse <= bound
            ok &= spread_ok and agree_ok
            verdict = ("ok" if spread_ok and agree_ok else "FAIL") + (
                " steady" if metric["spread"] < bound / 3 else "")
            print(f"  {name:18s} set {index} median {metric['median']:12.6g}"
                  f" {metric['unit']:5s} Q1 {metric['q1']:12.6g}"
                  f" Q3 {metric['q3']:12.6g} spread {metric['spread']:7.2%}"
                  f" worse {worse:+7.2%} bound {bound:.2f} {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    out = Path.cwd() / OUT_DIR / "summary"
    out.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in args.workload:
        sets = []
        for index in range(1, args.sets + 1):
            outputs = []
            for seed in range(1, args.runs + 1):
                outputs.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"  ran {workload} set {index} seed {seed}",
                      flush=True)
            sets.append(set_stats(outputs))
        (out / f"{workload}.json").write_text(json.dumps(
            {"run_seconds": spec["run_seconds"], "seeds": f"1-{args.runs}",
             "sets": sets}, indent=1))
        ok &= judge(workload, sets, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
