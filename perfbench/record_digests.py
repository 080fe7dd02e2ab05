"""Record the reference outputs the benchmark checks against.

Run from the root of a git checkout, on the commit whose outputs are the
reference::

    python3 perfbench/record_digests.py [--snapshot COMMIT]

``--snapshot`` first rebuilds ``data/lint_tree.tar.xz`` from ``git
archive COMMIT`` (the pinned lint-tree input).  The script then computes,
at the default seed, every payload digest the workloads compare against
and writes ``data/digests.json``.  Re-record only when a change is meant
to alter schedules or lint findings, and say so in the change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import lzma
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import lint_tree  # noqa: E402
import search_table3  # noqa: E402
import serve_mixed  # noqa: E402
import sim_warm  # noqa: E402
from common import payload_digest  # noqa: E402

#: Distinct serve-mixed requests recorded: the open loop's 1 per second
#: plus the burst's 30 fit up to --seconds 70, below the set-up warm-up
#: requests (``serve_mixed.WARMUP_POOL``).
SERVE_POOL_RECORDED = 120
SNAPSHOT_PATHS = ("src", "tests", "benchmarks", "analysis", "README.md",
                  "DESIGN.md")


def build_snapshot(root: Path, commit: str) -> str:
    sha = subprocess.run(["git", "rev-parse", commit], cwd=root, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha,
                          *SNAPSHOT_PATHS],
                         cwd=root, check=True, capture_output=True).stdout
    (BENCH_DIR / lint_tree.SNAPSHOT).write_bytes(
        lzma.compress(tar, preset=9))
    return sha


class _Ctx:
    def __init__(self, root: Path, digests: dict) -> None:
        self.root = root
        self.bench_dir = BENCH_DIR
        self.seed = 0
        self.seconds = 15.0
        self.work_dir = root / ".perfbench_out" / "record"
        self.digests = digests


def record_search() -> dict:
    from repro.api import Session

    session = Session()
    payloads, edps = {}, {}
    for key, request in search_table3.build_requests(0):
        result = session.submit(request)
        payloads[key] = payload_digest(result.to_dict())
        edps[key] = result.edp
    return {"payloads": payloads, "edp_geomean": repr(
        search_table3.geomean([edps[key] for key in sorted(edps)]))}


def record_sim() -> dict:
    from repro.sim import build_report, replay

    trace = sim_warm.build_trace(0)
    outcomes = replay(trace, mode="warm", nsplits=sim_warm.NSPLITS,
                      budget=sim_warm.budget())
    payloads = {sim_warm.set_key(o): payload_digest(o.result.to_dict())
                for o in outcomes if o.result is not None}
    rate = build_report(trace, "warm", outcomes).deadline_miss_rate
    return {"payloads": payloads, "deadline_miss_rate": repr(rate)}


def record_serve() -> dict:
    from repro.api import Session

    session = Session(eval_mode="vector")
    payloads = {}
    for index in range(SERVE_POOL_RECORDED):
        request = serve_mixed.pool_request(index)
        result = session.submit(request)
        payloads[serve_mixed.pool_key(request)] = \
            payload_digest(result.to_dict())
    return {"payloads": payloads}


def record_lint(root: Path, commit: str | None, previous: dict) -> dict:
    archive = (BENCH_DIR / lint_tree.SNAPSHOT).read_bytes()
    entry = {"snapshot_commit": commit or previous.get("snapshot_commit"),
             "snapshot_sha256": hashlib.sha256(archive).hexdigest()}
    ctx = _Ctx(root, {"lint-tree": entry})
    state = lint_tree.setup(ctx)
    try:
        _, _, report, error = lint_tree._lint(ctx, state)
    finally:
        lint_tree.teardown(state)
    if report is None:
        raise SystemExit(f"lint failed: {error}")
    entry["report"] = lint_tree.identity_digest(report)
    entry["findings"] = len(report["findings"])
    entry["checked_files"] = report["checked_files"]
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--snapshot", metavar="COMMIT", default=None)
    args = parser.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    target = BENCH_DIR / "data" / "digests.json"
    previous = json.loads(target.read_text()) if target.exists() else {}
    commit = build_snapshot(root, args.snapshot) if args.snapshot else None
    digests = {
        "default_seed": 0,
        "search-table3": record_search(),
        "sim-warm": record_sim(),
        "serve-mixed": record_serve(),
        "lint-tree": record_lint(root, commit,
                                 previous.get("lint-tree", {})),
    }
    target.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
