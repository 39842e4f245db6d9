"""Fast self-check of the benchmark, on tiny inputs.

    python3 bench/selfcheck.py

It confirms that
  - each workload's result carries exactly the metric names and units that
    BENCHMARK.json declares (end-to-end untraced, per-layer traced), and no
    job fails against the frozen values;
  - a wrong expected value, injected on purpose, is reported as a failure;
  - no workload runs more than os.cpu_count() processes at once;
  - in a directory holding only BENCHMARK.json and bench/, run.py exits
    non-zero without printing a result.
Exits 0 when all hold and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import run  # noqa: E402


def descendant_count(pid):
    """Processes below `pid`, from the parent ids in /proc/<pid>/stat."""
    children = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path("/proc", entry.name, "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    count, todo = 0, [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        count += len(kids)
        todo += kids
    return count


class ProcessWatch:
    """Samples this process's descendants in a thread; keeps the maximum."""

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self):
        while not self._stop.is_set():
            self.peak = max(self.peak, descendant_count(os.getpid()))
            self._stop.wait(0.002)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {trace: {m["name"]: m["unit"] for m in declared[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    limit = os.cpu_count() or 1
    problems = []

    for workload in jobs.WORKLOADS:
        for trace in (0, 1):
            with ProcessWatch() as watch:
                result, _ = run.measure(workload, 1, 0, trace, scale="tiny")
            tag = f"{workload} trace={trace}"
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if got != units[trace]:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(units[trace]))} "
                                "differ from BENCHMARK.json")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{tag}: a metric is not a finite number")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} jobs failed")
            if watch.peak > limit:
                problems.append(f"{tag}: {watch.peak} processes at once, limit {limit}")
            print(f"{tag}: {len(got)} metrics, {result['attempted']} jobs, "
                  f"at most {watch.peak} processes")

        expected = jobs.load_expected()
        victim = jobs.build(workload, 1, "tiny")[0]
        expected[victim.key] = {"injected": "wrong value"}
        result, _ = run.measure(workload, 1, 0, 0, scale="tiny", expected=expected)
        print(f"{workload} with a wrong value for {victim.key}: "
              f"{result['failed']} of {result['attempted']} jobs failed")
        if result["failed"] == 0 or result["correct"]:
            problems.append(f"{workload}: an injected wrong expected value went unnoticed")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    print(f"bare directory: exit {proc.returncode}")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py succeeded or printed a result without a source tree")

    for p in problems:
        print("SELF-CHECK FAILED: " + p, file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
