"""Benchmark of the steinhaus library and CLI, run against the source tree.

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 35 --trace 0

Workloads (why each was chosen is in BENCHMARK.json and README.md):
  exhaustive  in-process exhaustive searches and one probe
  long-rows   in-process constructions, tallies and triangles on long rows
  cli         about 100 `python -m steinhaus.cli` invocations per pass

Each workload is a closed loop with one client: the job list runs job after
job, pass after pass, as long as another pass ends within --seconds (and at
least twice).
Every job's output is checked against the values frozen in expected.json.

--trace 0 prints the end-to-end metrics; --trace 1 runs the layer suite
(layers.py) under spans, then alternates untraced and traced passes of the
workload to measure the tracing overhead, and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Run details (metadata, failures, spans) go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SOURCE = ROOT / "src" / "steinhaus"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}
SETUP_PROBES = 5
MIN_PASSES = 2
# On a shared host the speed of interpreter work drifts by tens of percent
# within seconds as other tenants come and go, and one run can go faster or
# slower than the next.  So the benchmark keeps timing a fixed pure-Python
# loop: around every timed sample, and every TICK_SECONDS while a job runs.
# Every time it reports is scaled by REFERENCE_CALIBRATION_S over the mean
# loop time of that sample: it reads as seconds at the reference speed.
CALIBRATION_STEPS = 50_000
TICK_STEPS = 10_000
TICK_SECONDS = 0.05
# What calibration_seconds() takes on the machine of the baseline in
# README.md (2-vCPU Intel Xeon VM, Python 3.11.7) at its quiet moments.
REFERENCE_CALIBRATION_S = 0.002


def loop_seconds(steps):
    start = perf_counter()
    x = 0
    for i in range(steps):
        x += i
    return perf_counter() - start


def calibration_seconds():
    """The calibration loop's time, median of three: the median discards a
    loop during which the virtual CPU was descheduled altogether."""
    return statistics.median(loop_seconds(CALIBRATION_STEPS) for _ in range(3))


class Speedometer:
    """Times a short calibration loop every TICK_SECONDS from a SIGALRM
    handler while a job runs, so that the machine's speed is known through
    the job, not only around it.  `spent` is the time the handler took."""

    def __init__(self):
        self.ticks = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        self.ticks.append(loop_seconds(TICK_STEPS) * (CALIBRATION_STEPS / TICK_STEPS))
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def cpu_seconds():
    """User plus system CPU of this process and of its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class Ledger:
    """Counts attempted jobs and keeps every failure with its reason."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failures = []

    def record(self, name, problems):
        self.attempted += 1
        if problems:
            self.failures.append({"job": name, "problems": problems})
            print(f"FAILED {name}: " + "; ".join(problems), file=sys.stderr)

    def run(self, job, tr, seen):
        """Run, time and check one job: (seconds, cpu seconds, calibration
        ticks taken during the job, output or None).  The ticks' own time is
        taken out of both times."""
        import jobs

        raw, problems = None, []
        gc.collect()  # leave no garbage of the previous job to this one
        with Speedometer() as speed:
            c0, t0 = cpu_seconds(), perf_counter()
            try:
                with tr.span("job." + job.kind):
                    raw = jobs.execute(job, tr)
            except Exception:
                problems = [traceback.format_exc()]
            seconds, cpu = perf_counter() - t0, cpu_seconds() - c0
        if raw is not None:
            problems = jobs.check(job, raw, self.expected, seen)
        self.record(tr.job or job.name, problems)
        return seconds - speed.spent, cpu - speed.spent, speed.ticks, raw


def run_pass(job_list, tr, ledger, label):
    """One pass over the job list: per job (seconds, cpu seconds, mean
    calibration around and during it), and the peak RSS in KiB of any CLI
    child.  Outputs are checked between jobs, outside the timed calls."""
    seen, samples, child_rss = {}, [], 0
    before = calibration_seconds()
    for job in job_list:
        tr.job = f"{label}:{job.name}"
        seconds, cpu, ticks, raw = ledger.run(job, tr, seen)
        after = calibration_seconds()
        samples.append((seconds, cpu, statistics.fmean([before, after, *ticks])))
        before = after
        if job.kind == "cli" and raw is not None:
            child_rss = max(child_rss, raw[3])
    return samples, child_rss


def scaled(samples):
    """(seconds, cpu seconds) of each sample at the reference speed."""
    return [(t * REFERENCE_CALIBRATION_S / calib, c * REFERENCE_CALIBRATION_S / calib)
            for t, c, calib in samples]


def setup_seconds(workload, seed, scale):
    """Set-up time (import steinhaus, load the frozen values, build the job
    list) in fresh interpreters: per probe (seconds, 0, calibration)."""
    samples = []
    before = calibration_seconds()
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), scale],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        after = calibration_seconds()
        samples.append((float(out.split()[-1]), 0.0, (before + after) / 2))
        before = after
    return samples


def git_sha():
    """HEAD's commit from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload, seed, seconds, trace):
    h = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    return {
        "workload": workload,
        "why": why.get(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def quantile(values, k):
    """The k-th of the nine deciles (k=5 is the median)."""
    return statistics.quantiles(values, n=10)[k - 1]


def e2e_values(setups, passes, names):
    """End-to-end timings from (seconds, cpu seconds, ...) samples of the
    passes over the job list `names`.  For wall and CPU time each job counts
    at its median over all its samples in the run (a job listed twice pools
    them), so that a burst of load from outside spoils one sample of a job
    rather than a whole pass.  Latency deciles are over every sample."""
    samples = {}
    for p in passes:
        for name, (t, c, *_) in zip(names, p):
            samples.setdefault(name, []).append((t, c))
    typical = {name: (statistics.median(t for t, _ in s), statistics.median(c for _, c in s))
               for name, s in samples.items()}
    latencies = [t for p in passes for t, *_ in p]
    return {
        "setup_s": statistics.median(t for t, *_ in setups),
        "wall_s": sum(typical[name][0] for name in names),
        "cpu_s": sum(typical[name][1] for name in names),
        "latency_p50_ms": quantile(latencies, 5) * 1e3,
        "latency_p90_ms": quantile(latencies, 9) * 1e3,
    }


def fits(start, done, seconds):
    """Whether one more pass (or pair of passes), as long as the average so
    far, still ends within `seconds` of `start`."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / done <= seconds


def measure(workload, seed, seconds, trace, scale="full", expected=None):
    """One benchmark run; returns the result object and the run's details."""
    import jobs
    import layers
    from tracing import NullTracer, Tracer, table

    job_list = jobs.build(workload, seed, scale)
    ledger = Ledger(jobs.load_expected() if expected is None else expected)
    off = NullTracer()
    details = {}
    if not trace:
        setups = setup_seconds(workload, seed, scale)
        start = perf_counter()
        passes, child_rss = [], 0
        while len(passes) < MIN_PASSES or fits(start, len(passes), seconds):
            times, rss = run_pass(job_list, off, ledger, f"pass{len(passes)}")
            passes.append(times)
            child_rss = max(child_rss, rss)
            if len(passes) == 1:
                # Later passes start from a heap the earlier ones fragmented,
                # which moves the peak by a few MB from run to run.
                own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        names = [job.name for job in job_list]
        values = e2e_values(scaled(setups), [scaled(p) for p in passes], names)
        values["peak_rss_mb"] = (child_rss if workload == "cli" else own_rss) / 1024
        units = END_TO_END
        details.update(unscaled=e2e_values(setups, passes, names),
                       setup_samples=setups, passes=passes, jobs=names,
                       latency_samples=sum(map(len, passes)))
    else:
        tr = Tracer()
        start = perf_counter()
        values = layers.run(layers.build(seed, scale), tr, ledger)
        plain, traced = [], []
        while not plain or fits(start, len(plain), seconds):
            for passes, pass_tracer, label in ((plain, off, "plain"), (traced, tr, "traced")):
                passes.append(run_pass(job_list, pass_tracer, ledger, f"{label}{len(passes)}")[0])
        walls = {label: [sum(t for t, _ in scaled(p)) for p in passes]
                 for label, passes in (("plain", plain), ("traced", traced))}
        values["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(walls["plain"])
        units = layers.METRICS
        details.update(untraced_walls=walls["plain"], traced_walls=walls["traced"], spans=tr.dump(),
                       layer_table=table(tr.spans, "layer:"),
                       workload_table=table(tr.spans, "traced"))
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details["failures"] = ledger.failures
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exhaustive", "long-rows", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(f"bench: no steinhaus source tree at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    result, details = measure(args.workload, args.seed, args.seconds, args.trace)
    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"meta": meta, "result": result, **details}, indent=1))

    print("meta " + json.dumps(meta))
    if args.trace:
        print(f"{'span':32} {'calls':>9} {'s':>10} {'self_s':>10}   (traced passes of {args.workload})")
        for name, row in sorted(details["workload_table"].items()):
            print(f"{name:32} {row['calls']:9d} {row['s']:10.4f} {row['self_s']:10.4f}")
    else:
        calibrations = [c for p in details["passes"] for _, _, c in p]
        print(f"latency samples: {details['latency_samples']}; passes: {len(details['passes'])}; "
              f"median calibration: {statistics.median(calibrations) * 1e3:.3f} ms")
        for name, value in details["unscaled"].items():
            print(f"unscaled {name:31} {value:14.6g}")
    for name, m in result["metrics"].items():
        print(f"{name:40} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_ratio':40} {result['failed'] / result['attempted']:14.6g} fraction")
    print(f"details: {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
