"""Job lists of the three workloads, how each job runs, and how it is checked.

A job is one call (or a short fixed chain of calls) into the library, or one
CLI invocation.  Its input is fixed by the job itself; a workload's seed only
chooses which jobs of a fixed pool run and in which order.  Every job's
output is reduced to a small JSON observation and compared with the value
frozen from the seed commit in expected.json (regenerate with freeze.py),
plus the in-run cross-checks in `check`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from steinhaus import (
    ArithmeticProgression,
    SearchBudget,
    Sequence,
    alpha,
    beta,
    brute_force_balanced,
    classify_even_progressions,
    construct_balanced,
    is_admissible,
    is_balanced,
    molluzzo_probe,
    multiplicities,
    triangle,
)
from steinhaus.cli import render_triangle, run as cli_run

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
WORKLOADS = ("exhaustive", "long-rows", "cli")
SCALES = ("full", "tiny")

# Never more search workers than min(2, cores): the load comes from one
# process and the benchmark may use at most two worker processes.
WORKERS = min(2, os.cpu_count() or 1)

# Published counts of balanced binary Steinhaus triangles, as frozen in
# tests/test_acceptance.py; lengths 1..8 not listed here have none.
BINARY_COUNTS = {3: 4, 4: 6, 7: 12, 8: 40}

# The four balanced progressions mod 6 of length 3, as listed in the README.
SIX_AT_THREE = [(1, 3, 5), (2, 3, 4), (4, 3, 2), (5, 3, 1)]


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work.  `key` names its frozen expected value;
    two jobs with the same key (say, one search at 1 and at 2 workers) must
    produce the same observation."""

    name: str
    key: str
    kind: str
    args: tuple


def digest(value) -> str:
    data = value if isinstance(value, bytes) else json.dumps(value, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:16]


# --- pools ---------------------------------------------------------------


def search_job(n, m, count_only, workers=1):
    mode = "count" if count_only else "list"
    key = f"search/{n}/{m}/{mode}"
    return Job(f"{key}/w{workers}", key, "search", (n, m, count_only, workers))


def probe_job(n, m):
    return Job(f"probe/{n}/{m}", f"probe/{n}/{m}", "probe", (n, m))


def classify_job(n, max_m):
    return Job(f"classify/{n}/{max_m}", f"classify/{n}/{max_m}", "classify", (n, max_m))


def exhaustive_jobs(scale):
    """The fixed exhaustive mix; its order is the only thing the seed changes."""
    binary = Job("binary/1-8", "binary/1-8", "binary", (8,))
    if scale == "tiny":
        return [binary, search_job(2, 8, True), search_job(3, 6, True), search_job(2, 7, False),
                search_job(3, 5, False), search_job(2, 9, True), search_job(3, 6, True, WORKERS),
                probe_job(2, 7)]
    return [
        binary,
        search_job(2, 16, True),
        search_job(3, 11, True),
        search_job(2, 15, False),
        search_job(4, 8, False),
        search_job(7, 6, False),
        search_job(2, 17, True),  # not admissible, yet every state is walked
        search_job(3, 11, True, WORKERS),
        probe_job(4, 7),  # even modulus: falls back to search
    ]


def construct_pool(scale):
    """Odd (n, m) that a construction covers, m in a narrow window so that
    every seed's pick costs about the same."""
    lo, hi, moduli = (40, 90, (3, 5, 7, 9, 15, 21, 25, 27)) if scale == "tiny" else (
        1450, 1550, (3, 5, 7, 9, 11, 13, 15, 17, 21, 25, 27, 31, 33, 43))
    pool = []
    for n in moduli:
        span = beta(n) * n
        ms = [m for m in range(lo, hi + 1) if m % span == 0 or (m + 1) % span == 0]
        for m in ms[:2]:
            key = f"construct/{n}/{m}/beta/1"
            pool.append(Job(key, key, "construct", (n, m, "beta", 1, None)))
        span = alpha(n) * n
        ms = [m for m in range(lo, hi + 1) if m % span == 0 or (m + 1) % span == 0]
        if ms:
            m, start = ms[-1], n // 2
            key = f"construct/{n}/{m}/alpha/2/{start}"
            pool.append(Job(key, key, "construct", (n, m, "alpha", 2, start)))
    return pool


def _random_terms(label, n, m):
    rng = random.Random(label)
    return tuple(rng.randrange(n) for _ in range(m))


def randseq_pool(scale):
    """Random sequences of an admissible length: rejected late, fully tallied."""
    target = 40 if scale == "tiny" else 1500
    pool = []
    for i in range(16):
        n = (3, 5, 7, 9, 11, 13, 4, 6)[i % 8]
        m = next(m for m in range(target, target + 4 * n) if is_admissible(n, m))
        key = f"randseq/{n}/{m}/{i}"
        pool.append(Job(key, key, "randseq", (Sequence(n, _random_terms(key, n, m)),)))
    return pool


def triangle_pool(scale):
    m = 30 if scale == "tiny" else 1500
    pool = []
    for i in range(8):
        n = (3, 5, 7, 9)[i % 4]
        key = f"triangle/{n}/{m}/{i}"
        pool.append(Job(key, key, "triangle", (Sequence(n, _random_terms(key, n, m)),)))
    return pool


def entry_pool(scale):
    rows = 20 if scale == "tiny" else 400
    rng = random.Random("entry")
    pool = []
    for _ in range(16):
        n = rng.randrange(3, 60)
        a, d = rng.randrange(n), rng.randrange(n)
        key = f"entry/{n}/{a}/{d}/{rows}"
        pool.append(Job(key, key, "entry", (ArithmeticProgression(n, a, d, rows),)))
    return pool


def classify_jobs(scale):
    if scale == "tiny":
        return [classify_job(6, 30), classify_job(10, 24)]
    return [classify_job(6, 200), classify_job(30, 120)]


def _cli(argv):
    key = "cli/" + " ".join(argv)
    return Job(key, key, "cli", tuple(argv))


def _fmt(i):
    return ["--format", "json"] if i % 2 else []


def cli_light_pool():
    """Quick invocations of all ten subcommands, text and JSON."""
    rng = random.Random("cli-light")
    pool = []
    for i, n in enumerate((3, 5, 7, 9, 15, 21, 27, 33, 45, 63)):
        pool.append(_cli(["alpha", "--n", str(n)] + _fmt(i)))
        pool.append(_cli(["beta", "--n", str(n)] + _fmt(i + 1)))
    for i, n in enumerate((4, 6, 10, 12, 15, 21, 30, 36)):
        pool.append(_cli(["admissible", "--n", str(n)] + (["--max", "60"] if i % 3 else []) + _fmt(i)))
    for i in range(8):
        n, m = rng.choice((3, 5, 7, 10)), rng.randrange(3, 13)
        seq = ",".join(str(rng.randrange(-n, 2 * n)) for _ in range(m))
        pool.append(_cli(["triangle", "--n", str(n), "--seq", seq] + _fmt(i)))
        pool.append(_cli(["balanced", "--n", str(n), "--seq", seq] + _fmt(i + 1)))
        pool.append(_cli(["derive", "--n", str(n), "--seq", seq, "--i", str(rng.randrange(1, m))] + _fmt(i)))
    for i, (n, m) in enumerate(((3, 3), (3, 8), (5, 19), (5, 20), (7, 41), (9, 17))):
        pool.append(_cli(["construct", "--n", str(n), "--m", str(m)] + _fmt(i)))
    pool.append(_cli(["construct", "--n", "7", "--m", "20", "--family", "alpha", "--a", "3", "--d", "2"]))
    for i, (n, m) in enumerate(((2, 4), (2, 7), (3, 5), (4, 4), (5, 4))):
        pool.append(_cli(["search", "--n", str(n), "--m", str(m)] + (["--count-only"] if i % 2 else []) + _fmt(i)))
    for i, (n, max_m) in enumerate(((4, 24), (6, 20), (8, 16))):
        pool.append(_cli(["classify-even", "--n", str(n), "--max-m", str(max_m)] + _fmt(i)))
    for i, (n, m) in enumerate(((5, 4), (3, 8), (2, 7), (7, 21))):
        pool.append(_cli(["probe", "--n", str(n), "--m", str(m)] + _fmt(i)))
    return pool


def cli_heavy_pool():
    """Invocations with at least 100 ms of compute; each runs once per pass."""
    rng = random.Random("cli-heavy")
    long_seq = ",".join(str(rng.randrange(7)) for _ in range(1300))
    derive_seq = ",".join(str(rng.randrange(11)) for _ in range(2000))
    triangle_seq = ",".join(str(rng.randrange(9)) for _ in range(900))
    return [
        _cli(["construct", "--n", "27", "--m", "1457"]),
        _cli(["construct", "--n", "27", "--m", "1457", "--format", "json"]),
        _cli(["probe", "--n", "4", "--m", "7"]),
        _cli(["probe", "--n", "4", "--m", "7", "--format", "json"]),
        _cli(["search", "--n", "3", "--m", "9", "--count-only"]),
        _cli(["search", "--n", "3", "--m", "9", "--format", "json"]),
        _cli(["classify-even", "--n", "6", "--max-m", "120"]),
        _cli(["classify-even", "--n", "10", "--max-m", "90", "--format", "json"]),
        _cli(["balanced", "--n", "7", "--seq", long_seq]),
        _cli(["balanced", "--n", "7", "--seq", long_seq, "--format", "json"]),
        _cli(["derive", "--n", "11", "--seq", derive_seq, "--i", "1000"]),
        _cli(["triangle", "--n", "9", "--seq", triangle_seq, "--format", "json"]),
        _cli(["admissible", "--n", "720720", "--max", "150000"]),
    ]


def cli_error_pool():
    """Expected failures: exit 1 for bad input, exit 2 for domain errors."""
    return [
        _cli(["balanced", "--n", "5", "--seq", "1,x,3"]),
        _cli(["triangle", "--n", "3", "--seq", "1,,2"]),
        _cli(["search", "--n", "2", "--m", "4", "--workers", "0"]),
        _cli(["alpha", "--n", "4"]),
        _cli(["beta", "--n", "12", "--format", "json"]),
        _cli(["derive", "--n", "7", "--seq", "1,2,3", "--i", "9"]),
        _cli(["search", "--n", "3", "--m", "12", "--max-states", "1000"]),
        _cli(["probe", "--n", "4", "--m", "15", "--max-states", "1000"]),
        _cli(["construct", "--n", "9", "--m", "10"]),
    ]


def cli_mix(rng, light, heavy, errors):
    """A shuffled sample of the CLI pools: `heavy` taken without repeats,
    light and error invocations with repeats."""
    jobs = (rng.choices(cli_light_pool(), k=light) + rng.sample(cli_heavy_pool(), heavy)
            + rng.choices(cli_error_pool(), k=errors))
    rng.shuffle(jobs)
    return jobs


def cli_moduli():
    """Every modulus that the CLI pools pass with --n."""
    pools = cli_light_pool() + cli_heavy_pool() + cli_error_pool()
    return sorted({int(job.args[job.args.index("--n") + 1]) for job in pools})


def build(workload, seed, scale="full"):
    """The job list of one workload run; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "exhaustive":
        jobs = exhaustive_jobs(scale)
        rng.shuffle(jobs)
    elif workload == "long-rows":
        jobs = (rng.sample(construct_pool(scale), 3) + rng.sample(randseq_pool(scale), 2)
                + [rng.choice(triangle_pool(scale)), rng.choice(entry_pool(scale))]
                + classify_jobs(scale))
        rng.shuffle(jobs)
    elif workload == "cli":
        jobs = cli_mix(rng, 82, 13, 5) if scale == "full" else cli_mix(rng, 6, 1, 2)
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    return jobs


def all_jobs(scale):
    """Every job any workload or the layer suite can draw, for freezing."""
    return (exhaustive_jobs(scale) + construct_pool(scale) + randseq_pool(scale)
            + triangle_pool(scale) + entry_pool(scale) + classify_jobs(scale)
            + cli_light_pool() + cli_heavy_pool() + cli_error_pool()
            + [probe_job(27, 1457)])


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


# --- running -------------------------------------------------------------


def run_cli(argv):
    """One `python -m steinhaus.cli` child; returns (exit, stdout, stderr,
    peak RSS in KiB).  stderr is read after stdout: the CLI writes at most a
    line or a traceback there, far below a pipe's buffer."""
    env = {k: v for k, v in os.environ.items() if k != "STEINHAUS_MAX_STATES"}
    env["PYTHONPATH"] = str(ROOT / "src")
    p = subprocess.Popen([sys.executable, "-m", "steinhaus.cli", *argv], cwd=ROOT, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with p.stdout, p.stderr:
        out = p.stdout.read()
        err = p.stderr.read()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, err, usage.ru_maxrss


def run_cli_inprocess(argv):
    """`cli.run` in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_run(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode(), 0


def execute(job, tr):
    """Run one job, with a span around each call into the library."""
    a = job.args
    if job.kind == "search":
        n, m, count_only, workers = a
        with tr.span("search.brute_force", work=n**m):
            return brute_force_balanced(n, m, SearchBudget(workers=workers), count_only=count_only)
    if job.kind == "binary":
        counts = []
        for m in range(1, a[0] + 1):
            with tr.span("search.brute_force", work=2**m):
                counts.append(brute_force_balanced(2, m).count)
        return counts
    if job.kind == "probe":
        with tr.span("search.probe"):
            return molluzzo_probe(*a)
    if job.kind == "classify":
        with tr.span("search.classify_even"):
            return classify_even_progressions(*a)
    if job.kind == "construct":
        n, m, family, step, start = a
        with tr.span("progressions.construct"):
            seq = construct_balanced(n, m, step=step, family=family, start=start)
        with tr.span("sequences.multiplicities", work=m * (m + 1) // 2):
            return seq, multiplicities(seq)
    if job.kind == "randseq":
        (seq,) = a
        with tr.span("sequences.is_balanced"):
            ok = is_balanced(seq)
        with tr.span("sequences.multiplicities", work=len(seq) * (len(seq) + 1) // 2):
            return ok, multiplicities(seq)
    if job.kind == "triangle":
        (seq,) = a
        with tr.span("sequences.triangle"):
            t = triangle(seq)
        with tr.span("sequences.multiplicities", work=len(seq) * (len(seq) + 1) // 2):
            mv = multiplicities(t)
        with tr.span("cli.render_triangle"):
            return mv, render_triangle(t)
    if job.kind == "entry":
        (ap,) = a
        m = ap.length
        with tr.span("progressions.entry", calls=m * (m + 1) // 2):
            return [ap.entry(i, j) for i in range(1, m + 1) for j in range(1, m - i + 2)]
    if job.kind == "cli":
        with tr.span("cli.subprocess"):
            return run_cli(a)
    if job.kind == "cli-inprocess":
        with tr.span("cli.run"):
            return run_cli_inprocess(a)
    raise ValueError(f"unknown job kind {job.kind!r}")


def _stderr_class(err: bytes) -> str:
    """What the frozen contract says about stderr: nothing, a usage error, or
    the domain error's class name."""
    text = err.decode(errors="replace")
    if not text:
        return ""
    if text.startswith("usage error: "):
        return "usage error"
    if text.startswith("error: "):
        return text[len("error: "):].split(":", 1)[0]
    return "unexpected: " + text.strip().splitlines()[-1][:200]


def observe(job, raw):
    """The frozen part of a job's output, as plain JSON."""
    k = job.kind
    if k == "search":
        return {"count": raw.count, "states": raw.states_examined,
                "found": digest([list(s.terms) for s in raw.found])}
    if k == "binary":
        return {"counts": raw}
    if k == "probe":
        return {"exists": raw}
    if k == "classify":
        return {"count": len(raw), "found": digest([[ap.start, ap.step, ap.length] for ap in raw])}
    if k == "construct":
        seq, mv = raw
        return {"terms": digest(list(seq.terms)), "counts": list(mv.counts)}
    if k == "randseq":
        ok, mv = raw
        return {"balanced": ok, "counts": list(mv.counts)}
    if k == "triangle":
        mv, text = raw
        return {"counts": list(mv.counts), "render": digest(text.encode())}
    if k == "entry":
        return {"entries": digest(raw)}
    if k in ("cli", "cli-inprocess"):
        code, out, err, _ = raw
        return {"exit": code, "stdout": digest(out), "stderr": _stderr_class(err)}
    raise ValueError(f"unknown job kind {k!r}")


def check(job, raw, expected, seen):
    """Mismatches of one job's output: against the frozen value, against an
    earlier job of the same key in this pass (`seen`), and the invariants."""
    obs = observe(job, raw)
    problems = []
    want = expected.get(job.key)
    if want is None:
        problems.append(f"no frozen value for {job.key}")
    elif obs != want:
        problems.append(f"expected {want}, got {obs}")
    if job.key in seen and seen[job.key] != obs:
        problems.append(f"differs from {job.key} earlier in this pass: {seen[job.key]} vs {obs}")
    seen.setdefault(job.key, obs)
    if job.kind == "search" and len(raw.found) != (0 if job.args[2] else raw.count):
        problems.append(f"listing holds {len(raw.found)} sequences but count is {raw.count}")
    if job.kind == "binary":
        for m, want_count in BINARY_COUNTS.items():
            if raw[m - 1] != want_count:
                problems.append(f"binary count at m={m} is {raw[m - 1]}, published {want_count}")
    if job.kind == "construct" and not raw[1].is_constant():
        problems.append(f"constructed sequence is not balanced: {list(raw[1].counts)}")
    if job.kind == "classify" and job.args[0] == 6:
        at3 = [ap.to_sequence().terms for ap in raw if ap.length == 3]
        if at3 != SIX_AT_THREE:
            problems.append(f"mod 6 at m=3 found {at3}, expected {SIX_AT_THREE}")
    return problems
