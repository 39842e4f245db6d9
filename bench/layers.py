"""The layer suite: per-layer metrics, measured the same way in every traced run.

Each layer is a module of src/steinhaus (errors does no work).  The suite
calls each module's public functions on seeded inputs drawn from the three
workloads' pools, inside spans, and derives the per-layer metrics from those
spans.  Because the suite is the same whatever the workload, a per-layer
metric means the same thing in every workload's traced run; which end-to-end
metric it should move, and on which workload, is mapped in README.md.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace

import jobs
from steinhaus import Sequence, admissible_classes, alpha, balanced_terms, beta, multiplicities

# Spans whose `.calls` and `.s` are reported.
SPANS = (
    "cli.interp", "cli.import", "cli.run", "cli.render_triangle",
    "search.brute_force", "search.classify_even", "search.probe",
    "sequences.balanced_terms", "sequences.multiplicities", "sequences.triangle",
    "progressions.construct", "progressions.entry",
    "orders.alpha", "orders.beta", "admissible.classes",
)

# Every per-layer metric with its unit, in report order.
METRICS = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_ms.p50": "ms",
    "cli.render_triangle_s": "s",
    "search.states": "count",
    "search.states_per_s": "1/s",
    "search.hit_ratio": "ratio",
    "search.pool_speedup": "ratio",
    "search.classify_even.triples": "count",
    "sequences.balanced_terms.short_us": "us",
    "sequences.balanced_terms.long_ms": "ms",
    "sequences.multiplicities.entries_per_s": "1/s",
    "sequences.entries_tallied": "count",
    "progressions.entry.calls_per_s": "1/s",
    "orders.alpha.us": "us",
    "orders.beta.us": "us",
    "admissible.classes.us": "us",
    **{f"{name}.{field}": unit for name in SPANS for field, unit in (("calls", "count"), ("s", "s"))},
    "trace.overhead_s": "s",
}

# (n, m) of the exhaustive workload's searches, for the short-row sample.
SHORT_LENGTHS = ((2, 16), (3, 11), (2, 15), (4, 8), (7, 6), (2, 17))
FRESH_PROCESSES = 5


@dataclass
class Inputs:
    cli: list
    constructs: list
    randseqs: list
    triangle: object
    entry: object
    short: list
    searches: list
    classify: object
    probes: list
    moduli: list


def build(seed, scale="full"):
    rng = random.Random(f"layers/{seed}")
    tiny = scale == "tiny"
    cli = [replace(j, kind="cli-inprocess") for j in
           jobs.cli_mix(rng, *((4, 1, 1) if tiny else (27, 2, 1)))]
    short = []
    for n, m in ((2, 8), (3, 6)) if tiny else SHORT_LENGTHS:
        for _ in range(50 if tiny else 1000):
            short.append(([rng.randrange(n) for _ in range(m)], n))
    n, m = (3, 6) if tiny else (3, 11)
    return Inputs(
        cli=cli,
        constructs=rng.sample(jobs.construct_pool(scale), 2),
        randseqs=rng.sample(jobs.randseq_pool(scale), 2),
        triangle=rng.choice(jobs.triangle_pool(scale)),
        entry=rng.choice(jobs.entry_pool(scale)),
        short=short,
        # Same case at 1 and at WORKERS workers, for the pool speed-up.
        searches=[jobs.search_job(n, m, True), jobs.search_job(n, m, True, jobs.WORKERS)],
        classify=jobs.classify_jobs(scale)[0],
        probes=[jobs.probe_job(2, 7) if tiny else jobs.probe_job(4, 7), jobs.probe_job(27, 1457)],
        moduli=jobs.cli_moduli(),
    )


def _fresh(argv, tr, name, ledger):
    env = dict(os.environ, PYTHONPATH=str(jobs.ROOT / "src"))
    for _ in range(FRESH_PROCESSES):
        with tr.span(name):
            code = subprocess.run([sys.executable, *argv], cwd=jobs.ROOT, env=env,
                                  stdout=subprocess.DEVNULL).returncode
        ledger.record(f"layer:{name}", [] if code == 0 else [f"exit {code}"])


def _clear(fn):
    # alpha and beta memoize; a cold call needs an empty cache.
    getattr(fn, "cache_clear", lambda: None)()


def run(inp, tr, ledger):
    """Run the suite under `tr`, checking every output through `ledger`."""
    tr.job = "layer:interp"
    _fresh(["-c", "pass"], tr, "cli.interp", ledger)
    tr.job = "layer:import"
    _fresh(["-c", "import steinhaus.cli"], tr, "cli.import", ledger)

    seen, raws = {}, {}
    for job in (*inp.cli, *inp.constructs, inp.triangle, inp.entry, *inp.searches,
                inp.classify, *inp.probes):
        tr.job = "layer:" + job.name
        raws[job.name] = ledger.run(job, tr, seen)[-1]

    for job in inp.randseqs:
        (seq,) = job.args
        m = len(seq)
        tr.job = "layer:long:" + job.name
        with tr.span("sequences.balanced_terms"):
            ok = balanced_terms(seq.terms, seq.modulus)
        with tr.span("sequences.multiplicities", work=m * (m + 1) // 2):
            mv = multiplicities(seq)
        ledger.record(tr.job, jobs.check(job, (ok, mv), ledger.expected, seen))

    tr.job = "layer:short"
    with tr.span("sequences.balanced_terms", calls=len(inp.short)):
        hits = [balanced_terms(terms, n) for terms, n in inp.short]
    # Cross-check against the full tally, an independent code path.
    wrong = sum(hit != multiplicities(Sequence(n, tuple(terms))).is_constant()
                for hit, (terms, n) in zip(hits, inp.short))
    ledger.record(tr.job, [f"{wrong} candidates disagree with the full tally"] if wrong else [])

    odd = [n for n in inp.moduli if n % 2]
    tr.job = "layer:orders"
    values = {}
    for fn in (alpha, beta):
        with tr.span(f"orders.{fn.__name__}", calls=len(odd)):
            for n in odd:
                _clear(fn)
                values.setdefault(n, {})[fn.__name__] = fn(n)
    tr.job = "layer:admissible"
    with tr.span("admissible.classes", calls=len(inp.moduli)):
        classes = [admissible_classes(n) for n in inp.moduli]
    for n in odd:
        want = ledger.expected.get(f"orders/{n}")
        ledger.record(f"layer:orders/{n}", [] if values[n] == want else [f"expected {want}, got {values[n]}"])
    for n, ac in zip(inp.moduli, classes):
        got = {"period": ac.period, "classes": list(ac.residues)}
        want = ledger.expected.get(f"admissible/{n}")
        ledger.record(f"layer:admissible/{n}", [] if got == want else [f"expected {want}, got {got}"])
    w1 = raws[inp.searches[0].name]
    return metrics(tr, inp, w1.count if w1 is not None else 0)


def metrics(tr, inp, hits_w1):
    """Per-layer metrics (all but the tracing overhead) from the suite's spans."""
    def total(name, job=""):
        return sum(s.seconds for s in tr.find(name, "layer:" + job))

    def median_ms(name):
        return statistics.median(s.seconds for s in tr.find(name, "layer:")) * 1e3

    def per_call(name, job="", scale=1e6):
        spans = tr.find(name, "layer:" + job)
        return sum(s.seconds for s in spans) / sum(s.calls for s in spans) * scale

    interp = median_ms("cli.interp")
    w1, wn = (tr.find("search.brute_force", "layer:" + j.name) for j in inp.searches)
    w1_states = sum(s.work for s in w1)
    mult = tr.find("sequences.multiplicities", "layer:")
    classify_n, classify_max = inp.classify.args
    out = {
        "cli.interp_ms": interp,
        "cli.import_ms": median_ms("cli.import") - interp,
        "cli.run_ms.p50": median_ms("cli.run"),
        "cli.render_triangle_s": total("cli.render_triangle"),
        "search.states": sum(s.work for s in tr.find("search.brute_force", "layer:")),
        "search.states_per_s": w1_states / sum(s.seconds for s in w1),
        "search.hit_ratio": hits_w1 / w1_states,
        "search.pool_speedup": sum(s.seconds for s in w1) / sum(s.seconds for s in wn),
        "search.classify_even.triples": classify_n**2 * sum(
            1 for m in range(1, classify_max + 1) if m * (m + 1) // 2 % classify_n == 0),
        "sequences.balanced_terms.short_us": per_call("sequences.balanced_terms", "short"),
        "sequences.balanced_terms.long_ms": per_call("sequences.balanced_terms", "long", 1e3),
        "sequences.multiplicities.entries_per_s": sum(s.work for s in mult) / sum(s.seconds for s in mult),
        "sequences.entries_tallied": sum(s.work for s in mult),
        "progressions.entry.calls_per_s": 1e6 / per_call("progressions.entry"),
        "orders.alpha.us": per_call("orders.alpha"),
        "orders.beta.us": per_call("orders.beta"),
        "admissible.classes.us": per_call("admissible.classes"),
    }
    for name in SPANS:
        spans = tr.find(name, "layer:")
        out[f"{name}.calls"] = sum(s.calls for s in spans)
        out[f"{name}.s"] = sum(s.seconds for s in spans)
    return out
