"""Tests for the scripts: each table script runs as a child process and prints its
table, and the benchmark pair summary is checked on fabricated runs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from steinhaus import is_admissible

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script_lines(argv):
    # tests/conftest.py puts src/ on the PYTHONPATH that the child inherits
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["alpha_table.py", "--limit", "15"], "    n  rad(n)  alpha  beta  ratio"),
        (["coverage_report.py", "--limit", "15"], "    n omega  beta  classes  covered"),
        (["molluzzo_scan.py", "--n", "5", "--max-m", "12"], "m=4: balanced"),
    ],
)
def test_script_runs(argv, first_line):
    assert _script_lines(argv)[0] == first_line


def test_molluzzo_scan_prints_every_admissible_length():
    lines = _script_lines(["molluzzo_scan.py", "--n", "6", "--max-m", "24"])
    lengths = [m for m in range(1, 25) if is_admissible(6, m)]
    assert [line.split(":")[0] for line in lines] == [f"m={m}" for m in lengths]


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, seed, side, **metrics):
    return {"workload": workload, "seed": seed, "side": side, "order": 1, "trace": 0,
            "result": {"metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}}


def test_bench_pairs_summary():
    bench_pairs = _load_bench_pairs()
    summarize = bench_pairs.summarize
    parent_wall = [0.20, 0.22, 0.21, 0.25, 0.19]
    change_wall = [0.15, 0.16, 0.21, 0.14, 0.20]  # wins, wins, tie, wins, loses
    runs = []
    for seed, (p, c) in enumerate(zip(parent_wall, change_wall), 1):
        runs.append(_run("long-rows", seed, "parent", wall_s=p, states=10 * seed))
        runs.append(_run("long-rows", seed, "change", wall_s=c, states=10 * seed + 1))
        runs[-2]["job_ms"] = {"a": 1000 * p, "b": 5.0}
        runs[-1]["job_ms"] = {"a": 1000 * c, "b": 4.0 + seed}
        if seed > 3:
            # a job list can change with the seed
            runs[-2]["job_ms"]["c"] = runs[-1]["job_ms"]["c"] = 2.0 * seed
    runs.append(_run("long-rows", 6, "parent", wall_s=9.0, states=0))  # no partner: ignored
    runs.append(_run("cli", 1, "change", wall_s=1.0, states=0))  # one side only: no summary
    summary = summarize(runs, {"wall_s": "lower", "states": "higher"},
                        {"wall_s": 0.2, "states": 0.01})
    assert list(summary) == ["long-rows"]
    wall = summary["long-rows"]["wall_s"]
    assert wall["pairs"] == 5
    # inclusive quartiles of 0.19, 0.20, 0.21, 0.22, 0.25
    assert wall["parent"] == {"q1": 0.2, "median": 0.21, "q3": 0.22}
    assert wall["change"] == {"q1": 0.15, "median": 0.16, "q3": 0.2}
    assert wall["change_wins"] == 3
    # higher is better: the change's extra state wins every pair
    assert summary["long-rows"]["states"]["change_wins"] == 5
    # 0.16 / 0.21 - 1; 3 wins of 5 pairs miss nine tenths, though the medians
    # differ by 0.05 against the parent's q3 - q1 of 0.02
    assert wall["median_change"] == pytest.approx(-0.2381, abs=1e-5)
    assert wall["gain"] is False
    # 5 wins of 5, but the medians differ by 1 against the parent's q3 - q1 of 20
    states = summary["long-rows"]["states"]
    assert states["median_change"] == pytest.approx(1 / 30, abs=1e-5)
    assert states["gain"] is False
    # against a bound of 0.2, wall_s's parent spreads 0.02 about a median of
    # 0.21 and the change is better; states' parent spreads 20 about 30,
    # far past its bound of 0.01
    assert (wall["regression"], wall["unresolved"]) == (False, False)
    assert (states["regression"], states["unresolved"]) == (False, True)
    # a change 30% above a parent that spreads 2%: a regression where lower
    # is better and the bound is 0.2, not against 0.35, nor where higher is
    # better; 30% below is one where higher is better
    for scale, direction, bound, regression in [(1.3, "lower", 0.2, True),
                                                (1.3, "lower", 0.35, False),
                                                (1.3, "higher", 0.2, False),
                                                (0.7, "higher", 0.2, True)]:
        moved = []
        for seed, p in enumerate([1.00, 1.02, 1.01, 0.99, 1.03], 1):
            moved += [_run("cli", seed, "parent", t=p), _run("cli", seed, "change", t=scale * p)]
        t = summarize(moved, {"t": direction}, {"t": bound})["cli"]["t"]
        assert (t["regression"], t["unresolved"]) == (regression, False), (scale, direction, bound)
    # per job, each side's median over the pairs; runs without job times are
    # left out, as the two unpaired runs are
    jobs = bench_pairs.summarize_jobs(runs)
    assert list(jobs) == ["long-rows"]
    assert jobs["long-rows"]["a"] == {"pairs": 5, "parent": 210.0, "change": 160.0,
                                      "median_change": pytest.approx(-0.2381, abs=1e-5)}
    assert jobs["long-rows"]["b"] == {"pairs": 5, "parent": 5.0, "change": 7.0,
                                      "median_change": 0.4}
    assert jobs["long-rows"]["c"] == {"pairs": 2, "parent": 9.0, "change": 9.0,
                                      "median_change": 0.0}


def test_bench_pairs_job_medians_scale_as_the_bench_does():
    bench_pairs = _load_bench_pairs()
    scaled = bench_pairs.load_scaled(SCRIPTS.parent)
    # (seconds, cpu seconds, calibration) per job and pass; a calibration of
    # twice the reference 2 ms halves a time, and job "a", listed twice, pools
    # its four samples
    details = {
        "jobs": ["a", "b", "a"],
        "passes": [
            [(0.010, 0.0, 0.002), (0.100, 0.0, 0.004), (0.030, 0.0, 0.002)],
            [(0.020, 0.0, 0.004), (0.300, 0.0, 0.002), (0.040, 0.0, 0.002)],
        ],
    }
    # a: 10, 30, 10 and 40 ms, median 20; b: 50 and 300 ms, median 175
    assert bench_pairs.job_medians(details, scaled) == {"a": 20.0, "b": 175.0}


def test_code_lines_counts_code_alone(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""A module docstring\n'
        'of two lines."""\n'
        "\n"
        "# a comment\n"
        "def f():\n"
        '    """A function docstring."""\n'
        "    return 1  # a trailing comment\n"
    )
    # def f(): and its return line, once per file given
    assert _script_lines(["code_lines.py", str(source)]) == [
        "2 code lines (not blank, comments or docstrings)"
    ]
    assert _script_lines(["code_lines.py", str(source), str(source)]) == [
        "4 code lines (not blank, comments or docstrings)"
    ]
