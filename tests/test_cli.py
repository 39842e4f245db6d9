"""Tests for the command line interface: output formats and exit codes."""

import json
import shutil
import subprocess
import sys

import pytest

from steinhaus import admissible_classes, alpha, brute_force_balanced, is_admissible
from steinhaus.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_rendering(capsys):
    code, out, err = invoke(capsys, "triangle", "--n", "3", "--seq", "0,1,2,2")
    assert code == 0
    assert out == "0 1 2 2\n 1 0 1\n  1 1\n   2\n"
    assert err == ""


def test_triangle_two_digit_modulus(capsys):
    code, out, _ = invoke(capsys, "triangle", "--n", "11", "--seq", "9,10")
    assert code == 0
    assert out == " 9 10\n  8\n"


def test_triangle_json(capsys):
    code, out, _ = invoke(capsys, "triangle", "--n", "3", "--seq", "0,1,2,2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 3,
        "m": 4,
        "rows": [[0, 1, 2, 2], [1, 0, 1], [1, 1], [2]],
    }


def test_derive_default_and_iterated(capsys):
    code, out, _ = invoke(capsys, "derive", "--n", "3", "--seq", "0,1,2,2")
    assert (code, out) == (0, "1,0,1\n")
    code, out, _ = invoke(capsys, "derive", "--n", "3", "--seq", "0,1,2,2", "--i", "3")
    assert (code, out) == (0, "2\n")
    code, out, _ = invoke(
        capsys, "derive", "--n", "3", "--seq", "0,1,2,2", "--i", "2", "--format", "json"
    )
    assert json.loads(out) == {"n": 3, "m": 2, "seq": [1, 1]}


def test_balanced_json_exact_bytes(capsys):
    code, out, _ = invoke(
        capsys, "balanced", "--n", "5", "--seq", "2,2,3,3", "--format", "json"
    )
    assert code == 0
    assert out == '{"n":5,"m":4,"balanced":true,"multiplicities":[2,2,2,2,2]}\n'


def test_balanced_text(capsys):
    code, out, _ = invoke(capsys, "balanced", "--n", "3", "--seq", "0,1,2,2")
    assert code == 0
    assert out == "balanced: no\nmultiplicities: 2,5,3\n"


def test_negative_terms_are_reduced(capsys):
    # leading-dash values need the --seq=... spelling
    code, out, _ = invoke(capsys, "derive", "--n", "7", "--seq=-1,8")
    assert (code, out) == (0, "0\n")


def test_alpha_beta_text(capsys):
    assert invoke(capsys, "alpha", "--n", "3")[:2] == (0, "2\n")
    assert invoke(capsys, "beta", "--n", "11")[:2] == (0, "5\n")
    code, out, _ = invoke(capsys, "alpha", "--n", "103", "--format", "json")
    assert json.loads(out) == {"n": 103, "alpha": 51}


def test_admissible_output(capsys):
    code, out, _ = invoke(capsys, "admissible", "--n", "10", "--max", "25")
    assert code == 0
    assert out == (
        "period: 20\nclasses: 0,4,15,19\nlengths: 4,15,19,20,24\n"
    )
    code, out, _ = invoke(capsys, "admissible", "--n", "825", "--format", "json")
    payload = json.loads(out)
    assert payload["period"] == 825
    assert payload["classes"] == [0, 99, 275, 374, 450, 549, 725, 824]
    assert "lengths" not in payload


def test_admissible_json_matches_library(capsys):
    for n in (7, 12, 30, 720720):
        _, out, _ = invoke(capsys, "admissible", "--n", str(n), "--format", "json")
        payload = json.loads(out)
        ac = admissible_classes(n)
        assert payload == {"n": n, "period": ac.period, "classes": list(ac.residues)}
        # below one period and across many (720720 has period 1441440)
        for top in (0, 1, 5, 59, 60, 61, 150, 1000, 150000):
            argv = ("admissible", "--n", str(n), "--max", str(top), "--format", "json")
            lengths = json.loads(invoke(capsys, *argv)[1])["lengths"]
            assert lengths == [m for m in range(1, top + 1) if is_admissible(n, m)], (n, top)


def test_construct_text_and_json(capsys):
    code, out, _ = invoke(capsys, "construct", "--n", "3", "--m", "3")
    assert code == 0
    assert out == "2,0,1\nmultiplicities: 2,2,2\n"
    code, out, _ = invoke(
        capsys,
        "construct", "--n", "7", "--m", "20", "--d", "3",
        "--family", "alpha", "--a", "1", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["balanced"] is True
    assert payload["multiplicities"] == [30] * 7
    assert payload["seq"][:5] == [1, 4, 0, 3, 6]


def test_search_json_matches_library(capsys):
    code, out, _ = invoke(capsys, "search", "--n", "5", "--m", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    report = brute_force_balanced(5, 4)
    assert payload == {
        "n": 5,
        "m": 4,
        "found": [list(s.terms) for s in report.found],
        "count": report.count,
        "states_examined": 625,
    }


def test_search_count_only_text(capsys):
    code, out, _ = invoke(capsys, "search", "--n", "2", "--m", "4", "--count-only")
    assert code == 0
    assert out == "count: 6\nstates_examined: 16\n"


def test_search_worker_determinism(capsys):
    _, serial, _ = invoke(capsys, "search", "--n", "3", "--m", "8", "--format", "json")
    _, parallel, _ = invoke(
        capsys, "search", "--n", "3", "--m", "8", "--workers", "4", "--format", "json"
    )
    assert serial == parallel
    _, again, _ = invoke(
        capsys, "search", "--n", "3", "--m", "8", "--workers", "4", "--format", "json"
    )
    assert again == parallel


def test_classify_even_text(capsys):
    code, out, _ = invoke(capsys, "classify-even", "--n", "6")
    assert code == 0
    assert out.splitlines()[0] == "m=3 start=1 step=2: 1,3,5"
    assert out.splitlines()[-1] == "count: 4"
    code, out, _ = invoke(capsys, "classify-even", "--n", "4", "--format", "json")
    assert json.loads(out) == {"n": 4, "count": 0, "found": []}


def test_probe_output(capsys):
    code, out, _ = invoke(capsys, "probe", "--n", "5", "--m", "4")
    assert (code, out) == (0, "yes\n")
    code, out, _ = invoke(capsys, "probe", "--n", "3", "--m", "2", "--format", "json")
    assert json.loads(out) == {"n": 3, "m": 2, "balanced": True}


def test_usage_errors_exit_one(capsys):
    cases = [
        (),  # no command
        ("alpha",),  # missing --n
        ("alpha", "--n", "x"),  # not an integer
        ("triangle", "--n", "3", "--seq", "1,,2"),  # malformed sequence
        ("probe", "--n", "5", "--m", "3"),  # non-admissible length
        ("construct", "--n", "5", "--m", "10", "--a", "2"),  # start without alpha family
        ("search", "--n", "0", "--m", "3"),  # modulus out of range
    ]
    for argv in cases:
        code, out, err = invoke(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert "usage error:" in err


def test_domain_errors_exit_two(capsys):
    cases = [
        (("construct", "--n", "4", "--m", "7"), "EvenModulus"),
        (("construct", "--n", "9", "--m", "9", "--d", "3"), "NotInvertible"),
        (("construct", "--n", "5", "--m", "7"), "UnsupportedLength"),
        (("search", "--n", "3", "--m", "20", "--max-states", "10"), "BudgetExceeded"),
        (("alpha", "--n", "6"), "EvenModulus"),
    ]
    for argv, name in cases:
        code, out, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith(f"error: {name}")


def test_construct_long_progression_json(capsys):
    # verified in closed form; an entry-by-entry tally would visit 5 * 10^9 entries
    code, out, _ = invoke(capsys, "construct", "--n", "3", "--m", "99999", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["balanced"] is True
    assert len(payload["seq"]) == 99999


def test_internal_errors_exit_three(capsys, monkeypatch):
    def broken(n):
        raise RuntimeError("internal fault")

    monkeypatch.setattr("steinhaus.cli.alpha", broken)
    code, out, err = invoke(capsys, "alpha", "--n", "3")
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "RuntimeError: internal fault" in err


def test_state_cap_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("STEINHAUS_MAX_STATES", "10")
    code, _, err = invoke(capsys, "search", "--n", "2", "--m", "4")
    assert code == 2
    assert "BudgetExceeded" in err
    # an explicit flag overrides the environment
    code, out, _ = invoke(capsys, "search", "--n", "2", "--m", "4", "--max-states", "16")
    assert code == 0
    assert "count: 6" in out
    # probe honours the same variable
    code, _, err = invoke(capsys, "probe", "--n", "5", "--m", "4")
    assert code == 2
    assert "BudgetExceeded" in err


@pytest.mark.parametrize("command", ["triangle", "balanced"])
def test_sequence_commands_check_the_state_cap(capsys, monkeypatch, command):
    # a 5-term sequence has a 15-entry triangle
    monkeypatch.setenv("STEINHAUS_MAX_STATES", "10")
    code, out, err = invoke(capsys, command, "--n", "3", "--seq", "1,2,0,1,2")
    assert code == 2
    assert out == ""
    assert "BudgetExceeded" in err
    monkeypatch.setenv("STEINHAUS_MAX_STATES", "15")
    code, _, _ = invoke(capsys, command, "--n", "3", "--seq", "1,2,0,1,2")
    assert code == 0


def test_unfactorable_modulus_is_a_domain_error(capsys):
    code, out, err = invoke(capsys, "alpha", "--n", "100000000000031")
    assert code == 2
    assert out == ""
    assert "BudgetExceeded" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "steinhaus.cli", "alpha", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2\n"
    proc = subprocess.run(
        [sys.executable, "-m", "steinhaus.cli", "alpha", "--n", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_closed_stdout_exits_quietly():
    # The JSON runs to about 200 KB, more than a pipe holds, so the writes
    # after the reader has gone fail with a broken pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "steinhaus.cli", "construct", "--n", "3", "--m", "99999",
         "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.read(60).startswith(b'{"n":3,"m":99999,"seq":[')
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--n", "3", "--m", "1000000000"],
        ["probe", "--n", "4", "--m", "1000000000"],
        ["search", "--n", "1", "--m", "100000"],
    ],
)
def test_huge_length_fails_fast(argv):
    # n**m here has over a billion bits; the budget must turn it down unbuilt.
    proc = subprocess.run(
        [sys.executable, "-m", "steinhaus.cli", *argv],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert "BudgetExceeded" in proc.stderr


def test_installed_console_script():
    if shutil.which("steinhaus") is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        ["steinhaus", "balanced", "--n", "5", "--seq", "2,2,3,3", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"n":5,"m":4,"balanced":true,"multiplicities":[2,2,2,2,2]}\n'
