"""Smoke tests for the scripts: each runs as a child process and prints its table."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["alpha_table.py", "--limit", "15"], "    n  rad(n)  alpha  beta  ratio"),
        (["coverage_report.py", "--limit", "15"], "    n omega  beta  classes  covered"),
        (["molluzzo_scan.py", "--n", "5", "--max-m", "12"], "m=4: balanced"),
    ],
)
def test_script_runs(argv, first_line):
    # tests/conftest.py puts src/ on the PYTHONPATH that the child inherits
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == first_line
