"""The README's command line examples, run in process, stdout compared byte
for byte, so that the documented output cannot drift from the CLI's."""

import re
import shlex
from pathlib import Path

import pytest

from steinhaus.cli import MAX_STATES_ENV, run

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(argv, stdout) for each `$ steinhaus ...` line in the README's sh
    blocks; the output is every line after it up to a blank line."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for chunk in block.split("\n\n"):
            command, _, output = chunk.partition("\n")
            if command.startswith("$ steinhaus "):
                examples.append((shlex.split(command)[2:], output.rstrip("\n") + "\n"))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_cli_examples():
    commands = [" ".join(argv) for argv, _ in EXAMPLES]
    assert len(commands) >= 8
    assert "search --n 2 --m 16 --count-only" in commands


@pytest.mark.parametrize("argv, stdout", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_output(argv, stdout, capsys, monkeypatch):
    monkeypatch.delenv(MAX_STATES_ENV, raising=False)
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""
