"""A CLI call imports only what its subcommand runs.

Every CLI call is a fresh interpreter, so the modules it imports (and, with
no bytecode cache, compiles) are a large share of its cost.  The child below
runs `cli.run` on three subcommands and reports `sys.modules` after each
call; the modules of a bare child, which `site` may preload, do not count.
"""

import ast
import os
import subprocess
import sys

import pytest

import steinhaus

CALLS = [
    ["alpha", "--n", "3"],
    ["balanced", "--n", "5", "--seq", "1,2,3,4"],
    ["search", "--n", "2", "--m", "3"],
]

CHILD = f"""
import contextlib, io, sys
from steinhaus.cli import run
loaded = []
for argv in {CALLS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0, argv
    loaded.append(sorted(sys.modules))
print(repr(loaded))
"""


def _child(code):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return ast.literal_eval(out)


def test_calls_load_only_their_modules():
    bare = set(_child("import sys; print(repr(sorted(sys.modules)))"))
    alpha, balanced, search = [set(mods) - bare for mods in _child(CHILD)]
    assert alpha <= balanced <= search
    # The value classes are built without dataclasses.
    assert "dataclasses" not in search
    # Annotations are evaluated as written, not postponed.
    assert "__future__" not in search
    # Text output needs neither json nor fractions.
    assert not {"json", "fractions"} & search
    # alpha needs the order functions alone.
    assert "steinhaus.orders" in alpha
    heavy = {"steinhaus.admissible", "steinhaus.sequences", "steinhaus.progressions",
             "steinhaus.search"}
    assert not heavy & alpha
    assert "steinhaus.search" not in balanced


def test_package_namespace_is_lazy():
    loaded = _child(
        "import sys, steinhaus\n"
        "first = sorted(m for m in sys.modules if m.startswith('steinhaus.'))\n"
        "steinhaus.search\n"
        "print(repr([first, sorted(m for m in sys.modules if m.startswith('steinhaus.'))]))"
    )
    assert loaded[0] == []
    assert "steinhaus.search" in loaded[1] and "steinhaus.sequences" in loaded[1]


def test_package_namespace_names():
    namespace = {}
    exec("from steinhaus import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(steinhaus.__all__)
    assert len(steinhaus.__all__) == len(set(steinhaus.__all__)) == 41
    assert set(steinhaus.__all__) <= set(dir(steinhaus))
    assert steinhaus.DEFAULT_MAX_STATES is steinhaus.search.DEFAULT_MAX_STATES
    assert steinhaus.orders.alpha is steinhaus.alpha
    with pytest.raises(AttributeError):
        steinhaus.no_such_name


def test_tally_kernels_compile_on_first_use():
    # Only a long triangle's tally compiles the bit-sliced kernel of its
    # modulus, and only then is the module that writes its source loaded.
    compiled = _child(
        "import sys\n"
        "from steinhaus import Sequence, derive, is_balanced, multiplicities, triangle\n"
        "from steinhaus.sequences import _SLICED\n"
        "state = lambda: (sorted(_SLICED), 'steinhaus._sliced' in sys.modules)\n"
        "first = state()\n"
        "seq = Sequence(5, (1, 2, 3, 4))\n"
        "triangle(seq), derive(seq), multiplicities(triangle(seq))\n"
        "multiplicities(seq), is_balanced(seq)\n"
        "second = state()\n"
        "multiplicities(Sequence(5, (1, 2, 3, 4) * 128))\n"
        "print(repr([first, second, state()]))"
    )
    assert compiled == [([], False), ([], False), ([5], True)]


def test_progression_count_compiles_no_kernel():
    # A progression of any length is counted in closed form, so counting a
    # long one neither compiles a bit-sliced kernel nor loads its module.
    compiled = _child(
        "import sys\n"
        "from steinhaus import Sequence, is_balanced, multiplicities\n"
        "from steinhaus.sequences import _SLICED\n"
        "seq = Sequence(9, tuple(k % 9 for k in range(1, 541)))\n"
        "multiplicities(seq), is_balanced(seq)\n"
        "print(repr([sorted(_SLICED), 'steinhaus._sliced' in sys.modules]))"
    )
    assert compiled == [[], False]
