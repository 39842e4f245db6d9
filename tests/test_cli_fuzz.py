"""Fuzz the command line with small, often malformed, argument lists.

Whatever the flags and the state cap in the environment, a call exits 0
(success), 1 (bad input) or 2 (domain error), prints no traceback and returns
quickly.  Exit 3, an internal error,
means a bug.  Each subcommand imports its library module when it runs, so
these calls also cover every handler's deferred import.
"""

import contextlib
import io
import os
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from steinhaus.cli import MAX_STATES_ENV, run

_INT = st.integers(-20, 20)
# Valid values first: hypothesis draws (and shrinks towards) the first ones most.
_N = st.sampled_from([*range(1, 17), 0, -2])
_M = st.sampled_from([*range(1, 9), 0, -1])
_MAX_STATES = st.integers(-1, 10**4)
# The state cap that applies when --max-states is not given, malformed now and then.
_ENV_CAP = st.sampled_from(["10000", "0", "-3", "abc", ""])
_SEQ = st.one_of(
    st.lists(st.integers(-40, 40), min_size=1, max_size=12).map(lambda ts: ",".join(map(str, ts))),
    st.sampled_from(["", "1,,2", "x", " 3, 4", "1.5", "-"]),
)
# Flags that a call needs; each other flag is left out half the time.
_REQUIRED = ("--m", "--n", "--seq")

# Each subcommand's own flags, with a strategy for each value (None: no value).
_FLAGS = {
    "triangle": {"--seq": _SEQ},
    "derive": {"--seq": _SEQ, "--i": st.integers(-2, 13)},
    "balanced": {"--seq": _SEQ},
    "alpha": {},
    "beta": {},
    "admissible": {"--max": st.integers(-5, 200)},
    "construct": {
        "--m": _M,
        "--d": _INT,
        "--family": st.sampled_from(["beta", "alpha", "gamma"]),
        "--a": _INT,
    },
    "search": {
        "--m": _M,
        "--count-only": None,
        "--workers": st.integers(0, 2),
        "--max-states": _MAX_STATES,
    },
    "classify-even": {"--max-m": st.integers(-1, 40)},
    "probe": {"--m": _M, "--max-states": _MAX_STATES},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = {
        "--n": _N,
        "--format": st.sampled_from(["text"] * 4 + ["json"] * 4 + ["xml"]),
        **_FLAGS[command],
    }
    # Now and then a needed flag is missing, but most calls get past the parser.
    missing = draw(st.sampled_from([None] * 20 + list(_REQUIRED)))
    argv = [command]
    for flag in draw(st.permutations(sorted(flags))):
        if flag == missing or (flag not in _REQUIRED and not draw(st.booleans())):
            continue
        if flags[flag] is None:
            argv.append(flag)
            continue
        value = str(draw(flags[flag]))
        # A value such as "-1,2" reads as an option unless it is joined with "=".
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs(), _ENV_CAP)
def test_any_argv_exits_cleanly(argv, cap):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {MAX_STATES_ENV: cap}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = run(argv)
            seconds = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert seconds < 2, (argv, seconds)
    assert (code == 0) == (err.getvalue() == "")
