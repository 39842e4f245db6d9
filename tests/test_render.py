"""render_triangle against a reference that formats every entry on its own."""

import random

import pytest

from steinhaus import Sequence, triangle
from steinhaus.cli import render_triangle


def reference_render(t):
    width = max(len(str(t.modulus - 1)), 1)
    return "\n".join(
        " " * ((i * (width + 1)) // 2) + " ".join(str(v).rjust(width) for v in row.terms)
        for i, row in enumerate(t.rows)
    )


def assert_same_drawing(got, want):
    """Fail at the first line that differs, naming it.

    A plain == on two whole drawings makes pytest diff them on failure,
    which takes minutes at about 400 kB each.
    """
    got, want = got.split("\n"), want.split("\n")
    for i, (line, expected) in enumerate(zip(got, want), 1):
        if line != expected:
            pytest.fail(f"line {i} differs:\n got  {line[:100]!r}\n want {expected[:100]!r}")
    if len(got) != len(want):
        pytest.fail(f"{len(got)} lines, want {len(want)}")


# (n, m) with n at most the m(m+1)/2 entries, which formats every residue,
# and past it, which formats only the residues that occur; moduli up to 64
# are drawn from one-byte rows (n = 11 and 64 with two-character cells), 65
# and up from rows of wider lanes.
@pytest.mark.parametrize("n, m", [
    (1, 1), (3, 2), (10, 4), (7, 30), (11, 4), (1000, 12), (10**9, 40),
    (2, 33), (10, 25), (11, 25), (64, 40), (65, 40),
])
def test_render_matches_reference(n, m):
    rng = random.Random(n * 1000 + m)
    t = triangle(Sequence(n, tuple(rng.randrange(n) for _ in range(m))))
    assert_same_drawing(render_triangle(t), reference_render(t))


def test_long_render_matches_reference_row_by_row():
    # m >= 600, near the triangles the benchmark draws
    rng = random.Random(640)
    t = triangle(Sequence(9, tuple(rng.randrange(9) for _ in range(640))))
    assert_same_drawing(render_triangle(t), reference_render(t))
