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


# (n, m) with n at most the m(m+1)/2 entries, which formats every residue,
# and past it, which formats only the residues that occur.
@pytest.mark.parametrize("n, m", [(1, 1), (3, 2), (10, 4), (7, 30), (11, 4), (1000, 12), (10**9, 40)])
def test_render_matches_reference(n, m):
    rng = random.Random(n * 1000 + m)
    t = triangle(Sequence(n, tuple(rng.randrange(n) for _ in range(m))))
    assert render_triangle(t) == reference_render(t)
