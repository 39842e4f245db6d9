"""Reference row kernel for the tests: one adjacent sum at a time.

steinhaus.sequences computes each row of a triangle packed into one integer.
This is the plain comprehension the packed kernel replaced: slow and plainly
right, the oracle the packed rows are compared against.
"""

from collections import Counter


def next_row(row, n):
    """The row below `row` in a triangle mod n."""
    return tuple([(a + b) % n for a, b in zip(row, row[1:])])


def oracle_rows(terms, n):
    """Every row of the triangle of `terms` mod n, top row first, as tuples."""
    rows = [tuple(terms)]
    while len(rows[-1]) > 1:
        rows.append(next_row(rows[-1], n))
    return rows


def oracle_counts(terms, n):
    """The residue counts 0..n-1 over every entry of the oracle rows."""
    tally = Counter(v for row in oracle_rows(terms, n) for v in row)
    return tuple(tally[r] for r in range(n))
