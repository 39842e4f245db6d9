"""Reference search for the tests: every candidate, tallied from scratch.

The odometer walks the suffix after a fixed prefix through all its values in
lexicographic order and runs the early-exit balance check on each candidate
separately.  It prunes nothing and shares no work between candidates, so it
is slow and plainly right: the oracle the depth-first search in
steinhaus.search is compared against.

Mod 2 the search walks one sequence X of each mirror pair, X <= L(X), where
L(X) is the left edge of X's triangle; mirrored_hits says what it then lists.
"""

from steinhaus import SearchReport, Sequence, balanced_terms, triangle_rows


def odometer_block(n, m, prefix, count_only):
    """Check every length-m sequence starting with `prefix`; (found, count)."""
    k = len(prefix)
    terms = list(prefix) + [0] * (m - k)
    found = []
    count = 0
    while True:
        if balanced_terms(terms, n):
            count += 1
            if not count_only:
                found.append(tuple(terms))
        j = m - 1
        while j >= k and terms[j] == n - 1:
            terms[j] = 0
            j -= 1
        if j < k:
            return found, count
        terms[j] += 1


def odometer_report(n, m):
    """The SearchReport brute_force_balanced must give for (n, m)."""
    found, count = odometer_block(n, m, (), False)
    return SearchReport(n, m, tuple(Sequence(n, t) for t in found), count, n**m)


def left_edge(terms, n):
    """L(X): the first entry of each row of the triangle of X, top row first."""
    return tuple(row[0] for row in triangle_rows(Sequence(n, terms)))


def mirrored_hits(hits):
    """Mod 2, the hits X with X <= L(X), in their order, each followed by L(X)
    when X < L(X): what the n = 2 search lists from a block of `hits`."""
    listed = []
    for hit in hits:
        mirror = left_edge(hit, 2)
        if hit <= mirror:
            listed.append(hit)
            if hit < mirror:
                listed.append(mirror)
    return listed
