"""Reference search for the tests: every candidate, tallied from scratch.

The odometer walks the suffix after a fixed prefix through all its values in
lexicographic order and runs the early-exit balance check on each candidate
separately.  It prunes nothing and shares no work between candidates, so it
is slow and plainly right: the oracle the depth-first search in
steinhaus.search is compared against.
"""

from steinhaus import SearchReport, Sequence, balanced_terms


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
