"""Tests for exhaustive search, even-modulus classification, and probing."""

import itertools
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from search_oracle import left_edge, mirrored_hits, odometer_block, odometer_report

from steinhaus import (
    ArithmeticProgression,
    BudgetExceeded,
    SearchBudget,
    SearchReport,
    Sequence,
    UnsupportedLength,
    alpha,
    balanced_terms,
    brute_force_balanced,
    classify_even_progressions,
    is_admissible,
    is_balanced,
    molluzzo_probe,
    multiplicities,
    triangle,
)
from steinhaus import search
from steinhaus.progressions import _construction
from steinhaus.orders import totient
from steinhaus.search import (
    _blocks,
    _chunk_table,
    _plan,
    _pool_size,
    _scan_block,
    _sum_weights,
    _witness,
    _within_budget,
)


def seqs(n, rows):
    return tuple(Sequence(n, row) for row in rows)


def test_budget_validation():
    SearchBudget()
    SearchBudget(max_states=1, workers=3)
    with pytest.raises(ValueError):
        SearchBudget(max_states=0)
    with pytest.raises(ValueError):
        SearchBudget(workers=0)


def test_brute_force_small_binary():
    report = brute_force_balanced(2, 3)
    assert report == SearchReport(
        modulus=2,
        length=3,
        found=seqs(2, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]),
        count=4,
        states_examined=8,
    )


def test_brute_force_no_hits():
    report = brute_force_balanced(2, 2)
    assert report.found == ()
    assert report.count == 0
    assert report.states_examined == 4
    # a length that is not admissible is answered without walking 2^26 states
    report = brute_force_balanced(2, 26, budget=SearchBudget(max_states=2**26))
    assert report == SearchReport(2, 26, (), 0, 2**26)


def test_brute_force_quaternary_length_four():
    report = brute_force_balanced(2, 4)
    assert report.found == seqs(
        2,
        [
            (0, 0, 1, 0),
            (0, 0, 1, 1),
            (0, 1, 0, 0),
            (0, 1, 0, 1),
            (1, 0, 1, 0),
            (1, 1, 0, 0),
        ],
    )
    assert report.count == 6


def test_brute_force_mod_five():
    report = brute_force_balanced(5, 4)
    assert report.count == 4
    assert Sequence(5, (2, 2, 3, 3)) in report.found
    assert all(is_balanced(seq) for seq in report.found)


def test_brute_force_trivial_modulus():
    report = brute_force_balanced(1, 5)
    assert report.found == (Sequence(1, (0, 0, 0, 0, 0)),)
    assert report.states_examined == 1
    # one search node per term, far deeper than the recursion limit
    report = brute_force_balanced(1, 1500, count_only=True)
    assert report == SearchReport(1, 1500, (), 1, 1)


def test_brute_force_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_balanced(2, 4, budget=SearchBudget(max_states=15))
    # the boundary itself is allowed
    report = brute_force_balanced(2, 4, budget=SearchBudget(max_states=16))
    assert report.count == 6


def test_budget_boundary_is_exact():
    for n in range(2, 12):
        for m in range(1, 40):
            assert _within_budget(n, m, n**m)
            assert not _within_budget(n, m, n**m - 1)
    big = 10**400
    assert _within_budget(10, 400, big)
    assert not _within_budget(10, 401, big)
    assert _within_budget(1, 10**400, 1)
    # lengths far past the budget are refused without building n**m, even
    # where m*log2(n) would not fit in a float
    assert not _within_budget(3, 10**9, 10**8)
    assert not _within_budget(2, 10**400, 10**8)
    assert not _within_budget(10**300, 30, big)


def test_brute_force_count_only():
    report = brute_force_balanced(2, 4, count_only=True)
    assert report.found == ()
    assert report.count == 6
    assert report.states_examined == 16


def test_worker_count_does_not_change_report():
    serial = brute_force_balanced(3, 8)
    for workers in (2, 4):
        parallel = brute_force_balanced(3, 8, budget=SearchBudget(workers=workers))
        assert parallel == serial


def test_more_workers_than_prefixes(monkeypatch):
    serial = brute_force_balanced(2, 3)
    parallel = brute_force_balanced(2, 3, budget=SearchBudget(workers=16))
    assert parallel == serial
    # (3, 2) cuts 5 blocks at 8 workers, so the caller forks 4 children, not 7
    fork, forks = os.fork, []

    def counted():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "fork", counted)
    assert brute_force_balanced(3, 2, SearchBudget(workers=8)) == brute_force_balanced(3, 2)
    assert len(forks) == 4


def test_pool_size_is_clamped(monkeypatch):
    cpus = os.cpu_count() or 1
    assert _pool_size(1, 10**6) == 1
    assert _pool_size(100000, 10**6) == cpus
    assert _pool_size(100000, 1) == 1
    assert _pool_size(10**18, 10**18) == cpus
    # without os.fork the caller scans alone, with the same report
    serial = brute_force_balanced(3, 8)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert _pool_size(4, 10**6) == 1
    assert brute_force_balanced(3, 8, SearchBudget(workers=4)) == serial


def test_pool_size_follows_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(100000, 10**6) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _pool_size(100000, 10**6) == 64
    assert _pool_size(100000, 9) == 9
    assert _pool_size(3, 9) == 3


@pytest.mark.parametrize("n", range(1, 8))
def test_search_matches_odometer_exhaustively(n):
    # every m with n^m <= 5 * 10^4; n = 1 has a single state at every length
    for m in range(1, 13):
        if n**m > 5 * 10**4:
            break
        listing = odometer_report(n, m)
        counting = SearchReport(n, m, (), listing.count, listing.states_examined)
        for workers in (1, 2):
            budget = SearchBudget(workers=workers)
            assert brute_force_balanced(n, m, budget) == listing, (n, m, workers)
            assert brute_force_balanced(n, m, budget, count_only=True) == counting


@pytest.mark.parametrize("n, m, count", [(4, 8, 300), (6, 8, 532), (5, 9, 1284)])
def test_orbit_count_matches_listing(n, m, count):
    # the listing expands the count's orbit blocks, so this checks the two
    # against each other only; test_listing_matches_odometer_past_the_cap
    # checks listings against the odometer at (4, 8) and (7, 6)
    assert brute_force_balanced(n, m, count_only=True).count == count
    assert len(brute_force_balanced(n, m).found) == count


@pytest.mark.parametrize("n, m", [(4, 8), (7, 6)])
def test_listing_matches_odometer_past_the_cap(n, m):
    # past the 5 * 10^4 states the exhaustive test stops at; mod 4 has the
    # unit 3 and mod 7 five units besides 1, so most hits are images of the
    # hits of a block under a unit
    listing = odometer_report(n, m)
    for workers in (1, 2):
        assert brute_force_balanced(n, m, SearchBudget(workers=workers)) == listing, workers


@pytest.mark.parametrize("n", range(1, 65))
def test_block_units_describe_the_orbit(n):
    # a block (0^j, g, ...) carries one unit u per other first term y with
    # gcd(y, n) = g, the one with u*g = y, so 1 + len(units) = phi(n/g)
    for prefix, units in _blocks(n, 1, 0):
        if not any(prefix):
            assert units == []
            continue
        g = prefix[-1]
        assert 1 + len(units) == totient(n // g), (n, g)
        assert all(math.gcd(u, n) == 1 for u in units), (n, g)
        images = [u * g % n for u in units]
        assert len(set(images)) == len(images), (n, g)
        assert {g, *images} == {y for y in range(n) if math.gcd(y, n) == g}, (n, g)


@pytest.mark.parametrize("n", range(1, 10))
def test_block_prefixes_in_order(n):
    # (0^j, g, rest) for j < m, g a proper divisor and rest any k - j - 1
    # terms, in that order, then the all-zero sequence
    divisors = [g for g in range(1, n) if n % g == 0]
    for m in range(1, 6):
        for k in range(4):
            expected = [
                (0,) * j + (g,) + rest
                for j in range(m)
                for g in divisors
                for rest in sorted(product_of(n, k - j - 1))
            ]
            expected.append((0,) * m)
            assert [prefix for prefix, _ in _blocks(n, m, k)] == expected, (n, m, k)


def product_of(n, length):
    """Every tuple of `length` residues mod n, the empty one for length <= 0."""
    tuples = [()]
    for _ in range(length):
        tuples = [t + (x,) for t in tuples for x in range(n)]
    return tuples


# every admissible (n, m) with n <= 9 and n^m <= 10^5, n = 1 up to m = 16
SMALL_ADMISSIBLE = [
    (n, m)
    for n in range(1, 10)
    for m in range(1, 17)
    if n**m <= 10**5 and is_admissible(n, m)
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_ADMISSIBLE))
def test_listing_is_sorted_closed_under_units_and_counted(case):
    n, m = case
    found = [s.terms for s in brute_force_balanced(n, m).found]
    assert all(a < b for a, b in zip(found, found[1:]))
    hits = set(found)
    for u in range(1, n + 1):
        if math.gcd(u, n) == 1:
            assert {tuple(u * t % n for t in hit) for hit in found} == hits, u
    assert len(found) == brute_force_balanced(n, m, count_only=True).count
    assert all(is_balanced(Sequence(n, hit)) for hit in found)


def test_worker_count_does_not_change_uneven_blocks():
    # mod 6 has three divisor first terms, so the pool's blocks differ widely
    for count_only in (False, True):
        serial = brute_force_balanced(6, 8, count_only=count_only)
        parallel = brute_force_balanced(6, 8, SearchBudget(workers=2), count_only=count_only)
        assert parallel == serial


SPAWN_CHILD = """
import multiprocessing
from steinhaus import SearchBudget, brute_force_balanced

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    pool = SearchBudget(workers=2)
    assert brute_force_balanced(3, 8, pool, count_only=True).count == 190
    assert brute_force_balanced(3, 8, pool) == brute_force_balanced(3, 8)
    print("ok")
"""


def test_pool_blocks_survive_spawn():
    # the workers are forked whatever multiprocessing's start method says
    proc = subprocess.run(
        [sys.executable, "-c", SPAWN_CHILD], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_raises_when_a_worker_fails(monkeypatch):
    caller, scan = os.getpid(), search._scan_block

    def failing(*args, **kwargs):
        if os.getpid() != caller:
            raise ValueError("worker")
        # slow enough that the worker takes blocks too
        time.sleep(0.01)
        return scan(*args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search, "_scan_block", failing)
    with pytest.raises(RuntimeError):
        brute_force_balanced(3, 8, SearchBudget(workers=2), count_only=True)
    assert_no_child_left()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_split_kills_the_workers_when_the_caller_fails(monkeypatch, error):
    caller = os.getpid()

    def failing(*args, **kwargs):
        if os.getpid() == caller:
            raise error("caller")
        # a worker would outlast the test unless killed
        time.sleep(60)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(search, "_scan_block", failing)
    start = time.monotonic()
    with pytest.raises(error, match="caller"):
        brute_force_balanced(3, 8, SearchBudget(workers=4), count_only=True)
    assert time.monotonic() - start < 30
    assert_no_child_left()


SPLIT_CHILD = """
import os
from steinhaus import SearchBudget, brute_force_balanced, search

os.cpu_count = lambda: 2
search._BLOCKS_PER_WORKER = 30000
split, cuts = search._split, []

def counted(scan, prefixes, workers):
    cuts.append(len(prefixes))
    return split(scan, prefixes, workers)

search._split = counted
for count_only in (True, False):
    serial = brute_force_balanced(2, 16, count_only=count_only)
    assert brute_force_balanced(2, 16, SearchBudget(workers=2), count_only=count_only) == serial
assert min(cuts) > 60000, cuts
print("ok")
"""


def test_split_hands_out_more_blocks_than_a_pipe_holds():
    # 65,536 blocks, in runs of 64, so their indices fit one pipe buffer
    proc = subprocess.run(
        [sys.executable, "-c", SPLIT_CHILD], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize("n, m", [(1, 9), (2, 12), (3, 9), (4, 8), (6, 8), (7, 7), (9, 8)])
def test_split_matches_the_serial_walk(monkeypatch, n, m):
    # more processes than this machine may have CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for count_only in (True, False):
        serial = brute_force_balanced(n, m, count_only=count_only)
        for workers in (2, 3, 4):
            budget = SearchBudget(workers=workers)
            assert brute_force_balanced(n, m, budget, count_only=count_only) == serial, workers
    assert_no_child_left()


@st.composite
def search_blocks(draw):
    """(n, m, prefix) with at most a few thousand suffixes after the prefix."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 12))
    free = 0
    while free < m and n ** (free + 1) <= 3000:
        free += 1
    k = draw(st.integers(m - free, m))
    if draw(st.booleans()):
        # a constant prefix piles one residue up fast, often past the target
        prefix = (draw(st.integers(0, n - 1)),) * k
    else:
        prefix = tuple(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
    return n, m, prefix


@settings(max_examples=300, deadline=None)
@given(search_blocks())
@example((2, 8, (0,) * 6))  # 21 zeros against a target of 18
@example((3, 8, (0,) * 5))  # 15 zeros against a target of 12
@example((2, 3, (1, 1, 1)))  # the whole sequence as prefix, balanced
@example((4, 7, (3, 1, 2, 0, 3, 2, 1)))  # the whole sequence, unbalanced
# gcd(m, n) > 1: a length m - 1 prefix takes no last term or several
@example((4, 8, (0, 2, 0, 2)))  # 8x = 0 mod 4: all four or none; (0, 2, 0, 2, 1, 3, 0) has two hits
@example((6, 8, (0, 0, 2)))  # 8x = v mod 6: two last terms or none
# gcd(m, n) = 1: every length m - 1 prefix takes exactly one last term
@example((3, 11, (0, 0, 0, 0)))
@example((5, 9, (0, 0, 1, 0, 1)))
# mod 2: (0, 0, 0, 1, 0, 0, 1, x) is its own mirror for both x
@example((2, 8, (0, 0, 0, 1)))
def test_scan_block_matches_odometer(case):
    n, m, prefix = case
    if n == 2:
        # one sequence of each mirror pair is walked, and the mirrors are added
        listed = mirrored_hits(odometer_block(n, m, prefix, False)[0])
        assert _scan_block(n, m, prefix, False) == (listed, len(listed))
        assert _scan_block(n, m, prefix, True) == ([], len(listed))
        return
    for count_only in (False, True):
        assert _scan_block(n, m, prefix, count_only) == odometer_block(n, m, prefix, count_only)


# a balanced sequence mod 2 of length 35 (the first one _witness finds)
BALANCED_35 = (1,) + (0,) * 16 + (1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1)


@settings(max_examples=300, deadline=None)
@given(search_blocks())
@example((2, 35, BALANCED_35[:24]))  # diagonals of up to 35 bits, past one 30-bit digit
@example((2, 35, BALANCED_35))
@example((2, 12, (1, 1)))  # hits in more than one length m - 1 prefix
@example((4, 8, (0, 2, 0)))  # the first hit's prefix (0, 2, 0, 2, 1, 3, 0) has two hits
@example((6, 8, (0, 0, 2, 5)))
@example((3, 11, (0, 0, 0, 0)))
@example((5, 9, (0, 0, 1, 0, 2)))
@example((2, 8, (0, 0, 0, 1)))  # the first hit's prefix has two hits, each its own mirror
@example((2, 12, (1, 0)))  # mod 2 (1, 1) walks no hit, and (1, 0) hits in several prefixes
def test_scan_block_first_hit_matches_odometer(case):
    n, m, prefix = case
    hits, count = odometer_block(n, m, prefix, False)
    every = hits
    if n == 2:
        hits = mirrored_hits(every)
        count = len(hits)
    assert _scan_block(n, m, prefix, False) == (hits, count)
    assert _scan_block(n, m, prefix, True) == ([], count)
    # the first hit's length m - 1 prefix, with all its balanced completions
    # (mod 2 those walked, each followed by its mirror)
    head = hits[0][: m - 1] if hits else None
    first = [hit for hit in every if hit[: m - 1] == head]
    if n == 2:
        first = mirrored_hits(first)
    assert _scan_block(n, m, prefix, False, first_hit=True) == (first, len(first))
    assert _scan_block(n, m, prefix, True, first_hit=True) == ([], len(first))


@pytest.mark.parametrize("n", [1, 3, 4, 5, 6, 7])
def test_chunk_table_matches_an_entry_by_entry_walk(n):
    # the chunk width c and count lane width w of _plan's packed constants, with
    # one table per w shared by every length that has it
    b = n.bit_length()
    pad = (1 << b) - 1
    tables, widths = {}, []
    for m in range(1, 40):
        if is_admissible(n, m):
            table, mask, _, high, *_ = _plan(n, m)[2]
            c, w = mask.bit_length() // b, high.bit_length() // n
            widths.append(w)
            assert n << (b * c) < 4096 <= n << (b * (c + 1))
            assert tables.setdefault(w, table) is table, (m, w)
            assert table is _chunk_table(n, c, w)
    # two widths at least, and one of them shared by two lengths
    assert 2 <= len(tables) < len(widths)
    # every carry and every chunk of residue lanes topped by a run of pads,
    # at the two narrowest lane widths
    for w in sorted(tables)[:2]:
        table = tables[w]
        for y in range(n):
            for length in range(c + 1):
                for lanes in itertools.product(range(n), repeat=length):
                    chunk = sum(v << (j * b) for j, v in enumerate(lanes + (pad,) * (c - length)))
                    z = y
                    entries = 0
                    tally = [0] * n
                    for j, v in enumerate(lanes, 1):
                        z = (z + v) % n
                        entries |= z << (j * b)
                        tally[z] += 1
                    row, e, counts = table[y][chunk]
                    assert row is table[z], (w, y, lanes)
                    assert e == entries, (w, y, lanes)
                    assert counts == sum(k << (r * w) for r, k in enumerate(tally)), (w, y, lanes)


# n = 8's least admissible length is 15, whose blocks take over a minute, so
# (9, 8) stands for the list node
@pytest.mark.parametrize("n, m", [(1, 6), (2, 8), (3, 6), (4, 7), (5, 5), (6, 8), (7, 7), (9, 8)])
def test_blocks_leave_the_plan_unchanged(n, m):
    prefixes = [prefix for prefix, _ in _blocks(n, m, 2)]
    forwards = [_scan_block(n, m, prefix, False) for prefix in prefixes]
    backwards = [_scan_block(n, m, prefix, False) for prefix in reversed(prefixes)]
    assert backwards[::-1] == forwards
    weights, options, packed = _plan(n, m)
    _plan.cache_clear()
    fresh = _plan(n, m)
    assert (weights, options) == fresh[:2]
    if packed is None:
        assert fresh[2] is None
    else:
        # the chunk table's rows refer to each other, so it is compared by identity
        assert packed[0] is fresh[2][0]
        assert packed[1:] == fresh[2][1:]


def test_one_plan_per_search():
    _plan.cache_clear()
    brute_force_balanced(2, 8)
    info = _plan.cache_info()
    assert (info.misses, info.hits) == (1, len(_blocks(2, 8, 0)) - 1)


@st.composite
def deep_blocks(draw):
    """(n, m, prefix) with 0 to 3 free terms, either side of the packed node:
    n = 7 walks it, with chunks of 3 lanes, and n = 8 the list rule.  A
    prefix of all m terms is carried by the last depth's options alone."""
    n, m = draw(st.sampled_from([(7, 13), (8, 15)]))
    k = m - draw(st.integers(0, 3))
    return n, m, tuple(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))


@settings(max_examples=60, deadline=None)
@given(deep_blocks())
# prefixes of _witness's hits, whose counts all end at target exactly, the
# hits themselves, and the hits with another last term, which no balanced
# sequence starts with although their length m - 1 prefixes have a completion
@example((7, 13, (1, 0, 0, 0, 2, 0, 4, 2, 4, 2)))
@example((8, 15, (1, 0, 0, 0, 0, 2, 1, 5, 1, 4, 7, 5)))
@example((7, 13, (1, 0, 0, 0, 2, 0, 4, 2, 4, 2, 4, 5, 5)))
@example((8, 15, (1, 0, 0, 0, 0, 2, 1, 5, 1, 4, 7, 5, 5, 7, 0)))
@example((7, 13, (1, 0, 0, 0, 2, 0, 4, 2, 4, 2, 4, 5, 0)))
@example((8, 15, (1, 0, 0, 0, 0, 2, 1, 5, 1, 4, 7, 5, 5, 7, 1)))
# the prefix's last entry, which ends a chunk of its parent's diagonal,
# brings a count to target 13, or to 14
@example((7, 13, (6, 5, 1, 4, 4, 1, 3, 6, 5, 3)))
@example((7, 13, (1, 5, 2, 6, 1, 4, 6, 6, 2, 0)))
def test_scan_block_matches_odometer_on_deep_prefixes(case):
    n, m, prefix = case
    hits, count = odometer_block(n, m, prefix, False)
    assert _scan_block(n, m, prefix, False) == (hits, count)
    assert _scan_block(n, m, prefix, True) == ([], count)
    head = hits[0][: m - 1] if hits else None
    first = [hit for hit in hits if hit[: m - 1] == head]
    assert _scan_block(n, m, prefix, False, first_hit=True) == (first, len(first))


@pytest.mark.parametrize("m", [60, 200])
def test_trivial_modulus_fills_wide_lanes(m):
    # targets of 1830 and 20100 take count lanes of 12 and 16 bits
    report = brute_force_balanced(1, m)
    assert report == SearchReport(1, m, (Sequence(1, (0,) * m),), 1, 1)
    assert brute_force_balanced(1, m, count_only=True).count == 1


@settings(max_examples=200, deadline=None)
@given(st.data(), st.one_of(st.integers(1, 64), st.just(2**61 - 1)), st.integers(1, 60))
def test_sum_weights_give_the_triangle_sum(data, n, m):
    terms = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weights = _sum_weights(n, m)
    assert len(weights) == m
    entries = triangle(Sequence(n, terms)).entries()
    assert sum(w * x for w, x in zip(weights, terms)) % n == sum(entries) % n


def test_sum_weights_follow_the_pascal_recurrence():
    # c_j(m) = C(m+1, j) - 1, exact for a modulus past every coefficient, with
    # c_0(m) = c_{m+1}(m) = 0 and c_j(m) = c_j(m-1) + c_{j-1}(m-1) + 1
    big = 2**200
    previous = [0, 0]
    for m in range(1, 61):
        current = [0] + _sum_weights(big, m) + [0]
        assert current[1:-1] == [math.comb(m + 1, j) - 1 for j in range(1, m + 1)]
        assert current[1:-1] == [previous[j] + previous[j - 1] + 1 for j in range(1, m + 1)]
        previous = current


def test_binary_counts_past_the_acceptance_table():
    assert is_balanced(Sequence(2, BALANCED_35))
    # two independent rules agree on these counts: the word-parallel one
    # that n = 2 runs, and the list rule of every other n, run on n = 2
    assert brute_force_balanced(2, 19, count_only=True).count == 32757
    assert brute_force_balanced(2, 20, count_only=True).count == 59984


@pytest.mark.parametrize("m", range(1, 17))
def test_binary_search_matches_odometer(m):
    # one sequence of each mirror pair is walked; at 2 workers the pool's
    # blocks are finer, and a mirror can lie in another block than its pair
    listing = odometer_report(2, m)
    for workers in (1, 2):
        budget = SearchBudget(workers=workers)
        assert brute_force_balanced(2, m, budget) == listing, workers
        assert brute_force_balanced(2, m, budget, count_only=True).count == listing.count


@pytest.mark.parametrize("m", [3, 4, 7, 8, 11, 12, 15, 16])
def test_binary_listing_is_closed_under_the_left_edge(m):
    found = {s.terms for s in brute_force_balanced(2, m).found}
    assert found
    assert {left_edge(hit, 2) for hit in found} == found


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_left_edge_is_an_involution_keeping_binary_counts(terms):
    edge = left_edge(terms, 2)
    assert left_edge(edge, 2) == tuple(terms)
    assert multiplicities(Sequence(2, edge)) == multiplicities(Sequence(2, terms))


def test_left_edge_is_no_symmetry_mod_3():
    # mod 3 the local rule c = a + b is not symmetric in a, b and c, so the
    # search walks every sequence of a length for n != 2
    found = [s.terms for s in brute_force_balanced(3, 5).found]
    assert len(found) == 12
    assert not all(balanced_terms(left_edge(hit, 3), 3) for hit in found)


def test_brute_force_matches_direct_filter():
    from itertools import product

    for n, m in [(3, 5), (4, 7), (5, 4)]:
        expected = tuple(
            Sequence(n, terms)
            for terms in product(range(n), repeat=m)
            if is_balanced(Sequence(n, terms))
        )
        assert brute_force_balanced(n, m).found == expected


def test_classify_even_small():
    hits = classify_even_progressions(2, max_length=40)
    assert [ap.to_sequence().terms for ap in hits] == [
        (0, 1, 0),
        (1, 1, 1),
        (0, 1, 0, 1),
        (1, 0, 1, 0),
    ]
    hits = classify_even_progressions(6, max_length=40)
    assert [ap.to_sequence().terms for ap in hits] == [
        (1, 3, 5),
        (2, 3, 4),
        (4, 3, 2),
        (5, 3, 1),
    ]


def test_classify_even_empty_moduli():
    for n in (4, 8, 10, 12):
        assert classify_even_progressions(n, max_length=40) == []


def test_classify_even_rejects_odd():
    with pytest.raises(ValueError):
        classify_even_progressions(5)
    with pytest.raises(ValueError):
        classify_even_progressions(6, max_length=0)


def unsieved_classification(n, max_length):
    # every triple counted mod n, with no projection first
    return [
        ArithmeticProgression(n, a, d, m)
        for m in range(1, max_length + 1)
        for a in range(n)
        for d in range(n)
        if ArithmeticProgression(n, a, d, m).is_balanced()
    ]


@pytest.mark.parametrize("n", [2, 6, *range(16, 41, 2)])
def test_classify_even_sieve_drops_no_balanced_progression(n):
    assert classify_even_progressions(n, 40) == unsieved_classification(n, 40)


def test_classify_even_results_are_balanced_and_admissible():
    for ap in classify_even_progressions(6, max_length=40):
        assert is_admissible(ap.modulus, ap.length)
        assert is_balanced(ap.to_sequence())


def test_probe_constructive_cases():
    assert molluzzo_probe(3, 27) is True
    assert molluzzo_probe(9, 18) is True
    assert molluzzo_probe(7, 21) is True


def test_alpha_lengths_are_beta_lengths():
    # why molluzzo_probe tries the beta family alone: beta(n) divides alpha(n)
    def accepts(n, m, family):
        try:
            _construction(n, m, 1, family, None)
        except UnsupportedLength:
            return False
        return True

    for n in range(1, 200, 2):
        for m in range(1, 2 * alpha(n) * n + 1):
            if accepts(n, m, "alpha"):
                assert accepts(n, m, "beta"), (n, m)


def test_probe_falls_back_to_search():
    assert molluzzo_probe(2, 7) is True
    assert molluzzo_probe(2, 4) is True
    # admissible for mod 5 but not covered by any construction
    assert molluzzo_probe(5, 4) is True


def test_first_hit_finds_a_witness_exactly_when_one_exists():
    # every admissible (n, m) with n^m <= 5 * 10^4, n = 1 up to m = 16
    for m in range(1, 17):
        for n in range(1, m * (m + 1) // 2 + 1):
            if n**m > 5 * 10**4 or not is_admissible(n, m):
                continue
            _, count = odometer_block(n, m, (), True)
            witness = _witness(n, m)
            assert (witness is not None) == (count > 0), (n, m)
            if witness is not None:
                assert is_balanced(Sequence(n, witness)), (n, m)
            assert molluzzo_probe(n, m) == (count > 0), (n, m)


def test_probe_says_no_where_no_sequence_exists():
    # (15, 5) is admissible, with one entry per residue, yet the odometer
    # finds no balanced sequence among all 15^5
    assert odometer_block(15, 5, (), True) == ([], 0)
    assert _witness(15, 5) is None
    assert molluzzo_probe(15, 5) is False


def test_probe_stops_at_first_witness():
    # 4^15 states: a full count does not finish in minutes, the first hit
    # comes after a few thousand nodes
    assert molluzzo_probe(4, 15, budget=SearchBudget(max_states=4**15)) is True


def test_probe_rejects_non_admissible():
    with pytest.raises(ValueError):
        molluzzo_probe(5, 3)
    with pytest.raises(ValueError):
        molluzzo_probe(7, 2)


def test_probe_budget():
    with pytest.raises(BudgetExceeded):
        molluzzo_probe(11, 10, budget=SearchBudget(max_states=100))
