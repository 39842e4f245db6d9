"""Unit and property tests for sequences, triangles, and balance."""

import copy
import itertools
import math
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from row_oracle import next_row, oracle_counts, oracle_rows

from steinhaus import (
    IndexOutOfRange,
    LengthTooShort,
    NotADivisor,
    Sequence,
    Triangle,
    balanced_terms,
    construct_balanced,
    derive,
    derive_iterated,
    is_antisymmetric,
    is_balanced,
    multiplicities,
    project,
    triangle,
    triangle_rows,
)
from steinhaus import sequences as sequences_module
from steinhaus._sliced import compile_tally
from steinhaus.cli import render_triangle
from steinhaus.sequences import _rows, _sliced_tally, _tally


@st.composite
def sequences(draw, max_modulus=50, max_length=30):
    n = draw(st.integers(min_value=1, max_value=max_modulus))
    m = draw(st.integers(min_value=1, max_value=max_length))
    terms = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return Sequence(n, tuple(terms))


@st.composite
def antisymmetric_sequences(draw, max_modulus=30, max_half=10):
    n = draw(st.integers(min_value=1, max_value=max_modulus))
    half = draw(st.lists(st.integers(0, n - 1), max_size=max_half))
    mirrored = [(-v) % n for v in reversed(half)]
    if draw(st.booleans()):
        # odd length needs a self-negating middle term: 2x = 0 mod n
        mid = 0 if n % 2 else draw(st.sampled_from([0, n // 2]))
        terms = half + [mid] + mirrored
    else:
        terms = (half + mirrored) or [0]
    return Sequence(n, tuple(terms))


def middle_pair_vanishes(seq):
    m = len(seq)
    i = (m + 1) // 2  # 1-based middle position
    return (seq.terms[i - 1] + seq.terms[m - i]) % seq.modulus == 0


def test_sequence_validation():
    s = Sequence(3, (0, 1, 2, 2))
    assert len(s) == 4 and list(s) == [0, 1, 2, 2]
    assert Sequence(3, [0, 1]).terms == (0, 1)  # lists are coerced
    with pytest.raises(ValueError):
        Sequence(3, ())
    with pytest.raises(ValueError):
        Sequence(3, (0, 3))
    with pytest.raises(ValueError):
        Sequence(0, (0,))


def test_sequence_reduce_and_text():
    s = Sequence.reduce(7, [9, -1, 0])
    assert s.terms == (2, 6, 0)
    assert Sequence.from_text(11, "1,10,3,-1,25").terms == (1, 10, 3, 10, 3)
    assert Sequence(5, (2, 2, 3, 3)).to_text() == "2,2,3,3"
    with pytest.raises(ValueError):
        Sequence.from_text(5, "1,,2")
    with pytest.raises(ValueError):
        Sequence.from_text(5, "")


def test_derive_known_values():
    assert derive(Sequence(3, (0, 1, 2, 2))).terms == (1, 0, 1)
    assert derive(Sequence(5, (0, 0, 0, 0))).terms == (0, 0, 0)
    assert derive(Sequence(8, (3, 7, 3, 7, 3))).terms == (2, 2, 2, 2)
    assert derive(Sequence(8, (1, 1, 1, 1, 1))).terms == (2, 2, 2, 2)


def test_derive_needs_two_terms():
    with pytest.raises(LengthTooShort):
        derive(Sequence(7, (5,)))


def test_derive_iterated_known_values():
    x = Sequence(3, (0, 1, 2, 2))
    assert derive_iterated(x, 2).terms == (1, 1)
    assert derive_iterated(x, 0) == x
    assert derive_iterated(Sequence(5, (2, 2, 3, 3)), 3).terms == (0,)


def test_derive_iterated_index_errors():
    x = Sequence(3, (0, 1, 2))
    with pytest.raises(IndexOutOfRange):
        derive_iterated(x, 3)
    with pytest.raises(IndexOutOfRange):
        derive_iterated(x, -1)


def test_triangle_figures():
    t = triangle(Sequence(3, (0, 1, 2, 2)))
    assert [r.terms for r in t.rows] == [(0, 1, 2, 2), (1, 0, 1), (1, 1), (2,)]
    t2 = triangle(Sequence(5, (2, 2, 3, 3)))
    assert [r.terms for r in t2.rows] == [(2, 2, 3, 3), (4, 0, 1), (4, 1), (0,)]
    assert triangle(Sequence(7, (5,))).rows[0].terms == (5,)


def test_triangle_entry_indexing():
    t = triangle(Sequence(3, (0, 1, 2, 2)))
    assert t.entry(1, 1) == 0
    assert t.entry(2, 2) == 0
    assert t.entry(4, 1) == 2
    for i, j in [(0, 1), (5, 1), (1, 5), (4, 2), (1, 0)]:
        with pytest.raises(IndexOutOfRange):
            t.entry(i, j)


def test_multiplicities_known_values():
    assert multiplicities(Sequence(5, (2, 2, 3, 3))).counts == (2, 2, 2, 2, 2)
    assert multiplicities(Sequence(3, (0, 1, 2, 2))).counts == (2, 5, 3)
    assert multiplicities(Sequence(2, (0,))).counts == (1, 0)


def test_multiplicities_accepts_triangle():
    seq = Sequence(3, (0, 1, 2, 2))
    assert multiplicities(triangle(seq)) == multiplicities(seq)


def test_is_balanced_known_values():
    assert is_balanced(Sequence(5, (2, 2, 3, 3)))
    assert is_balanced(Sequence(6, (1, 3, 5)))
    assert not is_balanced(Sequence(3, (0, 1, 2, 2)))
    assert is_balanced(Sequence(1, (0, 0, 0, 0, 0)))  # everything mod 1 is balanced
    # non-admissible length: answer is false, not an error
    assert not is_balanced(Sequence(2, (0, 1)))


def test_project_known_values():
    assert project(Sequence(10, (2, 2, 3, 3)), 5) == Sequence(5, (2, 2, 3, 3))
    assert project(Sequence(6, (1, 3, 5)), 2).terms == (1, 1, 1)
    s = Sequence(6, (1, 3, 5))
    assert project(s, 6) == s
    assert project(s, 1).terms == (0, 0, 0)
    for q in (4, 0, -2):
        with pytest.raises(NotADivisor):
            project(s, q)


def test_is_antisymmetric_known_values():
    assert is_antisymmetric(Sequence(3, (2, 0, 1)))
    assert is_antisymmetric(Sequence(8, (0, 2, 4, 6, 0)))
    assert not is_antisymmetric(Sequence(5, (1, 1, 1)))


@given(sequences())
def test_derive_shrinks_length_by_one(seq):
    if len(seq) >= 2:
        out = derive(seq)
        assert len(out) == len(seq) - 1
        assert all(0 <= v < seq.modulus for v in out.terms)


def binomial_convolution(seq, i):
    # the i-th derived sequence from its closed form, sum_k C(i, k) x_{j+k}
    n, t = seq.modulus, seq.terms
    return tuple(
        sum(math.comb(i, k) * t[j + k] for k in range(i + 1)) % n for j in range(len(t) - i)
    )


@given(sequences(max_modulus=50, max_length=25))
def test_closed_form_matches_iterated_derive(seq):
    current = seq
    for i in range(len(seq)):
        assert current.terms == binomial_convolution(seq, i)
        assert derive_iterated(seq, i) == current
        if len(current) > 1:
            current = derive(current)


@given(sequences(max_length=20))
def test_triangle_rows_follow_derive(seq):
    t = triangle(seq)
    assert t.rows[0] == seq
    for upper, lower in zip(t.rows, t.rows[1:]):
        assert derive(upper) == lower
    m = len(seq)
    assert sum(len(r) for r in t.rows) == m * (m + 1) // 2
    assert list(triangle_rows(seq)) == [r.terms for r in t.rows]


@given(sequences())
def test_multiplicity_total_is_entry_count(seq):
    m = len(seq)
    mv = multiplicities(seq)
    assert mv.total() == m * (m + 1) // 2
    assert all(c >= 0 for c in mv.counts)


@given(sequences())
def test_balance_agrees_with_full_count(seq):
    # the early-exit path must agree with the plain multiset criterion
    assert is_balanced(seq) == multiplicities(seq).is_constant()
    assert balanced_terms(list(seq.terms), seq.modulus) == is_balanced(seq)


def closed_form_counts(seq):
    # shares neither the row kernel nor the tally with the library: rows come
    # from the binomial closed form and collections.Counter counts them
    tally = Counter()
    for i in range(len(seq)):
        tally.update(binomial_convolution(seq, i))
    return tuple(tally[r] for r in range(seq.modulus))


def check_tally_against_closed_form(seq):
    expected = closed_form_counts(seq)
    assert multiplicities(seq).counts == expected
    assert multiplicities(triangle(seq)).counts == expected
    assert balanced_terms(list(seq.terms), seq.modulus) == (len(set(expected)) == 1)


def test_tally_matches_closed_form_exhaustive():
    for n in range(1, 5):
        for m in range(1, 7):
            for terms in itertools.product(range(n), repeat=m):
                check_tally_against_closed_form(Sequence(n, terms))


@given(sequences())
def test_tally_matches_closed_form(seq):
    check_tally_against_closed_form(seq)


@pytest.mark.parametrize("terms, bad", [([3, 0, 1], 3), ([-1, 0, 1], -1)])
def test_balanced_terms_rejects_non_residues(terms, bad):
    with pytest.raises(ValueError, match=f"{bad} is not a residue mod 3"):
        balanced_terms(terms, 3)


@given(sequences())
def test_balanced_implies_admissible_length(seq):
    m = len(seq)
    if is_balanced(seq):
        assert (m * (m + 1) // 2) % seq.modulus == 0


@settings(max_examples=150)
@given(sequences(max_modulus=48, max_length=20))
def test_projection_folds_counts(seq):
    n = seq.modulus
    full = multiplicities(seq)
    for q in [q for q in range(1, n + 1) if n % q == 0]:
        folded = multiplicities(project(seq, q))
        for y in range(q):
            assert folded.counts[y] == sum(full.counts[y + k * q] for k in range(n // q))


@given(antisymmetric_sequences())
def test_antisymmetry_propagates_downward(seq):
    assert is_antisymmetric(seq)
    assert middle_pair_vanishes(seq)
    if len(seq) >= 2:
        assert is_antisymmetric(derive(seq))


def test_antisymmetry_characterization_exhaustive():
    # X antisymmetric iff derive(X) antisymmetric and the middle pair sums to 0
    for n in (2, 3, 4, 5):
        for m in (2, 3, 4):
            for terms in itertools.product(range(n), repeat=m):
                seq = Sequence(n, terms)
                expected = is_antisymmetric(derive(seq)) and middle_pair_vanishes(seq)
                assert is_antisymmetric(seq) == expected


@given(antisymmetric_sequences())
def test_antisymmetric_counts_are_negation_symmetric(seq):
    counts = multiplicities(seq).counts
    n = seq.modulus
    for x in range(n):
        assert counts[x] == counts[(n - x) % n]


# Moduli at both sides of each lane-width step of the packed kernel: one-byte
# lanes up to 64, then two, four and eight bytes, then sixteen past 2^62.
LANE_BOUNDARIES = [64, 65, 2**14, 2**14 + 1, 2**30, 2**30 + 1, 2**62, 2**62 + 1]


def test_packed_rows_match_oracle_exhaustive():
    # The oracle rows of a sequence are the sequence itself over the oracle
    # rows of its next row, which the previous length has already built.
    for n in range(1, 9):
        shorter = {}
        assert balanced_terms([], n) is True  # the empty triangle
        for m in range(7):
            level = {}
            for terms in itertools.product(range(n), repeat=m):
                rows = [terms, *shorter[next_row(terms, n)]] if m > 1 else [terms]
                assert list(map(tuple, _rows(terms, n))) == rows
                if m < 6:
                    level[terms] = rows
            shorter = level


@pytest.mark.parametrize("n", LANE_BOUNDARIES)
def test_packed_rows_match_oracle_at_lane_boundaries(n):
    rng = random.Random(n)
    for m in (1, 2, 3, 17, 40):
        # all-top terms make every lane sum 2n - 2, the largest it can be
        for terms in ([n - 1] * m, [0] * m, [rng.randrange(n) for _ in range(m)],
                      [rng.choice((0, 1, n - 2, n - 1)) for _ in range(m)]):
            seq = Sequence(n, tuple(terms))
            rows = oracle_rows(terms, n)
            assert list(triangle_rows(seq)) == rows
            assert [r.terms for r in triangle(seq).rows] == rows
            if m > 1:
                assert derive(seq).terms == rows[1]
            assert [derive_iterated(seq, i).terms for i in range(m)] == rows
            if n <= 2**14 + 1:
                counts = oracle_counts(terms, n)
                assert multiplicities(seq).counts == counts
                assert multiplicities(triangle(seq)).counts == counts
                assert balanced_terms(terms, n) == (len(set(counts)) == 1)


@pytest.mark.parametrize("n, m", [(1, 9), (2, 40), (7, 600), (64, 520), (65, 60), (2**14 + 1, 30)])
def test_triangle_from_oracle_rows_counts_as_its_top_row(n, m):
    # built through the checking constructor, then counted from rows[0] alone
    rng = random.Random(n * m)
    terms = [rng.randrange(n) for _ in range(m)]
    t = Triangle(tuple(Sequence(n, row) for row in oracle_rows(terms, n)))
    assert t == triangle(Sequence(n, tuple(terms)))
    assert multiplicities(t).counts == oracle_counts(terms, n)


def test_long_triangle_pickles_and_copies_as_its_top_row():
    t = triangle(Sequence(9, tuple(random.Random(1500).randrange(9) for _ in range(1500))))
    data = pickle.dumps(t)
    assert len(data) < 10 * 1500  # the top row, not all 1500 * 1501 / 2 entries
    assert pickle.loads(data) == t
    assert copy.copy(t) is t
    assert copy.deepcopy(t) == t


def test_lazy_triangle_readers_derive_no_rows(monkeypatch):
    # triangle() holds its top row; every reader below works from that row
    # alone, so none of them builds `rows` (whose first read would fail here).
    seq = Sequence(9, tuple(random.Random(1500).randrange(9) for _ in range(1500)))
    counts = multiplicities(seq)
    drawing = render_triangle(triangle(seq))
    real = sequences_module._rows

    def top_row_only(terms, n, skip=0):
        if not skip:
            yield next(real(terms, n))
        raise AssertionError("a row below the top was derived")

    monkeypatch.setattr(sequences_module, "_rows", top_row_only)
    t = triangle(seq)
    assert multiplicities(t) == counts
    assert render_triangle(t) == drawing
    assert (t.height, t.modulus) == (1500, 9)
    back = pickle.loads(pickle.dumps(t))
    assert back == t and t == triangle(seq)
    assert hash(back) == hash(t) == hash(triangle(seq))
    with pytest.raises(AssertionError, match="below the top"):
        t.rows


def test_lazy_triangle_builds_its_rows_once(monkeypatch):
    seq = Sequence(11, tuple(random.Random(30).randrange(11) for _ in range(30)))
    calls = []
    real = sequences_module._rows

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sequences_module, "_rows", counted)
    t = triangle(seq)
    assert not calls
    rows = t.rows
    assert len(calls) == 1
    assert t.rows is rows and t.rows is rows
    assert len(calls) == 1
    assert rows[0] is seq
    assert [r.terms for r in rows] == oracle_rows(seq.terms, 11)


@pytest.mark.parametrize("n, m", [(1, 6), (2, 9), (9, 40), (65, 20), (2**40, 12)])
def test_entry_derives_its_row_alone(monkeypatch, n, m):
    rng = random.Random(n * m)
    seq = Sequence(n, tuple(rng.randrange(n) for _ in range(m)))
    checked = Triangle(tuple(Sequence(n, row) for row in oracle_rows(seq.terms, n)))
    real = sequences_module._rows
    yielded = []

    def counted(*args, **kwargs):
        for row in real(*args, **kwargs):
            yielded.append(row)
            yield row

    monkeypatch.setattr(sequences_module, "_rows", counted)
    t = triangle(seq)
    for i in range(1, m + 1):
        for j in range(1, m - i + 2):
            yielded.clear()
            assert t.entry(i, j) == checked.entry(i, j), (i, j)
            assert len(yielded) == 1, (i, j)
    for i, j in [(0, 1), (m + 1, 1), (1, m + 1), (m, 2), (1, 0)]:
        with pytest.raises(IndexOutOfRange):
            t.entry(i, j)
    yielded.clear()
    assert list(t.entries()) == list(checked.entries())
    assert len(yielded) == m
    # once the rows are built, entry and entries read them and derive nothing
    assert t.rows == checked.rows
    yielded.clear()
    assert [t.entry(m, 1), t.entry(1, m)] == [checked.entry(m, 1), checked.entry(1, m)]
    assert list(t.entries()) == list(checked.entries())
    assert not yielded


@pytest.mark.parametrize("n, m", [(1, 1), (2, 7), (9, 40), (64, 30), (65, 20), (2**40, 12)])
def test_lazy_triangle_equals_checked_triangle(n, m):
    rng = random.Random(n + m)
    seq = Sequence(n, tuple(rng.randrange(n) for _ in range(m)))
    checked = Triangle(tuple(Sequence(n, row) for row in oracle_rows(seq.terms, n)))
    lazy = triangle(seq)
    # equality and hashing before the lazy rows are built, then after
    for _ in range(2):
        assert lazy == checked and checked == lazy
        assert not lazy != checked and not checked != lazy
        assert hash(lazy) == hash(checked)
        assert repr(lazy) == repr(checked)
    for t in (lazy, checked):
        match t:
            case Triangle(rows):
                assert rows == checked.rows
    if n > 1:
        other = triangle(Sequence(n, ((seq.terms[0] + 1) % n,) + seq.terms[1:]))
        assert lazy != other and checked != other


def test_triangle_replace_called_directly():
    # copy.replace is new in Python 3.13; __replace__ is its hook.
    rows = (Sequence(5, (3, 1)), Sequence(5, (4,)))
    for t in (triangle(Sequence(5, (1, 2, 4))), Triangle(triangle(Sequence(5, (1, 2, 4))).rows)):
        assert t.__replace__() == t
        changed = t.__replace__(rows=rows)
        assert changed == triangle(Sequence(5, (3, 1)))
        assert changed.rows is rows
        with pytest.raises(TypeError):
            t.__replace__(no_such_field=1)
        with pytest.raises(ValueError, match="row 2 is not the derived row of row 1"):
            t.__replace__(rows=(Sequence(5, (1, 2)), Sequence(5, (1,))))


@pytest.mark.parametrize("n, m", [(75, 299), (75, 300), (81, 80), (81, 81)])
def test_wide_lane_tally_confirms_balanced_constructions(n, m):
    # balanced triangles on two-byte lanes: the tally without an early exit
    seq = construct_balanced(n, m)
    assert is_balanced(seq)
    assert multiplicities(seq).counts == oracle_counts(seq.terms, n)
    # a progression's count takes the closed form, so call the row tally itself
    target = m * (m + 1) // (2 * n)
    assert tuple(_tally(_rows(seq.terms, n), n, cap=target)) == oracle_counts(seq.terms, n)


@st.composite
def wide_sequences(draw, max_length=25):
    n = draw(st.one_of(
        st.integers(1, 300),
        st.sampled_from([b + k for b in LANE_BOUNDARIES for k in (-1, 0, 1)]),
        st.integers(1, 2**70),
    ))
    m = draw(st.integers(1, max_length))
    term = st.one_of(st.integers(0, n - 1), st.sampled_from([0, n - 1]))
    terms = draw(st.lists(term, min_size=m, max_size=m))
    return Sequence(n, tuple(terms))


@given(wide_sequences())
def test_packed_rows_match_oracle(seq):
    n = seq.modulus
    rows = oracle_rows(seq.terms, n)
    assert list(triangle_rows(seq)) == rows
    if n <= 2**14 + 1:
        counts = oracle_counts(seq.terms, n)
        assert multiplicities(seq).counts == counts
        assert balanced_terms(list(seq.terms), n) == (len(set(counts)) == 1)


# Row lengths on both sides of the 30-bit digits of the bit-sliced planes.
SLICED_LENGTHS = [1, 2, 29, 30, 31, 59, 60, 61, 200]


@pytest.mark.parametrize("n", range(1, 65))
def test_sliced_tally_matches_oracle(n):
    rng = random.Random(n)
    tally = compile_tally(n)
    assert _sliced_tally(n, 0) is None and balanced_terms([], n)  # the empty triangle
    for m in SLICED_LENGTHS:
        for terms in ([n - 1] * m, [rng.randrange(n) for _ in range(m)]):
            counts = oracle_counts(terms, n)
            assert tally(tuple(terms), m * (m + 1) // 2) == counts
            balanced = len(set(counts)) == 1
            target = m * (m + 1) // (2 * n)
            assert (tally(terms, target) is not None) == balanced
            assert balanced_terms(terms, n) == balanced


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65])
def test_sliced_tally_serves_long_triangles(n):
    # the kernel serves from 512 terms, 131,328 entries, on
    assert _sliced_tally(n, 511) is None
    assert (_sliced_tally(n, 512) is None) == (n > 64)
    rng = random.Random(n)
    for m in (511, 512):
        terms = tuple(rng.randrange(n) for _ in range(m))
        counts = oracle_counts(terms, n)
        assert multiplicities(Sequence(n, terms)).counts == counts
        assert balanced_terms(terms, n) == (len(set(counts)) == 1)


@pytest.mark.parametrize("n, m", [(27, 1457), (43, 1504)])
def test_sliced_tally_confirms_long_balanced_constructions(n, m):
    # every count reaches the cap of the early exit and none passes it
    assert _sliced_tally(n, m) is not None
    seq = construct_balanced(n, m)
    counts = multiplicities(seq).counts
    assert len(set(counts)) == 1
    assert counts == tuple(_tally(_rows(seq.terms, n), n, m * (m + 1) // 2))
    assert is_balanced(seq)
    # a progression's count takes the closed form, so call the kernel itself
    assert _sliced_tally(n, m)(seq.terms, m * (m + 1) // (2 * n)) == counts


class _TwoZerosThenFail:
    # a row of two entries, 0 and 0, whose reader fails past the second
    def __len__(self):
        return 2

    def __iter__(self):
        yield 0
        yield 0
        raise AssertionError("the tally read past the entry that passed its cap")


def test_tally_stops_at_the_first_entry_past_the_cap():
    assert _tally([_TwoZerosThenFail()], 3, cap=1) is None


@st.composite
def sliced_sequences(draw, max_length=300):
    n = draw(st.integers(1, 64))
    m = draw(st.integers(1, max_length))
    term = st.one_of(st.integers(0, n - 1), st.sampled_from([0, n - 1]))
    return Sequence(n, tuple(draw(st.lists(term, min_size=m, max_size=m))))


@settings(max_examples=60)
@given(sliced_sequences(), st.data())
def test_sliced_tally_matches_oracle_with_cap(seq, data):
    n, m = seq.modulus, len(seq)
    tally = compile_tally(n)
    counts = oracle_counts(seq.terms, n)
    assert tally(seq.terms, m * (m + 1) // 2) == counts
    # with a cap: None exactly when a count passes it, like the row tally
    cap = data.draw(st.integers(0, max(counts)))
    expected = None if max(counts) > cap else counts
    assert tally(seq.terms, cap) == expected
    by_row = _tally(_rows(seq.terms, n), n, cap=cap)
    assert (by_row is None) == (expected is None)


# (n, a, d, m): short and long progressions, on one-byte, two-byte and wide
# lanes, with some balanced ones (the constructions mod 3, 7, 9 and 75).
PROGRESSIONS = [
    *((n, n - 1, n // 2, m) for n in (1, 2, 7, 64, 75) for m in (0, 1, 2)),
    (3, 2, 1, 8), (7, 1, 1, 20), (6, 1, 2, 21), (8, 3, 5, 40), (16, 0, 0, 30),
    (9, 5, 1, 540), (64, 3, 7, 520), (75, 38, 1, 299), (2**16 + 1, 5, 3, 40),
]


def near_progressions(terms, n):
    # the progression with its first, middle or last term changed
    for k in sorted({0, len(terms) // 2, len(terms) - 1}):
        near = list(terms)
        near[k] = (near[k] + 1) % n
        yield near


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refused


@pytest.mark.parametrize("n, a, d, m", PROGRESSIONS)
def test_count_routes_progressions_to_the_closed_form(monkeypatch, n, a, d, m):
    terms = [(a + k * d) % n for k in range(m)]
    cases = [(terms, True)]
    if m >= 3 and n >= 2:
        cases += [(near, False) for near in near_progressions(terms, n)]
    for terms, progression in cases:
        counts = oracle_counts(terms, n)
        with monkeypatch.context() as patch:
            # only the path this sequence should take is left callable
            if progression:
                patch.setattr(sequences_module, "_tally", _refuse("the row tally"))
                patch.setattr(sequences_module, "_sliced_tally", _refuse("the sliced tally"))
            else:
                patch.setattr(sequences_module, "_progression_tally", _refuse("the closed form"))
            balanced = len(set(counts)) == 1
            assert balanced_terms(terms, n) == balanced
            if m:
                seq = Sequence(n, tuple(terms))
                assert multiplicities(seq).counts == counts
                assert multiplicities(triangle(seq)).counts == counts
                assert is_balanced(seq) == balanced
