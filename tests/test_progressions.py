"""Tests for progressions, their closed forms, and balanced constructions."""

import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from row_oracle import oracle_counts

from steinhaus import (
    ArithmeticProgression,
    EvenModulus,
    IndexOutOfRange,
    NotInvertible,
    UnsupportedLength,
    alpha,
    balanced_terms,
    beta,
    classify_even_progressions,
    construct_balanced,
    derive,
    derive_iterated,
    is_admissible,
    is_antisymmetric,
    is_balanced,
    multiplicities,
    primitive_progression,
    triangle,
    triangle_rows,
)
from steinhaus.admissible import _target
from steinhaus.sequences import _progression_tally


@st.composite
def progressions(draw, max_modulus=50, max_length=40, odd_only=False):
    n = draw(st.integers(1, max_modulus))
    if odd_only and n % 2 == 0:
        n -= 1
    a = draw(st.integers(0, n - 1))
    d = draw(st.integers(0, n - 1))
    m = draw(st.integers(1, max_length))
    return ArithmeticProgression(n, a, d, m)


def test_expansion_known_values():
    ap = ArithmeticProgression(7, 1, 3, 20)
    assert ap.to_sequence().terms == (
        1, 4, 0, 3, 6, 2, 5, 1, 4, 0, 3, 6, 2, 5, 1, 4, 0, 3, 6, 2,
    )
    assert ArithmeticProgression(5, 2, 0, 4).to_sequence().terms == (2, 2, 2, 2)
    assert ArithmeticProgression(3, 2, 1, 3).to_sequence().terms == (2, 0, 1)


def test_progression_validation():
    with pytest.raises(ValueError):
        ArithmeticProgression(5, 5, 0, 3)
    with pytest.raises(ValueError):
        ArithmeticProgression(5, 0, -1, 3)
    with pytest.raises(ValueError):
        ArithmeticProgression(5, 0, 0, 0)


def test_derived_known_values():
    ap = ArithmeticProgression(7, 1, 3, 20)
    assert ap.derived(0) == ap
    assert ap.derived(2) == ArithmeticProgression(7, 2, 5, 18)
    with pytest.raises(IndexOutOfRange):
        ap.derived(20)
    with pytest.raises(IndexOutOfRange):
        ap.derived(-1)


def test_derived_one_step_formula():
    # one derivation maps (a, d) to (2a + d, 2d)
    for n, a, d, m in [(9, 4, 5, 6), (11, 0, 3, 4), (5, 2, 2, 2)]:
        ap = ArithmeticProgression(n, a, d, m)
        assert ap.derived(1) == ArithmeticProgression(
            n, (2 * a + d) % n, 2 * d % n, m - 1
        )


def test_entry_known_values():
    ap = ArithmeticProgression(7, 1, 3, 20)
    assert ap.entry(1, 2) == 4
    assert ap.entry(20, 1) == 3
    for n, a, d in [(9, 4, 5), (11, 0, 3)]:
        assert ArithmeticProgression(n, a, d, 4).entry(2, 1) == (2 * a + d) % n
    with pytest.raises(IndexOutOfRange):
        ap.entry(21, 1)
    with pytest.raises(IndexOutOfRange):
        ap.entry(1, 21)
    with pytest.raises(IndexOutOfRange):
        ap.entry(0, 1)


@settings(max_examples=150)
@given(progressions(max_modulus=50, max_length=30))
def test_derived_matches_sequence_derivation(ap):
    seq = ap.to_sequence()
    for i in range(ap.length):
        assert ap.derived(i).to_sequence() == derive_iterated(seq, i)


@settings(max_examples=100)
@given(progressions(max_modulus=50, max_length=25), st.data())
def test_entry_matches_materialized_triangle(ap, data):
    t = triangle(ap.to_sequence())
    cells = [(i, j) for i in range(1, ap.length + 1) for j in range(1, ap.length - i + 2)]
    # One instance reads every cell in a drawn order, which leaves and revisits
    # rows, then in row order, so reads both replace and reuse the cached row.
    for i, j in data.draw(st.permutations(cells)) + cells:
        assert ap.entry(i, j) == t.entry(i, j)


def test_reads_leave_the_value_unchanged():
    ap, fresh = ArithmeticProgression(31, 7, 12, 40), ArithmeticProgression(31, 7, 12, 40)
    for i, j in [(3, 5), (40, 1), (17, 2), (3, 1)]:
        ap.entry(i, j)
    assert ap == fresh and hash(ap) == hash(fresh)
    assert repr(ap) == repr(fresh)
    assert pickle.dumps(ap) == pickle.dumps(fresh)


def test_primitive_known_values():
    assert primitive_progression(
        ArithmeticProgression(7, 1, 3, 5)
    ) == ArithmeticProgression(7, 5, 5, 6)
    assert primitive_progression(
        ArithmeticProgression(9, 0, 0, 4)
    ) == ArithmeticProgression(9, 0, 0, 5)
    with pytest.raises(EvenModulus):
        primitive_progression(ArithmeticProgression(8, 2, 2, 4))


def test_primitive_fails_even_modulus_for_a_reason():
    # two distinct progressions mod 8 share the derived sequence (2,2,2,2)
    one = ArithmeticProgression(8, 3, 4, 5).to_sequence()
    other = ArithmeticProgression(8, 1, 0, 5).to_sequence()
    assert one.terms == (3, 7, 3, 7, 3)
    assert derive(one) == derive(other)


@settings(max_examples=200)
@given(progressions(max_modulus=49, max_length=20, odd_only=True))
def test_primitive_round_trip(ap):
    prim = primitive_progression(ap)
    assert prim.derived(1) == ap
    assert derive(prim.to_sequence()) == ap.to_sequence()


def test_primitive_unique_among_progressions():
    # a length-1 target does not determine the step, so start from length 2
    for n in (3, 5, 9):
        for m in (2, 3, 4):
            for a in range(n):
                for d in range(n):
                    ap = ArithmeticProgression(n, a, d, m)
                    target = ap.to_sequence()
                    prims = [
                        (b, e)
                        for b in range(n)
                        for e in range(n)
                        if derive(ArithmeticProgression(n, b, e, m + 1).to_sequence()) == target
                    ]
                    best = primitive_progression(ap)
                    assert prims == [(best.start, best.step)]


def test_antisymmetric_uniqueness_fails_even_modulus():
    # two antisymmetric progressions mod 8 with the same step and length
    for a in (0, 4):
        seq = ArithmeticProgression(8, a, 2, 5).to_sequence()
        assert is_antisymmetric(seq)


def test_antisymmetry_equivalence_under_derivation_odd():
    # for odd moduli a progression is antisymmetric iff its derivative is
    for n in (3, 5, 7):
        for a in range(n):
            for d in range(n):
                for m in (2, 3, 4, 5):
                    seq = ArithmeticProgression(n, a, d, m).to_sequence()
                    assert is_antisymmetric(seq) == is_antisymmetric(derive(seq))


def test_antisymmetry_equivalence_fails_even_modulus():
    seq = ArithmeticProgression(8, 0, 1, 5).to_sequence()
    assert not is_antisymmetric(seq)
    assert is_antisymmetric(derive(seq))


def test_construct_balanced_known_values():
    assert construct_balanced(3, 3).terms == (2, 0, 1)
    assert construct_balanced(3, 2).terms == (1, 2)
    seq = construct_balanced(7, 21)
    assert seq.terms[:3] == (4, 5, 6)  # AP(4,1,21)
    assert is_balanced(seq)
    assert multiplicities(construct_balanced(3, 3)).counts == (2, 2, 2)
    assert multiplicities(construct_balanced(3, 2)).counts == (1, 1, 1)


def test_construct_balanced_alpha_family():
    seq = construct_balanced(7, 20, step=3, family="alpha", start=1)
    assert seq == ArithmeticProgression(7, 1, 3, 20).to_sequence()
    assert is_balanced(seq)
    assert multiplicities(seq).counts == (30,) * 7
    # default start is 0
    assert construct_balanced(7, 21, family="alpha").terms[0] == 0


def test_construct_balanced_errors():
    with pytest.raises(EvenModulus):
        construct_balanced(4, 7)
    with pytest.raises(NotInvertible):
        construct_balanced(9, 9, step=3)
    with pytest.raises(UnsupportedLength):
        construct_balanced(5, 7)
    with pytest.raises(UnsupportedLength):
        construct_balanced(5, 4)
    with pytest.raises(UnsupportedLength):
        construct_balanced(5, 10, family="alpha")  # only the default family covers 10
    with pytest.raises(ValueError):
        construct_balanced(5, 10, start=2)  # beta family fixes the start
    with pytest.raises(ValueError):
        construct_balanced(5, 10, family="gamma")
    with pytest.raises(ValueError):
        construct_balanced(5, 0)


def test_construct_balanced_beta_family_small_moduli():
    # both congruence classes, two smallest lengths each, all odd n to 15
    for n in range(1, 16, 2):
        span = beta(n) * n
        for m in (span, 2 * span, span - 1, 2 * span - 1):
            if m < 1:
                continue
            for step in (1, n - 1 if n > 1 else 1):
                if math.gcd(step, n) != 1:
                    continue
                seq = construct_balanced(n, m, step=step)
                assert is_balanced(seq), (n, m, step)


def test_construct_balanced_alpha_family_small_moduli():
    for n in (3, 5, 7, 9):
        span = alpha(n) * n
        for m in (span, 2 * span, span - 1, 2 * span - 1):
            for start in (0, 1):
                for step in (1, 2):
                    seq = construct_balanced(n, m, step=step, family="alpha", start=start)
                    assert is_balanced(seq), (n, m, start, step)


def test_noninvertible_step_never_balanced_small():
    # non-unit steps cannot give balanced triangles over odd moduli
    for n in (3, 9, 15):
        bad_steps = [d for d in range(n) if math.gcd(d, n) > 1]
        lengths = [m for m in range(1, 4 * n + 1) if is_admissible(n, m)]
        for d in bad_steps:
            for a in range(n):
                for m in lengths:
                    seq = ArithmeticProgression(n, a, d, m).to_sequence()
                    assert not is_balanced(seq), (n, a, d, m)


@settings(max_examples=200)
@given(st.data())
def test_unit_step_windows_hit_every_residue(data):
    n = data.draw(st.integers(1, 30))
    units = [d for d in range(n) if math.gcd(d, n) == 1] or [0]
    d = data.draw(st.sampled_from(units))
    a = data.draw(st.integers(0, n - 1))
    m = data.draw(st.integers(n, 3 * n))
    terms = ArithmeticProgression(n, a, d, m).to_sequence().terms
    for s in range(m - n + 1):
        assert sorted(terms[s : s + n]) == list(range(n))


def test_multiplicity_recurrence_for_stacked_lengths():
    # counts at length k * alpha(n) * n follow a linear recurrence in k
    for n in (3, 5, 7):
        span = alpha(n) * n
        units = [d for d in range(1, n) if math.gcd(d, n) == 1]
        for d in units:
            for a in (0, 1):
                base = multiplicities(
                    ArithmeticProgression(n, a, d, span).to_sequence()
                ).counts
                for k in (1, 2, 3):
                    big = multiplicities(
                        ArithmeticProgression(n, a, d, k * span).to_sequence()
                    ).counts
                    bump = math.comb(k, 2) * alpha(n) ** 2 * n
                    assert all(
                        big[x] == k * base[x] + bump for x in range(n)
                    ), (n, d, a, k)


def prefix_counts(seq):
    # residue counts of the triangle of every prefix of `seq`, shortest first:
    # a prefix's triangle is the top-left corner of the whole one, so the
    # prefix of length L adds the anti-diagonal of entries (i, L - i + 1)
    rows = list(triangle_rows(seq))
    counts = [0] * seq.modulus
    for length in range(1, len(seq) + 1):
        for i in range(length):
            counts[rows[i][length - 1 - i]] += 1
        yield tuple(counts)


@pytest.mark.parametrize("n", range(1, 17))
def test_closed_form_counts_match_tally_exhaustive(n):
    # every (a, d) and every m <= 40, from one triangle per (a, d)
    for a in range(n):
        for d in range(n):
            whole = ArithmeticProgression(n, a, d, 40)
            for m, counts in enumerate(prefix_counts(whole.to_sequence()), start=1):
                ap = ArithmeticProgression(n, a, d, m)
                assert ap.multiplicities().counts == counts, ap
                assert ap.is_balanced() == is_balanced(ap.to_sequence()), ap
            assert counts == multiplicities(whole.to_sequence()).counts


@given(progressions(max_modulus=60, max_length=200))
def test_closed_form_counts_match_tally(ap):
    seq = ap.to_sequence()
    assert ap.multiplicities().counts == multiplicities(seq).counts
    assert ap.is_balanced() == is_balanced(seq)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 6, 12, 9])
def test_tally_matches_oracle_past_the_zero_fixed_point(n):
    # Mod a power of two every (a, d) reaches (0, 0) within log2(n) + 1 rows,
    # and mod 6 or 12 some do; from there the tally adds the zero rows at
    # once.  Mod 9 only (0, 0) itself starts there.
    rng = random.Random(n)
    for a in range(n):
        for d in range(n):
            m = rng.randrange(1, 70)
            counts = oracle_counts(ArithmeticProgression(n, a, d, m).to_sequence().terms, n)
            assert tuple(_progression_tally(n, a, d, m, m * (m + 1) // 2)) == counts
            caps = {max(counts) - 1, max(counts), counts[0] - 1, counts[0], _target(n, m)}
            for cap in caps - {None, -1}:
                got = _progression_tally(n, a, d, m, cap)
                want = None if max(counts) > cap else counts
                assert (None if got is None else tuple(got)) == want, cap


def classify_by_tally(n, max_length):
    # expands every progression and tallies its triangle entry by entry
    hits = []
    for m in range(1, max_length + 1):
        if (m * (m + 1) // 2) % n:
            continue
        for a in range(n):
            for d in range(n):
                terms = [(a + j * d) % n for j in range(m)]
                if balanced_terms(terms, n):
                    hits.append(ArithmeticProgression(n, a, d, m))
    return hits


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14])
def test_classify_even_matches_tally(n):
    assert classify_even_progressions(n, 40) == classify_by_tally(n, 40)


@st.composite
def tally_args(draw):
    # (n, a, d, m): every modulus to 64, powers of two (whose rows reach the
    # zero fixed point) and a few wide moduli; m to 600, past the period of
    # the rows' (a, d) for small n and short of it for larger ones
    n = draw(st.one_of(
        st.integers(1, 64),
        st.sampled_from([2**k for k in range(7)]),
        st.sampled_from([65, 255, 2**14 + 1, 10**5 + 3]),
    ))
    a = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
    d = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
    return n, a, d, draw(st.integers(0, 600))


@settings(max_examples=80, deadline=None)
@given(tally_args())
def test_progression_tally_matches_oracle(args):
    n, a, d, m = args
    counts = oracle_counts([(a + k * d) % n for k in range(m)], n)
    assert tuple(_progression_tally(n, a, d, m, m * (m + 1) // 2)) == counts
    assert tuple(_progression_tally(n, a, d, m, cap=max(counts))) == counts
    assert _progression_tally(n, a, d, m, cap=max(counts) - 1) is None
