"""Tests for admissible length classes and construction coverage."""

from fractions import Fraction

import pytest

from steinhaus import (
    EvenModulus,
    admissible_classes,
    coverage_fraction,
    is_admissible,
    omega,
)


def test_admissible_classes_paper_values():
    ac = admissible_classes(825)
    assert ac.period == 825
    assert ac.residues == (0, 99, 275, 374, 450, 549, 725, 824)
    assert admissible_classes(27).residues == (0, 26)
    ac2 = admissible_classes(2)
    assert (ac2.period, ac2.residues) == (4, (0, 3))
    ac10 = admissible_classes(10)
    assert (ac10.period, ac10.residues) == (20, (0, 4, 15, 19))
    ac1 = admissible_classes(1)
    assert (ac1.period, ac1.residues) == (1, (0,))


def test_admissible_classes_membership():
    ac = admissible_classes(10)
    assert 4 in ac and 15 in ac and 24 in ac
    assert 3 not in ac and 5 not in ac


def test_admissible_classes_invariants():
    for n in range(1, 201):
        ac = admissible_classes(n)
        assert len(ac.residues) == 2 ** omega(n)
        assert len(set(ac.residues)) == len(ac.residues)
        assert 0 in ac.residues and ac.period - 1 in ac.residues
        assert ac.period == (n if n % 2 else 2 * n)
        assert all(0 <= r < ac.period for r in ac.residues)


def test_admissible_classes_agree_with_divisibility():
    for n in range(1, 201):
        ac = admissible_classes(n)
        for m in range(1, 4 * n + 1):
            assert is_admissible(n, m) == (m in ac)
        for b in (-1, 0, 1, ac.period - 1, ac.period, 4 * n):
            assert list(ac.lengths(b)) == [m for m in range(1, b + 1) if is_admissible(n, m)]


def test_is_admissible_known_values():
    assert is_admissible(5, 4)
    assert is_admissible(3, 2)
    assert not is_admissible(10, 3)
    assert not is_admissible(5, 3)
    assert is_admissible(1, 7)
    with pytest.raises(ValueError):
        is_admissible(5, 0)
    with pytest.raises(ValueError):
        is_admissible(0, 5)


def test_coverage_fraction_values():
    assert coverage_fraction(3) == Fraction(1, 1)
    assert coverage_fraction(9) == Fraction(1, 1)
    assert coverage_fraction(25) == Fraction(1, 2)
    assert coverage_fraction(5) == Fraction(1, 2)
    assert coverage_fraction(7) == Fraction(1, 3)
    assert coverage_fraction(15) == Fraction(1, 8)
    assert coverage_fraction(825) == Fraction(1, 16)
    with pytest.raises(EvenModulus):
        coverage_fraction(6)
    with pytest.raises(ValueError):
        coverage_fraction(1)
