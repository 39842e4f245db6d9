"""Tests for factorization helpers and the order functions alpha and beta."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from steinhaus import (
    EvenModulus,
    NotCoprime,
    alpha,
    beta,
    factorize,
    invert,
    omega,
    radical,
)
from steinhaus.orders import multiplicative_order, totient


def test_factorize_known_values():
    assert factorize(825) == ((3, 1), (5, 2), (11, 1))
    assert factorize(1) == ()
    assert factorize(21) == ((3, 1), (7, 1))
    assert factorize(1024) == ((2, 10),)
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(1, 100000))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac) == n
    assert all(p > 1 and all(p % f for f in range(2, math.isqrt(p) + 1)) for p, _ in fac)
    assert [p for p, _ in fac] == sorted(p for p, _ in fac)


def test_radical_omega_totient():
    assert radical(9) == 3
    assert radical(15) == 15
    assert radical(1) == 1
    assert radical(825) == 165
    assert omega(825) == 3
    assert omega(1) == 0
    assert totient(7) == 6
    assert totient(1) == 1
    assert totient(12) == 4
    assert totient(825) == 400


def test_invert():
    assert invert(3, 7) == 5
    assert invert(1, 1) == 0
    with pytest.raises(NotCoprime):
        invert(6, 9)


def test_multiplicative_order_known_values():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 5) == 4
    assert multiplicative_order(1, 17) == 1
    assert multiplicative_order(0, 1) == 1
    assert multiplicative_order(2, 1000000007) == 500000003
    with pytest.raises(NotCoprime):
        multiplicative_order(2, 4)


@given(st.integers(2, 200), st.integers(1, 10**6))
def test_multiplicative_order_is_minimal(n, a):
    a %= n
    if math.gcd(a, n) != 1:
        return
    e = multiplicative_order(a, n)
    assert pow(a, e, n) == 1
    assert all(pow(a, f, n) != 1 for f in range(1, e))


def test_alpha_known_values():
    assert alpha(1) == 1
    assert alpha(3) == 2
    assert alpha(5) == 4
    assert alpha(7) == 3
    assert alpha(9) == 2
    assert alpha(21) == 2
    with pytest.raises(EvenModulus):
        alpha(4)
    with pytest.raises(ValueError):
        alpha(0)


def test_beta_known_values():
    assert beta(3) == 1
    assert beta(5) == 2
    assert beta(7) == 3
    assert beta(9) == 1
    assert beta(27) == 1
    assert beta(11) == 5
    assert beta(13) == 6
    assert beta(15) == 4
    assert beta(21) == 2
    assert beta(1) == 1
    with pytest.raises(EvenModulus):
        beta(10)


def test_alpha_beta_definitions_directly():
    for n in range(1, 1000, 2):
        a, b = alpha(n), beta(n)
        assert pow(2, a * n, n) == 1 % n
        assert all(pow(2, e * n, n) != 1 % n for e in range(1, a))
        assert pow(2, b * n, n) in {1 % n, (n - 1) % n}
        assert all(pow(2, e * n, n) not in {1 % n, (n - 1) % n} for e in range(1, b))


def test_alpha_divides_alpha_of_radical():
    for n in range(1, 1001, 2):
        assert alpha(radical(n)) % alpha(n) == 0


def test_alpha_constant_on_prime_powers():
    for p in (3, 5, 7, 11, 13):
        for k in range(2, 5):
            assert alpha(p**k) == alpha(p)


def test_alpha_of_coprime_product_divides_lcm():
    odds = range(1, 61, 2)
    for n1 in odds:
        for n2 in odds:
            if n2 < n1 or math.gcd(n1, n2) != 1:
                continue
            assert math.lcm(alpha(n1), alpha(n2)) % alpha(n1 * n2) == 0
    # the divisor can be strict, and can be an equality
    assert alpha(21) == 2 and math.lcm(alpha(3), alpha(7)) == 6
    assert alpha(15) == 4 and math.lcm(alpha(3), alpha(5)) == 4


def test_alpha_at_least_two_past_one():
    for n in range(3, 1001, 2):
        assert alpha(n) >= 2


def test_beta_constant_on_prime_powers():
    for p in (3, 5, 7, 11):
        for k in range(2, 4):
            assert beta(p**k) == beta(p)


def test_alpha_is_beta_or_twice_beta():
    for n in range(1, 1001, 2):
        assert alpha(n) in (beta(n), 2 * beta(n))
