"""Factorization helpers and the order functions alpha and beta.

For odd n, alpha(n) is the least e >= 1 with 2^(e*n) = 1 mod n and beta(n)
the least e >= 1 with 2^(e*n) = +-1 mod n.  They set the period of the
progression constructions: balanced triangles come from progressions whose
length is a multiple (or one less than a multiple) of alpha(n)*n or
beta(n)*n.
"""

from functools import lru_cache
from math import gcd

from .errors import BudgetExceeded, EvenModulus, NotCoprime


# Trial division stops here: about 5 * 10^5 divisions, so every n <= 10^12
# (and every n whose cofactor past the small primes is) still factors.
_MAX_TRIAL_DIVISOR = 10**6


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, exponent), ...), p increasing.

    Raises BudgetExceeded once trial division passes _MAX_TRIAL_DIVISOR.
    """
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    out = []
    rest = n
    p = 2
    while p * p <= rest:
        if p > _MAX_TRIAL_DIVISOR:
            raise BudgetExceeded(
                f"factoring {n} needs trial divisors past {_MAX_TRIAL_DIVISOR}"
            )
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return tuple(out)


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    r = 1
    for p, _ in factorize(n):
        r *= p
    return r


def omega(n: int) -> int:
    """Number of distinct prime divisors of n."""
    return len(factorize(n))


def totient(n: int) -> int:
    """Euler's totient."""
    t = 1
    for p, e in factorize(n):
        t *= p ** (e - 1) * (p - 1)
    return t


def invert(a: int, n: int) -> int:
    """Inverse of a mod n, for gcd(a, n) = 1."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotCoprime(f"{a} is not invertible mod {n}") from None


def multiplicative_order(a: int, n: int) -> int:
    """Least e >= 1 with a^e = 1 mod n.  a must be coprime to n.

    The order divides phi(n), so it is phi(n) with every prime q taken out
    for as long as a^(e/q) = 1 mod n still holds.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    a %= n
    if gcd(a, n) != 1:
        raise NotCoprime(f"{a} is not a unit mod {n}")
    e = totient(n)
    for q, _ in factorize(e):
        while e % q == 0 and pow(a, e // q, n) == 1 % n:
            e //= q
    return e


@lru_cache(maxsize=None)
def alpha(n: int) -> int:
    """Least e >= 1 with 2^(e*n) = 1 mod n, for odd n.  alpha(1) = 1."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n % 2 == 0:
        raise EvenModulus(f"alpha is defined for odd moduli, got {n}")
    return multiplicative_order(pow(2, n, n), n)


@lru_cache(maxsize=None)
def beta(n: int) -> int:
    """Least e >= 1 with 2^(e*n) = +1 or -1 mod n, for odd n.  beta(1) = 1.

    2^n has order a = alpha(n) mod n, and -1 is the only element of order 2 in
    the group it generates, so beta(n) = a/2 if 2^(n*a/2) = -1 mod n, else a.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n % 2 == 0:
        raise EvenModulus(f"beta is defined for odd moduli, got {n}")
    a = alpha(n)
    if a % 2 == 0 and pow(2, n * a // 2, n) == n - 1:
        return a // 2
    return a
