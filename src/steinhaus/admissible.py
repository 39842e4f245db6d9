"""Which sequence lengths can carry a balanced triangle mod n.

A length m is admissible when n divides the entry count m(m+1)/2.  The
admissible m form a union of residue classes: one class mod p^v(p) picks
m = 0 or m = -1 for each odd prime power in n (mod 2^(v+1) for the prime 2),
and the choices combine independently by the Chinese remainder theorem.
"""

import itertools
import math

from ._value import _set, _Value
from .errors import EvenModulus, UsageError, _positive
from .orders import beta, factorize, omega


class AdmissibleClasses(_Value):
    """The admissible lengths mod n, as residue classes of a fixed period."""

    __slots__ = ("period", "residues")

    def __init__(self, period: int, residues: tuple[int, ...]):
        _positive("period", period)
        if not all(0 <= r < s for r, s in zip(residues, (*residues[1:], period))):
            raise UsageError(f"residues must be strictly increasing within 0..{period - 1}")
        _set(self, "period", period)
        _set(self, "residues", residues)

    def __contains__(self, m: int) -> bool:
        return m % self.period in self.residues

    def lengths(self, upto: int):
        """The admissible m in 1..upto, increasing."""
        return (
            m
            for start in range(0, upto + 1, self.period)
            for r in self.residues
            if 0 < (m := start + r) <= upto
        )


def admissible_classes(n: int) -> AdmissibleClasses:
    """All classes of lengths m with n | m(m+1)/2.

    The period is n for odd n and 2n for even n, and there are exactly
    2^omega(n) classes, always including 0 and period - 1.
    """
    _positive("modulus", n)
    moduli = [p ** (e + 1) if p == 2 else p ** e for p, e in factorize(n)]
    period = math.prod(moduli)
    # With P the period, e_q = (P/q)((P/q)^-1 mod q) is 1 mod q and 0 mod the
    # other moduli, so minus a sum of some e_q is -1 mod those q, 0 mod the rest.
    basis = [(0, period // q * pow(period // q, -1, q)) for q in moduli]
    residues = sorted(-sum(chosen) % period for chosen in itertools.product(*basis))
    return AdmissibleClasses(period, tuple(residues))


def _target(n: int, m: int) -> int | None:
    """Each residue's count m(m+1)/(2n) in a balanced triangle of m rows mod n.

    None when n does not divide m(m+1)/2, so that no such triangle exists.
    """
    count, rest = divmod(m * (m + 1) // 2, n)
    return None if rest else count


def is_admissible(n: int, m: int) -> bool:
    """Whether n divides the triangle entry count m(m+1)/2."""
    _positive("modulus", n)
    _positive("length", m)
    return _target(n, m) is not None


def coverage_fraction(n: int):
    """Share of admissible classes settled by the progression constructions.

    For odd n >= 3 the constructions reach 1 in 2^(omega(n)-1) * beta(n) of
    the admissible classes, as a fractions.Fraction (imported on first use).
    """
    from fractions import Fraction
    if n % 2 == 0:
        raise EvenModulus(f"coverage applies to odd moduli, got {n}")
    if n < 3:
        raise UsageError("coverage is defined for odd n >= 3")
    return Fraction(1, 2 ** (omega(n) - 1) * beta(n))
