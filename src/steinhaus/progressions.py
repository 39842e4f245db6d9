"""Arithmetic progressions mod n and the balanced triangles they generate.

Derivation sends a progression to a progression, so a progression's whole
triangle has closed forms for its rows, its entries and its residue counts.
When the step is a unit mod odd n, suitable lengths (multiples of beta(n)*n
or alpha(n)*n, or one less) make the triangle balanced.
"""

from math import gcd

from ._value import _set, _Value
from .admissible import _target
from .errors import EvenModulus, IndexOutOfRange, NotInvertible, UnsupportedLength
from .orders import alpha, beta
from .sequences import MultiplicityVector, Sequence


def _progression_tally(
    n: int, a: int, d: int, m: int, cap: int | None = None
) -> list[int] | None:
    """Residue counts over the triangle of AP(a, d, m), or None once one passes `cap`.

    Row by row: AP(a, d, L) derives to AP(2a + d, 2d, L - 1).  A row of
    length L runs through the coset a + gZ, g = gcd(d, n), with period
    p = n/g, so with q, r = divmod(L, p) each residue of the coset occurs q
    times, and the first r terms a, a + d, ... once more.  O(n) per row.
    """
    counts = [0] * n
    for length in range(m, 0, -1):
        g = gcd(d, n)
        q, r = divmod(length, n // g)
        if q:
            coset = slice(a % g, n, g)
            counts[coset] = [c + q for c in counts[coset]]
        x = a
        for _ in range(r):
            counts[x] += 1
            x = (x + d) % n
        if cap is not None and max(counts) > cap:
            return None
        a, d = (2 * a + d) % n, 2 * d % n
    return counts


class ArithmeticProgression(_Value):
    """start, start + step, ..., with `length` terms, all mod `modulus`."""

    __slots__ = ("modulus", "start", "step", "length")

    def __init__(self, modulus: int, start: int, step: int, length: int):
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        if length < 1:
            raise ValueError(f"length must be positive, got {length}")
        for value in (start, step):
            if not 0 <= value < modulus:
                raise ValueError(f"{value} is not a residue mod {modulus}")
        _set(self, "modulus", modulus)
        _set(self, "start", start)
        _set(self, "step", step)
        _set(self, "length", length)

    def to_sequence(self) -> Sequence:
        n = self.modulus
        return Sequence(
            n, tuple((self.start + k * self.step) % n for k in range(self.length))
        )

    def derived(self, i: int) -> "ArithmeticProgression":
        """The progression generating the i-th derived sequence.

        Derivation doubles the step and shifts the start; after i steps the
        start is 2^i * a + i * 2^(i-1) * d, where the integer coefficient
        i * 2^(i-1) reduces mod n as (i mod n) * (2^(i-1) mod n).
        """
        if not 0 <= i <= self.length - 1:
            raise IndexOutOfRange(f"derivation count {i} outside 0..{self.length - 1}")
        if i == 0:
            return self
        n = self.modulus
        start = (pow(2, i, n) * self.start + pow(2, i - 1, n) * (i % n) * self.step) % n
        return ArithmeticProgression(n, start, pow(2, i, n) * self.step % n, self.length - i)

    def entry(self, i: int, j: int) -> int:
        """Triangle entry in row i, column j (1-based), without materializing."""
        m = self.length
        if not 1 <= i <= m:
            raise IndexOutOfRange(f"row {i} outside 1..{m}")
        if not 1 <= j <= m - i + 1:
            raise IndexOutOfRange(f"column {j} outside 1..{m - i + 1} in row {i}")
        n, a, d = self.modulus, self.start, self.step
        if i == 1:
            return (a + (j - 1) * d) % n
        # 2^(i-1) a + 2^(i-2) (2j + i - 3) d, with the power of two taken out
        return pow(2, i - 2, n) * (2 * a + (2 * j + i - 3) * d) % n

    def multiplicities(self) -> MultiplicityVector:
        """Residue counts over the whole triangle, in O(m*n) without its entries."""
        n = self.modulus
        counts = _progression_tally(n, self.start, self.step, self.length)
        return MultiplicityVector(n, tuple(counts))

    def is_balanced(self) -> bool:
        """Whether the triangle is balanced; stops once a count passes the target."""
        n, m = self.modulus, self.length
        target = _target(n, m)
        if target is None:
            return False
        return _progression_tally(n, self.start, self.step, m, cap=target) is not None


def primitive_progression(ap: ArithmeticProgression) -> ArithmeticProgression:
    """The unique progression whose derived sequence is `ap` (odd modulus).

    For even moduli a derived progression can come from sequences that are
    no progression at all, so uniqueness fails and we refuse.
    """
    n = ap.modulus
    if n % 2 == 0:
        raise EvenModulus(f"primitives are only unique for odd moduli, got {n}")
    inv2 = (n + 1) // 2  # 2^-1 mod odd n
    inv4 = inv2 * inv2 % n
    start = (inv2 * ap.start - inv4 * ap.step) % n
    return ArithmeticProgression(n, start, inv2 * ap.step % n, ap.length + 1)


def construct_balanced(
    n: int, m: int, step: int = 1, family: str = "beta", start: int | None = None
) -> Sequence:
    """A balanced sequence of length m mod odd n, built from a progression.

    The default "beta" family needs m = 0 or -1 mod beta(n)*n and fixes the
    start from the step.  The "alpha" family needs the coarser classes
    m = 0 or -1 mod alpha(n)*n but accepts any start (default 0).  A length
    outside the family's classes raises UnsupportedLength, which says only
    that this construction does not apply, not that no balanced sequence of
    that length exists.
    """
    return _construction(n, m, step, family, start).to_sequence()


def _construction(
    n: int, m: int, step: int, family: str, start: int | None
) -> ArithmeticProgression:
    """The progression behind `construct_balanced`, with the same checks."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n % 2 == 0:
        raise EvenModulus(f"the constructions require an odd modulus, got {n}")
    if m < 1:
        raise ValueError(f"length must be positive, got {m}")
    step %= n
    if gcd(step, n) != 1:
        raise NotInvertible(f"step {step} shares a factor with {n}")
    if family == "beta":
        if start is not None:
            raise ValueError("the beta family fixes the start; do not pass one")
        span = beta(n) * n
        inv2 = (n + 1) // 2
        if m % span == 0:
            return ArithmeticProgression(n, inv2 * step % n, step, m)
        if (m + 1) % span == 0:
            return ArithmeticProgression(n, step, step, m)
        raise UnsupportedLength(f"beta family needs m = 0 or -1 mod {span}, got m = {m}")
    if family == "alpha":
        span = alpha(n) * n
        if m % span != 0 and (m + 1) % span != 0:
            raise UnsupportedLength(f"alpha family needs m = 0 or -1 mod {span}, got m = {m}")
        return ArithmeticProgression(n, 0 if start is None else start % n, step, m)
    raise ValueError(f"unknown family {family!r}, expected 'beta' or 'alpha'")
