"""Arithmetic progressions mod n and the balanced triangles they generate.

Derivation sends a progression to a progression, so a progression's whole
triangle has closed forms for its rows, its entries and its residue counts.
When the step is a unit mod odd n, suitable lengths (multiples of beta(n)*n
or alpha(n)*n, or one less) make the triangle balanced.
"""

from math import gcd

from ._value import _set, _Value
from .admissible import _target
from .errors import (EvenModulus, IndexOutOfRange, NotInvertible, UnsupportedLength, UsageError,
                     _positive, _residues)
from .orders import alpha, beta
from .sequences import MultiplicityVector, Sequence, _progression_tally


class ArithmeticProgression(_Value):
    """start, start + step, ..., with `length` terms, all mod `modulus`."""

    # _last_row: a one-item list of the last row `entry` read, one tuple (i, start_i,
    # step_i) stored at once; a list item store is far cheaper than _set on a slot.
    __slots__ = ("modulus", "start", "step", "length", "_last_row")
    __match_args__ = ("modulus", "start", "step", "length")

    def __init__(self, modulus: int, start: int, step: int, length: int):
        _positive("modulus", modulus)
        _positive("length", length)
        _residues((start, step), modulus)
        _set(self, "modulus", modulus)
        _set(self, "start", start)
        _set(self, "step", step)
        _set(self, "length", length)
        _set(self, "_last_row", [(1, start, step)])

    def to_sequence(self) -> Sequence:
        n = self.modulus
        return Sequence(
            n, tuple((self.start + k * self.step) % n for k in range(self.length))
        )

    def derived(self, i: int) -> "ArithmeticProgression":
        """The progression generating the i-th derived sequence."""
        if not 0 <= i <= self.length - 1:
            raise IndexOutOfRange(f"derivation count {i} outside 0..{self.length - 1}")
        _, start, step = self._row(i + 1)
        return ArithmeticProgression(self.modulus, start, step, self.length - i)

    def entry(self, i: int, j: int) -> int:
        """Triangle entry in row i, column j (1-based), without materializing:
        O(1) while the row is the one read last, one `pow` when the row changes."""
        m = self.length
        if not 1 <= i <= m:
            raise IndexOutOfRange(f"row {i} outside 1..{m}")
        if not 1 <= j <= m - i + 1:
            raise IndexOutOfRange(f"column {j} outside 1..{m - i + 1} in row {i}")
        last = self._last_row
        row, start, step = last[0]
        if row != i:  # one store, so no reader pairs two rows' start and step
            row, start, step = last[0] = self._row(i)
        return (start + (j - 1) * step) % self.modulus

    def _row(self, i: int) -> tuple[int, int, int]:
        """Row i as (i, start, step) mod n; row 1 is the progression itself.

        Derivation doubles the step and shifts the start; after k = i - 1
        steps the start is 2^k * a + k * 2^(k-1) * d = 2^(k-1) * (2a + k d) and
        the step 2^k * d, both reduced mod n with one power 2^(k-1) mod n.
        """
        n, a, d = self.modulus, self.start, self.step
        if i == 1:
            return i, a, d
        p = pow(2, i - 2, n)
        return i, p * (2 * a + (i - 1) * d) % n, 2 * p * d % n

    def multiplicities(self) -> MultiplicityVector:
        """Residue counts over the whole triangle, without its entries: a few
        operations per row, and O(n) once per distinct class of rows."""
        n, m = self.modulus, self.length
        counts = _progression_tally(n, self.start, self.step, m, m * (m + 1) // 2)
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
    _positive("modulus", n)
    if n % 2 == 0:
        raise EvenModulus(f"the constructions require an odd modulus, got {n}")
    _positive("length", m)
    step %= n
    if gcd(step, n) != 1:
        raise NotInvertible(f"step {step} shares a factor with {n}")
    if family == "beta":
        if start is not None:
            raise UsageError("the beta family fixes the start; do not pass one")
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
    raise UsageError(f"unknown family {family!r}, expected 'beta' or 'alpha'")
