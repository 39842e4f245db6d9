"""Sequences over Z/nZ and the triangles of iterated adjacent sums.

A sequence X = (x_1, ..., x_m) of residues mod n generates a Steinhaus
triangle: row 1 is X itself, and each following row holds the sums of
adjacent pairs of the row above, down to a single entry.  The triangle has
m(m+1)/2 entries and is called balanced when every residue class occurs
equally often among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import IndexOutOfRange, LengthTooShort, NotADivisor


@dataclass(frozen=True, slots=True)
class Sequence:
    """A nonempty tuple of residues together with its modulus."""

    modulus: int
    terms: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) == 0:
            raise ValueError("a sequence needs at least one term")
        for t in self.terms:
            if not 0 <= t < self.modulus:
                raise ValueError(f"{t} is not a residue mod {self.modulus}")

    @classmethod
    def reduce(cls, modulus: int, values) -> "Sequence":
        """Build a sequence by reducing arbitrary integers mod `modulus`."""
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        return cls(modulus, tuple(v % modulus for v in values))

    @classmethod
    def from_text(cls, modulus: int, text: str) -> "Sequence":
        """Parse comma-separated integers, reducing each one mod `modulus`."""
        try:
            values = [int(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"not a comma-separated integer sequence: {text!r}") from None
        return cls.reduce(modulus, values)

    def to_text(self) -> str:
        return ",".join(str(t) for t in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)


@dataclass(frozen=True, slots=True)
class Triangle:
    """All rows of a Steinhaus triangle, top row first."""

    rows: tuple[Sequence, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("a triangle needs at least one row")
        n = self.rows[0].modulus
        for k, row in enumerate(self.rows):
            if row.modulus != n:
                raise ValueError("rows mix moduli")
            if len(row) != len(self.rows[0]) - k:
                raise ValueError("row lengths must shrink by one per row")
        if len(self.rows[-1]) != 1:
            raise ValueError("the last row must be a single entry")

    @property
    def modulus(self) -> int:
        return self.rows[0].modulus

    @property
    def height(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        """Entry j of row i, both 1-based; row 1 is the generating sequence."""
        if not 1 <= i <= len(self.rows):
            raise IndexOutOfRange(f"row {i} outside 1..{len(self.rows)}")
        row = self.rows[i - 1].terms
        if not 1 <= j <= len(row):
            raise IndexOutOfRange(f"column {j} outside 1..{len(row)} in row {i}")
        return row[j - 1]

    def entries(self) -> Iterator[int]:
        for row in self.rows:
            yield from row.terms


@dataclass(frozen=True, slots=True)
class MultiplicityVector:
    """Occurrence counts of the residues 0..n-1 among triangle entries."""

    modulus: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.modulus:
            raise ValueError("need exactly one count per residue")

    def total(self) -> int:
        return sum(self.counts)

    def is_constant(self) -> bool:
        return len(set(self.counts)) == 1


def _next_row(row, n: int) -> tuple[int, ...]:
    """The row below `row` in a triangle mod n; every row here comes from it."""
    return tuple([(a + b) % n for a, b in zip(row, row[1:])])


def derive(seq: Sequence) -> Sequence:
    """One derivation step: the sums of adjacent pairs, reduced mod n."""
    if len(seq.terms) < 2:
        raise LengthTooShort("derivation needs at least two terms")
    return Sequence(seq.modulus, _next_row(seq.terms, seq.modulus))


def binomial_row(i: int, n: int) -> list[int]:
    """Row i of Pascal's triangle reduced mod n.

    Built by the additive recurrence with reduction at every step, which is
    exact for composite moduli, and keeps only one row in memory.
    """
    if i < 0:
        raise IndexOutOfRange(f"row index must be nonnegative, got {i}")
    row = [1 % n]
    for _ in range(i):
        row.append(row[-1])
        for k in range(len(row) - 2, 0, -1):
            row[k] = (row[k] + row[k - 1]) % n
    return row


def derive_iterated(seq: Sequence, i: int) -> Sequence:
    """The i-th derived sequence, computed from the binomial closed form.

    Entry j of the result is sum over k of C(i, k) * x_{j+k} mod n.  This is
    an independent route from applying `derive` i times and is checked
    against it in the tests.
    """
    m = len(seq.terms)
    if not 0 <= i <= m - 1:
        raise IndexOutOfRange(f"derivation count {i} outside 0..{m - 1}")
    n = seq.modulus
    coeff = binomial_row(i, n)
    t = seq.terms
    out = []
    for j in range(m - i):
        acc = 0
        for k, c in enumerate(coeff):
            acc += c * t[j + k]
        out.append(acc % n)
    return Sequence(n, tuple(out))


def _rows(row, n: int) -> Iterator[tuple[int, ...]]:
    yield row
    while len(row) > 1:
        row = _next_row(row, n)
        yield row


def triangle_rows(seq: Sequence) -> Iterator[tuple[int, ...]]:
    """Yield the triangle rows as plain tuples without keeping them all."""
    return _rows(seq.terms, seq.modulus)


def triangle(seq: Sequence) -> Triangle:
    """Materialize the full triangle generated by `seq`."""
    n = seq.modulus
    return Triangle(tuple(Sequence(n, row) for row in triangle_rows(seq)))


def _tally(rows, n: int, cap: int | None = None) -> list[int] | None:
    """Residue counts over the entries of `rows`, or None once one passes `cap`."""
    counts = [0] * n
    for row in rows:
        for v in row:
            counts[v] += 1
        if cap is not None and max(counts) > cap:
            return None
    return counts


def multiplicities(obj: Sequence | Triangle) -> MultiplicityVector:
    """Count every residue among the triangle entries.

    Accepts either a generating Sequence, whose rows are then streamed and
    discarded so memory stays O(m + n), or an already materialized Triangle.
    """
    if isinstance(obj, Triangle):
        rows = (row.terms for row in obj.rows)
    else:
        rows = triangle_rows(obj)
    return MultiplicityVector(obj.modulus, tuple(_tally(rows, obj.modulus)))


def balanced_terms(terms, n: int) -> bool:
    """Balance check on a plain list of residues, with an early exit.

    The walk stops once a count passes total/n.  If none ever does, the
    counts sum to n * (total/n) with each at most total/n, so all are equal.
    Its callers are `is_balanced` and the test oracle of the search.
    """
    for t in terms:
        if not 0 <= t < n:
            raise ValueError(f"{t} is not a residue mod {n}")
    m = len(terms)
    total = m * (m + 1) // 2
    if total % n:
        return False
    return _tally(_rows(terms, n), n, cap=total // n) is not None


def is_balanced(seq: Sequence) -> bool:
    """Whether every residue occurs equally often in the triangle of `seq`."""
    return balanced_terms(seq.terms, seq.modulus)


def project(seq: Sequence, q: int) -> Sequence:
    """Reduce every term mod q, where q is a positive divisor of the modulus."""
    n = seq.modulus
    if q < 1 or n % q:
        raise NotADivisor(f"{q} is not a positive divisor of {n}")
    return Sequence(q, tuple(t % q for t in seq.terms))


def is_antisymmetric(seq: Sequence) -> bool:
    """Whether reversing the sequence equals negating it mod n."""
    n = seq.modulus
    t = seq.terms
    m = len(t)
    return all(t[m - 1 - k] == (-t[k]) % n for k in range(m))
