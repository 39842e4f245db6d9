"""Sequences over Z/nZ and the triangles of iterated adjacent sums.

A sequence X = (x_1, ..., x_m) of residues mod n generates a Steinhaus
triangle: row 1 is X itself, and each following row holds the sums of
adjacent pairs of the row above, down to a single entry.  The triangle has
m(m+1)/2 entries and is called balanced when every residue class occurs
equally often among them.

Rows are computed packed.  A row of L terms is one integer: its bytes, in
the machine's byte order, are the terms' lanes of w bytes each, one after
the other, so a memoryview cast reads the terms back.  w is the least of
1, 2, 4, 8, ... with 2n <= 2^(8w-1); every modulus up to 64 gets one-byte
lanes.  Adding the integer to itself shifted down one lane sums every
adjacent pair at once.  A sum is below 2n, so no lane carries into the next,
and dropping the top lane leaves the row below, still unreduced.  Adding
2^(8w-1) - n to every lane sets a lane's top bit exactly when its sum is at
least n, which picks out the lanes that need n subtracted, with no branch
per term.  Rows of one-byte lanes come out as bytes, wider ones as tuples.

The residues of a generating sequence of at least 512 terms mod n <= 64
are counted bit-sliced instead.  A row of L entries is
held as b = max(1, bitlength(n - 1)) integers, the planes: bit j of plane k
is bit k of entry j.  The row below comes from a ripple-carry adder run over
the planes, each added to itself shifted down one bit, and a borrow chain
that subtracts n wherever the sum is at least n.  Residue r's count in a row
is the popcount of the AND of plane k, or of its complement, over every k,
taken down a tree from the top plane that shares the common prefixes of the
residues.  So a row costs about 10b + 2n whole-row operations and n
popcounts, where counting packed bytes costs n passes over the row.  The
adder, the chain and the tree are written out as straight-line source for
each modulus (by steinhaus._sliced) and compiled on first use, never at
import: run as loops over the planes and the tree, the same steps pay the
interpreter's loop overhead per plane and per node.  On rows of 1500 terms,
n from 2 to 43, the loops ran 1.2-2.3 times as fast as the packed count and
the compiled source 2.7-6.5 times.  Compiling costs 0.3 to 5 ms, more than a
short triangle's whole count, which is why short triangles stay packed.
"""

import sys
from collections.abc import Iterator

from ._value import _set, _Value
from .admissible import _target
from .errors import IndexOutOfRange, LengthTooShort, NotADivisor


class Sequence(_Value):
    """A nonempty tuple of residues together with its modulus."""

    __slots__ = ("modulus", "terms")

    def __init__(self, modulus: int, terms: tuple[int, ...]):
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        if not isinstance(terms, tuple):
            terms = tuple(terms)
        if not terms:
            raise ValueError("a sequence needs at least one term")
        for t in terms:
            if not 0 <= t < modulus:
                raise ValueError(f"{t} is not a residue mod {modulus}")
        _set(self, "modulus", modulus)
        _set(self, "terms", terms)

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

    @classmethod
    def _trusted(cls, modulus: int, terms: tuple[int, ...]) -> "Sequence":
        """A sequence of terms already known to be residues mod `modulus`."""
        seq = object.__new__(cls)
        _set(seq, "modulus", modulus)
        _set(seq, "terms", terms)
        return seq

    def to_text(self) -> str:
        return ",".join(str(t) for t in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)


class Triangle(_Value):
    """All rows of a Steinhaus triangle, top row first."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[Sequence, ...]):
        if not rows:
            raise ValueError("a triangle needs at least one row")
        n = rows[0].modulus
        for k, row in enumerate(rows):
            if row.modulus != n:
                raise ValueError("rows mix moduli")
            if len(row) != len(rows[0]) - k:
                raise ValueError("row lengths must shrink by one per row")
        if len(rows[-1]) != 1:
            raise ValueError("the last row must be a single entry")
        _set(self, "rows", rows)

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


class MultiplicityVector(_Value):
    """Occurrence counts of the residues 0..n-1 among triangle entries."""

    __slots__ = ("modulus", "counts")

    def __init__(self, modulus: int, counts: tuple[int, ...]):
        if len(counts) != modulus:
            raise ValueError("need exactly one count per residue")
        _set(self, "modulus", modulus)
        _set(self, "counts", counts)

    def total(self) -> int:
        return sum(self.counts)

    def is_constant(self) -> bool:
        return len(set(self.counts)) == 1


_NATIVE_LANES = {2: "H", 4: "I", 8: "Q"}  # memoryview formats of the wider lanes


def _lane_width(n: int) -> int:
    """Bytes per lane of a packed row mod n: the least w = 2^k with 2n <= 2^(8w-1)."""
    w = 1
    while 2 * n > 1 << (8 * w - 1):
        w *= 2
    return w


def _rows(terms, n: int, skip: int = 0) -> Iterator[bytes | tuple[int, ...]]:
    """The rows of the triangle of `terms` (residues mod n), top row first.

    Every row comes from the packed kernel described in the module
    docstring.  A row is its bytes when the lanes are one byte wide, else a
    tuple; either way it is a sequence of the row's residues.  The first
    `skip` rows are derived but never unpacked, and not yielded.
    """
    w = _lane_width(n)
    bits = 8 * w
    order = sys.byteorder
    length = len(terms)
    data = bytes(terms) if w == 1 else b"".join(t.to_bytes(w, order) for t in terms)
    x = int.from_bytes(data, order)
    ones = int.from_bytes((1).to_bytes(w, order) * length, order)
    lift = ones * ((1 << bits - 1) - n)
    mask = (1 << bits * length) - 1
    while True:
        if skip:
            skip -= 1
        elif w == 1:
            yield data
        elif w in _NATIVE_LANES:
            yield tuple(memoryview(data).cast(_NATIVE_LANES[w]))
        else:
            yield tuple(int.from_bytes(data[i : i + w], order) for i in range(0, len(data), w))
        if length <= 1:  # no terms give one empty row
            return
        length -= 1
        mask >>= bits
        s = (x + (x >> bits)) & mask
        # ones and lift keep the top row's length: past the row, a lane of
        # s + lift is 2^(8w-1) - n, whose top bit is clear.
        x = s - (((s + lift) >> (bits - 1)) & ones) * n
        if not skip:
            data = x.to_bytes(length * w, order)


def derive(seq: Sequence) -> Sequence:
    """One derivation step: the sums of adjacent pairs, reduced mod n."""
    if len(seq.terms) < 2:
        raise LengthTooShort("derivation needs at least two terms")
    return derive_iterated(seq, 1)


def derive_iterated(seq: Sequence, i: int) -> Sequence:
    """The i-th derived sequence, read off row i + 1 of the triangle.

    Entry j is sum over k of C(i, k) * x_{j+k} mod n, the closed form the
    tests check it against.
    """
    m = len(seq.terms)
    if not 0 <= i <= m - 1:
        raise IndexOutOfRange(f"derivation count {i} outside 0..{m - 1}")
    row = next(_rows(seq.terms, seq.modulus, skip=i))
    return Sequence._trusted(seq.modulus, tuple(row))


def triangle_rows(seq: Sequence) -> Iterator[tuple[int, ...]]:
    """Yield the triangle rows as plain tuples without keeping them all."""
    return map(tuple, _rows(seq.terms, seq.modulus))


def triangle(seq: Sequence) -> Triangle:
    """Materialize the full triangle generated by `seq`."""
    n = seq.modulus
    return Triangle(tuple(Sequence._trusted(n, row) for row in triangle_rows(seq)))


def _tally(rows, n: int, cap: int | None = None) -> list[int] | None:
    """Residue counts over the entries of `rows`, or None once one passes `cap`.

    A row of one-byte lanes at least 8n long is counted with one bytes.count
    per residue (bytes(row) is the row itself when it is bytes already); any
    other row entry by entry, which is faster on short rows.
    """
    counts = [0] * n
    shortest = 8 * n if _lane_width(n) == 1 else sys.maxsize
    for row in rows:
        if len(row) >= shortest:
            row = bytes(row)
            counts = [c + row.count(v) for v, c in enumerate(counts)]
        else:
            for v in row:
                counts[v] += 1
        if cap is not None and max(counts) > cap:
            return None
    return counts


_SLICED = {}  # modulus -> its bit-sliced tally, compiled on first use
# From about this many terms (131,328 entries) on, one call saves more over
# the packed tally than compiling the bit-sliced one costs, at every n <= 64.
_SLICED_MIN_TERMS = 512


def _sliced_tally(n: int, m: int):
    """The bit-sliced tally(terms, cap) for m terms mod n, or None where the
    packed tally counts instead: fewer than _SLICED_MIN_TERMS terms, or
    n > 64.  Like _tally, it returns None once a count passes cap."""
    if m < _SLICED_MIN_TERMS or _lane_width(n) != 1:
        return None
    tally = _SLICED.get(n)
    if tally is None:
        from ._sliced import compile_tally  # its own module: most calls never compile
        tally = _SLICED[n] = compile_tally(n)
    return tally


def multiplicities(obj: Sequence | Triangle) -> MultiplicityVector:
    """Count every residue among the triangle entries.

    Accepts either a generating Sequence, whose rows are then streamed and
    discarded so memory stays O(m + n), or an already materialized Triangle.
    """
    n = obj.modulus
    if isinstance(obj, Triangle):
        return MultiplicityVector(n, tuple(_tally((row.terms for row in obj.rows), n)))
    m = len(obj.terms)
    sliced = _sliced_tally(n, m)
    counts = sliced(obj.terms, m * (m + 1) // 2) if sliced else _tally(_rows(obj.terms, n), n)
    return MultiplicityVector(n, tuple(counts))


def balanced_terms(terms, n: int) -> bool:
    """Balance check on a plain list of residues, with an early exit.

    The walk stops once a count passes m(m+1)/(2n).  If none ever does, the
    counts, each at most that, sum to n times it, so all are equal.  Its
    callers are `is_balanced` and the test oracle of the search.
    """
    for t in terms:
        if not 0 <= t < n:
            raise ValueError(f"{t} is not a residue mod {n}")
    target = _target(n, len(terms))
    if target is None:
        return False
    sliced = _sliced_tally(n, len(terms))
    if sliced:
        return sliced(terms, target) is not None
    return _tally(_rows(terms, n), n, cap=target) is not None


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
