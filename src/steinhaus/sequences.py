"""Sequences over Z/nZ and the triangles of iterated adjacent sums.

A sequence X = (x_1, ..., x_m) of residues mod n generates a Steinhaus
triangle: row 1 is X itself, and each following row holds the sums of
adjacent pairs of the row above, down to a single entry.  The triangle has
m(m+1)/2 entries and is called balanced when every residue class occurs
equally often among them.  A Triangle holds its top row; rows are built on
first read.  Its constructor checks that each row given is the derived row of
the one above, so the top row determines it: `multiplicities` counts a
Triangle as the triangle of its top row, and the CLI's `render_triangle` (in
steinhaus._render) draws it from that row alone.

A progression, a sequence whose consecutive differences are all equal mod n
(every sequence of one or two terms is one), is counted in closed form,
without its entries.  It is exact because a progression's rows are
progressions: AP(a, d, L) derives to AP(2a + d, 2d, L - 1), and a row of
length L with step d repeats with period n/g, g = gcd(d, n), so it holds
each residue of the coset a + gZ q times, q, r = divmod(L, n/g), and its
first r terms once more.  The rows' (a, d) are eventually periodic, so the
rows fall into few classes, and each class is added to the counts once.
Any other sequence is counted from its rows, as follows.

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
They are counted entry by entry, and a balance check stops at the first
entry that takes a count past its target.

The residues of a generating sequence of at least 512 terms mod n <= 64
are counted bit-sliced instead.  A row of L entries is
held as b = max(1, bitlength(n - 1)) integers, the planes: bit j of plane k
is bit k of entry j.  The row below comes from a ripple-carry adder run over
the planes, each added to itself shifted down one bit, and a borrow chain
that subtracts n wherever the sum is at least n.  Residue r's count in a row
is the popcount of the AND of plane k, or of its complement, over every k,
taken down a tree from the top plane that shares the common prefixes of the
residues.  So a row costs about 10b + 2n whole-row operations and n
popcounts, where counting entry by entry costs an interpreter step per
entry.  The adder, the chain and the tree are written out as straight-line
source for each modulus (by steinhaus._sliced) and compiled on first use,
never at import: run as loops over the planes and the tree, the same steps
pay the interpreter's loop overhead per plane and per node.  On rows of 1500
terms the compiled source ran 3.5 times as fast as counting entry by entry
at n = 43 and 45 times at n = 2.  Compiling costs 0.2 to 5 ms, more than a
short triangle's whole count, which is why short triangles are counted entry
by entry.
"""

import sys
from collections.abc import Iterator
from math import gcd

from ._value import _set, _Value
from .admissible import _target
from .errors import IndexOutOfRange, LengthTooShort, NotADivisor, UsageError, _positive, _residues


class Sequence(_Value):
    """A nonempty tuple of residues together with its modulus."""

    __slots__ = ("modulus", "terms")

    def __init__(self, modulus: int, terms: tuple[int, ...]):
        _positive("modulus", modulus)
        if not isinstance(terms, tuple):
            terms = tuple(terms)
        if not terms:
            raise UsageError("a sequence needs at least one term")
        _residues(terms, modulus)
        _set(self, "modulus", modulus)
        _set(self, "terms", terms)

    @classmethod
    def reduce(cls, modulus: int, values) -> "Sequence":
        """Build a sequence by reducing arbitrary integers mod `modulus`."""
        _positive("modulus", modulus)
        return cls(modulus, tuple(v % modulus for v in values))

    @classmethod
    def from_text(cls, modulus: int, text: str) -> "Sequence":
        """Parse comma-separated integers, reducing each one mod `modulus`."""
        try:
            values = [int(part) for part in text.split(",")]
        except ValueError:
            raise UsageError(f"not a comma-separated integer sequence: {text!r}") from None
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
    """All rows of the Steinhaus triangle of its top row, top row first.

    It holds its top row; rows are built on first read and kept.  The
    constructor checks that each row below the top one is the derived row of
    the row above, so the top row determines the rest: equality and hashing
    compare it, `multiplicities`, `entry`, `entries` and the CLI's
    `render_triangle` read it alone and derive the others packed, and a
    pickle or deep copy holds it alone.
    """

    __slots__ = ("_top", "_built")
    __match_args__ = ("rows",)

    def __init__(self, rows: tuple[Sequence, ...]):
        if not rows:
            raise UsageError("a triangle needs at least one row")
        n = rows[0].modulus
        for k, row in enumerate(rows):
            if row.modulus != n:
                raise UsageError("rows mix moduli")
            if len(row) != len(rows[0]) - k:
                raise UsageError("row lengths must shrink by one per row")
        if len(rows[-1]) != 1:
            raise UsageError("the last row must be a single entry")
        for k, (derived, row) in enumerate(zip(_rows(rows[0].terms, n), rows)):
            if tuple(derived) != row.terms:
                raise UsageError(f"row {k + 1} is not the derived row of row {k}")
        _set(self, "_top", rows[0])
        _set(self, "_built", rows)

    @property
    def rows(self) -> tuple[Sequence, ...]:
        try:
            return self._built
        except AttributeError:
            # First read of a triangle() triangle.  Threads reading at once
            # may each build the rows; they are equal, and one is kept.
            top = self._top
            n = top.modulus
            below = [Sequence._trusted(n, tuple(row)) for row in _rows(top.terms, n, skip=1)]
            rows = (top, *below)
            _set(self, "_built", rows)
            return rows

    def __eq__(self, other):
        if other.__class__ is Triangle:
            return self._top == other._top
        return NotImplemented

    def __hash__(self):
        return hash(self._top)

    def __reduce__(self):
        # Pickle and deepcopy keep the top row alone and rebuild through triangle().
        return triangle, (self._top,)

    def __copy__(self):
        return self  # immutable, so a shallow copy is itself, as a tuple's is

    @property
    def modulus(self) -> int:
        return self._top.modulus

    @property
    def height(self) -> int:
        return len(self._top)

    def entry(self, i: int, j: int) -> int:
        """Entry j of row i, both 1-based; row 1 is the generating sequence.

        Row i is derived alone, unless the rows are built already.
        """
        m = self.height
        if not 1 <= i <= m:
            raise IndexOutOfRange(f"row {i} outside 1..{m}")
        if not 1 <= j <= m - i + 1:
            raise IndexOutOfRange(f"column {j} outside 1..{m - i + 1} in row {i}")
        try:
            row = self._built[i - 1].terms
        except AttributeError:
            row = next(_rows(self._top.terms, self.modulus, skip=i - 1))
        return row[j - 1]

    def entries(self) -> Iterator[int]:
        """Every entry, row by row; rows not built already are streamed."""
        try:
            rows = (row.terms for row in self._built)
        except AttributeError:
            rows = _rows(self._top.terms, self.modulus)
        for row in rows:
            yield from row


class MultiplicityVector(_Value):
    """Occurrence counts of the residues 0..n-1 among triangle entries."""

    __slots__ = ("modulus", "counts")

    def __init__(self, modulus: int, counts: tuple[int, ...]):
        if len(counts) != modulus:
            raise UsageError("need exactly one count per residue")
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
    """The triangle generated by `seq`, in O(1): it holds `seq`, and builds
    its rows on first read."""
    t = object.__new__(Triangle)
    _set(t, "_top", seq)
    return t


def _tally(rows, n: int, cap: int) -> list[int] | None:
    """Residue counts over the entries of `rows`, counted entry by entry, or
    None at the first entry that takes a count past `cap`."""
    counts = [0] * n
    for row in rows:
        for v in row:
            c = counts[v] = counts[v] + 1
            if c > cap:
                return None
    return counts


_SLICED = {}  # modulus -> its bit-sliced tally, compiled on first use
# From this many terms (131,328 entries) on, one call saves more over _tally
# than compiling the bit-sliced kernel costs at n <= 40, and about breaks even
# at 41 <= n <= 64; from 768 terms on it saves more at every n <= 64.
_SLICED_MIN_TERMS = 512


def _sliced_tally(n: int, m: int):
    """The bit-sliced tally(terms, cap) for m terms mod n, or None where _tally
    counts entry by entry instead: fewer than _SLICED_MIN_TERMS terms, or
    n > 64.  Like _tally, it returns None once a count passes cap."""
    if m < _SLICED_MIN_TERMS or _lane_width(n) != 1:
        return None
    tally = _SLICED.get(n)
    if tally is None:
        from ._sliced import compile_tally  # its own module: most calls never compile
        tally = _SLICED[n] = compile_tally(n)
    return tally


def _progression_tally(n: int, a: int, d: int, m: int, cap: int) -> list[int] | None:
    """Residue counts over the triangle of AP(a, d, m), or None once one passes `cap`.

    AP(a, d, L) derives to AP(2a + d, 2d, L - 1).  A row of length L runs
    through the coset a + gZ, g = gcd(d, n), with period n/g, so with
    q, r = divmod(L, n/g) each residue of the coset occurs q times, and the
    first r terms a, a + d, ... once more.  The walk only adds up each
    coset's q and counts the rows of each (a, d, r); the counts are built
    once at the end, from every coset and every distinct run.  (a, d) is
    eventually periodic, so the rows fall into few distinct runs.  Once
    (a, d) = (0, 0), a fixed point of the map, every row left is zeros:
    their L(L+1)/2 entries go to the coset of 0 at once.  A coset's total is
    a lower bound on each of its counts, and counts only grow, so the walk
    stops as soon as one passes `cap`.
    """
    cosets = {}  # (g, a mod g) -> the q of its rows
    runs = {}  # (a, d, r) -> its rows
    for length in range(m, 0, -1):
        zeros = not a and not d
        if zeros:
            g, q, r = n, length * (length + 1) // 2, 0
        else:
            g = gcd(d, n)
            q, r = divmod(length, n // g)
        if q:
            key = (g, a % g)
            total = cosets[key] = cosets.get(key, 0) + q
            if total > cap:
                return None
        if zeros:
            break
        if r:
            key = (a, d, r)
            runs[key] = runs.get(key, 0) + 1
        a, d = (2 * a + d) % n, 2 * d % n
    counts = [0] * n
    for (g, start), q in cosets.items():
        coset = slice(start, n, g)
        counts[coset] = [c + q for c in counts[coset]]
    for (x, d, r), rows in runs.items():
        for _ in range(r):
            counts[x] += rows
            x = (x + d) % n
    if max(counts) > cap:
        return None
    return counts


def _count(terms, n: int, cap: int | None = None):
    """Residue counts over the triangle of `terms` (residues mod n), or None
    once one passes `cap`, by default the number of entries.

    A progression, every sequence of at most two terms included, is counted
    in closed form; any other sequence bit-sliced when _sliced_tally serves
    its length and modulus, else entry by entry over its packed rows.
    """
    m = len(terms)
    if cap is None:
        cap = m * (m + 1) // 2
    a = terms[0] if m else 0
    d = (terms[1] - a) % n if m > 1 else 0
    if all((y - x) % n == d for x, y in zip(terms, terms[1:])):
        return _progression_tally(n, a, d, m, cap)
    sliced = _sliced_tally(n, m)
    if sliced:
        return sliced(terms, cap)
    return _tally(_rows(terms, n), n, cap)


def multiplicities(obj: Sequence | Triangle) -> MultiplicityVector:
    """Count every residue among the triangle entries.

    Accepts either a generating Sequence, whose rows are then streamed and
    discarded so memory stays O(m + n), or a Triangle, which is counted as
    the triangle of its top row.
    """
    n = obj.modulus
    if isinstance(obj, Triangle):
        obj = obj._top
    return MultiplicityVector(n, tuple(_count(obj.terms, n)))


def balanced_terms(terms, n: int) -> bool:
    """Balance check on a plain list of residues, with an early exit.

    The tally stops once a count passes m(m+1)/(2n).  If none ever does, the
    counts, each at most that, sum to n times it, so all are equal.  Its
    callers are `is_balanced` and the test oracle of the search.
    """
    _residues(terms, n)
    target = _target(n, len(terms))
    if target is None:
        return False
    return _count(terms, n, cap=target) is not None


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
