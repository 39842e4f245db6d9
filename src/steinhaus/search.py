"""Exhaustive search for balanced sequences, plus existence probes.

The search is the ground truth the constructions are checked against.  It
walks the sequences of one length depth first, one term at a time, and keeps
the residue counts of the prefix's triangle as it goes: appending a term adds
one right-edge diagonal, so each node tallies that diagonal alone (see
_scan_block).  A prefix whose counts already pass target = m(m+1)/(2n) for
some residue cannot be completed to a balanced sequence, and the subtree
below it is skipped.  Two more rules cut the walk.

The sum rule: a balanced triangle holds each residue target times, so its
entries sum to total = target n(n-1)/2 mod n.  That sum is
w_1 x_1 + ... + w_m x_m with w_j = C(m+1, j) - 1.  Proof: the top row holds
each x_j once and the rows below are the triangle of x_1 + x_2, ...,
x_(m-1) + x_m, so w_j(m) = 1 + w_j(m-1) + w_(j-1)(m-1), which is Pascal's
rule for C(m+1, j) - 1.  As w_m = m, the last term x of a length m - 1 prefix
must solve m x = total - (its weighted sum) mod n: one x when gcd(m, n) = 1,
and often none at all otherwise, so a length m - 2 prefix drops each child
that leaves no such x; _plan tables the terms once per length.

The mirror rule, for n = 2: mod 2 the local rule c = a + b is symmetric in
a, b and c, so reflecting the triangle of X through its top-left corner gives
the triangle of its left edge L(X) = (T(1,1), T(2,1), ..., T(m,1)), with the
same entries, and L(L(X)) = X.  So X is balanced exactly when L(X) is, and
the walk keeps only the X with X <= L(X) lexicographically, counting each
twice when X < L(X) and listing L(X) beside it (Brunat and Maureso,
Symmetries in Steinhaus triangles and in generalized Pascal triangles,
Integers, 2011).

The candidate space splits by fixed prefixes into blocks, one sequence per
orbit of the units of Z/nZ: multiplying every term by a unit u multiplies
every entry of the triangle by u, which permutes the residue counts, so
balance is kept.  The blocks are the prefixes (0^j, g) with g a proper
divisor of n, plus the all-zero sequence, and each block carries one unit
per other first term y with gcd(y, n) = g, the one taking (0^j, g, ...)
onto (0^j, y, ...) (see _blocks).  A count weights a block's hits by
1 + its number of units, which is phi(n/g); a listing maps each block's hits
by each of its units and sorts them all once.  With W workers the caller is
one of the W processes and forks the other W - 1 from itself (see _split);
no multiprocessing start method applies, and without os.fork the caller
scans every block alone.  The blocks are then cut several times finer than
W, and each process takes the next free one, so that uneven, pruned blocks
still share out evenly; the hits are expanded and sorted after the blocks
are merged, so the report is identical for any worker count.
"""

import itertools
import marshal
import math
import os
from functools import cache, partial

from ._value import _set, _Value
from .admissible import _target, admissible_classes, is_admissible
from .errors import DEFAULT_MAX_STATES, BudgetExceeded, UnsupportedLength, UsageError, _positive
from .progressions import ArithmeticProgression, _construction
from .sequences import Sequence, is_balanced

# With several workers the blocks are cut until there are this many per worker.
_BLOCKS_PER_WORKER = 4

# The most runs of blocks _split hands out: their 2-byte indices fill half of
# the smallest pipe buffer, one 4,096-byte page, so they are written at once.
_RUNS = 1024

# A packed chunk is the most lanes that keep its table under this many rows.
_TABLE_ROWS = 4096


class SearchBudget(_Value):
    """Caps for an exhaustive search: total states and worker processes.

    The caller is one of the `workers` processes, and the others are forked
    from it; without os.fork the caller searches alone, with the same report.
    """

    __slots__ = ("max_states", "workers")

    def __init__(self, max_states: int = DEFAULT_MAX_STATES, workers: int = 1):
        _positive("max_states", max_states)
        _positive("workers", workers)
        _set(self, "max_states", max_states)
        _set(self, "workers", workers)


class SearchReport(_Value):
    """Outcome of one exhaustive scan over all sequences of one length."""

    __slots__ = ("modulus", "length", "found", "count", "states_examined")

    def __init__(self, modulus: int, length: int, found: tuple[Sequence, ...],
                 count: int, states_examined: int):
        _set(self, "modulus", modulus)
        _set(self, "length", length)
        _set(self, "found", found)
        _set(self, "count", count)
        _set(self, "states_examined", states_examined)


def _within_budget(n: int, m: int, max_states: int) -> bool:
    """Whether n**m <= max_states.

    n**m >= 2**k with k = m * (n.bit_length() - 1), so a length with
    k >= max_states.bit_length() is turned down without building n**m, which
    for a huge m would take minutes and gigabytes; otherwise n**m is compared.
    """
    if m * (n.bit_length() - 1) >= max_states.bit_length():
        return False
    return n**m <= max_states


def _pool_size(workers: int, blocks: int) -> int:
    """Processes worth scanning `blocks` blocks with: no more than asked for,
    CPUs, or blocks, and 1 where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    return min(workers, os.cpu_count() or 1, blocks)


def _sum_weights(n: int, m: int) -> list[int]:
    """w_1..w_m with w_j = C(m+1, j) - 1 mod n, as a list indexed from 0.

    They weight the sum rule (see the module docstring).  For n = 1 every
    weight is 0, and no binomial is taken.
    """
    if n == 1:
        return [0] * m
    weights = []
    binomial = 1
    for j in range(1, m + 1):
        binomial = binomial * (m + 2 - j) // j
        weights.append((binomial - 1) % n)
    return weights


@cache
def _chunk_table(n: int, c: int, w: int):
    """The packed node's chunk table mod n, for the chunk of c lanes and the
    count lanes of w bits that _plan picks.

    table[y][chunk] = (table[z], entries, counts) for a child whose entry
    below the chunk is y: lane j of the chunk adds the entry
    y_j = y_(j-1) + d_j mod n (y_0 = y), placed in lane j of `entries`, one
    lane up, while a pad passes y_(j-1) on and adds nothing.  z is the last
    y_j, and `counts` holds the number of each residue among the y_j, residue
    r in the w-bit lane r.  It is built by composition: one lane, then a
    chunk of c - 1 lanes above it.
    """
    b = n.bit_length()
    # the codes from n up to the pad never occur, and act as pads here
    lane = [[(y, 0, 0)] * (1 << b) for y in range(n)]
    for y, row in enumerate(lane):
        for v in range(n):
            z = (y + v) % n
            row[v] = (z, z << b, 1 << (z * w))
    table = lane
    for _ in range(c - 1):
        table = [
            [(z2, e1 | e2 << b, k1 + k2)
             for rest in range(len(table[0]))
             for z1, e1, k1 in row
             for z2, e2, k2 in (table[z1][rest],)]
            for row in lane
        ]
    rows = [[] for _ in range(n)]
    for row, built in zip(rows, table):
        row.extend((rows[z], e, k) for z, e, k in built)
    return rows


@cache
def _plan(n: int, m: int):
    """(weights, options, packed): what a search of length m mod n needs of
    n and m alone, built once for all its blocks (see _scan_block).

    weights is _sum_weights(n, m) and options[k][p] the terms, decreasing,
    that a length k prefix of weighted sum p may take by the sum rule; for
    n = 2 it is their mask, bit x for term x.  packed is None but for n = 1
    and 3 <= n <= 7: (table, mask, one, high, root, pads, spans), the packed
    node's constants.  A chunk is c lanes of b = n.bit_length() bits, c the
    most with n 2^(bc) < _TABLE_ROWS table rows.  A count lane is
    w = (target + c + 1).bit_length() + 1 bits and starts at the bias
    2^(w-1) - 1 - target, so its top bit is set past target, with room for
    the c + 1 a child adds.  table is _chunk_table(n, c, w), one[x] is 1 in
    residue x's lane, high the top bit of every lane and root the empty
    tally; pads[k] is the pad code in lanes k up to the next multiple of c,
    and spans[k] the bit offsets of a depth k diagonal's chunks.
    """
    target = _target(n, m)
    weights = _sum_weights(n, m)
    total = target * (n * (n - 1) // 2) % n
    every = range(n - 1, -1, -1)
    last_terms = [[x for x in every if (p + m * x - total) % n == 0] for p in range(n)]
    options = [[every] * n] * (m - 1) + [last_terms]
    if m > 1:
        v = weights[m - 2]
        options[m - 2] = [[x for x in every if last_terms[(p + v * x) % n]] for p in range(n)]
    packed = None
    if n == 2:
        options = [[sum(1 << x for x in row) for row in rows] for rows in options]
    elif n < 8:
        b = n.bit_length()
        c = 1
        while n << (b * (c + 1)) < _TABLE_ROWS:
            c += 1
        w = (target + c + 1).bit_length() + 1
        one = [1 << (x * w) for x in range(n)]
        offsets = range(0, (m + c - 1) // c * c * b, c * b)
        heads = [tuple(offsets[:j]) for j in range(len(offsets) + 1)]
        chunks = [(k + c - 1) // c for k in range(m + 1)]
        pads = [(1 << (j * c * b)) - (1 << (k * b)) for k, j in enumerate(chunks)]
        spans = [heads[j] for j in chunks]
        lanes = sum(one)
        packed = (_chunk_table(n, c, w), (1 << (b * c)) - 1, one, lanes << (w - 1),
                  lanes * ((1 << (w - 1)) - 1 - target), pads, spans)
    return weights, options, packed


def _scan_block(n: int, m: int, prefix, count_only: bool, first_hit: bool = False):
    """Find the balanced length-m sequences that start with `prefix`.

    Depth-first search from the empty sequence, terms tried in increasing
    order, so the hits walked come out in lexicographic order.  A node is
    (depth, last term, right-edge diagonal, tally) for a prefix of that
    length.  Appending x to a prefix whose diagonal is d_1..d_k adds the
    diagonal x, x + d_1, x + d_1 + d_2, ... (mod n) to its triangle; a child
    that pushes a residue count past target is pruned with its subtree, so
    a length m - 1 prefix's children are its balanced completions.  The
    terms a child may take come from one table of _plan(n, m), options[k][p]
    for a length k prefix of weighted sum p (kept in `sums`), a mask for
    n = 2.  A block only reads the plan, and takes new rows for depth
    k < len(prefix) that allow prefix[k] alone.  n = 2 also follows the
    mirror rule (see the module docstring).  The node has one of three
    forms, chosen by n:

    - binary, n = 2: the diagonal is an int, d_i in bit i - 1, and the tally
      the number of ones.  Child x's diagonal is the prefix XOR S of d, taken
      by doubling (S ^= S << 1, << 2, ...), shifted up a bit and, for x = 1,
      flipped in all k + 1 bits.  `edge` keeps the left edge per depth and
      `tie` whether the prefix equals it; while they agree, a parent whose
      diagonal has odd parity drops x = 1.  A hit counts 2 when X < L(X),
      and a listing adds L(X) after it, so a block may list another prefix.
    - packed, n = 1 and 3 <= n <= 7: the diagonal is an int of b-bit lanes,
      b = n.bit_length(), d_i in lane i - 1, padded with the code 2^b - 1 up
      to a multiple of c lanes, and the tally an int of biased w-bit lanes,
      one per residue, whose top bit is set exactly when the count passes
      target (see _plan).  Child x adds x to its lane, then c entries
      and their counts per lookup in _chunk_table's table, and is dropped at
      the first chunk that sets a top bit (at depth 0 x alone cannot:
      target >= 1).
    - list, n >= 8: the diagonal is a list and the tally the list of counts,
      and a child is tallied entry by entry until a count passes target.
      Here a table of under 4,096 rows has chunks of 2 lanes or 1, and the
      packed node lost: _witness (18, 8) took 4.4 CPU s against 3.3 s on a
      2-vCPU VM under Python 3.11.

    A length that is not admissible has an empty block.  The nodes wait on
    an explicit stack, so the length is not bounded by the recursion limit.
    With first_hit the walk stops at the first length m - 1 prefix that has
    balanced completions, and returns those (for n = 2 with their mirrors).
    """
    target = _target(n, m)
    if target is None:
        return [], 0
    weights, options, packed = _plan(n, m)
    terms = [0] * m
    found = []
    count = 0
    binary = n == 2
    # sums[k]: the weighted sum of terms[:k]
    sums = [0] * m
    # whether the hits of the last node popped are each counted with a mirror
    mirror = False
    # Prefixes still to visit.  Each node's children are pushed in decreasing
    # order, so the next one popped extends a prefix that terms[:depth - 1]
    # still holds.  New rows, not the plan's, allow prefix[k] alone at depth k.
    if binary:
        head = [[row & 1 << x for row in rows] for rows, x in zip(options, prefix)]
        # edge[:k]: the left edge of terms[:k]; tie[k]: whether the two agree
        edge = [0] * m
        tie = [True] * m
        pending = [(0, 0, 0, 0)]
    else:
        head = [[[x] if x in row else [] for row in rows] for rows, x in zip(options, prefix)]
        pending = [(0, 0, [], [0] * n)]
    options = head + options[len(head):]
    if packed:
        table, mask, one, high, root, pads, spans = packed
        pending = [(0, 0, 0, root)]
    while pending:
        depth, last, diagonal, tally = pending.pop()
        if depth:
            terms[depth - 1] = last
            if binary:
                sums[depth] = sums[depth - 1] ^ (weights[depth - 1] & last)
                # a prefix's bottom entry ends its diagonal and its left edge
                edge[depth - 1] = diagonal >> (depth - 1)
                tie[depth] = tie[depth - 1] and last == edge[depth - 1]
            else:
                sums[depth] = (sums[depth - 1] + weights[depth - 1] * last) % n
        children = []
        if binary:
            shift = 1
            while shift < depth:
                diagonal ^= diagonal << shift
                shift <<= 1
            full = (2 << depth) - 1
            zero = (diagonal << 1) & full
            # child x's left edge ends in x ^ flip
            flip = zero >> depth
            tied = tie[depth]
            mirror = flip or not tied
            allowed = options[depth][sums[depth]]
            tally0 = tally + zero.bit_count()
            tally1 = 2 * tally + depth + 1 - tally0
            # a child keeps at most target ones and at most target zeros, and
            # a tied prefix with flip = 1 drops x = 1, whose mirrors are walked
            low = (depth + 1) * (depth + 2) // 2 - target
            if low <= tally1 <= target and allowed & 2 and not (tied and flip):
                children.append((depth + 1, 1, zero ^ full, tally1))
            if low <= tally0 <= target and allowed & 1:
                children.append((depth + 1, 0, zero, tally0))
        elif packed:
            span = spans[depth]
            for x in options[depth][sums[depth]]:
                h = tally + one[x]
                row = table[x]
                out = x
                for s in span:
                    row, e, k = row[diagonal >> s & mask]
                    h += k
                    if h & high:
                        break
                    out |= e << s
                else:
                    children.append((depth + 1, x, out | pads[depth + 1], h))
        else:
            for x in options[depth][sums[depth]]:
                if tally[x] == target:
                    continue
                child = tally.copy()
                child[x] += 1
                extended = [x]
                d = x
                for p in diagonal:
                    d = (p + d) % n
                    c = child[d] + 1
                    if c > target:
                        break
                    child[d] = c
                    extended.append(d)
                else:
                    children.append((depth + 1, x, extended, child))
        if depth < m - 1:
            pending.extend(children)
            continue
        count += len(children) * (1 + mirror)
        if not count_only:
            for child in reversed(children):
                terms[-1] = child[1]
                found.append(tuple(terms))
                if mirror:
                    edge[-1] = child[1] ^ flip
                    found.append(tuple(edge))
        if first_hit and count:
            break
    return found, count


def _blocks(n: int, m: int, k: int):
    """(prefix, units) pairs, one block per orbit of the units of Z/nZ.

    The blocks are (0^j, g, rest), g a proper divisor of n and rest any
    k - j - 1 terms, plus the all-zero sequence, which has no units.  A
    block's units are, for each y != g with gcd(y, n) = g, the first unit u
    with u*g = y mod n, which maps the block onto (0^j, y, ...) one to one;
    so 1 + len(units) = phi(n/g).
    """
    units = [u for u in range(2, n) if math.gcd(u, n) == 1]
    divisors = []
    for g in range(1, n):
        if n % g == 0:
            first = {g: 1}
            for u in units:
                first.setdefault(u * g % n, u)
            divisors.append((g, [u for y, u in first.items() if y != g]))
    blocks = [
        ((0,) * j + (g,) + rest, g_units)
        for j in range(m)
        for g, g_units in divisors
        for rest in itertools.product(range(n), repeat=max(k - j - 1, 0))
    ]
    blocks.append(((0,) * m, []))
    return blocks


def _split(scan, prefixes, workers: int) -> list:
    """[scan(p) for p in prefixes], shared by the caller and workers - 1
    children forked from it.

    The blocks are cut into at most _RUNS runs of consecutive ones, and each
    run's index is written to one pipe before the fork, so that the write
    needs no reader.  Each process reads the next index from that pipe when
    it is free and scans the run.  A child only scans, sends {block index:
    result} back with marshal on its own pipe and leaves through os._exit,
    so it never returns into the caller's stack.  The caller reads each
    child's pipe to EOF and reaps the child, which keeps its CPU time
    counted, and raises RuntimeError if one failed.  Any exception in the
    caller, KeyboardInterrupt included, kills and reaps every child first.
    """
    # imported here, as it costs about 1 ms and only a split needs it
    import signal

    blocks = len(prefixes)
    runs = min(blocks, _RUNS)

    def share():
        done = {}
        while record := os.read(tasks, 2):
            r = int.from_bytes(record, "little")
            for i in range(r * blocks // runs, (r + 1) * blocks // runs):
                done[i] = scan(prefixes[i])
        return done

    tasks, feed = os.pipe()
    owned = [tasks, feed]
    children = {}
    try:
        os.write(feed, b"".join(r.to_bytes(2, "little") for r in range(runs)))
        # feed: every read ends at EOF once the runs are taken
        os.close(owned.pop())
        for _ in range(workers - 1):
            out, sink = os.pipe()
            owned += (out, sink)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with open(sink, "wb", closefd=False) as pipe:
                        marshal.dump(share(), pipe)
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = out
            # sink: the child's is then the only write end, so EOF means it is done
            os.close(owned.pop())
        done = share()
        for pid, out in list(children.items()):
            with open(out, "rb", closefd=False) as pipe:
                sent = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status:
                raise RuntimeError(
                    f"search worker {pid} failed with status {os.waitstatus_to_exitcode(status)}")
            done.update(marshal.loads(sent))
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        for fd in owned:
            os.close(fd)
    return [done[i] for i in range(blocks)]


def _witness(n: int, m: int) -> tuple[int, ...] | None:
    """The first balanced sequence the count-only blocks lead to, if any."""
    for prefix, _ in _blocks(n, m, 0):
        found, _ = _scan_block(n, m, prefix, False, first_hit=True)
        if found:
            return found[0]
    return None


def brute_force_balanced(
    n: int, m: int, budget: SearchBudget | None = None, count_only: bool = False
) -> SearchReport:
    """Report the balanced sequences among all n^m sequences of length m.

    Raises BudgetExceeded before any work if n^m exceeds budget.max_states,
    or if the m(m+1)/2 entries of a triangle do, which n = 1 alone can reach.
    The search and its rules are described in the module docstring.  A
    length that is not admissible has no balanced sequence and is answered
    at once.  With more than one worker the blocks are cut at the least
    length k, up to m, with n^k >= 4 * workers, and the caller scans them
    beside workers - 1 processes forked from it (see _split); where os.fork
    is missing the caller scans them alone.  states_examined is n^m, the
    size of the space covered, however much of it was pruned or skipped by
    symmetry.
    found is sorted lexicographically and is empty in count_only mode.
    """
    _positive("modulus", n)
    _positive("length", m)
    if budget is None:
        budget = SearchBudget()
    if not _within_budget(n, m, budget.max_states):
        raise BudgetExceeded(f"{n}^{m} states exceed the budget of {budget.max_states}")
    if m * (m + 1) // 2 > budget.max_states:
        raise BudgetExceeded(f"{m}*{m + 1}/2 entries exceed the budget of {budget.max_states}")
    states = n**m
    if not is_admissible(n, m):
        return SearchReport(n, m, (), 0, states)
    # there are no more blocks than states
    workers = _pool_size(budget.workers, states)
    k = 0
    while workers > 1 and k < m and n**k < _BLOCKS_PER_WORKER * workers:
        k += 1
    prefixes, units = zip(*_blocks(n, m, k))
    workers = _pool_size(workers, len(prefixes))
    scan = partial(_scan_block, n, m, count_only=count_only)
    if workers == 1:
        blocks = [scan(p) for p in prefixes]
    else:
        # built before the fork, so that every process shares it
        _plan(n, m)
        blocks = _split(scan, prefixes, workers)
    count = sum((1 + len(us)) * c for us, (_, c) in zip(units, blocks))
    found = ()
    if not count_only:
        hits = [hit for block_found, _ in blocks for hit in block_found]
        hits += [
            tuple(u * t % n for t in hit)
            for us, (block_found, _) in zip(units, blocks)
            for u in us
            for hit in block_found
        ]
        found = tuple(Sequence._trusted(n, t) for t in sorted(hits))
    return SearchReport(n, m, found, count, states)


def classify_even_progressions(
    n: int, max_length: int = 40, budget: SearchBudget | None = None
) -> list[ArithmeticProgression]:
    """All progressions mod even n, up to max_length, with balanced triangles.

    Scans every (start, step, length) triple; non-admissible lengths are
    skipped, and the rest are counted in closed form, once per class of
    rows, without expanding the progression.  Each triple is first sieved by
    its projection mod 2, the least prime dividing n.  The triangle of
    AP(a, d, m) reduced mod 2 is the triangle of AP(a mod 2, d mod 2, m), and
    each of its counts sums n/2 counts mod n, so a triangle balanced mod n is
    balanced mod 2.  Only the triples whose projection is balanced are
    counted mod n; for n = 2 the projection is the progression itself and
    settles it.

    With a budget, the scan is refused with BudgetExceeded before any work
    when n^3 m, summed over the admissible lengths m, passes max_states:
    each such length has n^2 triples, each counted in at most about n m
    steps.  The admissible lengths come from admissible_classes(n), which
    refuses, with BudgetExceeded, an n that trial division up to 10^6
    cannot factor.
    """
    if n < 2 or n % 2:
        raise UsageError(f"classification applies to even moduli, got {n}")
    _positive("max_length", max_length)
    classes = admissible_classes(n)
    if budget is not None:
        cost = 0
        for m in classes.lengths(max_length):
            if (cost := cost + n**3 * m) > budget.max_states:
                raise BudgetExceeded(
                    f"{n}^3 m steps over the admissible m up to {max_length}"
                    f" exceed the budget of {budget.max_states}"
                )
    hits = []
    for m in classes.lengths(max_length):
        parities = {
            (x, y) for x in (0, 1) for y in (0, 1) if ArithmeticProgression(2, x, y, m).is_balanced()
        }
        for a in range(n):
            for d in range(n):
                if (a % 2, d % 2) in parities:
                    ap = ArithmeticProgression(n, a, d, m)
                    if n == 2 or ap.is_balanced():
                        hits.append(ap)
    return hits


def molluzzo_probe(n: int, m: int, budget: SearchBudget | None = None) -> bool:
    """Whether any balanced sequence of admissible length m exists mod n.

    For odd n, tries the beta progression construction first; otherwise, or
    when it does not cover m, searches the count-only blocks when n^m fits
    the budget and stops at the first balanced sequence, which is checked
    with is_balanced.  Raises BudgetExceeded when neither route settles the
    question.
    """
    if not is_admissible(n, m):
        raise UsageError(
            f"length {m} is not admissible mod {n}: {n} does not divide {m}*{m + 1}/2"
        )
    if budget is None:
        budget = SearchBudget()
    if n % 2:
        # beta(n) divides alpha(n), so the alpha family's lengths are beta's.
        try:
            _construction(n, m, 1, "beta", None)
            return True
        except UnsupportedLength:
            pass
    if _within_budget(n, m, budget.max_states):
        witness = _witness(n, m)
        if witness is not None and not is_balanced(Sequence(n, witness)):
            raise AssertionError(f"search returned an unbalanced witness {witness}")
        return witness is not None
    raise BudgetExceeded(
        f"no construction applies and {n}^{m} states exceed the budget of {budget.max_states}"
    )
