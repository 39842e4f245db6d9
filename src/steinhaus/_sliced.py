"""Source generator of the bit-sliced tally that steinhaus.sequences uses.

sequences.py describes the tally and when it is used.  This module is
imported only when a tally is first compiled, so that the many calls that
never compile one do not pay for compiling this file.
"""


def compile_tally(n: int):
    """Write out and compile the straight-line source of the tally mod n.

    Plane k holds bit k of every entry of the row, entry j in bit j.  Names
    in the source: p<k> the planes, mask the row's positions, c<r> the count
    of residue r, and per row s<k> the unreduced sum's bits, e<k> the carry
    into bit k (e<b> is the sum's top bit), g<k> whether the sum's low k
    bits are at least n's (no borrow out of them), and q<k>_<v> the
    positions whose bits from k up read v.
    """
    b = max(1, (n - 1).bit_length())
    counts = ", ".join(f"c{r}" for r in range(n))
    src = [
        "def tally(terms, cap):",
        "    row = bytes(reversed(terms))",
        *(f"    p{k} = int(row.translate(T{k}), 2)" for k in range(b)),
        f"    {' = '.join(f'c{r}' for r in range(n))} = 0",
        "    mask = (1 << len(terms)) - 1",
        "    while True:",
    ]
    body = []

    def split(k: int, v: int, node: str):
        # Tally the positions in `node`, whose bits from k up read v.
        if k == 0:
            body.extend((f"c{v} += {node}.bit_count()", f"if c{v} > cap:", "    return None"))
            return
        k -= 1
        ones = f"p{k}" if node == "mask" else f"q{k}_{2 * v + 1}"
        if node != "mask":
            body.append(f"{ones} = {node} & p{k}")
        zeros = f"q{k}_{2 * v}"
        body.append(f"{zeros} = {node} ^ {ones}")
        split(k, 2 * v, zeros)
        if (2 * v + 1) << k < n:
            split(k, 2 * v + 1, ones)

    split(b, 0, "mask")
    body += ["if mask == 1:", f"    return ({counts},)", "mask >>= 1"]
    # Ripple-carry add each plane to itself shifted down one position.
    for k in range(b):
        body += [f"a{k} = p{k} & mask", f"d{k} = p{k} >> 1"]
        if k == 0:
            body += ["s0 = a0 ^ d0", "e1 = a0 & d0"]
        else:
            body += [f"x{k} = a{k} ^ d{k}", f"s{k} = x{k} ^ e{k}",
                     f"e{k + 1} = a{k} & d{k} | x{k} & e{k}"]
    # Subtract n where the sum is at least n.  g<k> is None while n's low k
    # bits are all zero, where no borrow can arise; for n = 2^b the sum is
    # reduced by dropping its top bit, so the chain is never needed.
    g = [None] * (b + 2)
    if n != 1 << b:
        sums = [f"s{k}" for k in range(b)] + [f"e{b}"]
        for k in range(b + 1):
            if n >> k & 1:
                body.append(f"g{k + 1} = {sums[k]}" + (f" & {g[k]}" if g[k] else ""))
                g[k + 1] = f"g{k + 1}"
            elif g[k]:
                body.append(f"g{k + 1} = {sums[k]} | {g[k]}")
                g[k + 1] = f"g{k + 1}"
    for k in range(b):
        if n >> k & 1:
            flip = f"g{b + 1}" + (f" & {g[k]}" if g[k] else "")
        else:
            flip = f"g{b + 1} & ~{g[k]}" if g[k] else None
        body.append(f"p{k} = s{k}" + (f" ^ ({flip})" if flip else ""))
    src += ["        " + line for line in body]
    namespace = {f"T{k}": bytes(48 + (v >> k & 1) for v in range(256)) for k in range(b)}
    exec(compile("\n".join(src), f"<sliced tally mod {n}>", "exec"), namespace)
    return namespace["tally"]
