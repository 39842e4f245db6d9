"""The text drawing of a triangle that the CLI's `triangle` command prints.

It has its own module, as steinhaus._sliced does: with no bytecode cache each
CLI call compiles the modules it imports, and of the calls that import
steinhaus.sequences only `triangle` draws.
"""

from .sequences import _lane_width, _rows


def render(terms, n: int) -> str:
    """The drawing of the triangle of `terms` mod n, its rows read off `_rows`.

    Every cell is right-justified to the width of n - 1, cells are one space
    apart, and row i (from 0) is indented by i * (width + 1) // 2 spaces, so
    the rows are centred under each other.
    """
    m = len(terms)
    width = max(len(str(n - 1)), 1)
    step = width + 1
    if _lane_width(n) != 1:  # rows are tuples: join the cells, each formatted once
        if n <= m * (m + 1) // 2:
            cells = [str(v).rjust(width) for v in range(n)]
        else:  # more residues than entries: format only those that occur
            cells = {v: str(v).rjust(width) for row in _rows(terms, n) for v in row}
        return "\n".join(" " * (i * step // 2) + " ".join([cells[v] for v in row])
                         for i, row in enumerate(_rows(terms, n)))
    # Rows are bytes: table c maps a residue to character c of its cell, and
    # a row's translation by it fills every step-th byte of its line from c on.
    tables = ["".join(str(v).rjust(width)[c] for v in range(n)).encode().ljust(256)
              for c in range(width)]
    out = bytearray(b" ") * (sum(i * step // 2 for i in range(m)) + step * m * (m + 1) // 2)
    start = 0
    for i, row in enumerate(_rows(terms, n)):
        start += i * step // 2
        end = start + len(row) * step
        for c, table in enumerate(tables):
            out[start + c : end : step] = row.translate(table)
        out[end - 1] = 10  # the newline after the row's last cell
        start = end
    del out[-1]
    return out.decode()
