"""Command line interface.

One subcommand per library area, each a row of the command table below.
Output goes to stdout as text (default) or JSON (--format json); JSON field
names are stable for scripting.  Exit status: 0 on success, 1 on a
UsageError (a bad argument), 2 on domain errors, whose class name appears in
the diagnostic, 3 on any other exception, with the traceback on stderr, and
141 (128 + SIGPIPE) when stdout is closed before the output is written.

Each call is a fresh process, so start-up counts.  A handler imports the
library module it runs when it is called, json is imported only for JSON
output, and the package namespace is lazy (see steinhaus/__init__.py), so a
call loads little beyond argparse and what its subcommand needs.
"""

import argparse
import os
import sys

from .errors import DEFAULT_MAX_STATES, BudgetExceeded, SteinhausError, UsageError, _positive
from .orders import alpha, beta

MAX_STATES_ENV = "STEINHAUS_MAX_STATES"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, but 2 is reserved for domain
    # errors here, so usage problems are raised for run() as bad input.
    def error(self, message):
        raise UsageError(message)


def render_triangle(t) -> str:
    """Center the rows of Triangle t under each other, the way it is drawn."""
    from ._render import render
    return render(t._top.terms, t.modulus)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _max_states(args) -> int:
    """--max-states where the command has it, else $STEINHAUS_MAX_STATES, else the default.

    A cap that is not an integer, or is below 1, is bad usage.
    """
    max_states = getattr(args, "max_states", None)
    if max_states is None:
        try:
            max_states = int(os.environ.get(MAX_STATES_ENV, DEFAULT_MAX_STATES))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    _positive("max_states", max_states)
    return max_states


def _check_budget(args, cost: int, what: str) -> None:
    """Refuse a command whose cost passes the state cap, before any of its work."""
    cap = _max_states(args)
    if cost > cap:
        raise BudgetExceeded(f"{what} exceed the budget of {cap}")


def _sequence(args):
    """The --seq sequence, refused when its triangle's m(m+1)/2 entries pass the cap."""
    from .sequences import Sequence
    seq = Sequence.from_text(args.n, args.seq)
    m = len(seq)
    _check_budget(args, m * (m + 1) // 2, f"{m}*{m + 1}/2 entries")
    return seq


def _verdict(mv) -> tuple[dict, str]:
    """A triangle's balance and residue counts, as payload fields and a text line."""
    fields = {"balanced": mv.is_constant(), "multiplicities": list(mv.counts)}
    return fields, f"multiplicities: {_csv(mv.counts)}"


def _cmd_triangle(args):
    # Streams the rows into the output text, the JSON too: a row is written
    # as json.dumps would write its list, with no list built.  A residue's
    # digits are looked up where the table is no longer than the top row.
    seq = _sequence(args)
    terms, n = seq.terms, seq.modulus
    if args.format == "text":
        from ._render import render
        return None, render(terms, n)
    from .sequences import _rows
    cell = [str(v) for v in range(n)].__getitem__ if n <= len(terms) else str
    rows = ",".join(f"[{','.join(map(cell, row))}]" for row in _rows(terms, n))
    return None, f'{{"n":{n},"m":{len(terms)},"rows":[{rows}]}}'


def _cmd_derive(args):
    # Rows 1..i + 1 are built, so the cost is (i + 1)*m entries, charged once
    # i is known to be in range; out of range, the library refuses it at once.
    from .sequences import Sequence, derive, derive_iterated
    seq = Sequence.from_text(args.n, args.seq)
    m = len(seq)
    if 0 <= args.i < m:
        _check_budget(args, (args.i + 1) * m, f"({args.i} + 1)*{m} entries")
    out = derive(seq) if args.i == 1 else derive_iterated(seq, args.i)
    return {"n": out.modulus, "m": len(out), "seq": list(out.terms)}, out.to_text()


def _cmd_balanced(args):
    from .sequences import multiplicities
    seq = _sequence(args)
    _check_budget(args, args.n, f"{args.n} residue counts")
    fields, counts = _verdict(multiplicities(seq))
    payload = {"n": seq.modulus, "m": len(seq), **fields}
    return payload, f"balanced: {'yes' if fields['balanced'] else 'no'}\n{counts}"


def _cmd_order(args):
    # Looked up by name on each call, so a patched alpha or beta is honoured.
    value = {"alpha": alpha, "beta": beta}[args.command](args.n)
    return {"n": args.n, args.command: value}, str(value)


def _cmd_admissible(args):
    from .admissible import admissible_classes
    ac = admissible_classes(args.n)
    payload = {"n": args.n, "period": ac.period, "classes": list(ac.residues)}
    lines = [f"period: {ac.period}", f"classes: {_csv(ac.residues)}"]
    if args.max is not None:
        cost = (args.max // ac.period + 1) * len(ac.residues)
        _check_budget(args, cost, f"up to {cost} admissible lengths")
        payload["lengths"] = list(ac.lengths(args.max))
        lines.append(f"lengths: {_csv(payload['lengths'])}")
    return payload, "\n".join(lines)


def _cmd_construct(args):
    from .progressions import _construction
    ap = _construction(args.n, args.m, args.d, args.family, args.a)
    # The closed-form tally takes a step per row and fewer than n per distinct
    # row tail (at most m), and m terms are printed: m*(n + 1) bounds both.
    _check_budget(args, args.m * (args.n + 1), f"{args.m}*({args.n} + 1) steps")
    seq = ap.to_sequence()
    fields, counts = _verdict(ap.multiplicities())
    payload = {"n": args.n, "m": args.m, "seq": list(seq.terms), **fields}
    return payload, f"{seq.to_text()}\n{counts}"


def _cmd_search(args):
    from .search import SearchBudget, brute_force_balanced
    budget = SearchBudget(_max_states(args), args.workers)
    report = brute_force_balanced(args.n, args.m, budget, count_only=args.count_only)
    payload = {
        "n": args.n,
        "m": args.m,
        "found": [list(s.terms) for s in report.found],
        "count": report.count,
        "states_examined": report.states_examined,
    }
    lines = [s.to_text() for s in report.found]
    lines += [f"count: {report.count}", f"states_examined: {report.states_examined}"]
    return payload, "\n".join(lines)


def _cmd_classify_even(args):
    from .search import SearchBudget, classify_even_progressions
    aps = classify_even_progressions(args.n, args.max_m, SearchBudget(_max_states(args)))
    seqs = [ap.to_sequence() for ap in aps]
    payload = {"n": args.n, "count": len(aps), "found": [list(s.terms) for s in seqs]}
    lines = [
        f"m={ap.length} start={ap.start} step={ap.step}: {s.to_text()}"
        for ap, s in zip(aps, seqs)
    ]
    return payload, "\n".join([*lines, f"count: {len(aps)}"])


def _cmd_probe(args):
    from .search import SearchBudget, molluzzo_probe
    exists = molluzzo_probe(args.n, args.m, SearchBudget(_max_states(args)))
    return {"n": args.n, "m": args.m, "balanced": exists}, "yes" if exists else "no"


# Flags that several subcommands take; every subcommand takes --n and --format.
_N = ("--n", dict(type=int, required=True, help="modulus"))
_FORMAT = ("--format", dict(choices=("text", "json"), default="text", help="output format"))
_SEQ = ("--seq", dict(required=True, help="comma-separated terms, reduced mod n"))
_M = ("--m", dict(type=int, required=True, help="sequence length"))
_MAX_STATES = (
    "--max-states",
    dict(type=int, help=f"state cap (default: ${MAX_STATES_ENV} or {DEFAULT_MAX_STATES})"),
)

# Every subcommand as (name, help, flags, handler), in --help order; each
# flag is (name, add_argument options).  A handler returns the JSON payload
# and the text output, or no payload and the output it wrote for the format.
_COMMANDS = (
    ("triangle", "print the triangle generated by a sequence", [_SEQ], _cmd_triangle),
    ("derive", "print the i-th derived sequence", [
        _SEQ,
        ("--i", dict(type=int, default=1, help="number of derivation steps")),
    ], _cmd_derive),
    ("balanced", "check balance and print the multiplicities", [_SEQ], _cmd_balanced),
    ("alpha", "order of 2^n in the units mod odd n", [], _cmd_order),
    ("beta", "least e with 2^(e*n) = +-1 mod odd n", [], _cmd_order),
    ("admissible", "residue classes of admissible lengths", [
        ("--max", dict(type=int, help="also list admissible lengths up to this bound")),
    ], _cmd_admissible),
    ("construct", "build a balanced progression sequence", [
        _M,
        ("--d", dict(type=int, default=1, help="progression step (default 1)")),
        ("--family", dict(
            choices=("beta", "alpha"), default="beta", help="construction family (default beta)"
        )),
        ("--a", dict(type=int, help="progression start (alpha family only)")),
    ], _cmd_construct),
    ("search", "exhaustively list balanced sequences of one length", [
        _M,
        ("--count-only", dict(action="store_true", help="report the count, drop the list")),
        ("--workers", dict(type=int, default=1, help="worker processes (default 1)")),
        _MAX_STATES,
    ], _cmd_search),
    ("classify-even", "balanced progressions over an even modulus", [
        ("--max-m", dict(type=int, default=40, help="length bound (default 40)")),
    ], _cmd_classify_even),
    ("probe", "does any balanced sequence of this length exist", [_M, _MAX_STATES], _cmd_probe),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="steinhaus",
        description="Balanced Steinhaus triangles over Z/nZ.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text, flags, handler in _COMMANDS:
        p = sub.add_parser(name, help=help_text, description=help_text)
        for flag, options in (_N, _FORMAT, *flags):
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, text = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SteinhausError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only needed on this path; keeps start-up lean

        traceback.print_exc()
        return 3
    if args.format == "json" and payload is not None:
        import json

        text = json.dumps(payload, separators=(",", ":"))
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # interpreter exit finds nowhere to fail, and exit as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
