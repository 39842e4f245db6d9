"""Command line interface.

One subcommand per library area: triangle, derive, balanced, alpha, beta,
admissible, construct, search, classify-even, probe.  Output goes to stdout
as text (default) or JSON (--format json); JSON field names are stable for
scripting.  Exit status: 0 on success, 1 on usage errors, 2 on domain
errors, whose class name appears in the diagnostic, and 3 on internal
errors, with the traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .admissible import admissible_classes
from .errors import SteinhausError
from .orders import alpha, beta
from .progressions import _construction
from .search import (
    DEFAULT_MAX_STATES,
    SearchBudget,
    brute_force_balanced,
    classify_even_progressions,
    molluzzo_probe,
)
from .sequences import (
    Sequence,
    Triangle,
    derive,
    derive_iterated,
    multiplicities,
    triangle,
)

MAX_STATES_ENV = "STEINHAUS_MAX_STATES"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, but 2 is reserved for
    # domain errors here, so usage problems are routed through run().
    def error(self, message):
        raise _UsageError(message)


def render_triangle(t: Triangle) -> str:
    """Center the rows under each other, the way the triangle is drawn."""
    width = max(len(str(t.modulus - 1)), 1)
    lines = []
    for i, row in enumerate(t.rows):
        pad = " " * ((i * (width + 1)) // 2)
        lines.append(pad + " ".join(str(v).rjust(width) for v in row.terms))
    return "\n".join(lines)


def _max_states(args) -> int:
    if args.max_states is not None:
        return args.max_states
    return int(os.environ.get(MAX_STATES_ENV, DEFAULT_MAX_STATES))


def _counts_line(counts) -> str:
    return "multiplicities: " + ",".join(str(c) for c in counts)


def _cmd_triangle(args):
    t = triangle(Sequence.from_text(args.n, args.seq))
    payload = {"n": t.modulus, "m": t.height, "rows": [list(r.terms) for r in t.rows]}
    return payload, render_triangle(t)


def _cmd_derive(args):
    seq = Sequence.from_text(args.n, args.seq)
    out = derive(seq) if args.i == 1 else derive_iterated(seq, args.i)
    return {"n": out.modulus, "m": len(out), "seq": list(out.terms)}, out.to_text()


def _cmd_balanced(args):
    seq = Sequence.from_text(args.n, args.seq)
    mv = multiplicities(seq)
    ok = mv.is_constant()
    payload = {
        "n": seq.modulus,
        "m": len(seq),
        "balanced": ok,
        "multiplicities": list(mv.counts),
    }
    return payload, f"balanced: {'yes' if ok else 'no'}\n{_counts_line(mv.counts)}"


def _cmd_alpha(args):
    value = alpha(args.n)
    return {"n": args.n, "alpha": value}, str(value)


def _cmd_beta(args):
    value = beta(args.n)
    return {"n": args.n, "beta": value}, str(value)


def _cmd_admissible(args):
    ac = admissible_classes(args.n)
    payload = {"n": args.n, "period": ac.period, "classes": list(ac.residues)}
    lines = [
        f"period: {ac.period}",
        "classes: " + ",".join(str(r) for r in ac.residues),
    ]
    if args.max is not None:
        lengths = [m for m in range(1, args.max + 1) if m in ac]
        payload["lengths"] = lengths
        lines.append("lengths: " + ",".join(str(m) for m in lengths))
    return payload, "\n".join(lines)


def _cmd_construct(args):
    ap = _construction(args.n, args.m, args.d, args.family, args.a)
    seq = ap.to_sequence()
    mv = ap.multiplicities()
    payload = {
        "n": args.n,
        "m": args.m,
        "seq": list(seq.terms),
        "balanced": mv.is_constant(),
        "multiplicities": list(mv.counts),
    }
    return payload, f"{seq.to_text()}\n{_counts_line(mv.counts)}"


def _cmd_search(args):
    budget = SearchBudget(max_states=_max_states(args), workers=args.workers)
    report = brute_force_balanced(args.n, args.m, budget, count_only=args.count_only)
    payload = {
        "n": args.n,
        "m": args.m,
        "found": [list(s.terms) for s in report.found],
        "count": report.count,
        "states_examined": report.states_examined,
    }
    lines = [s.to_text() for s in report.found]
    lines.append(f"count: {report.count}")
    lines.append(f"states_examined: {report.states_examined}")
    return payload, "\n".join(lines)


def _cmd_classify_even(args):
    aps = classify_even_progressions(args.n, args.max_m)
    payload = {
        "n": args.n,
        "count": len(aps),
        "found": [list(ap.to_sequence().terms) for ap in aps],
    }
    lines = [
        f"m={ap.length} start={ap.start} step={ap.step}: {ap.to_sequence().to_text()}"
        for ap in aps
    ]
    lines.append(f"count: {len(aps)}")
    return payload, "\n".join(lines)


def _cmd_probe(args):
    budget = SearchBudget(max_states=_max_states(args))
    exists = molluzzo_probe(args.n, args.m, budget)
    return {"n": args.n, "m": args.m, "balanced": exists}, "yes" if exists else "no"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="steinhaus",
        description="Balanced Steinhaus triangles over Z/nZ.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--n", type=int, required=True, help="modulus")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        p.set_defaults(handler=handler)
        return p

    p = add("triangle", _cmd_triangle, "print the triangle generated by a sequence")
    p.add_argument("--seq", required=True, help="comma-separated terms, reduced mod n")

    p = add("derive", _cmd_derive, "print the i-th derived sequence")
    p.add_argument("--seq", required=True, help="comma-separated terms, reduced mod n")
    p.add_argument("--i", type=int, default=1, help="number of derivation steps")

    p = add("balanced", _cmd_balanced, "check balance and print the multiplicities")
    p.add_argument("--seq", required=True, help="comma-separated terms, reduced mod n")

    add("alpha", _cmd_alpha, "order of 2^n in the units mod odd n")
    add("beta", _cmd_beta, "least e with 2^(e*n) = +-1 mod odd n")

    p = add("admissible", _cmd_admissible, "residue classes of admissible lengths")
    p.add_argument("--max", type=int, help="also list admissible lengths up to this bound")

    p = add("construct", _cmd_construct, "build a balanced progression sequence")
    p.add_argument("--m", type=int, required=True, help="sequence length")
    p.add_argument("--d", type=int, default=1, help="progression step (default 1)")
    p.add_argument(
        "--family",
        choices=("beta", "alpha"),
        default="beta",
        help="construction family (default beta)",
    )
    p.add_argument("--a", type=int, help="progression start (alpha family only)")

    p = add("search", _cmd_search, "exhaustively list balanced sequences of one length")
    p.add_argument("--m", type=int, required=True, help="sequence length")
    p.add_argument("--count-only", action="store_true", help="report the count, drop the list")
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p.add_argument(
        "--max-states",
        type=int,
        help=f"state cap (default: ${MAX_STATES_ENV} or {DEFAULT_MAX_STATES})",
    )

    p = add("classify-even", _cmd_classify_even, "balanced progressions over an even modulus")
    p.add_argument("--max-m", type=int, default=40, help="length bound (default 40)")

    p = add("probe", _cmd_probe, "does any balanced sequence of this length exist")
    p.add_argument("--m", type=int, required=True, help="sequence length")
    p.add_argument(
        "--max-states",
        type=int,
        help=f"state cap for the search fallback (default: ${MAX_STATES_ENV} or {DEFAULT_MAX_STATES})",
    )

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, text = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SteinhausError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only needed on this path; keeps start-up lean

        traceback.print_exc()
        return 3
    if args.format == "json":
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(text)
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
