"""Scan one modulus for balanced sequences of every admissible length.

For each admissible m up to --max-m, first try the explicit progression
constructions; if they do not cover m, fall back to exhaustive search, and
report `unknown` when n^m would exceed the state budget.  A modulus with no
`unknown` and no `none exist` lines has a balanced sequence at every
admissible length in the range.
"""

import argparse

from steinhaus import (
    DEFAULT_MAX_STATES,
    BudgetExceeded,
    SearchBudget,
    admissible_classes,
    molluzzo_probe,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, required=True, help="modulus")
    parser.add_argument("--max-m", type=int, default=60, help="largest length (default 60)")
    parser.add_argument(
        "--max-states",
        type=int,
        default=DEFAULT_MAX_STATES,
        help="state cap for the search fallback",
    )
    args = parser.parse_args()

    budget = SearchBudget(max_states=args.max_states)
    verdicts = {True: "balanced", False: "none exist"}
    for m in admissible_classes(args.n).lengths(args.max_m):
        try:
            verdict = verdicts[molluzzo_probe(args.n, m, budget)]
        except BudgetExceeded:
            verdict = "unknown (budget)"
        print(f"m={m}: {verdict}")


if __name__ == "__main__":
    main()
