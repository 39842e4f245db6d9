"""Balanced Steinhaus triangles over Z/nZ.

A sequence of residues mod n generates a triangle of iterated adjacent
sums.  This package decides when such triangles are balanced (every residue
equally frequent), constructs balanced ones from arithmetic progressions
for odd n, classifies the even-modulus progressions exhaustively, and
cross-checks everything against brute-force search.

The namespace is lazy: `_MODULE_OF` maps each public name to the submodule
that defines it, and a submodule is imported only when one of its names, or
the submodule itself, is first looked up on the package (PEP 562).  So
`from steinhaus import alpha` loads the order functions alone, and a CLI call
loads only what its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_MODULE_OF = {
    name: module
    for module, names in [
        ("admissible", "AdmissibleClasses admissible_classes coverage_fraction is_admissible"),
        ("errors", "BudgetExceeded DEFAULT_MAX_STATES EvenModulus IndexOutOfRange LengthTooShort"
                   " NotADivisor NotCoprime NotInvertible SteinhausError UnsupportedLength UsageError"),
        ("orders", "alpha beta factorize invert omega radical"),
        ("progressions", "ArithmeticProgression construct_balanced primitive_progression"),
        ("search", "SearchBudget SearchReport brute_force_balanced classify_even_progressions"
                   " molluzzo_probe"),
        ("sequences", "MultiplicityVector Sequence Triangle balanced_terms derive derive_iterated"
                      " is_antisymmetric is_balanced multiplicities project triangle triangle_rows"),
    ]
    for name in names.split()
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF.values():
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULE_OF.values()})
