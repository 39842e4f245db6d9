"""Balanced Steinhaus triangles over Z/nZ.

A sequence of residues mod n generates a triangle of iterated adjacent
sums.  This package decides when such triangles are balanced (every residue
equally frequent), constructs balanced ones from arithmetic progressions
for odd n, classifies the even-modulus progressions exhaustively, and
cross-checks everything against brute-force search.
"""

from .admissible import (
    AdmissibleClasses,
    admissible_classes,
    coverage_fraction,
    is_admissible,
)
from .errors import (
    BudgetExceeded,
    EvenModulus,
    IndexOutOfRange,
    LengthTooShort,
    NotADivisor,
    NotCoprime,
    NotInvertible,
    NotPrime,
    SteinhausError,
    UnsupportedLength,
)
from .orders import (
    alpha,
    beta,
    factorize,
    invert,
    omega,
    radical,
)
from .progressions import (
    ArithmeticProgression,
    construct_balanced,
    primitive_progression,
)
from .search import (
    DEFAULT_MAX_STATES,
    SearchBudget,
    SearchReport,
    brute_force_balanced,
    classify_even_progressions,
    molluzzo_probe,
)
from .sequences import (
    MultiplicityVector,
    Sequence,
    Triangle,
    balanced_terms,
    derive,
    derive_iterated,
    is_antisymmetric,
    is_balanced,
    multiplicities,
    project,
    triangle,
    triangle_rows,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleClasses",
    "ArithmeticProgression",
    "BudgetExceeded",
    "DEFAULT_MAX_STATES",
    "EvenModulus",
    "IndexOutOfRange",
    "LengthTooShort",
    "MultiplicityVector",
    "NotADivisor",
    "NotCoprime",
    "NotInvertible",
    "NotPrime",
    "SearchBudget",
    "SearchReport",
    "Sequence",
    "SteinhausError",
    "Triangle",
    "UnsupportedLength",
    "admissible_classes",
    "alpha",
    "balanced_terms",
    "beta",
    "brute_force_balanced",
    "classify_even_progressions",
    "construct_balanced",
    "coverage_fraction",
    "derive",
    "derive_iterated",
    "factorize",
    "invert",
    "is_admissible",
    "is_antisymmetric",
    "is_balanced",
    "molluzzo_probe",
    "multiplicities",
    "omega",
    "primitive_progression",
    "project",
    "radical",
    "triangle",
    "triangle_rows",
]
