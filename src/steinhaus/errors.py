"""Domain errors raised across the library, and the one usage error.

The CLI reports a domain error by class name and exits with status 2, so the
names are part of the external contract.  UsageError, the one non-domain
error, is a ValueError for an argument the library refuses; the CLI reports
it as a usage error with status 1.  _positive and _residues state the two
argument rules every module checks.
"""


class UsageError(ValueError):
    """An argument the library refuses: bad usage, not a domain result."""


def _positive(name: str, value: int) -> None:
    if value < 1:
        raise UsageError(f"{name} must be positive, got {value}")


def _residues(values, n: int) -> None:
    for t in values:
        if not 0 <= t < n:
            raise UsageError(f"{t} is not a residue mod {n}")


class SteinhausError(Exception):
    """Base class for every domain error in this package."""


class LengthTooShort(SteinhausError):
    """The sequence has too few terms for the requested operation."""


class IndexOutOfRange(SteinhausError):
    """A row, column, or derivation index falls outside the triangle."""


class NotADivisor(SteinhausError):
    """The projection target does not divide the modulus."""


class NotCoprime(SteinhausError):
    """The arguments share a common factor."""


class EvenModulus(SteinhausError):
    """The operation is only defined for odd moduli."""


class NotInvertible(SteinhausError):
    """The progression step shares a factor with the modulus."""


class UnsupportedLength(SteinhausError):
    """No known construction covers this length; existence stays open."""


class BudgetExceeded(SteinhausError):
    """The work asked for is larger than its budget allows."""


# A search's default state cap; kept here so that the CLI's --help needs no search.py.
DEFAULT_MAX_STATES = 10**8
