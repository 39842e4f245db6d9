"""Domain errors raised across the library.

The CLI reports these by class name and exits with status 2, so the names
are part of the external contract.
"""


class SteinhausError(Exception):
    """Base class for every domain error in this package."""


class LengthTooShort(SteinhausError):
    """The sequence has too few terms for the requested operation."""


class IndexOutOfRange(SteinhausError):
    """A row, column, or derivation index falls outside the triangle."""


class NotADivisor(SteinhausError):
    """The projection target does not divide the modulus."""


class NotPrime(SteinhausError):
    """A prime was required."""


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
