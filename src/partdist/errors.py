"""Exception hierarchy shared across the package.

Three failure classes are distinguished so that callers (and the CLI exit
codes) can tell bad input, refused problem sizes, and numerical breakdown
apart.
"""

import operator

__all__ = ["PartdistError", "DomainError", "SizeLimitError", "NumericalError", "ClampWarning"]


class PartdistError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PartdistError, ValueError):
    """Invalid input: malformed configuration, non-unitary matrix, bad shape."""


class SizeLimitError(PartdistError, ValueError):
    """Problem size beyond the guard rails (factorial/binomial blow-up)."""


class NumericalError(PartdistError, RuntimeError):
    """Numerical invariant violated (e.g. a rate significantly below zero)."""


class ClampWarning(UserWarning):
    """Raw rates slightly below zero, within their rounding bound, were
    clamped to 0: ``count`` of them in one call, down to ``lowest``."""

    def __init__(self, count: int, lowest: float):
        super().__init__(f"clamping {count} slightly negative rate(s), down to {lowest}, to 0")
        self.count = count
        self.lowest = lowest


def _as_count(value, what: str) -> int:
    """A count (of particles, bins, channels, ...) as an int, refusing one
    that is not an integer with :class:`DomainError`: 4.0 is not read as 4,
    nor 6.5 as a partition of 7.  NumPy integers are accepted."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise DomainError(f"the {what} count must be an integer: {value!r}") from exc
