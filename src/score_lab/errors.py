"""Exception types shared across the package, and the (s, d), (s, t) and p checks."""

from math import gcd


class ScoreLabError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(ScoreLabError, ValueError):
    """Malformed or out-of-domain argument (bad hook set, gcd != 1, ...)."""


class NotACoreError(ScoreLabError, ValueError):
    """A hook set or partition fails a required core condition."""


class UnplaceableHookError(NotACoreError):
    """A diagonal hook has no slot on the abacus grid for the given (s, d)."""


class BeadStructureError(NotACoreError):
    """Bead placement violates the contiguity rules of a core abacus."""


class InvalidPathError(ScoreLabError, ValueError):
    """A step string is not a path of the required type, or breaks constraints."""


class UnsupportedParametersError(ScoreLabError, ValueError):
    """The operation is not defined for these parameters."""


class InternalConsistencyError(ScoreLabError, RuntimeError):
    """A condition that should be impossible; indicates a bug, not bad input."""


def check_progression(s: int, d: int) -> None:
    """Raise `InvalidInputError` unless s and d are coprime positive integers."""
    if not (isinstance(s, int) and isinstance(d, int) and s >= 1 and d >= 1):
        raise InvalidInputError(f"s and d must be positive integers, got {s!r}, {d!r}")
    if gcd(s, d) != 1:
        raise InvalidInputError(f"s={s} and d={d} must be coprime")


def check_pair(s: int, t: int) -> None:
    """Raise `InvalidInputError` unless s and t are distinct coprime positive integers."""
    if not (isinstance(s, int) and isinstance(t, int) and s >= 1 and t >= 1):
        raise InvalidInputError(f"s and t must be positive integers, got {s!r}, {t!r}")
    if s == t or gcd(s, t) != 1:
        raise InvalidInputError(f"s={s} and t={t} must be distinct and coprime")


def check_progression_length(p: int) -> None:
    """Raise `InvalidInputError` unless the progression length p is an integer >= 2."""
    if not (isinstance(p, int) and p >= 2):
        raise InvalidInputError(f"progression length p must be >= 2, got {p!r}")
