"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`BilodyneError`, so callers can catch the package's own
diagnostics separately from genuine bugs.
"""

from __future__ import annotations


class BilodyneError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(BilodyneError):
    """A field/oscillator/detector description violates a structural rule."""


class Unsupported(BilodyneError):
    """The requested quantity is not defined for this input (by design)."""


class UnknownMode(BilodyneError):
    """A squeeze pair references a frequency with no matching mode."""


class WeakLO(BilodyneError):
    """Local oscillator is not strong enough for the strong-LO expansion."""


class NonClassicalInput(BilodyneError):
    """The semiclassical rate picture does not apply to this state."""


class ConfigViolation(BilodyneError):
    """Measurement configuration breaks a validity constraint."""


class TooShort(BilodyneError):
    """Record too short for the requested spectral estimate."""


class Unresolved(BilodyneError):
    """Spectral feature cannot be resolved on this frequency grid."""


class ParseError(BilodyneError):
    """Config file line could not be parsed."""


class UnknownKey(BilodyneError):
    """Config file contains a key this package does not define."""
