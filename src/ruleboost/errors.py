"""Exception types shared across the package, and the finite-number check of configs."""

import math


class RuleBoostError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(RuleBoostError):
    """Data does not conform to its attribute/label schema."""


class ConfigError(RuleBoostError):
    """Invalid training or generation configuration."""


def check_finite(config, *names: str) -> None:
    """Raise ConfigError naming the first of ``config``'s fields that holds a non-finite number.

    A field holds one number or a tuple or list of them.  NaN would pass
    every range check, since each comparison with it is false.
    """
    for name in names:
        value = getattr(config, name)
        for number in value if isinstance(value, (tuple, list)) else (value,):
            if not math.isfinite(number):
                raise ConfigError(f"{name} must be a finite number, not {number!r}")


class SolverError(RuleBoostError):
    """The head linear system could not be solved."""


class InductionError(RuleBoostError):
    """Rule refinement was invoked on invalid input."""


class ParseError(RuleBoostError):
    """A file could not be parsed.

    Carries an optional 1-based line number for actionable messages.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedVersionError(ParseError):
    """A serialized document declares a format version we do not support."""
