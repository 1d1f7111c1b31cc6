"""Exception types shared across the package, the number checks of configs, and text reading.

A ``RuleBoostError`` about a line of a file carries that ``line``.  A config
checks its fields when it is built, so a config that exists is valid.
"""

import math
from numbers import Integral


class RuleBoostError(Exception):
    """Base class for all errors raised by this package; a given ``line`` prefixes the message."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(RuleBoostError):
    """Data does not conform to its attribute/label schema."""


class ConfigError(RuleBoostError):
    """Invalid training or generation configuration."""


def _numbers(config, names):
    """(name, number) for each number in the fields; a field holds one, or a tuple or list."""
    for name in names:
        value = getattr(config, name)
        for number in value if isinstance(value, (tuple, list)) else (value,):
            yield name, number


def check_finite(config, *names: str) -> None:
    """Raise ConfigError naming the first of ``config``'s fields that holds a non-finite number.

    NaN would pass every range check, since each comparison with it is false.
    """
    for name, number in _numbers(config, names):
        if not math.isfinite(number):
            raise ConfigError(f"{name} must be a finite number, not {number!r}")


def check_integer(config, *names: str) -> None:
    """Raise ConfigError naming the first of ``config``'s fields that holds a non-integer.

    Booleans are rejected too: ``True`` would pass as the count 1.
    """
    for name, number in _numbers(config, names):
        if isinstance(number, bool) or not isinstance(number, Integral):
            raise ConfigError(f"{name} must be an integer, not {number!r}")


class SolverError(RuleBoostError):
    """The head linear system could not be solved."""


class InductionError(RuleBoostError):
    """Rule refinement was invoked on invalid input."""


class ParseError(RuleBoostError):
    """A file could not be parsed."""


class UnsupportedVersionError(ParseError):
    """A serialized document declares a format version we do not support."""


def read_text(path, lines: bool = False) -> str | list[str]:
    """The whole of a UTF-8 text file; one that is not UTF-8 raises ParseError naming it.

    With ``lines``, its lines instead, each split after a ``\\r\\n``, ``\\r`` or ``\\n``, which
    it keeps.
    """
    with open(path, "r", encoding="utf-8", newline="" if lines else None) as handle:
        try:
            return handle.readlines() if lines else handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
