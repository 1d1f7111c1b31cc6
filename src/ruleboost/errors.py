"""Exception types shared across the package, the field check of configs, and text reading.

A ``RuleBoostError`` about a line of a file carries that ``line``.  A config
checks its fields' declared types when it is built, so a config that exists is valid.
"""

import math
from functools import cache
from numbers import Integral, Real
from typing import get_args, get_origin, get_type_hints


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


_declared_types = cache(get_type_hints)
_KINDS = {int: (Integral, "an integer"), float: (Real, "a finite number"),
          bool: (bool, "a boolean"), str: (str, "a string")}


def is_finite(number) -> bool:
    """Whether a real number is finite; an int too large for a float is not."""
    try:
        return math.isfinite(number)
    except OverflowError:  # an int too large for a float
        return False


def check_fields(config) -> None:
    """Raise ConfigError naming the first of ``config``'s fields that does not hold its declared type.

    A number is not a bool (``True`` would pass as the count 1), a float is finite (NaN passes
    every range check), and a ``tuple[t, ...]`` field holds a tuple or list of ``t``.
    """
    for name, kind in _declared_types(type(config)).items():
        value = getattr(config, name)
        items = (value,)
        if get_origin(kind) is tuple:
            if not isinstance(value, (tuple, list)):
                raise ConfigError(f"{name} must be a tuple or list, not {value!r}")
            kind, items = get_args(kind)[0], value
        within, noun = _KINDS[kind]
        for item in items:
            if (not isinstance(item, within) or kind is not bool and isinstance(item, bool)
                    or kind is float and not is_finite(item)):
                raise ConfigError(f"{name} must be {noun}, not {item!r}")


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
