"""Exception hierarchy shared across the package, and a config's type check."""

from dataclasses import fields


class SciuError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SciuError):
    """Invalid dimensions, hyperparameters, or incompatible shapes."""


class ValidationError(SciuError):
    """Data violates a dataset or config invariant."""


class ParseError(SciuError):
    """Unreadable or malformed input file."""


class LogicError(SciuError):
    """API misuse, e.g. recording a score for a pruned sample."""


class EvaluationError(SciuError):
    """Oracle fields required for evaluation are missing."""


class DegenerateRunError(SciuError):
    """A run reached an unusable state, e.g. every sample pruned."""


class NumericError(SciuError):
    """Non-finite loss or parameters during training."""


def check_field_types(config, error: type) -> None:
    """Raise `error` for a field of the dataclass `config` not of its default's
    type: an int field takes exactly `int` (no bool, float or numpy integer), a
    float field an int or a float but no bool, a str field a `str`."""
    for f in fields(config):
        kind, v = type(f.default), getattr(config, f.name)
        ok = {int: type(v) is int, str: isinstance(v, str),
              float: type(v) is not bool and isinstance(v, (int, float))}
        if not ok.get(kind, True):
            raise error(f"{f.name} must be {kind.__name__}, not {type(v).__name__}")
