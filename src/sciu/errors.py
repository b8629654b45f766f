"""Exception hierarchy shared across the package."""


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
