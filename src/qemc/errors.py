"""Exception hierarchy shared across the package.

Every error raised on purpose derives from :class:`QemcError`, so callers can
catch one base class.  Config/precondition violations and runtime failures are
kept as distinct subtrees because the CLI maps them to different exit codes.
"""

import contextlib
import numbers

import numpy as np


class QemcError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(QemcError):
    """A precondition or configuration value is invalid."""


class RuntimeFailure(QemcError):
    """An operation failed at runtime despite valid configuration."""


class UnwritableOutput(ConfigError):
    """An output path names a directory, or its parent directory is missing
    or not writable."""


# -- graphs -------------------------------------------------------------------

class InvalidDegree(ConfigError):
    """Regular-graph size or degree is not a count, or violates parity (N*d
    even) or bound (d < N)."""


class GenerationFailed(RuntimeFailure):
    """Random graph generation exhausted its retry budget."""


class SizeMismatch(ConfigError):
    """A partition's or embedding's node count does not match the graph's."""


class TooLarge(ConfigError):
    """Exhaustive search's node cap or the simulator's qubit cap is exceeded."""


class InvalidBlueCount(ConfigError):
    """Requested blue-node count is outside its legal range."""


class InvalidCount(ConfigError):
    """A count is not an integer or is below its minimum, or a list of values
    is empty or repeats a value."""


class ParseError(RuntimeFailure):
    """Edge-list text could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class SelfLoop(ParseError):
    """An edge connects a node to itself."""


class DuplicateEdge(ParseError):
    """The same undirected edge appears more than once."""


# -- simulator ----------------------------------------------------------------

class ShapeMismatch(ConfigError):
    """Parameter vector or ansatz shape is inconsistent with its target."""


# -- qemc core ----------------------------------------------------------------

class HistogramTooShort(ConfigError):
    """Probability histogram has fewer entries than the graph has nodes."""


class DegenerateDenominator(ConfigError):
    """A cut-ratio denominator vanishes (cut_star <= 0 or M == 2*cut_star)."""


def check_count(name, value, minimum=1, error=InvalidCount):
    """Return ``value`` if it is an integer of at least ``minimum``, else raise
    ``error``; Python and numpy integers count as integers, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return value


def check_finite(name, value, error=ConfigError):
    """Return ``value`` if it is a real number, or an array-like of them, with no
    NaN or infinity, else raise ``error``; bools and complex numbers, numpy's too,
    are not real numbers."""
    # Integer and float kinds only: a string, None or an int too large for a
    # float arrives as another kind, and a ragged sequence as no array at all.
    with contextlib.suppress(ValueError):
        if (array := np.asarray(value)).dtype.kind in "iuf" and np.isfinite(array).all():
            return value
    raise error(f"{name} must be finite, got {value}")
