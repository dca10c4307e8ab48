"""The two failures the CLI maps to their own exit codes, the rules the
fits share for raising one or leaving a parameter unresolved, the one
range rule for the numbers the program takes in, and the one intake for
the data columns every fit and scan takes in.

They live apart from the integrator and the fits that raise them, so that
`cli.main` can catch them without importing either, and they load no
numpy, so neither do the CLI core and the plain-Python fits.
"""

import math
from dataclasses import asdict
from itertools import chain

# A fitted decay slower than this many sampled spans cannot be told from a
# straight line by the data, so the lifetime and trap fits reject it.
_MAX_DECAY_SPANS = 100

# The model multiplies the config's constants, and the fits square their
# data, weight it and sum the products.  Values no larger than this, and
# spreads, weights and positive constants no smaller than its inverse,
# keep those products normal floats, so a run either computes at full
# precision or refuses its input.
_MAX_MAGNITUDE = 1e100

# A lifetime's amplitude or a hole's depth is detected when it exceeds
# this many sigma; below it the fits leave the lifetime, or the hole's
# center and width, unresolved.
_DETECTION_SIGMAS = 3


def _check_within(lo=-_MAX_MAGNITUDE, **values):
    """Raise ValueError naming the first value outside [lo, _MAX_MAGNITUDE]
    (NaN included), the range whose products stay normal floats.

    A value is a number or a 1-D sequence of numbers (a list, a tuple or an
    array, read through its `tolist`), each of whose elements must lie in
    the range.
    """
    for name, value in values.items():
        if hasattr(value, "tolist"):
            value = value.tolist()
        for v in value if isinstance(value, (list, tuple)) else [value]:
            if not lo <= v <= _MAX_MAGNITUDE:
                raise ValueError(f"{name} must be in [{lo:g}, "
                                 f"{_MAX_MAGNITUDE:g}], got {v:g}")


def _samples(names, *columns, min_points=1):
    """The columns as lists of floats, checked to be 1-D (lists, tuples or
    arrays, read through their `tolist`), of equal length, at least
    `min_points` long and finite; the ValueError raised otherwise names
    them by `names`."""
    try:
        lists = [list(map(float, c.tolist() if hasattr(c, "tolist") else c))
                 for c in columns]
    except TypeError:
        lists = []
    lengths = {len(c) for c in lists}
    if len(lengths) != 1:
        raise ValueError(f"{names} must be 1-D arrays of equal length")
    n = lengths.pop()
    if n < min_points:
        raise ValueError(f"{names}: {n or 'no'} points; need at least "
                         f"{min_points}")
    if not all(map(math.isfinite, chain(*lists))):
        raise ValueError(f"{names} must be finite")
    return lists


def _converged(fit, message):
    """The fit's record if its search converged; else FitError with
    `message`, the record's fields its diagnostics."""
    if not fit.converged:
        raise FitError(message, diagnostics=asdict(fit))
    return fit


class ConvergenceError(RuntimeError):
    """Grid refinement hit its cap without meeting the tolerance."""

    def __init__(self, message, best_result=None):
        super().__init__(message)
        self.best_result = best_result


class FitError(RuntimeError):
    """A fit could not produce a usable parameter estimate."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
