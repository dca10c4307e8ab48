"""Ordinary least-squares line with a Student-t slope interval.

A line fit handles a few dozen points, so this module is plain Python on
`math` and a `fit linear` job loads no numpy.  Every sum is a `math.fsum`,
and the moments are taken about the means, so each sum is correctly
rounded and the fit does not depend on the order of the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

from .csvio import _floats
from .errors import _MAX_MAGNITUDE


@dataclass
class LinearFit:
    """Ordinary least squares line with a t-distribution slope interval."""

    slope: float
    intercept: float
    confidence: float
    slope_ci: float
    slope_err: float
    intercept_err: float
    residual: float

    def to_dict(self):
        return {
            "slope": self.slope, "intercept": self.intercept,
            "confidence": self.confidence, "slope_ci": self.slope_ci,
            "slope_err": self.slope_err, "intercept_err": self.intercept_err,
            "residual_sse": self.residual,
        }

    def covers(self, true_slope) -> bool:
        return abs(true_slope - self.slope) <= self.slope_ci


def _t_quantile(dof, level):
    """Quantile of Student's t with integer `dof` at `level` in [0.5, 1).

    Bisects theta = arctan(t / sqrt(dof)) to float resolution on the exact
    series for P(|T| <= t) (Abramowitz & Stegun 26.7.3 odd, 26.7.4 even).
    """
    # The series is sum_j c_j cos(theta)^p_j with p_j = 2j + dof % 2,
    # c_0 = 1 and c_j = c_(j-1) (1 - 1/p_j).
    powers = range(dof % 2, dof - 1, 2)
    coefs = list(accumulate((1.0 - 1.0 / p for p in powers[1:]), mul,
                            initial=1.0))[:len(powers)]
    target = 2.0 * level - 1.0
    lo, hi = 0.0, math.pi / 2
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        cos_powers = map(pow, repeat(math.cos(mid)), powers)
        series = math.sin(mid) * math.fsum(map(mul, coefs, cos_powers))
        if (2 / math.pi * (mid + series) if dof % 2 else series) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(dof) * math.tan(mid)


def fit_linear_ci(x, y, confidence=0.80) -> LinearFit:
    """Ordinary least squares with a t-distribution slope interval.

    x and y are equal-length 1-D sequences of numbers or 1-D arrays.
    """
    x, y = (_floats(v, "x and y") for v in (x, y))
    if len(x) != len(y):
        raise ValueError("x and y must be 1-D arrays of equal length")
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 points")
    if not all(map(math.isfinite, x + y)):
        raise ValueError("x and y must be finite")
    lim = _MAX_MAGNITUDE
    if max(map(abs, x + y)) > lim or any(
            0 < max(v) - min(v) < 1 / lim for v in (x, y)):
        raise ValueError(f"x and y must lie within +-{lim:g} and, unless "
                         f"constant, spread by at least {1 / lim:g}, where "
                         "their squares stay normal floats")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    # Fit on x / 2^ex, which peaks in [0.5, 1): a power of two changes no
    # bit, and s2 / sxx, which goes as (y / x)^2, then takes the scale of
    # y^2 alone, which the limits above keep a normal float.
    ex = math.frexp(max(map(abs, x)))[1]
    x = [math.ldexp(v, -ex) for v in x]
    x_mean = math.fsum(x) / n
    y_mean = math.fsum(y) / n
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    sxx = math.fsum(map(mul, dx, dx))
    if sxx == 0:
        raise ValueError("x values must not all coincide")

    slope = math.fsum(map(mul, dx, dy)) / sxx
    intercept = y_mean - slope * x_mean
    sse = math.fsum((b - (slope * a + intercept)) ** 2 for a, b in zip(x, y))
    dof = n - 2
    s2 = sse / dof
    slope_err = math.sqrt(s2 / sxx)
    intercept_err = math.sqrt(s2 * (1.0 / n + x_mean ** 2 / sxx))
    tq = _t_quantile(dof, 0.5 + confidence / 2.0)
    slope, slope_err = (math.ldexp(v, -ex) for v in (slope, slope_err))
    return LinearFit(slope=slope, intercept=intercept, confidence=confidence,
                     slope_ci=tq * slope_err, slope_err=slope_err,
                     intercept_err=intercept_err, residual=sse)
