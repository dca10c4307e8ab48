"""Exponential lifetime fit a exp(-t/tau) (+ offset) in plain Python.

A lifetime series has a few dozen points, so this module runs on `math`
and a `fit expdecay` job loads no numpy.  The fit is separable:
`gauss_newton` searches u = log(tau / span), and for each tau the
amplitude and offset come from the closed-form one- or two-column least
squares over moments about the means.  The points are sorted first
and every sum is a `math.fsum`, so the fit does not depend on their order.
Uncertainties come from the analytic Jacobian J at the optimum,
cov = s^2 (J^T J)^-1 with s^2 the residual variance, by the hole fit's
routine too, `simplex._jacobian_errors`.  A decay whose amplitude is
within 3 sigma of 0 leaves the lifetime unresolved: it gets no error bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Optional

from .csvio import _floats
from .errors import _DETECTION_SIGMAS, _MAX_DECAY_SPANS, FitError
from .simplex import _jacobian_errors, gauss_newton


@dataclass
class ExpDecayFit:
    """Result of an exponential decay fit a exp(-t/tau) (+ offset).

    The fields are the report's keys, in its order.  An error is None for
    a parameter the data do not resolve; `unresolved` names those fields.
    """

    amplitude: float
    tau_s: float
    offset: Optional[float]
    amplitude_err: Optional[float]
    tau_err_s: Optional[float]
    offset_err: Optional[float]
    unresolved: list
    residual_sse: float
    converged: bool
    iterations: int
    nfev: int


def exp_decay(t, amplitude, tau, offset=0.0):
    """The lifetime model amplitude * exp(-t/tau) + offset at each time in
    t, as a list."""
    return [amplitude * math.exp(-v / tau) + offset for v in t]


def _jacobian(t, params, t0=0.0):
    """Columns d model / d (amplitude, tau[, offset]) of the model
    amplitude * exp(-t/tau) + offset at the times t.

    `params` holds the amplitude at t0, tau and, if fitted, the offset.
    The amplitude's column comes out multiplied by exp(t0/tau), so for
    t >= t0 no exponential overflows; its error is then exp(t0/tau) times
    too small.  With t0 = 0 these are the plain derivatives.
    """
    a0, tau = params[:2]
    decay = [math.exp(-(v - t0) / tau) for v in t]
    columns = [decay, [a0 * w * (v / tau) / tau for v, w in zip(t, decay)]]
    return columns + [[1.0] * len(t)] * (len(params) - 2)


def fit_exponential(times, values, with_offset=True) -> ExpDecayFit:
    """Fit a exp(-t/tau) plus an optional constant floor.

    times and values are equal-length 1-D sequences of numbers or 1-D
    arrays, in any order.  The offset mode captures a persistent residual
    level that the decay relaxes onto instead of zero.  Gauss-Newton
    searches u = log(tau / span) from log(1/3) between the bounds the
    samples resolve, and FitError is raised when it ends on one (a decay
    complete within the shortest step between samples, or slower than
    `_MAX_DECAY_SPANS` spans) or when the amplitude at t = 0 overflows as
    the samples start many lifetimes later.  An amplitude within
    `_DETECTION_SIGMAS` sigma of 0 leaves tau_err None, "tau_s" unresolved.
    """
    t, y = (_floats(v, "times and values") for v in (times, values))
    if len(t) != len(y):
        raise ValueError("times and values must be 1-D arrays of equal "
                         "length")
    n = len(t)
    if n < 4:
        raise ValueError("need at least 4 points")
    if not all(map(math.isfinite, t + y)):
        raise ValueError("times and values must be finite")
    t, y = map(list, zip(*sorted(zip(t, y))))
    t0 = t[0]
    tspan = t[-1] - t0
    if not tspan > 0:
        raise ValueError("times must not all coincide")

    xt = [(v - t0) / tspan for v in t]
    y_scale = (max(y) - min(y)) or max(abs(max(y)), 1.0)
    yn = [v / y_scale for v in y]
    y_mean = math.fsum(yn) / n
    dy = [v - y_mean for v in yn]

    def solve(u):
        """SSE, residuals, Kaufman's column -a (I - P) d decay / du and
        coefficients of the fit of exp(-xt / exp(u)) (and 1) to yn."""
        tau_n = math.exp(u)
        basis = [math.exp(-v / tau_n) for v in xt]
        slope = [w * v / tau_n for w, v in zip(basis, xt)]
        target = yn
        if with_offset:
            # Moments about the means take the constant column out.
            mean, slope_mean = math.fsum(basis) / n, math.fsum(slope) / n
            basis = [w - mean for w in basis]
            slope = [w - slope_mean for w in slope]
            target = dy
        norm = math.fsum(map(mul, basis, basis))
        # An infinite tau makes the centred column vanish: the floor fits
        # alone.
        a = math.fsum(map(mul, basis, target)) / norm if norm > 0 else 0.0
        c = math.fsum(map(mul, basis, slope)) / norm if norm > 0 else 0.0
        r = [v - a * w for w, v in zip(basis, target)]
        col = [a * (c * w - s) for w, s in zip(basis, slope)]
        coef = (a, y_mean - a * mean) if with_offset else (a,)
        return math.fsum(v * v for v in r), r, col, coef

    # The data resolve tau from where exp(-gap / tau), the trace the decay
    # over the shortest step leaves in the next sample, falls to machine
    # epsilon, up to _MAX_DECAY_SPANS spans, past which the decay is a
    # straight line.  lo is taken in log space, so that it cannot
    # underflow, and no lower than the least positive float, so that
    # exp(u) cannot.
    gap = min(b - a for a, b in zip(t, t[1:]) if b > a)
    lo = max(math.log(gap) - math.log(-math.log(math.ulp(1.0)) * tspan),
             math.log(math.ulp(0.0)))
    hi = math.log(_MAX_DECAY_SPANS)
    res = gauss_newton(lambda u: solve(u)[:3], math.log(1 / 3), lo, hi)

    coef = solve(res.x)[3]
    tau = math.exp(res.x) * tspan
    diagnostics = {"tau_s": tau, "span_s": tspan,
                   "iterations": res.iterations, "nfev": res.nfev}
    if res.x in (lo, hi):
        raise FitError("exponential fit found no resolvable decay",
                       diagnostics=diagnostics)
    # Amplitude refers to t = 0 of the model a exp(-t/tau); the internal
    # fit is anchored at t[0].
    a0 = coef[0] * y_scale
    try:
        amp = a0 * math.exp(t0 / tau)
    except OverflowError:
        amp = math.inf
    if not math.isfinite(amp):
        raise FitError(f"exponential fit: the amplitude at t = 0 overflows; "
                       f"the first sample is {t0 / tau:.4g} lifetimes "
                       f"later (shift the time axis)",
                       diagnostics=diagnostics)
    params = [a0, tau] + ([coef[1] * y_scale] if with_offset else [])

    # The model and its Jacobian are evaluated from t0, where no
    # exponential overflows; on that axis the amplitude is a0.
    dt = [v - t0 for v in t]
    residuals = [m - v for m, v in zip(exp_decay(dt, *params), y)]
    sse = math.fsum(r * r for r in residuals)
    a0_err, tau_err, *rest = _jacobian_errors(_jacobian(dt, params), sse)
    offset_err = rest[0] if with_offset else None
    amp_err = _jacobian_errors(_jacobian(t, params, t0), sse)[0]
    if amp_err is not None:
        amp_err *= math.exp(t0 / tau)
    # Detection tests the amplitude at the first sample, so a shift of the
    # time axis leaves the verdict alone.
    if a0_err is None or abs(a0) <= _DETECTION_SIGMAS * a0_err:
        tau_err = None
    names = ("amplitude", "tau_s", "offset")[:len(params)]
    return ExpDecayFit(
        amplitude=amp, tau_s=tau, offset=params[2] if with_offset else None,
        amplitude_err=amp_err, tau_err_s=tau_err, offset_err=offset_err,
        unresolved=[name for name, err in zip(
            names, (amp_err, tau_err, offset_err)) if err is None],
        residual_sse=sse, converged=res.converged, iterations=res.iterations,
        nfev=res.nfev)
