"""The fits' minimizers, and the error bars of the fits they serve.

`minimize` is a plain Nelder-Mead descent with the classic coefficient set
(reflection 1, expansion 2, contraction 0.5, shrink 0.5) and relative
size/value stopping rules; the hole fit, with two nonlinear parameters,
uses it.  `gauss_newton` searches the one nonlinear parameter of the trap
and lifetime fits by Gauss-Newton steps on the projected residual, within
the bounds each fit's data can resolve.  Both are reproducible from their
starting point alone.  `_jacobian_errors` turns the analytic Jacobian of
the hole or lifetime fit into one-sigma errors.  `minimize` imports numpy
when called; the rest is plain Python, so the lifetime fit loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional

_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5
# First trial step from x: _STEP_REL * |x|, no shorter than _STEP_ABS.
_STEP_REL = 0.05
_STEP_ABS = 0.00025
# Gauss-Newton: the relative step that ends the search, and the cap on
# trial steps.
_GN_XTOL_REL = 1e-10
_GN_MAX_ITER = 100


@dataclass(frozen=True)
class MinimizeOptions:
    xtol_rel: float = 1e-8
    ftol_rel: float = 1e-8
    max_iter: int = 2000

    def __post_init__(self):
        for name in ("xtol_rel", "ftol_rel"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not self.max_iter >= 0:
            raise ValueError("max_iter must be nonnegative")


@dataclass
class MinimizeResult:
    x: object  # an array from minimize, a float from gauss_newton
    fun: float
    iterations: int
    nfev: int
    converged: bool


def _first_step(x: float) -> float:
    """First trial step from x: relative, but no shorter than the absolute.

    The floor keeps a tiny but nonzero start (say 1e-30) from a step so
    short that the search stops at once on a false minimum.
    """
    return math.copysign(max(_STEP_REL * abs(x), _STEP_ABS), x)


def minimize(objective: Callable, x0,
             options: Optional[MinimizeOptions] = None) -> MinimizeResult:
    """Minimize a scalar function of a vector by simplex descent.

    The initial simplex perturbs each coordinate of x0 by a relative step,
    no shorter than the absolute one.  Iteration stops when both the simplex
    extent and the spread of function values are below their relative
    tolerances, or at the iteration cap, in which case the best point so
    far is returned with converged=False.
    """
    import numpy as np

    opts = options or MinimizeOptions()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.size
    f0 = float(objective(x0))
    if not np.isfinite(f0):
        raise ValueError("objective must be finite at the starting point")

    sim = np.empty((n + 1, n))
    fvals = np.empty(n + 1)
    sim[0], fvals[0] = x0, f0
    nfev = 1
    for i in range(n):
        x = x0.copy()
        x[i] += _first_step(x[i])
        sim[i + 1] = x
        fvals[i + 1] = objective(x)
        nfev += 1

    iterations = 0
    while iterations < opts.max_iter:
        order = np.argsort(fvals, kind="stable")
        sim, fvals = sim[order], fvals[order]

        xscale = max(1.0, float(np.max(np.abs(sim[0]))))
        size = float(np.max(np.abs(sim[1:] - sim[0]))) / xscale
        fscale = max(1.0, abs(fvals[0]))
        spread = float(fvals[-1] - fvals[0]) / fscale
        if size <= opts.xtol_rel and spread <= opts.ftol_rel:
            return MinimizeResult(x=sim[0].copy(), fun=float(fvals[0]),
                                  iterations=iterations, nfev=nfev,
                                  converged=True)
        iterations += 1

        centroid = sim[:-1].mean(axis=0)
        xr = centroid + _REFLECT * (centroid - sim[-1])
        fr = float(objective(xr))
        nfev += 1
        if fr < fvals[0]:
            xe = centroid + _EXPAND * (centroid - sim[-1])
            fe = float(objective(xe))
            nfev += 1
            if fe < fr:
                sim[-1], fvals[-1] = xe, fe
            else:
                sim[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            sim[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + _CONTRACT * (xr - centroid)
            else:
                xc = centroid - _CONTRACT * (centroid - sim[-1])
            fc = float(objective(xc))
            nfev += 1
            if fc < min(fr, fvals[-1]):
                sim[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    sim[i] = sim[0] + _SHRINK * (sim[i] - sim[0])
                    fvals[i] = objective(sim[i])
                    nfev += 1

    order = np.argsort(fvals, kind="stable")
    return MinimizeResult(x=sim[order[0]].copy(), fun=float(fvals[order[0]]),
                          iterations=iterations, nfev=nfev, converged=False)


def gauss_newton(project: Callable, x0: float, lo: float = -math.inf,
                 hi: float = math.inf) -> MinimizeResult:
    """Minimize a separable least-squares SSE over one nonlinear x in
    [lo, hi], from x0 clipped into that range.

    `project(x)` returns the SSE, the projected residual r (data minus
    model) and Kaufman's column d r / d x (Kaufman, BIT 15, 49 (1975));
    g = r.col is half the SSE's slope.  Each step, -g / h, is shortened by
    Marquardt damping while it raises the SSE and cut at a bound it would
    cross; h is g's secant from the last accepted point when positive,
    else col.col.  A step below `_GN_XTOL_REL` * max(1, |x|) or a predicted
    saving g^2 / h below 8 ulp of the SSE converges and is taken without a
    call (`fun` is the SSE before it), but not off a bound.  `_GN_MAX_ITER`
    trial steps end the search with converged=False.
    """
    x = min(max(float(x0), lo), hi)
    sse, r, col = project(x)
    if not math.isfinite(sse):
        raise ValueError("objective must be finite at the starting point")
    nfev, damping, last = 1, 0.0, None
    while True:
        g, h = math.fsum(map(mul, r, col)), math.fsum(map(mul, col, col))
        # col.col leaves out the curvature a large residual adds.
        if last and (secant := (g - last[1]) / (x - last[0])) > 0:
            h = secant
        step = -g / (h * (1 + damping)) if h else 0.0
        # Inside [lo, hi] min and max return x + step itself, so a search
        # that never reaches a bound runs as an unbounded one, bit for bit.
        trial_x = min(max(x + step, lo), hi)
        # g / h * g, not g * g / h: g^2 underflows on data whose SSE is a
        # normal float, and the search would stop before its first trial.
        if (abs(step) < _GN_XTOL_REL * max(1.0, abs(x)) or trial_x == x
                or g / h * g < 8 * math.ulp(sse)):
            return MinimizeResult(x if x in (lo, hi) else trial_x, sse,
                                  nfev - 1, nfev, True)
        if nfev > _GN_MAX_ITER:
            return MinimizeResult(x, sse, nfev - 1, nfev, False)
        trial = project(trial_x)
        nfev += 1
        # NaN is a rise too.
        if trial[0] <= sse:
            last, x = (x, g), trial_x
            sse, r, col = trial
            damping /= 10
        else:
            damping = max(1.0, 10 * damping)


def _det(matrix):
    """Determinant by expansion along the first row (for 4x4 at most)."""
    if not matrix:
        return 1.0
    return math.fsum((-1) ** j * a * _det([row[:j] + row[j + 1:]
                                            for row in matrix[1:]])
                     for j, a in enumerate(matrix[0]))


def _jacobian_errors(columns, sse):
    """One-sigma errors sqrt(diag(s^2 (J^T J)^-1)), s^2 = sse / (n - p).

    J^T J is inverted exactly (adjugate over determinant) on columns
    scaled to unit norm, so magnitudes do not set its condition.  A
    parameter whose column vanishes gets None, and so does every parameter
    when the scaled J^T J is singular to working precision: its
    determinant is not positive, or a diagonal cofactor is negative.
    """
    n, p = len(columns[0]), len(columns)
    norms = [math.hypot(*column) for column in columns]
    kept = [i for i in range(p) if norms[i] > 0]
    unit = [[v / norms[i] for v in columns[i]] for i in kept]
    gram = [[math.fsum(map(mul, a, b)) for b in unit] for a in unit]
    errors = [None] * p
    det = _det(gram)
    cofactors = [_det([row[:k] + row[k + 1:] for j, row in enumerate(gram)
                       if j != k]) for k in range(len(kept))]
    # A rounded determinant of a singular J^T J can come out positive, but
    # then a cofactor can come out negative.
    if det > 0 and all(c >= 0 for c in cofactors):
        s2 = sse / (n - p)
        for i, cofactor in zip(kept, cofactors):
            errors[i] = math.sqrt(s2 * cofactor / det) / norms[i]
    return errors
