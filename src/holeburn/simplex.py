"""Derivative-free minimizers, and the error bars of the fits they serve.

`minimize` is a plain Nelder-Mead descent with the classic coefficient set
(reflection 1, expansion 2, contraction 0.5, shrink 0.5) and relative
size/value stopping rules; the hole fit, with two nonlinear parameters,
uses it.  `minimize_scalar` brackets a minimum of a function of one
variable and closes the bracket by Brent's method; the trap and lifetime
fits use it.  Both are reproducible from their starting point alone.
`_jacobian_errors` turns the analytic Jacobian of the hole or lifetime fit
into one-sigma errors.  `minimize` imports numpy when called; the rest is
plain Python, so the lifetime fit loads no numpy.
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
# Bracket expansion ratio, and the golden-section fraction 1 - 1/ratio.
_GOLDEN = (1 + math.sqrt(5)) / 2
_GOLDEN_SECTION = (3 - math.sqrt(5)) / 2
# First trial step from x: _STEP_REL * |x|, no shorter than _STEP_ABS.
_STEP_REL = 0.05
_STEP_ABS = 0.00025


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
    x: object  # an array from minimize, a float from minimize_scalar
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


def minimize_scalar(objective: Callable[[float], float], x0: float,
                    options: Optional[MinimizeOptions] = None
                    ) -> MinimizeResult:
    """Minimize a function of one variable: bracket, then Brent's method.

    The bracket starts with the simplex's first step from x0, relative but
    no shorter than the absolute one, and expands downhill by the golden
    ratio until the objective rises again (NaN counts as a rise).  Brent's
    method (R. P. Brent, *Algorithms for Minimization without Derivatives*,
    1973, ch. 5) then shrinks it by parabolic steps through the three best
    points, falling back to golden sections, none shorter than
    tol = xtol_rel * max(1, |x|) for the best point x.  It stops, as
    Brent's does, when both ends of the bracket lie within 2 tol of x;
    ftol_rel is not used.  max_iter caps the steps of both phases
    together; at the cap the best point so far is returned with
    converged=False.
    """
    opts = options or MinimizeOptions()
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return float(objective(x))

    a = float(x0)
    fa = f(a)
    if not math.isfinite(fa):
        raise ValueError("objective must be finite at the starting point")
    b = a + _first_step(a)
    fb = f(b)
    if fb > fa:
        a, b, fa, fb = b, a, fb, fa
    c = b + _GOLDEN * (b - a)
    fc = f(c)
    iterations = 0
    while fc < fb:
        if iterations >= opts.max_iter:
            return MinimizeResult(x=c, fun=fc, iterations=iterations,
                                  nfev=nfev, converged=False)
        iterations += 1
        a, b, fa, fb = b, c, fb, fc
        c = b + _GOLDEN * (b - a)
        fc = f(c)

    # f(x) <= f at both ends of [lo, hi]; w and v are the second and third
    # best points, d the last step and e the one before it.
    lo, hi = min(a, c), max(a, c)
    x = w = v = b
    fx = fw = fv = fb
    d = e = 0.0
    while True:
        tol = opts.xtol_rel * max(1.0, abs(x))
        converged = max(x - lo, hi - x) <= 2 * tol
        if converged or iterations >= opts.max_iter:
            return MinimizeResult(x=x, fun=fx, iterations=iterations,
                                  nfev=nfev, converged=converged)
        iterations += 1
        mid = 0.5 * (lo + hi)
        golden = True
        if abs(e) > tol:
            # Vertex of the parabola through (x, w, v) as x + p / q; taken
            # when it falls inside the bracket and the step is less than
            # half the step before last, so the steps keep shrinking.  An
            # end already within 2 tol of x does not bound it: rounding in
            # the objective can put the vertex just beyond, and the step
            # then becomes tol towards the other end.
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0:
                p = -p
            q = abs(q)
            lo_open = lo if x - lo > 2 * tol else -math.inf
            hi_open = hi if hi - x > 2 * tol else math.inf
            if (abs(p) < abs(0.5 * q * e)
                    and q * (lo_open - x) < p < q * (hi_open - x)):
                e, d = d, p / q
                if min(x + d - lo, hi - x - d) < 2 * tol:
                    d = math.copysign(tol, mid - x)
                golden = False
        if golden:
            e = hi - x if x < mid else lo - x
            d = _GOLDEN_SECTION * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                hi = x
            else:
                lo = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


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
    when the scaled J^T J is singular to working precision.
    """
    n, p = len(columns[0]), len(columns)
    norms = [math.hypot(*column) for column in columns]
    kept = [i for i in range(p) if norms[i] > 0]
    unit = [[v / norms[i] for v in columns[i]] for i in kept]
    gram = [[math.fsum(map(mul, a, b)) for b in unit] for a in unit]
    errors = [None] * p
    det = _det(gram)
    if det > 0:
        s2 = sse / (n - p)
        for k, i in enumerate(kept):
            minor = [row[:k] + row[k + 1:] for j, row in enumerate(gram)
                     if j != k]
            errors[i] = math.sqrt(s2 * _det(minor) / det) / norms[i]
    return errors
