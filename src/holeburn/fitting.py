"""Separable least-squares fits of the hole and trap models.

Both fits take their data columns in through `errors._samples` and wrap
the lists it returns once with `np.array`.  Scale-like parameters enter
every model linearly, so the minimizer
searches only the nonlinear ones and the objective solves the rest by
linear least squares (variable projection, Golub & Pereyra 1973).  The
hole fit sorts its points, so its record does not depend on their order,
and searches its center and width by this module's simplex (`minimize`) on
normalized data (frequencies in units of the scan span, signals in units
of their spread), so its stopping rule is invariant to shifts and scaling;
its baseline and depth come in closed form from moments about the weighted
means, with the depth clamped at 0.  Its SSE and errors are taken in that
normalized frame, from its analytic Jacobian through
`simplex._jacobian_errors` as the lifetime fit's are, and scaled back.  The
trap fit searches log gamma_trap by Gauss-Newton (`gauss_newton`) with
Kaufman's column; its coefficients, all bounded at 0, come in closed form
from `_arrow_least_squares`, since each scale A_c sits only in its own
curve's rows and the background B in all of them.  No fit calls LAPACK.
Both fits raise FitError, with their record's fields as diagnostics, when
their search does not converge.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _deferred
from .config import _FOCUS_FWHM, MaterialParams
from .errors import (_DETECTION_SIGMAS, _MAX_DECAY_SPANS, _MAX_MAGNITUDE,
                     FitError, _check_within, _converged, _samples)
from .simplex import MinimizeResult, _jacobian_errors, gauss_newton

# The trap fit's model, loaded with the integrator on the fit's first call.
TrapDecayModel = _deferred("integrator", "TrapDecayModel")

# Objective value of the hole fit at a shape its scan does not resolve.
_REJECT = 1e300

# The hole shapes a scan resolves, in the hole fit's normalized units
# (frequencies in units of the span): a centre on the sampled axis and a
# FWHM from the smallest positive gap between samples up to
# _MAX_FWHM_SPANS, the span.  A narrower hole is a spike that no two
# samples share, and a wider one a slope of the baseline.
_MAX_FWHM_SPANS = 1.0

# The hole fit's simplex coefficients (`minimize`).
_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5
# First trial step from x: _STEP_REL * |x|, no shorter than _STEP_ABS.
_STEP_REL = 0.05
_STEP_ABS = 0.00025

# The trap fit searches log(gamma_trap / _GAMMA_SEED) [gamma in 1/s] from 0.
_GAMMA_SEED = 1e5


def lorentzian_hole(freq, baseline, depth, center, fwhm):
    """Constant-minus-Lorentzian hole profile."""
    half = fwhm / 2.0
    f = np.asarray(freq, dtype=float)
    return baseline - depth * half**2 / ((f - center) ** 2 + half**2)


def _hole_jacobian(freq, params):
    """Columns d model / d (baseline, depth, center, fwhm) of the model
    baseline - depth h^2 / D, with u = freq - center, h = fwhm / 2 and
    D = u^2 + h^2."""
    _, depth, center, fwhm = params
    u = freq - center
    half = fwhm / 2.0
    dist = u**2 + half**2
    return [np.ones_like(u), -half**2 / dist,
            -depth * 2 * u * half**2 / dist**2,
            -depth * half * u**2 / dist**2]


def _arrow_least_squares(blocks):
    """min sum_c |y_c - A_c S_c - B P_c|^2 over every A_c >= 0 and B >= 0.

    `blocks` holds (S_c, y_c, P_c) per curve, with S_c nonnegative and
    P_c > 0; returns ([A_c], B, SSE, [r_c]), r_c = y_c - A_c S_c - B P_c.
    For a fixed B the best A_c(B) = max(0, S_c.(y_c - B P_c) / S_c.S_c), or
    0 when S_c.S_c = 0, is positive below its knot S_c.y_c / (P_c sum S_c)
    and 0 above it, so SSE(B) is a convex quadratic between knots; its
    minimum is found exactly by walking the segments up from B = 0.  Sums
    across curves are `math.fsum`s of per-curve dot products, and the SSE
    is the fsum of each curve's r_c.r_c, so the result does not depend on
    the curves' order.
    """
    curves = []
    for s, y, p0 in blocks:
        ss, sy = float(np.dot(s, s)), float(np.dot(s, y))
        ps = p0 * float(s.sum())
        # The curve adds quad B^2 / 2 - lin B to SSE(B) / 2, up to a
        # constant: (quad, lin) with A_c held at 0, and with A_c = A_c(B).
        held = (p0 * p0 * y.size, p0 * float(y.sum()))
        solved = ((held[0] - ps * ps / ss, held[1] - ps * sy / ss)
                  if ss > 0 else held)
        curves.append((sy / ps if ss > 0 else 0.0, held, solved, ss, sy, ps))
    bounds = sorted({0.0, *(c[0] for c in curves if c[0] > 0)})
    for lo, hi in zip(bounds, bounds[1:] + [math.inf]):
        # A_c is positive on (lo, hi) when its knot is hi or above.
        terms = [solved if knot >= hi else held
                 for knot, held, solved, *_ in curves]
        quad, lin = (math.fsum(t) for t in zip(*terms))
        # A segment of non-positive curvature is flat: B takes its low end.
        background = lo if quad <= 0 else min(max(lo, lin / quad), hi)
        if background < hi:
            break
    scales = [max(0.0, (sy - background * ps) / ss) if ss > 0 else 0.0
              for *_, ss, sy, ps in curves]
    residuals = [y - a * s - background * p0
                 for a, (s, y, p0) in zip(scales, blocks)]
    return scales, background, math.fsum(float(np.dot(r, r))
                                         for r in residuals), residuals


def _free_complement(blocks, scales, background, vectors):
    """(I - Pi) v per curve, Pi the projection onto the free columns of
    `_arrow_least_squares`: S_c where A_c > 0, and P_c on every row when
    B > 0.  For a fixed B each S_c is projected off its own rows; B then
    takes what is left of P's column, summed across curves by fsum."""
    rest, power = [], []
    for (s, _, p0), a, v in zip(blocks, scales, vectors):
        p = np.full(s.size, p0)
        if a > 0:
            ss = float(np.dot(s, s))
            v = v - float(np.dot(s, v)) / ss * s
            p = p - float(np.dot(s, p)) / ss * s
        rest.append(v)
        power.append(p)
    pp = math.fsum(float(np.dot(p, p)) for p in power)
    if background > 0 and pp > 0:
        b = math.fsum(float(np.dot(p, v)) for p, v in zip(power, rest)) / pp
        rest = [v - b * p for v, p in zip(rest, power)]
    return rest


@dataclass
class LorentzianHoleFit:
    """Result of a constant-minus-Lorentzian spectral-hole fit; an error is
    None for a parameter the data do not resolve, named in `unresolved`,
    and so is `hom_linewidth_hz` when no hole is detected.  The fields are
    the report's keys, in its order."""

    baseline: float
    depth: float
    center_hz: float
    fwhm_hz: float
    baseline_err: float | None
    depth_err: float | None
    center_err_hz: float | None
    fwhm_err_hz: float | None
    unresolved: list
    residual_sse: float
    converged: bool
    hole_detected: bool
    iterations: int
    nfev: int
    hom_linewidth_hz: float | None


@dataclass
class TrapFitResult:
    """Multi-curve trap-model fit: shared gamma_trap and background, A per
    curve.  The fields are the report's keys, in its order."""

    gamma_trap_per_s: float
    background_b_counts_per_w: float
    scale_a: list
    residual_sse: float
    converged: bool
    iterations: int
    nfev: int


@dataclass(frozen=True)
class MinimizeOptions:
    """`minimize`'s stopping rules, by default the hole fit's."""

    xtol_rel: float = 1e-10
    ftol_rel: float = 1e-10
    max_iter: int = 4000

    def __post_init__(self):
        for name in ("xtol_rel", "ftol_rel"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not self.max_iter >= 0:
            raise ValueError("max_iter must be nonnegative")


def _first_step(x: float) -> float:
    """First trial step from x: relative, but no shorter than the absolute.

    The floor keeps a tiny but nonzero start (say 1e-30) from a step so
    short that the search stops at once on a false minimum.
    """
    return math.copysign(max(_STEP_REL * abs(x), _STEP_ABS), x)


def minimize(objective, x0, options=None) -> MinimizeResult:
    """Minimize a scalar function of a vector by simplex descent.

    Nelder & Mead, Comput. J. 7, 308 (1965), with reflection 1, expansion
    2, contraction 0.5 and shrink 0.5, from an initial simplex that steps
    each coordinate of x0 by `_first_step`.  It stops when both the simplex
    extent and the spread of function values are below their relative
    tolerances (`options`, by default `MinimizeOptions()`), or at the
    iteration cap with the best point so far and converged=False.
    """
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


def fit_hole_lorentzian(freq, signal, sigma_point=None) -> LorentzianHoleFit:
    """Fit a constant minus a Lorentzian to an (unsmoothed) hole scan.

    Parameters
    ----------
    freq, signal : array_like
        Scan axis [Hz] and power-normalized signal, at least 8 points.
    sigma_point : float or array_like, optional
        Per-point noise level, positive and finite, used to weight
        residuals; unweighted when omitted.

    The search keeps to the shapes the scan resolves (`_MAX_FWHM_SPANS`).
    A hole that is not detected (depth within 3 sigma of 0, or below 0.1%
    of the signal's spread) leaves the center and FWHM unresolved: their
    errors are None, `unresolved` lists them and `hom_linewidth_hz` is
    None; its depth is that of the best-fitting resolved dip, at most
    twice the signal's spread.  A simplex that does not converge raises
    FitError.
    """
    f, y = map(np.array, _samples("freq and signal", freq, signal,
                                  min_points=8))
    # Every sum runs over the points in (freq, signal) order, so the record
    # does not depend on the order they come in.
    order = np.lexsort((y, f))
    f, y = f[order], y[order]
    span = float(np.ptp(f))
    if span <= 0:
        raise ValueError("freq values must not all coincide")
    _check_within(1 / _MAX_MAGNITUDE, freq_span=span)
    _check_within(signal=y)

    f_mid = 0.5 * float(f[0] + f[-1])
    x = (f - f_mid) / span
    y_scale = float(np.ptp(y)) or 1.0
    point_weights = np.ones_like(y)  # 1/sigma, or 1
    if sigma_point is not None:
        sigma = np.broadcast_to(np.asarray(sigma_point, dtype=float),
                                y.shape)[order]
        if not np.all((sigma > 0) & (sigma < np.inf)):
            raise ValueError("sigma_point must be positive and finite")
        point_weights = 1.0 / sigma
    root_w2 = point_weights * y_scale
    # its square is the point's weight
    _check_within(1 / _MAX_MAGNITUDE, **{"signal spread / sigma": root_w2})
    w2 = root_w2 ** 2  # weights of the normalized signal
    w_sum = float(np.sum(w2))
    y_mean = float(np.dot(w2, y)) / w_sum
    dy = (y - y_mean) / y_scale

    def project(p):
        """The SSE, the depth of the normalized hole at (center, fwhm) and
        the weighted mean of its unit-depth shape."""
        shape = lorentzian_hole(x, 0.0, 1.0, *p)
        mean = float(np.dot(w2, shape)) / w_sum
        ds = shape - mean
        wds = w2 * ds
        s_ss = float(np.dot(wds, ds))
        # dy spreads over 1; on an even axis a resolved dip takes a sample
        # to half its depth or more, so a depth beyond 2 overshoots it.
        depth = float(np.dot(wds, dy)) / s_ss if s_ss > 0 else 0.0
        depth = min(2.0, max(0.0, depth))
        r = dy - depth * ds
        return float(np.dot(w2 * r, r)), depth, mean

    # The resolved shapes (see _MAX_FWHM_SPANS).
    gaps = np.diff(f)  # np.unique would load numpy.ma
    min_fwhm, lo, hi = float(gaps[gaps > 0].min()) / span, x[0], x[-1]

    def objective(p):
        resolved = lo <= p[0] <= hi and min_fwhm <= p[1] <= _MAX_FWHM_SPANS
        return project(p)[0] if resolved else _REJECT

    # Seeds: center at the minimum, width at 10% of the span or one gap.
    res = minimize(objective, [float(x[np.argmin(y)]), max(0.1, min_fwhm)])

    xn0, wn = map(float, res.x)
    # A residual in units of y_scale, weighted by root_w2 = y_scale /
    # sigma, is the raw one over sigma: the SSE is the raw frame's.
    sse, depth_n, shape_mean = project(res.x)
    depth = depth_n * y_scale
    center = xn0 * span + f_mid
    fwhm = wn * span
    # The baseline lifts the weighted mean of the fitted hole onto y_mean.
    baseline = y_mean - depth * shape_mean

    # The errors are taken in the normalized frame and scaled back.
    jacobian = _hole_jacobian(x, (baseline / y_scale, depth_n, xn0, wn))
    errs = [err and err * scale for err, scale in zip(
        _jacobian_errors([(c * root_w2).tolist() for c in jacobian], sse),
        (y_scale, y_scale, span, span))]

    # A hole is detected when its depth exceeds 3 sigma, as a lifetime's
    # amplitude must, and 0.1% of the signal's spread: shallower holes are
    # indistinguishable from fit leftovers on structureless data.  The
    # floor scales with the signal and ignores its offset, as the fit
    # does.  An undetected hole has no center or width to report.
    detected = errs[1] is not None and depth > max(
        _DETECTION_SIGMAS * errs[1], 1e-3 * float(np.ptp(y)))
    if not detected:
        errs[2:] = [None, None]
    names = ("baseline", "depth", "center_hz", "fwhm_hz")
    return _converged(LorentzianHoleFit(
        baseline=baseline, depth=depth, center_hz=center, fwhm_hz=fwhm,
        baseline_err=errs[0], depth_err=errs[1], center_err_hz=errs[2],
        fwhm_err_hz=errs[3],
        unresolved=[name for name, err in zip(names, errs) if err is None],
        residual_sse=sse, converged=res.converged, hole_detected=detected,
        iterations=res.iterations, nfev=res.nfev,
        hom_linewidth_hz=hom_linewidth_from_hole(fwhm) if detected else None),
        "Lorentzian hole fit failed")


def hom_linewidth_from_hole(fwhm):
    """Half the hole FWHM (`hom_linewidth_hz`): a bound on the homogeneous
    linewidth only for one resolved Lorentzian.  Power broadening puts it
    7-164% high at 2-44 uW (ROADMAP direction 13); 6 MHz spin components at
    0.05-2 mT fit a 1.3-5.1 MHz FWHM, so it reads low there (direction 16)."""
    if not 0 < fwhm < np.inf:
        raise ValueError("fwhm must be positive and finite")
    return fwhm / 2.0


def _curve_triples(curves):
    """Each DecayCurve's checked (time_s, counts_per_s, power_w)."""
    out = []
    for index, curve in enumerate(curves):
        t, y, p0 = curve.time_s, curve.counts_per_s, curve.power_w
        if p0 is None or not p0 > 0:
            raise ValueError(f"curve {index}: the excitation power must be "
                             f"positive, got {p0!r}")
        curve = f"curve {index} ({p0:g} W)"
        t, y = _samples(f"{curve}: time_s and counts_per_s", t, y)
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError(f"{curve}: time stamps must be strictly "
                             "increasing")
        spread = max(y) - min(y)
        if spread == 0:
            raise ValueError(f"{curve}: degenerate curve, constant signal")
        _check_within(**{f"{curve}: time_s": t, f"{curve}: counts_per_s": y})
        _check_within(1 / _MAX_MAGNITUDE,
                      **{f"{curve}: counts_per_s spread": spread})
        if t[0] < 0:
            raise ValueError(f"{curve}: time stamps must be nonnegative, "
                             f"got t = {t[0]:g} s")
        out.append((np.array(t), np.array(y), float(p0)))
    return out


def fit_trap_model(curves, material: MaterialParams,
                   focus_fwhm=_FOCUS_FWHM) -> TrapFitResult:
    """Globally fit the trapping rate to one or more decay curves.

    gamma_trap and the background coefficient B are shared across curves;
    the scale factor A is individual, absorbing detection-efficiency drift
    between measurements.  Minimizes the summed squared difference between
    A_c * S_c(t; gamma_trap) + B * P_c and the measured count rates, with
    A_c >= 0 and B >= 0, over more points than parameters.  Each curve's
    decay cloud is built on `LevelSetRule()`, the CLI's rule.

    Parameters
    ----------
    curves : sequence of DecayCurve
        Records carrying power_w.
    material : MaterialParams
    focus_fwhm : float
        Beam focus FWHM shared by all measurements [m].

    gamma_trap is searched no lower than 1 / (max_c(max k_c * max t_c) *
    `_MAX_DECAY_SPANS`), k_c the rates of curve c's cloud per unit gamma,
    where the model turns into a straight line, and no higher than
    max_c(-ln(eps) / (min k_c * min dt_c)), dt_c the steps between curve
    c's samples, where it turns into a step, nor than `_MAX_MAGNITUDE`.
    A fit on either bound, an empty range or a search that does not
    converge raises FitError.
    """
    from .model import _F_KEYS, BeamGeometry
    triples = _curve_triples(curves)
    if not triples:
        raise ValueError("need at least one curve")
    points, params = sum(t.size for t, _, _ in triples), len(triples) + 2
    if points <= params:
        raise ValueError(f"{points} points cannot fit {params} parameters "
                         f"(gamma_trap, B and one A per curve)")

    models = []
    for index, (_, _, p0) in enumerate(triples):
        geom = BeamGeometry.for_material(material, power=p0,
                                         focus_fwhm=focus_fwhm)
        m = TrapDecayModel(material, geom).compressed()
        # The fit squares its model as it squares the data, so the model's
        # S(0) is held to the range of a curve's counts spread.
        _check_within(1 / _MAX_MAGNITUDE, **{
            f"curve {index} ({p0:g} W): the model signal S(0) of {_F_KEYS}, "
            f"sat_intensity_w_per_m2": m.frozen_amp + float(np.sum(m.bin_amp))})
        models.append(m)

    def solve(xn):
        # one model evaluation gives each curve's (S, dS/dgamma)
        gamma = _GAMMA_SEED * math.exp(xn)
        evals = [m.signal(t, gamma) for m, (t, _, _) in zip(models, triples)]
        blocks = [(s, y, p0) for (s, _), (_, y, p0) in zip(evals, triples)]
        return gamma, evals, blocks, _arrow_least_squares(blocks)

    def project(xn):
        gamma, evals, blocks, (scales, background, sse, residuals) = solve(xn)
        # Kaufman's column: minus d model / d xn, projected off the free
        # columns.
        slopes = [a * gamma * d for a, (_, d) in zip(scales, evals)]
        col = _free_complement(blocks, scales, background, slopes)
        return (sse, np.concatenate(residuals).tolist(),
                (-np.concatenate(col)).tolist())

    # The data resolve log(gamma / _GAMMA_SEED) from lo, below which the
    # model is a straight line over the data, to hi, above which no live
    # bin of any curve leaves a trace (machine epsilon) over its curve's
    # shortest step: the lifetime fit's rules on tau.  hi is taken in log
    # space, so that it cannot overflow, and caps gamma at _MAX_MAGNITUDE,
    # so that gamma and its products stay normal floats.
    fastest = max(float(m.bin_k.max(initial=0.0)) * t[-1]
                  for m, (t, _, _) in zip(models, triples))
    # A cloud with no live bin (every k underflows to 0) has no decay:
    # lo = inf.
    lo = (-math.log(_GAMMA_SEED * fastest * _MAX_DECAY_SPANS) if fastest
          else math.inf)
    trace = -math.log(math.ulp(1.0))
    hi = max((math.log(trace / float(np.diff(t).min()))
              - math.log(float(m.bin_k.min()))
              for m, (t, _, _) in zip(models, triples)
              if m.bin_k.size and t.size > 1), default=-math.inf)
    hi = min(hi, math.log(_MAX_MAGNITUDE)) - math.log(_GAMMA_SEED)
    if not lo < hi:
        raise FitError("trap fit found no resolvable decay", diagnostics={
            "gamma_trap_max_per_s": _GAMMA_SEED * math.exp(hi)})
    res = gauss_newton(project, 0.0, lo, hi)

    gamma, _, _, (scales, background, sse, _) = solve(res.x)
    result = TrapFitResult(gamma_trap_per_s=gamma,
                           background_b_counts_per_w=background,
                           scale_a=scales, residual_sse=sse,
                           converged=res.converged,
                           iterations=res.iterations, nfev=res.nfev)
    if res.x in (lo, hi):
        raise FitError("trap fit found no resolvable decay",
                       diagnostics=asdict(result))
    return _converged(result, "trap fit did not converge")
