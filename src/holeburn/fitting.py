"""Separable least-squares fits of the hole and trap models.

Scale-like parameters enter every model linearly, so the minimizer
searches only the nonlinear ones and the objective solves the rest by
linear least squares (variable projection, Golub & Pereyra 1973).  The
hole fit searches its center and width by simplex (`minimize`) on
normalized data (frequencies in units of the scan span, signals in units
of their spread), so its stopping rule is invariant to shifts and scaling;
its baseline and depth come in closed form from moments about the weighted
means, with the depth clamped at 0.  Its errors come from its analytic
Jacobian through `simplex._jacobian_errors`, as the lifetime fit's do.  The
trap fit searches log gamma_trap by Gauss-Newton (`gauss_newton`) with
Kaufman's column; its coefficients, all bounded at 0, come in closed form
from `_arrow_least_squares`, since each scale A_c sits only in its own
curve's rows and the background B in all of them.  No fit calls LAPACK.
`exp_decay` is the lifetime model on arrays, for the fixture generators;
the lifetime fit itself is plain Python, in `lifetime`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (_DETECTION_SIGMAS, _MAX_DECAY_SPANS, _MAX_MAGNITUDE,
                     FitError)
from .integrator import TrapDecayModel
from .model import BeamGeometry, MaterialParams
from .simplex import MinimizeOptions, _jacobian_errors, gauss_newton, minimize

# Objective value of the hole fit at a nonpositive width.
_REJECT = 1e300

# Search settings of the hole fit.  The trap fit searches
# log(gamma_trap / _GAMMA_SEED) [gamma in 1/s] from 0.
_SEARCH = MinimizeOptions(xtol_rel=1e-10, ftol_rel=1e-10, max_iter=4000)
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


def exp_decay(t, amplitude, tau, offset=0.0):
    """Exponential decay amplitude * exp(-t/tau) + offset."""
    return amplitude * np.exp(-np.asarray(t, dtype=float) / tau) + offset


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
    None for a parameter the data do not resolve, named in `unresolved`."""

    baseline: float
    depth: float
    center: float
    fwhm: float
    baseline_err: float | None
    depth_err: float | None
    center_err: float | None
    fwhm_err: float | None
    unresolved: list
    residual: float
    converged: bool
    hole_detected: bool
    iterations: int
    nfev: int

    def to_dict(self):
        return {
            "baseline": self.baseline, "depth": self.depth,
            "center_hz": self.center, "fwhm_hz": self.fwhm,
            "baseline_err": self.baseline_err, "depth_err": self.depth_err,
            "center_err_hz": self.center_err, "fwhm_err_hz": self.fwhm_err,
            "unresolved": list(self.unresolved),
            "residual_sse": self.residual, "converged": self.converged,
            "hole_detected": self.hole_detected,
            "iterations": self.iterations, "nfev": self.nfev,
        }


@dataclass
class TrapFitResult:
    """Multi-curve trap-model fit: shared gamma_trap and background, A per curve."""

    gamma_trap: float
    background_b: float
    scale_a: list
    residual: float
    converged: bool
    iterations: int
    nfev: int

    def to_dict(self):
        return {
            "gamma_trap_per_s": self.gamma_trap,
            "background_b_counts_per_w": self.background_b,
            "scale_a": list(self.scale_a),
            "residual_sse": self.residual,
            "converged": self.converged,
            "iterations": self.iterations,
            "nfev": self.nfev,
        }


def fit_hole_lorentzian(freq, signal, sigma_point=None) -> LorentzianHoleFit:
    """Fit a constant minus a Lorentzian to an (unsmoothed) hole scan.

    Parameters
    ----------
    freq, signal : array_like
        Scan axis [Hz] and power-normalized signal, at least 8 points.
    sigma_point : float or array_like, optional
        Per-point noise level, positive and finite, used to weight
        residuals; unweighted when omitted.

    A hole that is not detected (depth within 3 sigma of 0, or below 0.1%
    of the signal's spread) leaves the center and FWHM unresolved: their
    errors are None and `unresolved` lists them.
    """
    f = np.asarray(freq, dtype=float)
    y = np.asarray(signal, dtype=float)
    if f.shape != y.shape or f.ndim != 1:
        raise ValueError("freq and signal must be 1-D arrays of equal length")
    if f.size < 8:
        raise ValueError("need at least 8 points spanning the hole")
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(y))):
        raise ValueError("freq and signal must be finite (drop excluded "
                         "points first)")
    span = float(np.ptp(f))
    if span <= 0:
        raise ValueError("freq values must not all coincide")
    lim = _MAX_MAGNITUDE
    if not (1 / lim <= span <= lim and float(np.max(np.abs(y))) <= lim):
        raise ValueError(f"the frequency span must lie in [{1 / lim:g}, "
                         f"{lim:g}] Hz and the signal within +-{lim:g}, "
                         "where the fit's products stay normal floats")

    f_mid = 0.5 * float(np.min(f) + np.max(f))
    x = (f - f_mid) / span
    y_scale = float(np.ptp(y)) or 1.0
    point_weights = np.ones_like(y)  # 1/sigma, or 1
    if sigma_point is not None:
        sigma = np.broadcast_to(np.asarray(sigma_point, dtype=float), y.shape)
        if not np.all((sigma > 0) & (sigma < np.inf)):
            raise ValueError("sigma_point must be positive and finite")
        point_weights = 1.0 / sigma
    root_w2 = point_weights * y_scale
    if not np.all((root_w2 >= 1 / lim) & (root_w2 <= lim)):
        raise ValueError(f"the signal's spread over each point's sigma must "
                         f"lie in [{1 / lim:g}, {lim:g}], where its square, "
                         "the point's weight, stays a normal float")
    w2 = root_w2 ** 2  # weights of the normalized signal
    w_sum = float(np.sum(w2))
    y_mean = float(np.dot(w2, y)) / w_sum
    dy = (y - y_mean) / y_scale

    def project(p):
        """Depth of the normalized hole at (center, fwhm), and the SSE."""
        shape = lorentzian_hole(x, 0.0, 1.0, *p)
        ds = shape - float(np.dot(w2, shape)) / w_sum
        wds = w2 * ds
        s_ss = float(np.dot(wds, ds))
        depth = max(0.0, float(np.dot(wds, dy)) / s_ss) if s_ss > 0 else 0.0
        r = dy - depth * ds
        return depth, float(np.dot(w2 * r, r))

    def objective(p):
        return project(p)[1] if p[1] > 0 else _REJECT

    # Seeds: center at the minimum, width at 10% of the span.
    res = minimize(objective, [float(x[np.argmin(y)]), 0.1], _SEARCH)

    xn0, wn = map(float, res.x)
    depth = project(res.x)[0] * y_scale
    center = xn0 * span + f_mid
    fwhm = wn * span
    # The baseline lifts the weighted mean of the fitted hole onto y_mean.
    hole = lorentzian_hole(f, 0.0, depth, center, fwhm)
    baseline = y_mean - float(np.dot(w2, hole)) / w_sum
    weighted = (baseline + hole - y) * point_weights
    sse = float(np.dot(weighted, weighted))

    if not res.converged:
        raise FitError("Lorentzian hole fit failed",
                       diagnostics={"converged": res.converged,
                                    "fwhm_hz": fwhm, "residual_sse": sse,
                                    "iterations": res.iterations,
                                    "nfev": res.nfev})

    # D^2 in the Jacobian is the axis to the 4th power, so it is taken on
    # the axis over the 2^e that puts the span in [0.5, 1); a power of two
    # changes no bit, and the center and FWHM errors are scaled back.
    e = math.frexp(span)[1]
    jacobian = _hole_jacobian(np.ldexp(f, -e), (
        baseline, depth, math.ldexp(center, -e), math.ldexp(fwhm, -e)))
    errs = _jacobian_errors([(c * point_weights).tolist() for c in jacobian],
                            sse)
    errs[2:] = [err and math.ldexp(err, e) for err in errs[2:]]

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
    return LorentzianHoleFit(
        baseline=baseline, depth=depth, center=center, fwhm=fwhm,
        baseline_err=errs[0], depth_err=errs[1], center_err=errs[2],
        fwhm_err=errs[3],
        unresolved=[name for name, err in zip(names, errs) if err is None],
        residual=sse, converged=res.converged, hole_detected=detected,
        iterations=res.iterations, nfev=res.nfev)


def hom_linewidth_from_hole(fwhm):
    """Upper bound on the homogeneous linewidth: half the hole FWHM."""
    if not 0 < fwhm < np.inf:
        raise ValueError("fwhm must be positive and finite")
    return fwhm / 2.0


def _curve_triples(curves):
    """Normalize fit input to (times, counts, power) triples."""
    out = []
    for index, item in enumerate(curves):
        if isinstance(item, tuple):
            t, y, p0 = item
        else:
            t, y, p0 = item.time_s, item.counts_per_s, item.power_w
        if p0 is None or not p0 > 0:
            raise ValueError(f"curve {index}: the excitation power must be "
                             f"positive, got {p0!r}")
        curve = f"curve {index} ({p0:g} W)"
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        if t.ndim != 1 or t.shape != y.shape:
            raise ValueError(f"{curve}: arrays must be 1-D and equal length")
        if t.size == 0:
            raise ValueError(f"{curve}: no points")
        if np.any(np.diff(t) <= 0):
            raise ValueError(f"{curve}: time stamps must be strictly "
                             "increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ValueError(f"{curve}: arrays must be finite")
        if np.ptp(y) == 0:
            raise ValueError(f"{curve}: degenerate curve, constant signal")
        lim = _MAX_MAGNITUDE
        if not (max(np.max(np.abs(t)), np.max(np.abs(y))) <= lim
                and np.ptp(y) >= 1 / lim):
            raise ValueError(f"{curve}: times and counts must lie within "
                             f"+-{lim:g} and the counts spread by at least "
                             f"{1 / lim:g}, where the fit's products stay "
                             "normal floats")
        if np.any(t < 0):
            raise ValueError(f"{curve}: time stamps must be nonnegative, "
                             f"got t = {t.min():g} s")
        out.append((t, y, float(p0)))
    return out


def fit_trap_model(curves, material: MaterialParams, focus_fwhm=1e-6,
                   domain=None) -> TrapFitResult:
    """Globally fit the trapping rate to one or more decay curves.

    gamma_trap and the background coefficient B are shared across curves;
    the scale factor A is individual, absorbing detection-efficiency drift
    between measurements.  Minimizes the summed squared difference between
    A_c * S_c(t; gamma_trap) + B * P_c and the measured count rates, with
    A_c >= 0 and B >= 0, over more points than parameters.

    Parameters
    ----------
    curves : sequence
        DecayCurve records carrying power_w, or (times, counts, power)
        triples.
    material : MaterialParams
    focus_fwhm : float
        Beam focus FWHM shared by all measurements [m].
    domain : IntegrationDomain or LevelSetRule, optional
        Rule each curve's decay cloud is built with.

    gamma_trap is searched no lower than 1 / (max_c(max k_c * max t_c) *
    `_MAX_DECAY_SPANS`), k_c the rates of curve c's cloud per unit gamma,
    where the model turns into a straight line; a fit there raises FitError.
    """
    triples = _curve_triples(curves)
    if not triples:
        raise ValueError("need at least one curve")
    points, params = sum(t.size for t, _, _ in triples), len(triples) + 2
    if points <= params:
        raise ValueError(f"{points} points cannot fit {params} parameters "
                         f"(gamma_trap, B and one A per curve)")

    models = []
    for t, _, p0 in triples:
        geom = BeamGeometry.for_material(material, power=p0,
                                         focus_fwhm=focus_fwhm)
        models.append(TrapDecayModel(material, geom, domain).compressed())

    def solve(xn):
        gamma = _GAMMA_SEED * math.exp(xn)
        blocks = [(m.signal(t, gamma), y, p0)
                  for m, (t, y, p0) in zip(models, triples)]
        return gamma, blocks, _arrow_least_squares(blocks)

    def project(xn):
        gamma, blocks, (scales, background, sse, residuals) = solve(xn)
        # Kaufman's column: minus d model / d xn, projected off the free
        # columns.
        slopes = [a * gamma * m.signal_slope(t, gamma)
                  for a, m, (t, _, _) in zip(scales, models, triples)]
        col = _free_complement(blocks, scales, background, slopes)
        return (sse, np.concatenate(residuals).tolist(),
                (-np.concatenate(col)).tolist())

    # Below this bound on log(gamma / _GAMMA_SEED) the model is a straight
    # line over the data, the lifetime fit's rule on tau.
    fastest = max(float(m.bin_k.max(initial=0.0)) * t[-1]
                  for m, (t, _, _) in zip(models, triples))
    lo = -math.log(_GAMMA_SEED * fastest * _MAX_DECAY_SPANS)
    res = gauss_newton(project, 0.0, lo)

    gamma, _, (scales, background, sse, _) = solve(res.x)
    result = TrapFitResult(gamma_trap=gamma, background_b=background,
                           scale_a=scales, residual=sse,
                           converged=res.converged,
                           iterations=res.iterations, nfev=res.nfev)
    if res.x == lo:
        raise FitError("trap fit found no resolvable decay",
                       diagnostics=result.to_dict())
    return result
