"""Separable least-squares fits of the hole and trap models.

Scale-like parameters enter every model linearly, so the minimizer
searches only the nonlinear ones and the objective solves the rest by
linear least squares (variable projection, Golub & Pereyra 1973).  The
hole fit searches its center and width by simplex (`minimize`); the trap
fit has one nonlinear parameter, gamma_trap, and searches it by Brent's
method (`minimize_scalar`).  The search settings are the constants below,
not options.  One active-set solver, `_least_squares`, serves both fits:
the trap fit bounds all its coefficients at 0, the hole fit its depth.
The search runs on normalized data (frequencies in units of the scan span,
signals in units of their spread), so its stopping rule is invariant to
shifts and scaling.  Reported values are in physical units, with
uncertainties from the linearization at the optimum over all parameters:
cov = s^2 (J^T J)^-1, finite-difference J, s^2 the residual variance.
`exp_decay` is the lifetime model on arrays, for the fixture generators;
the lifetime fit itself is plain Python, in `lifetime`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .integrator import TrapDecayModel
from .model import BeamGeometry, MaterialParams
from .pipeline import median
from .simplex import MinimizeOptions, minimize, minimize_scalar

# Objective value at a nonpositive trapping rate or hole width.
_REJECT = 1e300

# Search settings of the hole fit, and of the trap fit, which searches
# gamma_trap in units of _GAMMA_SEED [1/s] from 1.
_SEARCH = MinimizeOptions(xtol_rel=1e-10, ftol_rel=1e-10, max_iter=4000)
_TRAP_SEARCH = MinimizeOptions(xtol_rel=1e-9, max_iter=8000)
_GAMMA_SEED = 1e5


def lorentzian_hole(freq, baseline, depth, center, fwhm):
    """Constant-minus-Lorentzian hole profile."""
    half = fwhm / 2.0
    f = np.asarray(freq, dtype=float)
    return baseline - depth * half**2 / ((f - center) ** 2 + half**2)


def exp_decay(t, amplitude, tau, offset=0.0):
    """Exponential decay amplitude * exp(-t/tau) + offset."""
    return amplitude * np.exp(-np.asarray(t, dtype=float) / tau) + offset


def _column_norms(design):
    norms = np.sqrt(np.einsum("ij,ij->j", design, design))
    norms[norms == 0] = 1.0
    return norms


def _least_squares(design, target, nonneg=False):
    """min |design @ c - target| with c[nonneg] >= 0; returns (c, SSE).

    `nonneg` masks the bounded columns (one bool bounds all or none).
    Lawson-Hanson active set (Lawson & Hanson 1974, *Solving Least Squares
    Problems*, ch. 23) on norm-scaled columns, started with every column
    passive: an unconstrained optimum that is feasible costs one `lstsq`.
    """
    norms = _column_norms(design)
    scaled = design / norms
    passive = np.ones(norms.size, dtype=bool)
    coef = np.zeros(norms.size)
    z = np.linalg.lstsq(scaled, target, rcond=None)[0]
    tol = 10 * np.finfo(float).eps * max(scaled.shape) * np.linalg.norm(target)
    for _ in range(3 * norms.size):
        blocked = passive & (z < 0) & nonneg
        if blocked.any():
            # Step from the feasible coef towards z until the first bounded
            # coefficient reaches 0; every one at 0 leaves the passive set.
            ratios = coef[blocked] / (coef[blocked] - z[blocked])
            coef += ratios.min() * (z - coef)
            coef[np.flatnonzero(blocked)[np.argmin(ratios)]] = 0.0
            passive &= ~((coef <= 0) & nonneg)
            coef[~passive] = 0.0
        else:
            coef = z
            if passive.all():
                break
            gradient = scaled.T @ (target - scaled @ coef)
            gradient[passive] = -np.inf
            if not gradient.max() > tol:
                break
            passive[np.argmax(gradient)] = True
        z = np.zeros(norms.size)
        z[passive] = np.linalg.lstsq(scaled[:, passive], target, rcond=None)[0]
    residuals = scaled @ coef - target
    return coef / norms, float(np.dot(residuals, residuals))


def _fd_jacobian(model_fn, params, rel_step=1e-6):
    """Central-difference Jacobian of model_fn w.r.t. its parameter vector."""
    params = np.asarray(params, dtype=float)
    cols = []
    for i in range(params.size):
        h = rel_step * max(abs(params[i]), 1e-30)
        hi, lo = params.copy(), params.copy()
        hi[i] += h
        lo[i] -= h
        cols.append((model_fn(hi) - model_fn(lo)) / (2 * h))
    return np.column_stack(cols)


def _param_errors(model_fn, params, residuals, weights=None):
    """One-sigma parameter uncertainties from the linearized fit.

    The normal matrix is built on per-parameter-scaled columns so that
    wildly different magnitudes (baselines near 1 next to frequencies
    near 1e8) do not get truncated as numerically rank deficient.
    """
    n, p = residuals.size, len(params)
    if n <= p:
        return np.full(p, np.nan)
    jac = _fd_jacobian(model_fn, params)
    if weights is not None:
        residuals = residuals * weights
        jac = jac * weights[:, None]
    sse = float(np.dot(residuals, residuals))
    scale = np.maximum(np.abs(np.asarray(params, dtype=float)), 1e-30)
    jac_s = jac * scale[None, :]
    cov_s = np.linalg.pinv(jac_s.T @ jac_s) * (sse / (n - p))
    var = np.diag(cov_s) * scale**2
    return np.sqrt(np.clip(var, 0.0, None))


@dataclass
class LorentzianHoleFit:
    """Result of a constant-minus-Lorentzian spectral-hole fit."""

    baseline: float
    depth: float
    center: float
    fwhm: float
    baseline_err: float
    depth_err: float
    center_err: float
    fwhm_err: float
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
        Per-point noise level used to weight residuals; unweighted when
        omitted.
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

    f_mid = 0.5 * (np.min(f) + np.max(f))
    x = (f - f_mid) / span
    y_off = median(y)
    y_scale = float(np.ptp(y)) or 1.0
    yn = (y - y_off) / y_scale
    weights = np.ones_like(y)  # 1/sigma on the normalized signal, or 1
    if sigma_point is not None:
        sigma = np.broadcast_to(np.asarray(sigma_point, dtype=float), y.shape)
        if np.any(sigma <= 0):
            raise ValueError("sigma_point must be positive")
        weights = y_scale / sigma

    target = yn * weights

    def project(p):
        design = np.column_stack(
            [weights, weights * lorentzian_hole(x, 0.0, 1.0, *p)])
        return _least_squares(design, target, nonneg=[False, True])

    def objective(p):
        return project(p)[1] if p[1] > 0 else _REJECT

    # Seeds: center at the minimum, width at 10% of the span.
    res = minimize(objective, [float(x[np.argmin(yn)]), 0.1], _SEARCH)

    (cn, dn), _ = project(res.x)
    xn0, wn = res.x
    baseline = cn * y_scale + y_off
    depth = dn * y_scale
    center = xn0 * span + f_mid
    fwhm = wn * span

    params = np.array([baseline, depth, center, fwhm])
    residuals = lorentzian_hole(f, *params) - y
    point_weights = None if sigma_point is None else weights / y_scale
    errs = _param_errors(lambda p: lorentzian_hole(f, *p), params, residuals,
                         point_weights)
    weighted = residuals if point_weights is None else residuals * point_weights
    sse = float(np.dot(weighted, weighted))

    if not res.converged:
        raise FitError("Lorentzian hole fit failed",
                       diagnostics={"converged": res.converged,
                                    "fwhm_hz": fwhm, "residual_sse": sse,
                                    "iterations": res.iterations,
                                    "nfev": res.nfev})

    # Holes shallower than 0.1% of the signal scale are indistinguishable
    # from fit leftovers on structureless data, so they are not reported
    # as detections even when the formal 3-sigma test would pass.
    scale_ref = max(abs(baseline), float(np.ptp(y)))
    detected = bool(depth > max(3 * errs[1], 1e-3 * scale_ref))
    return LorentzianHoleFit(
        baseline=baseline, depth=depth, center=center, fwhm=fwhm,
        baseline_err=float(errs[0]), depth_err=float(errs[1]),
        center_err=float(errs[2]), fwhm_err=float(errs[3]),
        residual=sse, converged=res.converged, hole_detected=detected,
        iterations=res.iterations, nfev=res.nfev)


def hom_linewidth_from_hole(fwhm):
    """Upper bound on the homogeneous linewidth: half the hole FWHM."""
    if fwhm <= 0:
        raise ValueError("fwhm must be positive")
    return fwhm / 2.0


def _curve_triples(curves):
    """Normalize fit input to (times, counts, power) triples."""
    out = []
    for index, item in enumerate(curves):
        if isinstance(item, tuple):
            t, y, p0 = item
        else:
            t, y, p0 = item.time_s, item.counts_per_s, item.power_w
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        if t.ndim != 1 or t.shape != y.shape:
            raise ValueError("curve arrays must be 1-D and equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("time stamps must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ValueError("curve arrays must be finite")
        if np.ptp(y) == 0:
            raise ValueError("degenerate curve: constant signal")
        if p0 is None or p0 <= 0:
            raise ValueError("each curve needs a positive excitation power")
        if np.any(t < 0):
            raise ValueError(f"curve {index} ({p0:g} W): time stamps must be "
                             f"nonnegative, got t = {t.min():g} s")
        out.append((t, y, float(p0)))
    return out


def fit_trap_model(curves, material: MaterialParams, focus_fwhm=1e-6,
                   domain=None) -> TrapFitResult:
    """Globally fit the trapping rate to one or more decay curves.

    gamma_trap and the background coefficient B are shared across curves;
    the scale factor A is individual, absorbing detection-efficiency drift
    between measurements.  Minimizes the summed squared difference between
    A_c * S_c(t; gamma_trap) + B * P_c and the measured count rates, with
    A_c >= 0 and B >= 0.

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
    """
    triples = _curve_triples(curves)
    if not triples:
        raise ValueError("need at least one curve")

    models = []
    for t, _, p0 in triples:
        geom = BeamGeometry.for_material(material, power=p0,
                                         focus_fwhm=focus_fwhm)
        models.append(TrapDecayModel(material, geom, domain).compressed())

    # One linear problem over all curves: a column of S_c(t) per curve (its
    # A_c) and a shared column of P_c (B).
    sizes = [t.size for t, _, _ in triples]
    curve_of_row = np.repeat(np.arange(len(triples)), sizes)
    rows = np.arange(curve_of_row.size)
    y_all = np.concatenate([y for _, y, _ in triples])
    design = np.zeros((rows.size, len(triples) + 1))
    design[:, -1] = np.repeat([p0 for _, _, p0 in triples], sizes)

    def project(gamma):
        design[rows, curve_of_row] = np.concatenate(
            [m.signal(t, gamma) for m, (t, _, _) in zip(models, triples)])
        return _least_squares(design, y_all, nonneg=True)

    def objective(xn):
        if not xn > 0:
            return _REJECT
        return project(xn * _GAMMA_SEED)[1]

    res = minimize_scalar(objective, 1.0, _TRAP_SEARCH)

    gamma = float(res.x * _GAMMA_SEED)
    coef, sse = project(gamma)
    return TrapFitResult(gamma_trap=gamma, background_b=float(coef[-1]),
                         scale_a=[float(a) for a in coef[:-1]],
                         residual=sse, converged=res.converged,
                         iterations=res.iterations, nfev=res.nfev)
