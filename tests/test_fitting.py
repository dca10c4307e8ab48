import ast
import itertools
import math
import re
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_fresh
import holeburn as hb
from holeburn import (FitError, csvio, fitting, integrator, lifetime,
                      simplex)
from holeburn.cli import main
from holeburn.fitting import _arrow_least_squares
from holeburn.integrator import CompressedDecayModel, TrapDecayModel
from holeburn.linefit import _t_quantile
from holeburn.simplex import MinimizeResult


def fd_jacobian(model_fn, params, rel_step=1e-6):
    """Central-difference Jacobian of model_fn w.r.t. its parameter vector,
    with step rel_step * |p|: the oracle for the analytic Jacobians."""
    params = np.asarray(params, dtype=float)
    cols = []
    for i in range(params.size):
        h = rel_step * max(abs(params[i]), 1e-30)
        hi, lo = params.copy(), params.copy()
        hi[i] += h
        lo[i] -= h
        cols.append((model_fn(hi) - model_fn(lo)) / (2 * h))
    return np.column_stack(cols)


def fd_errors(model_fn, params, residuals, weights=None):
    """One-sigma errors sqrt(diag(s^2 (J^T J)^-1)) from `fd_jacobian`, the
    normal matrix taken on |p|-scaled columns by `pinv`: the oracle for
    `simplex._jacobian_errors`."""
    n, p = residuals.size, len(params)
    jac = fd_jacobian(model_fn, params)
    if weights is not None:
        residuals = residuals * weights
        jac = jac * weights[:, None]
    sse = float(np.dot(residuals, residuals))
    scale = np.maximum(np.abs(np.asarray(params, dtype=float)), 1e-30)
    jac_s = jac * scale[None, :]
    cov_s = np.linalg.pinv(jac_s.T @ jac_s) * (sse / (n - p))
    return np.sqrt(np.clip(np.diag(cov_s), 0.0, None)) * scale


def brent(objective, x0, xtol_rel=1e-10, max_iter=4000):
    """Minimize a function of one variable: bracket, then Brent's method
    (R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973,
    ch. 5).  It reads only the SSE, no slope: the oracle for
    `simplex.gauss_newton`.

    The bracket expands downhill from x0 by the golden ratio; Brent's
    method then shrinks it by parabolic steps through the three best
    points, with golden sections as the fallback, none shorter than
    tol = xtol_rel * max(1, |x|).  It stops when both ends of the bracket
    lie within 2 tol of x.
    """
    golden, section = (1 + math.sqrt(5)) / 2, (3 - math.sqrt(5)) / 2
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return float(objective(x))

    a = float(x0)
    b = a + math.copysign(max(0.05 * abs(a), 0.00025), a)
    fa, fb = f(a), f(b)
    if fb > fa:
        a, b, fa, fb = b, a, fb, fa
    c = b + golden * (b - a)
    fc = f(c)
    iterations = 0
    while fc < fb:
        if iterations >= max_iter:
            return MinimizeResult(x=c, fun=fc, iterations=iterations,
                                  nfev=nfev, converged=False)
        iterations += 1
        a, b, fa, fb = b, c, fb, fc
        c = b + golden * (b - a)
        fc = f(c)
    lo, hi = min(a, c), max(a, c)
    x = w = v = b
    fx = fw = fv = fb
    d = e = 0.0
    while True:
        tol = xtol_rel * max(1.0, abs(x))
        converged = max(x - lo, hi - x) <= 2 * tol
        if converged or iterations >= max_iter:
            return MinimizeResult(x=x, fun=fx, iterations=iterations,
                                  nfev=nfev, converged=converged)
        iterations += 1
        mid = 0.5 * (lo + hi)
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0:
                p = -p
            q = abs(q)
            # An end already within 2 tol of x does not bound the vertex,
            # which rounding in the objective can put just beyond it.
            lo_open = lo if x - lo > 2 * tol else -math.inf
            hi_open = hi if hi - x > 2 * tol else math.inf
            if (abs(p) < abs(0.5 * q * e)
                    and q * (lo_open - x) < p < q * (hi_open - x)):
                e, d = d, p / q
                if min(x + d - lo, hi - x - d) < 2 * tol:
                    d = math.copysign(tol, mid - x)
                parabolic = True
        if not parabolic:
            e = hi - x if x < mid else lo - x
            d = section * e
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


def brent_in_place_of_gauss_newton(project, x0, lo=-math.inf, hi=math.inf):
    """`simplex.gauss_newton` run by the Brent oracle on the projected SSE
    over [lo, hi]: beyond a bound the SSE holds its value there."""
    def clip(x):
        return min(max(x, lo), hi)

    res = brent(lambda x: project(clip(x))[0], clip(x0))
    res.x = clip(res.x)
    return res


def accepted_exponents(values):
    """Every j for which the fits accept values * 2^j: no magnitude or
    spread above 1e100, and a spread of at least 1e-100."""
    spread = max(values) - min(values)
    top = max(max(map(abs, values)), spread)
    js = [j for j in range(-800, 800) if math.ldexp(top, j) <= 1e100
          and math.ldexp(spread, j) >= 1e-100]
    return st.integers(js[0], js[-1])


@pytest.fixture(scope="module")
def material():
    return hb.MaterialParams()


@pytest.fixture(scope="module")
def two_curve_batch(material):
    """Poisson two-power batch of DecayCurve records."""
    t = np.linspace(0, 120, 31)
    noise = hb.NoiseSpec(kind="poisson", seed=8)
    return hb.gen_decay_batch(material, 9e4, 0.19, 9.4e7, [8e-6, 29e-6], t,
                              noise)


class TestHoleFit:
    freq = np.linspace(-100e6, 100e6, 1500)

    def test_noiseless_recovery(self):
        truth = dict(baseline=1.0, depth=0.4, center=-50e6, fwhm=6e6)
        y = hb.lorentzian_hole(self.freq, **truth)
        fit = hb.fit_hole_lorentzian(self.freq, y)
        assert fit.baseline == pytest.approx(truth["baseline"], rel=1e-6)
        assert fit.depth == pytest.approx(truth["depth"], rel=1e-6)
        assert fit.center_hz == pytest.approx(truth["center"], rel=1e-6)
        assert fit.fwhm_hz == pytest.approx(truth["fwhm"], rel=1e-6)
        assert fit.hole_detected and fit.converged

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(0.01, 100.0), d=st.floats(-200.0, 200.0))
    def test_baseline_shift_absorbed(self, c, d):
        # y -> c*y + d: baseline maps along, depth scales, shape unchanged
        y = hb.lorentzian_hole(self.freq, 1.0, 0.4, -50e6, 6e6)
        a = hb.fit_hole_lorentzian(self.freq, y)
        b = hb.fit_hole_lorentzian(self.freq, c * y + d)
        assert (b.baseline - d) / c == pytest.approx(a.baseline, rel=1e-9)
        assert b.depth == pytest.approx(c * a.depth, rel=1e-9)
        assert b.fwhm_hz == pytest.approx(a.fwhm_hz, rel=1e-9)
        assert b.center_hz == pytest.approx(a.center_hz, rel=1e-9)
        # on noisy data the errors of baseline and depth scale by c, and
        # those of center and FWHM stay
        y = y + np.random.default_rng(2).normal(0, 0.02, self.freq.size)
        a = hb.fit_hole_lorentzian(self.freq, y)
        b = hb.fit_hole_lorentzian(self.freq, c * y + d)
        assert [b.baseline_err, b.depth_err] == pytest.approx(
            [c * a.baseline_err, c * a.depth_err], rel=1e-7)
        assert [b.center_err_hz, b.fwhm_err_hz] == pytest.approx(
            [a.center_err_hz, a.fwhm_err_hz], rel=1e-7)

    @settings(max_examples=25, deadline=None)
    @given(shift=st.floats(-1e9, 1e9))
    def test_frequency_translation(self, shift):
        y = hb.lorentzian_hole(self.freq, 1.0, 0.4, -50e6, 6e6)
        a = hb.fit_hole_lorentzian(self.freq, y)
        b = hb.fit_hole_lorentzian(self.freq + shift, y)
        assert b.fwhm_hz == pytest.approx(a.fwhm_hz, rel=1e-9)
        # the center is located on the span-normalized axis, so a shift
        # near zero is resolved to 1e-9 of the span, not of the shift
        assert b.center_hz - a.center_hz == pytest.approx(
            shift, rel=1e-9, abs=1e-9 * np.ptp(self.freq))

    def test_center_seed_near_zero(self):
        # the middle sample normalizes to ~2.6e-17, the centre's seed
        freq = np.linspace(-1e8, 1e8, 2001) + 1e7 / 3
        center = freq[1000] + 0.3 * (freq[1] - freq[0])
        y = hb.lorentzian_hole(freq, 1.0, 0.3, center, 6e6)
        fit = hb.fit_hole_lorentzian(freq, y)
        assert fit.center_hz == pytest.approx(center, abs=1e-9 * np.ptp(freq))
        assert fit.fwhm_hz == pytest.approx(6e6, rel=1e-8)

    def test_flat_trace_not_detected(self):
        fit = hb.fit_hole_lorentzian(self.freq, np.full_like(self.freq, 2.0))
        assert fit.depth == pytest.approx(0.0, abs=1e-3)
        assert not fit.hole_detected

    def test_noise_only_leaves_center_and_width_unresolved(self):
        # the depth clamps at 0, so center and FWHM leave the model
        rng = np.random.default_rng(3)
        fit = hb.fit_hole_lorentzian(self.freq,
                                     2.0 + rng.normal(0, 0.01, self.freq.size))
        assert fit.depth == 0.0 and not fit.hole_detected
        assert 0 < fit.depth_err < np.inf and 0 < fit.baseline_err < np.inf
        assert fit.center_err_hz is None and fit.fwhm_err_hz is None
        assert fit.unresolved == ["center_hz", "fwhm_hz"]
        report = asdict(fit)
        assert report["fwhm_err_hz"] is None
        assert report["unresolved"] == ["center_hz", "fwhm_hz"]

    def test_sigma_weighting_accepted(self):
        rng = np.random.default_rng(5)
        y = hb.lorentzian_hole(self.freq, 1.0, 0.4, -50e6, 6e6) \
            + rng.normal(0, 0.02, self.freq.size)
        fit = hb.fit_hole_lorentzian(self.freq, y, sigma_point=0.02)
        assert fit.fwhm_hz == pytest.approx(6e6, rel=0.1)
        assert fit.fwhm_err_hz > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("per_point", [False, True],
                             ids=["scalar", "array"])
    def test_nonfinite_sigma_rejected(self, bad, per_point):
        y = hb.lorentzian_hole(self.freq, 1.0, 0.4, -50e6, 6e6)
        sigma = bad
        if per_point:
            sigma = np.full_like(y, 0.02)
            sigma[7] = bad
        with pytest.raises(ValueError, match="sigma_point"):
            hb.fit_hole_lorentzian(self.freq, y, sigma_point=sigma)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            hb.fit_hole_lorentzian(np.arange(5.0), np.ones(5))

    def test_coincident_frequencies_rejected(self):
        with pytest.raises(ValueError, match="must not all coincide"):
            hb.fit_hole_lorentzian(np.full(8, 3e6), np.linspace(1.0, 0.6, 8))

    def test_nonfinite_signal_rejected(self):
        y = hb.lorentzian_hole(self.freq, 1.0, 0.4, -50e6, 6e6)
        y[3] = np.nan  # e.g. an excluded zero-power point left in
        with pytest.raises(ValueError, match="finite"):
            hb.fit_hole_lorentzian(self.freq, y)

    @pytest.mark.parametrize("extreme", [1e308, -1e308])
    def test_extreme_frequency_rejected(self, extreme):
        # its span squared overflows: the fit raised OverflowError
        y = hb.lorentzian_hole(self.freq, 1.0, 0.4, -50e6, 6e6)
        freq = self.freq.copy()
        freq[-1] = extreme
        with pytest.raises(ValueError, match=r"freq_span must be in "
                                             r"\[1e-100, 1e\+100\], got"):
            hb.fit_hole_lorentzian(freq, y)

    def test_subnormal_weights_rejected(self):
        # the weights (spread)^2 are subnormal: the FWHM came out 17% off
        y = 1e-160 * hb.lorentzian_hole(self.freq, 1.0, 0.4, -50e6, 6e6)
        with pytest.raises(ValueError, match=r"spread / sigma must be in "
                                             r"\[1e-100, 1e\+100\], got"):
            hb.fit_hole_lorentzian(self.freq, y)

    def test_failure_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(fitting, "_SEARCH",
                            replace(fitting._SEARCH, max_iter=3))
        y = hb.lorentzian_hole(self.freq, 1.0, 0.4, -50e6, 6e6)
        with pytest.raises(FitError) as err:
            hb.fit_hole_lorentzian(self.freq, y)
        assert "converged" in err.value.diagnostics
        assert list(err.value.diagnostics) == [
            f.name for f in fields(fitting.LorentzianHoleFit)]

    # On the seed-35 scan with no hole, a search without width bounds ends
    # on a spike narrower than a sample, at a singular J^T J.
    @settings(max_examples=60, deadline=None)
    @given(depth=st.sampled_from([0.0, 0.03, 0.4]),
           seed=st.integers(0, 2**32 - 1))
    @example(depth=0.0, seed=35)
    def test_unresolved_exactly_when_no_hole(self, depth, seed):
        # Poisson scans of 1000 counts a point with no hole, a hole near
        # the 3 sigma floor (detected in about a third of the scans) and a
        # clear one: the fit either raises FitError or returns a converged
        # record that leaves a parameter unresolved exactly when it
        # detects no hole, and a homogeneous linewidth exactly when it does
        freq = np.linspace(-100e6, 100e6, 400)
        rng = np.random.default_rng(seed)
        y = rng.poisson(1000 * hb.lorentzian_hole(freq, 1.0, depth, -20e6,
                                                  12e6)).astype(float)
        try:
            fit = hb.fit_hole_lorentzian(freq, y)
        except FitError as exc:
            assert exc.diagnostics["converged"] is False
            return
        assert fit.converged
        assert bool(fit.unresolved) == (not fit.hole_detected)
        assert (fit.hom_linewidth_hz is None) == bool(fit.unresolved)
        if fit.hole_detected:
            assert fit.hom_linewidth_hz == fit.fwhm_hz / 2

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 400),
           level=st.floats(0.0, 4.0))
    @example(seed=0, n=8, level=2.0)  # a gap above the width's 10% seed
    @example(seed=145193, n=8, level=0.0)  # y = [1, 1, 1, 0, 0, 1, 1, 1]
    def test_no_hole_search_stays_on_resolved_shapes(self, seed, n, level):
        # Poisson scans of 10^level counts a point with no hole: the fit
        # ends on a width from the sample step to the span and a centre on
        # the axis (to rounding), never on a spike between samples.  The
        # sample nearest a resolved centre dips at least half the depth,
        # so the depth stays within two spreads of the signal.
        freq = np.linspace(-100e6, 100e6, n)
        y = np.random.default_rng(seed).poisson(10**level, n).astype(float)
        try:
            fit = hb.fit_hole_lorentzian(freq, y)
        except FitError as exc:
            assert exc.diagnostics["converged"] is False
            return
        span, step = np.ptp(freq), freq[1] - freq[0]
        rounding = 1e-12 * span
        assert step - rounding <= fit.fwhm_hz <= span + rounding
        assert freq[0] - rounding <= fit.center_hz <= freq[-1] + rounding
        assert 0 <= fit.depth <= 2 * np.ptp(y)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_jacobian_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        fwhm = 10 ** rng.uniform(5, 8)
        center = rng.choice([-1, 1]) * fwhm * rng.uniform(0.5, 5)
        freq = np.sort(center + fwhm * rng.uniform(-10, 10, 50))
        params = [rng.choice([-1, 1]) * rng.uniform(0.1, 10),
                  rng.uniform(0.01, 10), center, fwhm]
        fd = fd_jacobian(lambda p: hb.lorentzian_hole(freq, *p), params)
        jac = np.column_stack(fitting._hole_jacobian(freq, params))
        # central differences with step 1e-6 |p|: rounding of the model
        # over the step, and the step squared times the column
        model_size = np.abs(hb.lorentzian_hole(freq, *params)).max()
        tol = 1e-9 * (model_size / np.abs(params) + np.abs(fd).max(axis=0))
        assert np.all(np.abs(jac - fd) <= tol)

    # A Poisson scan treated like the benchmark's.
    raw = hb.gen_hole_scan(np.linspace(-100e6, 100e6, 2001), 1.0, 0.4, -50e6,
                           6e6, 1e3, (0, 100),
                           noise=hb.NoiseSpec(kind="poisson", seed=7))
    scan = hb.normalize_by_power(hb.subtract_background(raw))
    bench_freq = scan.freq[scan.included]
    bench_signal = scan.signal[scan.included]

    @settings(max_examples=60, deadline=None)
    @given(j=accepted_exponents(bench_freq.tolist()),
           k=accepted_exponents(bench_signal.tolist()))
    @example(j=-300, k=0)
    @example(j=240, k=0)
    def test_power_of_two_rescaling_is_exact(self, j, k):
        # The search runs on the span-normalized axis, so it takes the same
        # steps; the Jacobian, which divides by the axis to the 4th power,
        # overflowed above ~1e77 Hz and underflowed below ~1e-77 Hz.
        base = hb.fit_hole_lorentzian(self.bench_freq, self.bench_signal)
        fit = hb.fit_hole_lorentzian(np.ldexp(self.bench_freq, j),
                                     np.ldexp(self.bench_signal, k))
        assert base.hole_detected
        assert (fit.hole_detected, fit.unresolved, fit.nfev) == \
            (base.hole_detected, base.unresolved, base.nfev)
        for name, err, e in [("center_hz", "center_err_hz", j),
                             ("fwhm_hz", "fwhm_err_hz", j),
                             ("depth", "depth_err", k),
                             ("baseline", "baseline_err", k)]:
            assert getattr(fit, name) == math.ldexp(getattr(base, name), e)
            assert getattr(fit, err) == \
                math.ldexp(getattr(base, err), e), name
        assert fit.residual_sse == math.ldexp(base.residual_sse, 2 * k)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_errors_match_finite_difference_errors(self, weighted):
        # 2001-point scans of acceptance 6b, then a Poisson scan treated
        # like the benchmark's, with sloped power and detector offsets
        freq = np.linspace(-100e6, 100e6, 2001)
        scans = []
        for seed in range(10):
            noise = hb.NoiseSpec(kind="gaussian", seed=seed,
                                 gaussian_sigma=0.02)
            scans.append((freq, hb.apply_noise(
                hb.lorentzian_hole(freq, 1.0, 0.4, -50e6, 6e6), noise)))
        raw = hb.gen_hole_scan(freq, 1.0, 0.4, 20e6, 6e6, 1e3, (0, 100),
                               power_slope=0.05, fluor_offset=120.0,
                               power_offset=30.0,
                               noise=hb.NoiseSpec(kind="poisson", seed=7))
        scan = hb.normalize_by_power(hb.subtract_background(raw))
        scans.append((scan.freq[scan.included], scan.signal[scan.included]))
        for f, y in scans:
            sigma = 0.02 * (1 + 0.5 * np.sin(f / 3e7)) if weighted else None
            fit = hb.fit_hole_lorentzian(f, y, sigma_point=sigma)
            params = [fit.baseline, fit.depth, fit.center_hz, fit.fwhm_hz]
            ref = fd_errors(lambda p: hb.lorentzian_hole(f, *p), params,
                            hb.lorentzian_hole(f, *params) - y,
                            None if sigma is None else 1 / sigma)
            errors = [fit.baseline_err, fit.depth_err, fit.center_err_hz,
                      fit.fwhm_err_hz]
            assert fit.hole_detected
            assert errors == pytest.approx(ref, rel=1e-7)


class TestHomLinewidth:
    def test_six_to_three_mhz(self):
        assert hb.hom_linewidth_from_hole(6e6) == 3e6

    def test_halving(self):
        assert hb.hom_linewidth_from_hole(0.1) == 0.05
        x = 7.7e6
        assert hb.hom_linewidth_from_hole(2 * x) == x

    def test_invalid(self):
        for fwhm in (0.0, -1e6, np.nan, np.inf):
            with pytest.raises(ValueError):
                hb.hom_linewidth_from_hole(fwhm)


@st.composite
def decay_series(draw):
    """(t, y) lists of 4 to 40 noisy samples of a exp(-t/tau) + offset.

    The times span [0, 1] with tau from 0.05 to 0.5, and the noise is 1%
    of the amplitude, so most series resolve the decay.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 40))
    t = np.r_[0.0, 1.0, rng.uniform(0, 1, n - 2)]
    amplitude = rng.choice([-1, 1]) * rng.uniform(1, 10)
    y = hb.exp_decay(t, amplitude, rng.uniform(0.05, 0.5), rng.normal(0, 1)) \
        + rng.normal(0, 0.01 * abs(amplitude), n)
    return t.tolist(), y.tolist()


def fit_or_error(t, y):
    """The lifetime fit, or the message and diagnostics of its FitError."""
    try:
        return hb.fit_exponential(t, y)
    except FitError as exc:
        return str(exc), exc.diagnostics


def assert_on_lower_tau_bound(diagnostics, gap):
    """The lifetime search stopped on its lower bound, where exp(-gap / tau)
    reaches machine epsilon, before its call budget ran out: the decay
    over the shortest step leaves no trace in the next sample.  The bound
    is approached by ever shorter steps, as the SSE there falls to 0."""
    assert diagnostics["tau_s"] == pytest.approx(
        gap / -math.log(np.finfo(float).eps), rel=1e-12)
    assert diagnostics["nfev"] <= simplex._GN_MAX_ITER


class TestExponentialFit:
    times = np.linspace(0.0, 0.5, 30)

    def test_noiseless_recovery(self):
        y = hb.exp_decay(self.times, 1.0, 0.072, 0.1)
        fit = hb.fit_exponential(self.times, y, with_offset=True)
        assert fit.tau_s == pytest.approx(0.072, rel=1e-3)
        assert fit.amplitude == pytest.approx(1.0, rel=1e-3)
        assert fit.offset == pytest.approx(0.1, rel=1e-3)

    def test_no_offset_mode(self):
        y = hb.exp_decay(self.times, 2.0, 0.1)
        fit = hb.fit_exponential(self.times, y, with_offset=False)
        assert fit.offset is None
        assert fit.tau_s == pytest.approx(0.1, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(c=st.one_of(st.floats(0.01, 100.0), st.floats(-100.0, -0.01)))
    def test_value_rescaling_leaves_tau(self, c):
        y = np.asarray(hb.exp_decay(self.times, 1.0, 0.072, 0.1))
        a = hb.fit_exponential(self.times, y)
        b = hb.fit_exponential(self.times, c * y)
        assert b.tau_s == pytest.approx(a.tau_s, rel=1e-9)
        assert b.amplitude == pytest.approx(c * a.amplitude, rel=1e-9)
        assert b.offset == pytest.approx(c * a.offset, rel=1e-9)

    def test_unconverged_search_raises(self, monkeypatch):
        # one trial step cannot converge the search: the fit raises, with
        # its record's fields as the diagnostics, instead of returning it
        monkeypatch.setattr(simplex, "_GN_MAX_ITER", 1)
        y = hb.exp_decay(self.times, 1.0, 0.072, 0.1)
        with pytest.raises(FitError, match="exponential fit did not "
                                           "converge") as err:
            hb.fit_exponential(self.times, y)
        diagnostics = err.value.diagnostics
        assert list(diagnostics) == [f.name for f in fields(hb.ExpDecayFit)]
        assert diagnostics["converged"] is False

    def test_constant_data(self):
        fit = hb.fit_exponential(self.times, np.full_like(self.times, 3.0))
        assert fit.amplitude == pytest.approx(0.0, abs=1e-9)
        assert fit.tau_s > 0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            hb.fit_exponential([0.0, 1.0, 2.0], [3.0, 2.0, 1.0])

    def test_unresolvable_decay_raises(self):
        # a decay complete before the second sample drives tau toward 0
        # until the fit is exact in floating point; the decay over the
        # shortest step then leaves no trace in the next sample
        t = np.arange(1.0, 9.0)
        y = np.zeros_like(t)
        y[0] = 1.0
        with pytest.raises(FitError, match="no resolvable decay") as err:
            hb.fit_exponential(t, y)
        assert_on_lower_tau_bound(err.value.diagnostics, gap=1.0)

    def test_decay_before_second_sample_raises(self):
        # from t = 0 the amplitude stays finite as tau -> 0; the decay over
        # the shortest step is what no sample resolves
        t = np.arange(0.0, 8.0)
        y = np.zeros_like(t)
        y[0] = 1.0
        with pytest.raises(FitError, match="no resolvable decay") as err:
            hb.fit_exponential(t, y)
        assert_on_lower_tau_bound(err.value.diagnostics, gap=1.0)

    def test_late_time_axis_names_amplitude_overflow(self):
        # a 68 ms decay sampled on [50, 50.5] s is resolved, but its
        # amplitude at t = 0 is exp(50 / 0.068) times the first sample's
        rng = np.random.default_rng(1)
        t = np.linspace(50.0, 50.5, 25)
        y = hb.exp_decay(t - 50.0, 1.0, 0.068, 0.1) \
            + rng.normal(0, 0.01, t.size)
        with pytest.raises(FitError, match="amplitude at t = 0 overflows") \
                as err:
            hb.fit_exponential(t, y)
        resolved = hb.fit_exponential(t - 50.0, y)
        assert err.value.diagnostics["tau_s"] == pytest.approx(resolved.tau_s,
                                                                rel=1e-7)
        assert resolved.tau_s == pytest.approx(0.068, rel=0.05)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(0.0, 5.0))
    def test_time_shift_scales_amplitude(self, c):
        y = hb.exp_decay(self.times, 1.0, 0.072, 0.1)
        a = hb.fit_exponential(self.times, y)
        b = hb.fit_exponential(self.times + c, y)
        assert b.tau_s == pytest.approx(a.tau_s, rel=1e-9)
        assert b.offset == pytest.approx(a.offset, rel=1e-9)
        assert b.amplitude == pytest.approx(
            a.amplitude * np.exp(c / b.tau_s), rel=1e-9)

    def test_gauss_newton_matches_brent_oracle(self, monkeypatch):
        rng = np.random.default_rng(4)
        waits = np.linspace(0.0, 0.5, 25)
        y = hb.exp_decay(waits, 1.0, 0.072, 0.05) \
            + rng.normal(0, 0.02, waits.size)
        fit = hb.fit_exponential(waits, y)
        monkeypatch.setattr(lifetime, "gauss_newton",
                            brent_in_place_of_gauss_newton)
        oracle = hb.fit_exponential(waits, y)
        assert fit.converged and oracle.converged
        assert fit.tau_s == pytest.approx(oracle.tau_s, rel=1e-8)
        assert fit.tau_err_s == pytest.approx(oracle.tau_err_s, rel=1e-8)
        assert fit.residual_sse == pytest.approx(oracle.residual_sse,
                                                 rel=1e-12)
        assert fit.nfev < oracle.nfev

    def test_lands_on_the_optimum(self):
        # the root of the projected SSE's derivative, in 50 digits; at
        # sigma = 0.2 the lifetime is known to ~30%, as the paper's is, and
        # the large residual slows a search on h = col.col alone
        mpmath = pytest.importorskip("mpmath")
        waits = np.linspace(0.0, 0.5, 25)
        for sigma, seed in itertools.product((0.01, 0.2), range(30)):
            rng = np.random.default_rng(seed)
            y = hb.exp_decay(waits, 1.0, rng.uniform(0.04, 0.11),
                             rng.uniform(0.0, 0.1)) \
                + rng.normal(0, sigma, waits.size)
            fit = hb.fit_exponential(waits, y)
            assert fit.nfev <= 12, (sigma, seed)
            with mpmath.workdps(50):
                t = [mpmath.mpf(float(v)) for v in waits]
                dy = [mpmath.mpf(float(v)) for v in y]
                dy = [v - mpmath.fsum(dy) / len(dy) for v in dy]

                def sse(tau):
                    e = [mpmath.exp(-v / tau) for v in t]
                    e = [v - mpmath.fsum(e) / len(e) for v in e]
                    a = mpmath.fdot(e, dy) / mpmath.fdot(e, e)
                    return mpmath.fsum((v - a * w) ** 2
                                       for w, v in zip(e, dy))

                tau = mpmath.findroot(lambda x: mpmath.diff(sse, x),
                                      mpmath.mpf(fit.tau_s))
                assert abs(float(fit.tau_s / tau) - 1) <= 1e-10, (sigma, seed)

    def test_subnormal_gap_fits_as_before(self):
        # the shortest step is 5e-324 s: the lower bound on log(tau / span)
        # is taken in log space, where it does not underflow, and the fit
        # is the one an unbounded search finds
        t = [0.0, 5e-324, 1.0, 2.0, 3.0]
        fit = hb.fit_exponential(t, [3.0, 3.0, 2.0, 1.5, 1.2])
        assert (fit.tau_s, fit.nfev) == (1.575536579124889, 6)

    def test_flat_series_stops_on_the_upper_bound(self):
        # no decay and no offset: tau runs to 100 sampled spans, where the
        # search stops within a few calls
        with pytest.raises(FitError, match="no resolvable decay") as err:
            hb.fit_exponential([0.0, 1.0, 2.0, 3.0, 4.0], [3.0] * 5,
                               with_offset=False)
        diag = err.value.diagnostics
        assert diag["tau_s"] == pytest.approx(400.0, rel=1e-12)
        assert diag["nfev"] <= 20

    def test_lifetime_beyond_sampled_span_raises(self):
        # a 2 ms decay sampled from 0.1 s on is pure noise around the
        # floor; the flat tau -> infinity end of the objective fits a line
        waits = np.linspace(0.1, 0.5, 25)
        areas = hb.gen_hole_decay_series(0.002, 0.05, waits,
                                         hb.NoiseSpec("gaussian", 1, 0.01))
        with pytest.raises(FitError) as err:
            hb.fit_exponential(waits, areas, with_offset=True)
        diag = err.value.diagnostics
        assert diag["span_s"] == pytest.approx(0.4)
        assert diag["tau_s"] > 100 * diag["span_s"]

    def test_constant_data_leaves_tau_unresolved(self):
        fit = hb.fit_exponential(self.times, np.full_like(self.times, 3.0))
        assert fit.tau_err_s is None and fit.unresolved == ["tau_s"]
        assert asdict(fit)["tau_err_s"] is None
        assert fit.amplitude_err is not None and fit.offset_err is not None

    def test_pure_noise_rarely_resolves_tau(self):
        # a flat series with noise either fails or reports no tau error,
        # bar the rare noise that passes the 3-sigma test
        resolved = 0
        for seed in range(100):
            y = 3.0 + np.random.default_rng(seed).normal(0, 0.01, 30)
            try:
                fit = hb.fit_exponential(self.times, y)
            except FitError:
                continue
            resolved += fit.tau_err_s is not None
        assert resolved <= 3

    def test_point_order_does_not_matter(self):
        # a decay complete before the second sample, fed out of order
        t = np.arange(8.0)[[0, 5, 2, 7, 1, 3, 4, 6]]
        with pytest.raises(FitError, match="no resolvable decay"):
            hb.fit_exponential(t, (t == 0).astype(float))
        y = hb.exp_decay(self.times, 1.0, 0.072, 0.1)
        assert hb.fit_exponential(self.times[::-1], y[::-1]) == \
            hb.fit_exponential(self.times, y)

    @settings(max_examples=200, deadline=None)
    @given(series=decay_series(), seed=st.integers(0, 2**32 - 1))
    def test_permutation_is_bit_identical(self, series, seed):
        # the points are sorted first, and every sum is an fsum
        t, y = series
        order = np.random.default_rng(seed).permutation(len(t))
        assert fit_or_error([t[i] for i in order], [y[i] for i in order]) \
            == fit_or_error(t, y)

    @pytest.mark.parametrize("times, values, match", [
        (np.ones((4, 2)), np.ones((4, 2)), "1-D"),
        (np.float64(1.0), [1.0], "1-D"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "1-D"),
        ([0.0, 1.0, 2.0, np.nan], [4.0, 3.0, 2.0, 1.0], "finite"),
        ([0.0, 1.0, 2.0, 3.0], [4.0, np.inf, 2.0, 1.0], "finite"),
        ([1.0, 1.0, 1.0, 1.0], [4.0, 3.0, 2.0, 1.0], "coincide"),
        ([0.0, 1.0, 2.0], [3.0, 2.0, 1.0], "at least 4"),
    ], ids=["2-d-array", "scalar", "ragged", "nan-time", "inf-value",
            "one-time", "three-points"])
    def test_rejects_malformed_input(self, times, values, match):
        with pytest.raises(ValueError, match=match):
            hb.fit_exponential(times, values)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), start=st.floats(0.0, 1.0),
           with_offset=st.booleans())
    def test_jacobian_matches_finite_differences(self, seed, start,
                                                 with_offset):
        rng = np.random.default_rng(seed)
        t = start + np.r_[0.0, rng.uniform(0, 2, 19)]
        tau = 10 ** rng.uniform(-1.5, 0.5)
        params = [rng.choice([-1, 1]) * rng.uniform(0.1, 10), tau,
                  rng.normal(0, 1)][:3 if with_offset else 2]
        fd = fd_jacobian(lambda p: np.asarray(hb.exp_decay(t, *p)), params)
        # anchored at the first time, the amplitude's column is scaled
        scale = np.exp(-start / tau)
        jac = np.array(lifetime._jacobian(
            t.tolist(), [params[0] * scale, *params[1:]], start)).T
        jac[:, 0] *= scale
        # central differences with step 1e-6 |p|: rounding of the model
        # over the step, and the step squared times the column
        model_size = np.abs(hb.exp_decay(t, *params)).max()
        tol = 1e-9 * (model_size / np.abs(params) + np.abs(fd).max(axis=0))
        assert np.all(np.abs(jac - fd) <= tol)

    @pytest.mark.parametrize("with_offset", [True, False])
    @pytest.mark.parametrize("start", [0.0, 0.3])
    def test_errors_match_finite_difference_errors(self, with_offset, start):
        # 25-point series like the benchmark's hole-decay sessions; from
        # start > 0 the amplitude at t = 0 is extrapolated
        waits = start + np.linspace(0.0, 0.5, 25)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y = np.exp(-(waits - start) / rng.uniform(0.05, 0.1)) \
                + rng.uniform(0.02, 0.08) + rng.normal(0.0, 0.01, waits.size)
            fit = hb.fit_exponential(waits, y, with_offset)
            params = [fit.amplitude, fit.tau_s,
                      fit.offset][:3 if with_offset else 2]
            residuals = hb.exp_decay(waits, *params) - y
            ref = fd_errors(lambda p: np.asarray(hb.exp_decay(waits, *p)),
                            params, residuals)
            errors = [fit.amplitude_err, fit.tau_err_s, fit.offset_err]
            assert errors[:len(params)] == pytest.approx(ref, rel=1e-8)


@st.composite
def noisy_lines(draw):
    """(x, y) lists of 3 to 40 points on a line with unit Gaussian noise.

    x spans at least [-0.5, 0.5] inside [-5, 5], and the slope is 1 to 20
    in magnitude, so the noise and not rounding sets the fitted interval.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 40))
    x = np.r_[-0.5, 0.5, rng.uniform(-5, 5, n - 2)]
    slope = rng.choice([-1, 1]) * rng.uniform(1, 20)
    y = slope * x + rng.normal(0, 10) + rng.normal(0, 1, n)
    return x.tolist(), y.tolist()


class TestLinearFit:
    def test_exact_line(self):
        x = np.arange(10.0)
        fit = hb.fit_linear_ci(x, 2 * x + 1, confidence=0.8)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.slope_ci == pytest.approx(0.0, abs=1e-12)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            hb.fit_linear_ci(np.ones(5), np.arange(5.0))

    def test_noisy_slope_interval(self):
        rng = np.random.default_rng(11)
        x = np.linspace(0.5, 6.0, 12)
        y = 44.5 * x + 3.0 + rng.normal(0, 2.0, x.size)
        fit = hb.fit_linear_ci(x, y, confidence=0.8)
        assert fit.slope == pytest.approx(44.5, rel=0.05)
        assert fit.slope_ci > 0

    def test_quick_coverage(self):
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(60):
            x = np.linspace(0.0, 5.0, 10)
            y = 3.0 * x + 1.0 + rng.normal(0, 1.0, x.size)
            if hb.fit_linear_ci(x, y, 0.8).covers(3.0):
                hits += 1
        assert hits >= 0.65 * 60

    @pytest.mark.parametrize("x, y, confidence, match", [
        (np.ones((3, 2)), np.ones((3, 2)), 0.8, "1-D"),
        ([[0.0, 1.0], [2.0, 3.0]], [1.0, 2.0], 0.8, "1-D"),
        (np.float64(1.0), [1.0], 0.8, "1-D"),
        ([0.0, 1.0, 2.0], [1.0, 2.0], 0.8, "1-D"),
        ([0.0, 1.0], [1.0, 2.0], 0.8, "at least 3"),
        ([0.0, 1.0, np.nan], [1.0, 2.0, 3.0], 0.8, "finite"),
        ([0.0, 1.0, 2.0], [1.0, np.inf, 3.0], 0.8, "finite"),
        ([0.0, 1.0, 2.0], [1.0, 2.0, 4.0], 1.0, "confidence"),
        ([0.0, 1.0, 2.0], [1.0, 2.0, 4.0], 0.0, "confidence"),
        # each square below overflows: a traceback, or slope -0.0 for x
        ([0.0, 1.0, 2.0], [1.0, 1.7e154, 3.0], 0.8,
         r"y must be in \[-1e\+100, 1e\+100\]"),
        ([0.0, 1.0, 1e308], [1.0, 2.0, 3.0], 0.8,
         r"x must be in \[-1e\+100, 1e\+100\]"),
        ([0.0, 1.0, -1e308], [1.0, 2.0, 3.0], 0.8,
         r"x must be in \[-1e\+100, 1e\+100\]"),
        ([0.0, 1.0, 1.7e154], [1.0, 2.0, 3.0], 0.8,
         r"x must be in \[-1e\+100, 1e\+100\]"),
        # the squares below are subnormal: the slope, or the CI, is off
        ([0.0, 1e-170, 2e-170], [1.0, 2.0, 4.0], 0.8,
         r"x spread must be in \[1e-100, 1e\+100\]"),
        ([0.0, 1.0, 2.0], [1e-163, 2e-163, 4e-163], 0.8,
         r"y spread must be in \[1e-100, 1e\+100\]"),
    ], ids=["2-d-array", "nested-list", "scalar", "ragged", "two-points",
            "nan-x", "inf-y", "confidence-1", "confidence-0", "huge-y",
            "max-x", "min-x", "huge-x", "tiny-x", "tiny-y"])
    def test_rejects_malformed_input(self, x, y, confidence, match):
        with pytest.raises(ValueError, match=match):
            hb.fit_linear_ci(x, y, confidence)

    @settings(max_examples=200, deadline=None)
    @given(line=noisy_lines(), seed=st.integers(0, 2**32 - 1))
    def test_permutation_is_bit_identical(self, line, seed):
        # every sum is an fsum, which is correctly rounded
        x, y = line
        order = np.random.default_rng(seed).permutation(len(x))
        assert hb.fit_linear_ci([x[i] for i in order],
                                [y[i] for i in order]) == \
            hb.fit_linear_ci(x, y)

    # A seed-0 noisy line.
    line_x = np.linspace(0.0, 7.0, 12).tolist()
    line_y = (0.5 * np.array(line_x) + 1.0
              + np.random.default_rng(0).normal(0, 0.3, 12)).tolist()

    @settings(max_examples=200, deadline=None)
    @given(j=accepted_exponents(line_x), k=accepted_exponents(line_y))
    @example(j=-250, k=300)
    @example(j=250, k=-300)
    def test_power_of_two_rescaling_is_exact(self, j, k):
        # s2 / sxx goes as 2^(2k - 2j): it overflowed or underflowed while
        # the slope did not, and the errors came out inf or 0
        base = hb.fit_linear_ci(self.line_x, self.line_y)
        fit = hb.fit_linear_ci([math.ldexp(v, j) for v in self.line_x],
                               [math.ldexp(v, k) for v in self.line_y])
        assert fit == replace(
            base, slope=math.ldexp(base.slope, k - j),
            intercept=math.ldexp(base.intercept, k),
            slope_ci=math.ldexp(base.slope_ci, k - j),
            slope_err=math.ldexp(base.slope_err, k - j),
            intercept_err=math.ldexp(base.intercept_err, k),
            residual_sse=math.ldexp(base.residual_sse, 2 * k))

    @settings(max_examples=200, deadline=None)
    @given(line=noisy_lines(), shift=st.floats(-1e3, 1e3))
    def test_x_shift_leaves_slope(self, line, shift):
        x, y = line
        fit = hb.fit_linear_ci(x, y)
        moved = hb.fit_linear_ci([v + shift for v in x], y)
        assert moved.slope == pytest.approx(fit.slope, rel=1e-9)
        assert moved.slope_ci == pytest.approx(fit.slope_ci, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(line=noisy_lines(), a=st.floats(1e-3, 1e3),
           negative=st.booleans(), b=st.floats(-100, 100))
    def test_affine_y_scales_slope(self, line, a, negative, b):
        x, y = line
        a = -a if negative else a
        fit = hb.fit_linear_ci(x, y)
        scaled = hb.fit_linear_ci(x, [a * v + b for v in y])
        assert scaled.slope == pytest.approx(a * fit.slope, rel=1e-9)
        assert scaled.slope_ci == pytest.approx(abs(a) * fit.slope_ci,
                                                rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(line=noisy_lines())
    def test_slope_matches_lstsq(self, line):
        x, y = line
        design = np.column_stack([x, np.ones(len(x))])
        ref = np.linalg.lstsq(design, y, rcond=None)[0][0]
        assert hb.fit_linear_ci(x, y).slope == pytest.approx(ref, rel=1e-10)


def _bounded_blocks(seed, sizes):
    """Blocks (S_c, y_c, P_c) of the trap fit's linear problem, one curve
    of each size in `sizes`.

    Each curve has a positive decay signal, or one that is all zero; B's
    column is the curve's power on every row.  A scale drawn negative
    makes A_c >= 0 bind, and a negative background makes B >= 0 bind
    unless the curves' constant parts absorb it.
    """
    rng = np.random.default_rng(seed)
    background = rng.uniform(-5, 5)
    blocks = []
    for k in sizes:
        t = np.sort(rng.uniform(0, 5, k))
        s = np.exp(-rng.uniform(0.1, 3) * t) + rng.uniform(0, 1)
        if rng.uniform() < 0.1:
            s = np.zeros(k)
        scale = rng.uniform(-300, 1e3)
        power = rng.uniform(1, 50)
        y = scale * s + background * power + rng.normal(size=k)
        blocks.append((s, y, power))
    return blocks


@st.composite
def bounded_problems(draw):
    return _bounded_blocks(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(st.integers(3, 12), min_size=1, max_size=7)))


class TestLeastSquares:
    @settings(max_examples=300, deadline=None)
    @given(blocks=bounded_problems())
    # scipy's lsq_linear(method="bvls") stopped 7.7% above the optimum
    # here (status 3, nit 0); its NNLS does not
    @example(blocks=_bounded_blocks(16992, [8, 3, 12, 11, 5, 11]))
    def test_matches_bvls(self, blocks):
        # the oracle is NNLS, the bounded problem with every bound at 0
        from scipy.optimize import nnls

        scales, background, sse, _ = _arrow_least_squares(blocks)
        # the dense design: S_c on curve c's rows, and P_c on all of them
        sizes = [s.size for s, _, _ in blocks]
        rows = np.repeat(np.arange(len(blocks)), sizes)
        design = np.zeros((rows.size, len(blocks) + 1))
        design[np.arange(rows.size), rows] = np.concatenate(
            [s for s, _, _ in blocks])
        design[:, -1] = np.repeat([p0 for _, _, p0 in blocks], sizes)
        target = np.concatenate([y for _, y, _ in blocks])
        norms = np.linalg.norm(design, axis=0)
        norms[norms == 0] = 1.0
        _, rnorm = nnls(design / norms, target)
        assert sse == pytest.approx(rnorm**2, rel=1e-10)
        coef = np.array([*scales, background])
        assert np.all(coef >= 0)
        # KKT: moving a coefficient held at 0 upwards cannot lower the SSE.
        gradient = (design / norms).T @ (target - design @ coef)
        held = coef == 0
        assert np.all(gradient[held] <= 1e-9 * np.linalg.norm(target))


@pytest.mark.parametrize("dof", [*range(1, 60), 100, 250, 1000, 10**4])
def test_t_quantile_matches_scipy(dof):
    from scipy.special import stdtrit

    for level in [0.5, 0.505, 0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.995,
                  0.999]:
        assert _t_quantile(dof, level) == pytest.approx(
            float(stdtrit(dof, level)), rel=1e-11, abs=1e-11)


@pytest.fixture(scope="module")
def seven_curve_batch(material):
    """Poisson batch at the benchmark's seven trap-fit powers."""
    t = np.linspace(0, 120, 31)
    powers = [2e-6, 4e-6, 8e-6, 13e-6, 21e-6, 29e-6, 44e-6]
    return hb.gen_decay_batch(material, 9e4, 0.19, 9.4e7, powers, t,
                              hb.NoiseSpec(kind="poisson", seed=11))


@pytest.fixture(scope="module")
def poisson_batch_3(material):
    """Seed-3 Poisson batch at 2, 20 and 44 uW on the level-set rule."""
    return hb.gen_decay_batch(material, 7e4, 0.19, 9.4e7,
                              [2e-6, 20e-6, 44e-6], np.linspace(0, 200, 81),
                              hb.NoiseSpec(kind="poisson", seed=3))


@pytest.fixture(scope="module")
def seven_curve_batch_3(material):
    """The seven-power batch of `seven_curve_batch`, drawn at seed 3."""
    t = np.linspace(0, 120, 31)
    powers = [2e-6, 4e-6, 8e-6, 13e-6, 21e-6, 29e-6, 44e-6]
    return hb.gen_decay_batch(material, 9e4, 0.19, 9.4e7, powers, t,
                              hb.NoiseSpec(kind="poisson", seed=3))


def trap_batches(material):
    """20 Poisson two-power batches, seeds 1 to 20."""
    t = np.linspace(0, 120, 31)
    return [hb.gen_decay_batch(material, 9e4, 0.19, 9.4e7, [8e-6, 29e-6], t,
                               hb.NoiseSpec(kind="poisson", seed=seed))
            for seed in range(1, 21)]


def assert_same_fit_permuted(permuted, fit, order):
    """The fit of the curves taken in `order` is `fit`, bit for bit, with
    its scales permuted along."""
    assert permuted.gamma_trap_per_s == fit.gamma_trap_per_s
    assert (permuted.background_b_counts_per_w
            == fit.background_b_counts_per_w)
    assert permuted.residual_sse == fit.residual_sse
    assert permuted.nfev == fit.nfev
    assert permuted.scale_a == [fit.scale_a[i] for i in order]


def slowest_resolvable_gamma(material, t, powers):
    """The trap fit's lower bound on gamma_trap for curves sampled at t:
    1 / (100 max_c(max k_c * max t)), k_c the rates of curve c's cloud per
    unit gamma_trap, below which the model is a straight line."""
    fastest = max(TrapDecayModel(material, hb.BeamGeometry.for_material(
        material, power=p0, focus_fwhm=1e-6)).compressed().bin_k.max() * t[-1]
        for p0 in powers)
    return 1 / (100 * fastest)


class TestTrapFit:
    def test_gauss_newton_matches_brent_oracle(self, material,
                                               two_curve_batch, monkeypatch):
        fit = hb.fit_trap_model(two_curve_batch, material)
        monkeypatch.setattr(fitting, "gauss_newton",
                            brent_in_place_of_gauss_newton)
        oracle = hb.fit_trap_model(two_curve_batch, material)
        assert fit.converged and oracle.converged
        assert fit.gamma_trap_per_s == pytest.approx(oracle.gamma_trap_per_s,
                                                     rel=1e-8)
        assert fit.residual_sse == pytest.approx(oracle.residual_sse,
                                                 rel=1e-12)
        assert fit.nfev < oracle.nfev

    def test_unconverged_search_raises(self, material, two_curve_batch,
                                       monkeypatch):
        # one trial step cannot converge the search: the fit raises, with
        # its record's fields as the diagnostics, instead of returning it
        monkeypatch.setattr(simplex, "_GN_MAX_ITER", 1)
        with pytest.raises(FitError, match="trap fit did not converge") as err:
            hb.fit_trap_model(two_curve_batch, material)
        diagnostics = err.value.diagnostics
        assert list(diagnostics) == [f.name for f in fields(hb.TrapFitResult)]
        assert diagnostics["converged"] is False

    def test_no_rule_named_is_the_level_set_rule(self, material,
                                                 monkeypatch):
        # the generator and the fit run the CLI's rule and take no other
        t = np.linspace(0, 200, 41)
        powers = [2e-6, 44e-6]
        curves = hb.gen_decay_batch(material, 7e4, 0.19, 9.4e7, powers, t)
        for curve, p0 in zip(curves, powers, strict=True):
            geom = hb.BeamGeometry.for_material(material, power=p0)
            s = hb.refine_until_converged(t, material, geom, 7e4, rel_tol=0)
            assert curve.counts_per_s.tobytes() == hb.scaled_signal(
                s.values, 0.19, 9.4e7, p0).tobytes()
        built = []

        def recording(*args, **kwargs):
            built.append(TrapDecayModel(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(fitting, "TrapDecayModel", recording)
        hb.fit_trap_model(curves, material)
        assert [m.domain for m in built] == [hb.LevelSetRule()] * 2
        for call in (lambda: hb.gen_decay_batch(
                material, 7e4, 0.19, 9.4e7, powers, t,
                domain=hb.LevelSetRule()),
                lambda: hb.fit_trap_model(curves, material,
                                          domain=hb.LevelSetRule())):
            with pytest.raises(TypeError, match="domain"):
                call()

    def test_calls_per_fit(self, material):
        for seed, curves in enumerate(trap_batches(material), 1):
            res = hb.fit_trap_model(curves, material)
            assert res.converged
            assert res.nfev <= 6, seed

    def test_model_evaluated_once_per_curve_and_step(self, material,
                                                    seven_curve_batch,
                                                    monkeypatch):
        # each objective call and the final solve evaluate every curve's
        # S and dS/dgamma in one `signal` call
        calls = []
        signal = CompressedDecayModel.signal

        def counting(model, t_grid, gamma_trap):
            calls.append(gamma_trap)
            return signal(model, t_grid, gamma_trap)
        monkeypatch.setattr(CompressedDecayModel, "signal", counting)
        res = hb.fit_trap_model(seven_curve_batch, material)
        assert len(calls) == (res.nfev + 1) * len(seven_curve_batch)
        assert not hasattr(CompressedDecayModel, "signal_slope")

    def test_underflowing_cloud_has_no_resolvable_decay(self):
        # every node's k is positive, but at 1e-150 W each amp * k
        # underflows to 0, so no bin is live: FitError, where the search's
        # upper bound once took log(0)
        material = hb.MaterialParams(ion_density=1e90, fluor_rate=1e9)
        geom = hb.BeamGeometry.for_material(material, power=1e-150,
                                            focus_fwhm=1e-6)
        amp, k = integrator._cloud(material, geom, hb.LevelSetRule())
        assert np.all(k > 0) and np.all(amp * k == 0)
        assert TrapDecayModel(material, geom).compressed().bin_k.size == 0
        t = np.linspace(0.0, 120.0, 41)
        with pytest.raises(FitError, match="no resolvable decay") as err:
            hb.fit_trap_model(
                [hb.DecayCurve(t, 1 + np.exp(-t / 30), 1e-150)], material)
        assert err.value.diagnostics == {"gamma_trap_max_per_s": 0.0}

    def test_lands_on_the_optimum(self, material):
        # The Gauss-Newton step g / h in x = log gamma, from the SSE's
        # exact slope and the free columns, in dense numpy: below 1e-10
        # at the fitted gamma.
        for seed, curves in enumerate(trap_batches(material), 1):
            res = hb.fit_trap_model(curves, material)
            gamma, design, d, r = res.gamma_trap_per_s, [], [], []
            for c, a in zip(curves, res.scale_a):
                geom = hb.BeamGeometry.for_material(
                    material, power=c.power_w, focus_fwhm=1e-6)
                m = TrapDecayModel(material, geom).compressed()
                rate = gamma * m.bin_k[None, :] * c.time_s[:, None]
                s = m.frozen_amp + np.exp(-rate) @ m.bin_amp
                # d S / d log gamma = -sum amp (gamma k t) exp(-gamma k t)
                d.append(-a * (rate * np.exp(-rate)) @ m.bin_amp)
                r.append(c.counts_per_s - a * s
                         - res.background_b_counts_per_w * c.power_w)
                design.append((s, c.power_w))
            rows = np.cumsum([0] + [s.size for s, _ in design])
            columns = []
            for i, ((s, _), a) in enumerate(zip(design, res.scale_a)):
                if a > 0:
                    column = np.zeros(rows[-1])
                    column[rows[i]:rows[i + 1]] = s
                    columns.append(column)
            if res.background_b_counts_per_w > 0:
                columns.append(np.concatenate(
                    [np.full(s.size, p0) for s, p0 in design]))
            free = np.column_stack(columns)
            d, r = np.concatenate(d), np.concatenate(r)
            col = -(d - free @ np.linalg.lstsq(free, d, rcond=None)[0])
            assert abs(np.dot(r, col) / np.dot(col, col)) <= 1e-10, seed

    def test_noiseless_roundtrip(self, material):
        t = np.linspace(0, 150, 51)
        curves = hb.gen_decay_batch(material, 7e4, 0.19, 9.4e7, [20e-6], t)
        res = hb.fit_trap_model(curves, material)
        assert res.converged
        assert res.gamma_trap_per_s == pytest.approx(7e4, rel=0.01)
        assert res.scale_a[0] == pytest.approx(0.19, rel=0.02)

    def test_curve_permutation_invariance(self, material):
        t = np.linspace(0, 120, 31)
        noise = hb.NoiseSpec(kind="poisson", seed=8)
        curves = hb.gen_decay_batch(material, 9e4, 0.19, 9.4e7,
                                    [8e-6, 29e-6], t, noise)
        fwd = hb.fit_trap_model(curves, material)
        rev = hb.fit_trap_model(curves[::-1], material)
        assert_same_fit_permuted(rev, fwd, [1, 0])

    @settings(max_examples=20, deadline=None)
    @given(order=st.integers(3, 7).flatmap(
        lambda n: st.permutations(range(n))))
    def test_random_curve_permutations(self, material, seven_curve_batch,
                                       order):
        curves = seven_curve_batch[:len(order)]
        fit = hb.fit_trap_model(curves, material)
        permuted = hb.fit_trap_model([curves[i] for i in order], material)
        assert_same_fit_permuted(permuted, fit, order)

    @settings(max_examples=8, deadline=None)
    @given(c=st.floats(1e-3, 1e3))
    def test_value_rescaling_scales_a_and_b(self, material, two_curve_batch,
                                            c):
        curves = two_curve_batch
        base = hb.fit_trap_model(curves, material)
        scaled = hb.fit_trap_model(
            [replace(curve, counts_per_s=c * curve.counts_per_s)
             for curve in curves], material)
        assert scaled.gamma_trap_per_s == pytest.approx(
            base.gamma_trap_per_s, rel=1e-6)
        assert scaled.residual_sse == pytest.approx(c**2 * base.residual_sse,
                                                    rel=1e-6)
        assert scaled.background_b_counts_per_w == pytest.approx(
            c * base.background_b_counts_per_w, rel=1e-4)
        for sa, ba in zip(scaled.scale_a, base.scale_a):
            assert sa == pytest.approx(c * ba, rel=1e-4)

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(-300, 200))
    @example(k=-300)
    def test_power_of_two_rescaling_is_exact(self, material,
                                             poisson_batch_3, k):
        # Counts times 2^k: the search sees every sum scaled exactly, so it
        # takes the same steps to the same gamma, and A_c and B scale by
        # exactly 2^k; g^2 underflows at k = -300, g / h * g does not.
        base = hb.fit_trap_model(poisson_batch_3, material)
        scaled = hb.fit_trap_model(
            [replace(c, counts_per_s=np.ldexp(c.counts_per_s, k))
             for c in poisson_batch_3], material)
        assert (scaled.gamma_trap_per_s, scaled.nfev) == (
            base.gamma_trap_per_s, base.nfev)
        assert scaled.background_b_counts_per_w == math.ldexp(
            base.background_b_counts_per_w, k)
        assert scaled.scale_a == [math.ldexp(a, k) for a in base.scale_a]

    @settings(max_examples=50, deadline=None)
    @given(scaling=st.one_of(
        st.tuples(st.sampled_from(["fluor_rate", "ion_density",
                                   "hom_linewidth0", "refr_index"]),
                  st.integers(-30, 30)),
        # coll0 = 0.016 stays a fraction up to 2^5 times
        st.tuples(st.just("coll0"), st.integers(-30, 5))))
    @example(scaling=("fluor_rate", 2))
    @example(scaling=("ion_density", -3))
    @example(scaling=("hom_linewidth0", 1))
    @example(scaling=("refr_index", 1))
    @example(scaling=("coll0", -1))
    def test_amplitude_constants_leave_the_fit(self, material,
                                               seven_curve_batch_3, scaling):
        # These constants enter S(t) only through its scale F, which the
        # power of two scales exactly; each A_c absorbs it, so the search
        # sees the same sums and takes the same steps.
        name, k = scaling
        base = hb.fit_trap_model(seven_curve_batch_3, material)
        fit = hb.fit_trap_model(seven_curve_batch_3, replace(
            material, **{name: math.ldexp(getattr(material, name), k)}))
        assert (fit.gamma_trap_per_s, fit.background_b_counts_per_w,
                fit.residual_sse, fit.nfev) == (
            base.gamma_trap_per_s, base.background_b_counts_per_w,
            base.residual_sse, base.nfev)
        assert fit.scale_a == [math.ldexp(a, -k) for a in base.scale_a]

    def test_amplitude_constant_off_a_power_of_two(self, material,
                                                   seven_curve_batch_3):
        # F is no longer scaled exactly, so gamma and B move by rounding
        base = hb.fit_trap_model(seven_curve_batch_3, material)
        fit = hb.fit_trap_model(seven_curve_batch_3, replace(
            material, fluor_rate=3 * material.fluor_rate))
        assert fit.gamma_trap_per_s == pytest.approx(base.gamma_trap_per_s,
                                                     rel=1e-12)
        assert fit.background_b_counts_per_w == pytest.approx(
            base.background_b_counts_per_w, rel=1e-12)

    def test_negative_background_clamped(self, material):
        # True B = 0 and each curve lowered by 1e7 counts/W x P, so the
        # unconstrained optimum has B < 0; the fit must stop at B = 0.
        t = np.linspace(0, 120, 31)
        noise = hb.NoiseSpec(kind="poisson", seed=3)
        powers = [8e-6, 29e-6]
        shift = 1e7
        curves = hb.gen_decay_batch(material, 9e4, 0.19, 0.0, powers, t,
                                    noise)
        # Precondition: the unshifted fit binds no bound, so it is the
        # unconstrained optimum; B enters linearly, so the shifted curves'
        # unconstrained optimum is the same gamma and A with B - shift.
        base = hb.fit_trap_model(curves, material)
        assert all(a > 0 for a in base.scale_a)
        assert 0 < base.background_b_counts_per_w < shift
        shifted = [replace(c, counts_per_s=c.counts_per_s - shift * p0)
                   for c, p0 in zip(curves, powers, strict=True)]
        res = hb.fit_trap_model(shifted, material)
        assert res.converged
        assert res.background_b_counts_per_w == 0.0
        assert all(a >= 0 for a in res.scale_a)
        assert res.residual_sse > base.residual_sse
        hb.scaled_signal(np.ones(1), res.scale_a[0],
                         res.background_b_counts_per_w, powers[0])

    def test_rising_ramp_has_no_resolvable_decay(self, material):
        # 1e5 counts/s rising 1% over 200 s, with noise and no decay: the
        # search drives gamma towards 0, where the model is a straight line
        t = np.linspace(0.0, 200.0, 81)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            curves = [hb.DecayCurve(t, 1e5 * (1 + 0.01 * t / 200)
                                    + rng.normal(0, 30, t.size), p0)
                      for p0 in (2e-6, 2e-5)]
            with pytest.raises(FitError, match="no resolvable decay") as err:
                hb.fit_trap_model(curves, material)
            diag = err.value.diagnostics
            assert diag["gamma_trap_per_s"] == pytest.approx(
                slowest_resolvable_gamma(material, t, (2e-6, 2e-5)),
                rel=1e-12), seed
            assert diag["nfev"] <= 20, seed
            assert len(diag["scale_a"]) == 2

    def test_step_has_no_resolvable_decay(self, material):
        # 1e6 counts/s at t = 0 and 2e3 after: the search drives gamma up
        # to where no bin leaves a trace (machine epsilon) over the 2.5 s
        # step, instead of returning gamma ~ 6e26 /s
        t = np.linspace(0.0, 200.0, 81)
        with pytest.raises(FitError, match="no resolvable decay") as err:
            hb.fit_trap_model(
                [hb.DecayCurve(t, np.where(t == 0, 1e6, 2e3), 2e-5)],
                material)
        slowest = TrapDecayModel(material, hb.BeamGeometry.for_material(
            material, power=2e-5, focus_fwhm=1e-6)).compressed().bin_k
        assert err.value.diagnostics["gamma_trap_per_s"] == pytest.approx(
            -np.log(np.finfo(float).eps) / (slowest.min() * 2.5), rel=1e-12)

    def test_more_points_than_parameters(self, material):
        # gamma_trap, B and one A per curve: 3 points on one curve, or 2 on
        # each of two, fit exactly and leave nothing to test the model
        t = np.linspace(0.0, 150.0, 4)
        y = np.array([5e3, 4e3, 3.5e3, 3.2e3])
        for curves, message in [
                ([hb.DecayCurve(t[:3], y[:3], 2e-5)],
                 "3 points cannot fit 3 parameters"),
                ([hb.DecayCurve(t[:2], y[:2], 2e-6),
                  hb.DecayCurve(t[:2], y[:2], 2e-5)],
                 "4 points cannot fit 4 parameters")]:
            with pytest.raises(ValueError, match=message):
                hb.fit_trap_model(curves, material)
        curve = hb.gen_decay_batch(material, 7e4, 0.19, 9.4e7, [20e-6], t)
        res = hb.fit_trap_model(curve, material)
        assert res.gamma_trap_per_s == pytest.approx(7e4, rel=1e-3)

    def test_no_curve_rejected(self, material):
        with pytest.raises(ValueError, match="need at least one curve"):
            hb.fit_trap_model([], material)

    def test_degenerate_curve_rejected(self, material):
        t = np.linspace(0, 10, 11)
        with pytest.raises(ValueError, match="degenerate"):
            hb.fit_trap_model([hb.DecayCurve(t, np.zeros_like(t), 20e-6)],
                              material)

    def test_nonmonotonic_times_rejected(self, material):
        t = np.array([0.0, 2.0, 1.0, 3.0])
        with pytest.raises(ValueError, match="increasing"):
            hb.fit_trap_model(
                [hb.DecayCurve(t, np.array([4.0, 3.0, 2.0, 1.0]), 2e-5)],
                material)

    def test_negative_times_rejected(self, material, two_curve_batch):
        t = np.linspace(-10.0, 150.0, 41)
        curves = [*two_curve_batch,
                  hb.DecayCurve(t, np.linspace(5, 1, 41), 13e-6)]
        with pytest.raises(ValueError, match=r"curve 2 \(1\.3e-05 W\).*"
                                             r"nonnegative"):
            hb.fit_trap_model(curves, material)

    @pytest.mark.parametrize("t, y, message", [
        ([], [], "no points"),
        ([0.0, 1.0, 2.0], [3.0, np.nan, 1.0], "finite"),
        ([0.0, 1.0, 2.0], [3.0, 2.0], "equal length"),
        # beyond these the search's bound or its sums leave the floats
        ([0.0, 1.0, 1e308], [3.0, 2.0, 1.0],
         r"time_s must be in \[-1e\+100, 1e\+100\]"),
        ([0.0, 1.0, 2.0], [3.0, 2e200, 1.0],
         r"counts_per_s must be in \[-1e\+100, 1e\+100\]"),
        ([0.0, 1.0, 2.0], [3e-150, 2e-150, 1e-150],
         r"counts_per_s spread must be in \[1e-100, 1e\+100\]"),
    ], ids=["empty", "nan", "short", "huge-time", "huge-counts",
            "tiny-counts"])
    def test_bad_curve_named_by_index_and_power(self, material, t, y,
                                                message):
        good = np.linspace(0.0, 150.0, 20)
        curves = [hb.DecayCurve(np.array(t), np.array(y), 2e-5),
                  hb.DecayCurve(good, np.linspace(5, 1, 20), 8e-6)]
        with pytest.raises(ValueError,
                           match=rf"curve 0 \(2e-05 W\): .*{message}"):
            hb.fit_trap_model(curves, material)

    @pytest.mark.parametrize("constants", [
        {"coll0": 1e-320},
        {"fluor_rate": 1e-100, "ion_density": 1e-100},
        {"fluor_rate": 1e-100},
    ], ids=["subnormal-coll0", "two-keys-tiny", "fluor-tiny"])
    def test_model_signal_below_range_named(self, two_curve_batch, constants):
        # the fit squares its model as it squares the data; below 1e-100
        # every A came out 0 (or past 1e100) and gamma stayed at its seed
        material = hb.MaterialParams(**constants)
        with pytest.raises(ValueError, match=r"curve 0 \(8e-06 W\): the "
                           r"model signal S\(0\) of fluor_rate_per_s.*must "
                           r"be in \[1e-100, 1e\+100\]"):
            hb.fit_trap_model(two_curve_batch, material)

    def test_missing_power_rejected(self, material):
        t = np.linspace(0, 10, 11)
        y = np.linspace(5, 1, 11)
        with pytest.raises(ValueError, match="power"):
            hb.fit_trap_model([hb.DecayCurve(t, y, None)], material)

    def test_nan_power_named_by_index(self, material):
        t = np.linspace(0, 10, 11)
        curves = [hb.DecayCurve(t, np.linspace(5, 1, 11), 2e-5),
                  hb.DecayCurve(t, np.linspace(5, 2, 11), float("nan"))]
        with pytest.raises(ValueError, match=r"curve 1: .*power.*nan"):
            hb.fit_trap_model(curves, material)

    def test_curve_power_pair_rejected(self, material):
        # only DecayCurve records: a tuple has no time_s
        t = np.linspace(0, 10, 11)
        curve = hb.DecayCurve(time_s=t, counts_per_s=np.linspace(5, 1, 11))
        for item in [(curve, 2e-5), (t, np.linspace(5, 1, 11), 2e-5)]:
            with pytest.raises(AttributeError, match="time_s"):
                hb.fit_trap_model([item], material)


def intake_case(name, seed):
    """(call, columns, names, fewest points) of one consumer of
    `errors._samples`: `call` takes the columns and returns a value whose
    repr shows every bit of the result."""
    rng = np.random.default_rng(seed)
    if name == "expdecay":
        t = np.linspace(0.0, 0.3, 12)
        y = np.asarray(hb.exp_decay(t, 1.0, 0.072, 0.1))
        return (lambda c: hb.fit_exponential(*c), [t, y + rng.normal(
            0, 0.01, t.size)], "times and values", 4)
    if name == "linear":
        x = np.arange(6.0)
        return (lambda c: hb.fit_linear_ci(*c),
                [x, 2 * x + 1 + rng.normal(0, 0.1, x.size)], "x and y", 3)
    if name == "hole":
        f = np.linspace(-100e6, 100e6, 201)
        y = hb.lorentzian_hole(f, 1.0, 0.4, -50e6, 6e6)
        return (lambda c: hb.fit_hole_lorentzian(*c),
                [f, y + rng.normal(0, 0.01, f.size)], "freq and signal", 8)
    if name == "trap":
        t = np.linspace(0, 120, 31)
        curve, = hb.gen_decay_batch(hb.MaterialParams(), 9e4, 0.19, 9.4e7,
                                    [2e-5], t, hb.NoiseSpec("poisson", seed))
        return (lambda c: hb.fit_trap_model([hb.DecayCurve(*c, 2e-5)],
                                            hb.MaterialParams()),
                [t, curve.counts_per_s],
                "curve 0 (2e-05 W): time_s and counts_per_s", 1)
    f = np.linspace(-1e8, 1e8, 40)
    power = np.r_[np.zeros(10), np.full(30, 1e3)] + rng.uniform(0, 5, 40)

    def scan(columns):
        raw = hb.RawScan(*columns, aom_off_range=(0, 10))
        return [getattr(raw, n).tolist()
                for n in ("freq", "fluor_counts", "power_monitor")]
    return (scan, [f, 2 * power + rng.uniform(0, 5, 40), power],
            "freq and both traces", 1)


@pytest.mark.parametrize("name", ["expdecay", "linear", "hole", "trap",
                                  "scan"])
class TestIntake:
    """Every fit and scan takes its columns in through `errors._samples`."""

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_list_tuple_and_array_give_identical_results(self, name, seed):
        call, columns, _, _ = intake_case(name, seed)
        results = [repr(call([kind(c) for c in columns])) for kind in (
            lambda c: c.tolist(), lambda c: tuple(c.tolist()), np.array)]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("bad", ["2-d", "ragged", "nan", "short"])
    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_malformed_columns_named(self, name, seed, bad):
        call, columns, names, fewest = intake_case(name, seed)
        message = {"2-d": "must be 1-D arrays of equal length",
                   "ragged": "must be 1-D arrays of equal length",
                   "nan": "must be finite",
                   "short": f"need at least {fewest}"}[bad]
        if bad == "2-d":
            columns = [c[:, None] for c in columns]
        elif bad == "ragged":
            columns[0] = columns[0][:-1]
        elif bad == "nan":
            columns[-1] = columns[-1].copy()
            columns[-1][columns[-1].size // 2] = np.nan
        else:
            columns = [c[:fewest - 1] for c in columns]
        with pytest.raises(ValueError,
                           match=f"^{re.escape(names)}.*{message}"):
            call(columns)


# scipy is a test-only dependency; numpy.polynomial (leggauss) and numpy.ma
# (np.median) are numpy subpackages that load lazily, on first use, and
# cost a CLI job their import time.
UNUSED_MODULES = ("scipy", "numpy.polynomial", "numpy.ma")


def modules_after(code, prefixes=UNUSED_MODULES):
    """Modules in the `prefixes` packages loaded by `code` in a fresh
    interpreter, as the printed sorted list."""
    code += (f"; print(sorted(m for m in sys.modules for p in {prefixes!r} "
             "if m == p or m.startswith(p + '.')))")
    run = run_fresh(code)
    run.check_returncode()
    return run.stdout.strip().splitlines()[-1]


def cli_modules_after(job, prefixes=UNUSED_MODULES):
    code = ("import sys; from holeburn.cli import main; "
            f"assert main({job!r}) == 0")
    return modules_after(code, prefixes)


def test_import_loads_no_scipy():
    assert modules_after("import sys, holeburn") == "[]"


def test_modules_after_matches_whole_package_names():
    code = "import sys, numpy.polynomial"
    assert modules_after(code, ("numpy.ma",)) == "[]"
    assert "'numpy.polynomial.legendre'" in modules_after(code)


def holeburn_modules_after(job):
    """The holeburn modules a CLI job loads in a fresh interpreter."""
    return set(ast.literal_eval(cli_modules_after(job, ("holeburn",))))


TRAP_JOB = ("trap", [], ["gen", "decay", "--n-t", "21", "--tol", "0"])
HOLE_JOB = ("hole", ["--scan"], ["gen", "holescan"])
EXPDECAY_JOB = ("expdecay", ["--series"],
                ["gen", "holedecay", "--offset", "0.05"])
FIT_JOBS = pytest.mark.parametrize("command, flag, gen", [
    TRAP_JOB,
    HOLE_JOB,
    ("hole", ["--aom-off", "auto", "--scan"], ["gen", "holescan"]),
    EXPDECAY_JOB,
    ("linear", ["--points"], None),
], ids=["trap", "hole", "hole-auto", "expdecay", "linear"])


def fit_job(tmp_path, command, flag, gen):
    """Write the input of a `fit` job; return the job's arguments."""
    data = tmp_path / "data.csv"
    if gen is None:
        x = np.linspace(0.0, 5.0, 10)
        csvio.write_table(data, ["x", "y"], [x, 2 * x + np.sin(7 * x)])
    else:
        assert main([*gen, "--out", str(data)]) == 0
    return ["fit", command, *flag, str(data),
            "--out", str(tmp_path / "fit.json")]


@FIT_JOBS
def test_fit_command_loads_no_scipy(tmp_path, command, flag, gen):
    assert cli_modules_after(fit_job(tmp_path, command, flag, gen)) == "[]"


@FIT_JOBS
def test_fit_command_loads_no_synth(tmp_path, command, flag, gen):
    job = fit_job(tmp_path, command, flag, gen)
    assert "holeburn.synth" not in holeburn_modules_after(job)


def test_import_holeburn_loads_no_module():
    assert modules_after("import sys, holeburn",
                         ("numpy", "holeburn")) == "['holeburn']"


# Loaded by every CLI job: the front end, the setup it loads and the files
# and errors it handles.
CLI_CORE = {"holeburn", "holeburn.cli", "holeburn.config", "holeburn.csvio",
            "holeburn.errors"}


def test_simulate_loads_only_the_integrator(tmp_path):
    job = ["simulate", "--t-end", "5", "--n-t", "3",
           "--out", str(tmp_path / "s.csv")]
    assert holeburn_modules_after(job) == CLI_CORE | {"holeburn.integrator",
                                                      "holeburn.model"}


def test_zeeman_loads_the_cli_core_and_zeeman(tmp_path):
    job = ["zeeman", "--delta-f", "1e6", "--out", str(tmp_path / "z.csv")]
    assert holeburn_modules_after(job) == CLI_CORE | {"holeburn.zeeman"}


def test_setup_users_load_no_ini_parser():
    # the config file's parser loads only when load_config reads a file
    code = "import sys, holeburn.fitting, holeburn.model, holeburn.synth"
    assert modules_after(code, ("configparser",)) == "[]"


@pytest.mark.parametrize("code", [
    "import sys, holeburn.config",
    "import sys, holeburn.csvio",
    "import sys, holeburn.errors",
    "import sys, holeburn.lifetime",
    "import sys, holeburn.linefit",
], ids=["config", "csvio", "errors", "lifetime", "linefit"])
def test_cli_core_module_loads_no_numpy(code):
    assert modules_after(code, ("numpy",)) == "[]"


def test_zeeman_loads_no_numpy(tmp_path):
    job = ["zeeman", "--delta-f", "1e6", "--out", str(tmp_path / "z.csv")]
    assert cli_modules_after(job, ("numpy",)) == "[]"


def test_fit_linear_loads_only_linefit(tmp_path):
    job = fit_job(tmp_path, "linear", ["--points"], None)
    assert holeburn_modules_after(job) == CLI_CORE | {"holeburn.linefit"}


def test_fit_linear_loads_no_numpy(tmp_path):
    job = fit_job(tmp_path, "linear", ["--points"], None)
    assert cli_modules_after(job, ("numpy",)) == "[]"
    assert modules_after("import sys, holeburn.linefit", ("numpy",)) == "[]"



# Loaded by the trap fit on top of the CLI core.
FITTING = {"holeburn.fitting", "holeburn.integrator", "holeburn.model",
           "holeburn.simplex"}


def test_fit_trap_loads_no_pipeline(tmp_path):
    job = fit_job(tmp_path, *TRAP_JOB)
    assert holeburn_modules_after(job) == CLI_CORE | FITTING


def test_fit_hole_loads_fitting_and_pipeline(tmp_path):
    job = fit_job(tmp_path, *HOLE_JOB)
    assert holeburn_modules_after(job) == CLI_CORE | {
        "holeburn.fitting", "holeburn.simplex", "holeburn.pipeline"}


@pytest.mark.parametrize("flag", [["--scan"], ["--aom-off", "auto", "--scan"]],
                         ids=["hole", "hole-auto"])
def test_fit_hole_loads_no_integrator_or_model(tmp_path, flag):
    # fitting loads the trap fit's model and beam only when that fit runs
    job = fit_job(tmp_path, "hole", flag, ["gen", "holescan"])
    loaded = holeburn_modules_after(job)
    assert "holeburn.integrator" not in loaded
    assert "holeburn.model" not in loaded


def test_fit_expdecay_loads_only_lifetime(tmp_path):
    job = fit_job(tmp_path, *EXPDECAY_JOB)
    assert holeburn_modules_after(job) == CLI_CORE | {"holeburn.lifetime",
                                                      "holeburn.simplex"}


def test_fit_expdecay_loads_no_numpy(tmp_path):
    job = fit_job(tmp_path, *EXPDECAY_JOB)
    assert cli_modules_after(job, ("numpy",)) == "[]"
    for module in ("simplex", "lifetime"):
        assert modules_after(f"import sys, holeburn.{module}",
                             ("numpy",)) == "[]"


@pytest.mark.parametrize("job", [
    ["simulate", "--t-end", "5", "--n-t", "3"],
    ["gen", "decay", "--t-end", "5", "--n-t", "3"],
], ids=["simulate", "gen-decay"])
def test_integrating_command_loads_no_lazy_module(tmp_path, job):
    # both refine once, so the Gauss-Legendre rule is built for n = 48, 96
    out = str(tmp_path / "out.csv")
    assert cli_modules_after([*job, "--out", out]) == "[]"


def test_no_cli_job_calls_numpy_linalg(tmp_path):
    # every public numpy.linalg function raises, so a LAPACK call anywhere
    # on these jobs' paths ends the interpreter with a traceback
    curve, scan = str(tmp_path / "curve.csv"), str(tmp_path / "scan.csv")
    jobs = [["simulate", "--t-end", "5", "--n-t", "3"],
            ["gen", "decay", "--n-t", "21", "--tol", "0", "--out", curve],
            ["fit", "trap", curve],
            ["gen", "holescan", "--out", scan],
            ["fit", "hole", "--scan", scan],
            ["fit", "hole", "--aom-off", "auto", "--scan", scan]]
    for i, job in enumerate(jobs):
        if "--out" not in job:
            job += ["--out", str(tmp_path / f"out{i}")]
    code = ("import inspect, numpy.linalg as la\n"
            "def lapack(*args, **kwargs):\n"
            "    raise SystemError('numpy.linalg called')\n"
            "for name in la.__all__:\n"
            "    if inspect.isroutine(getattr(la, name)):\n"
            "        setattr(la, name, lapack)\n"
            "from holeburn.cli import main\n"
            f"for job in {jobs!r}:\n"
            "    print(job[:2], main(job))")
    run = run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert [line.split()[-1] for line in run.stdout.splitlines()
            if line.startswith("[")] == ["0"] * len(jobs)
