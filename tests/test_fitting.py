import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holeburn as hb
from holeburn import FitError, csvio, fitting
from holeburn.cli import main
from holeburn.fitting import _column_norms, _least_squares, _t_quantile
from holeburn.simplex import MinimizeOptions, MinimizeResult, minimize


@pytest.fixture(scope="module")
def material():
    return hb.MaterialParams()


@pytest.fixture(scope="module")
def fast_domain():
    # coarse grid: fit round trips stay self-consistent and quick
    return hb.IntegrationDomain(n_r=24, n_z=24, n_delta=48)


@pytest.fixture(scope="module")
def two_curve_batch(material, fast_domain):
    """Poisson two-power batch as (times, counts, power) triples."""
    t = np.linspace(0, 120, 31)
    noise = hb.NoiseSpec(kind="poisson", seed=8)
    powers = [8e-6, 29e-6]
    curves = hb.gen_decay_batch(material, 9e4, 0.19, 9.4e7, powers, t, noise,
                                domain=fast_domain)
    return [(c.time_s, c.counts_per_s, p0) for c, p0 in zip(curves, powers)]


class TestHoleFit:
    freq = np.linspace(-100e6, 100e6, 1500)

    def test_noiseless_recovery(self):
        truth = dict(baseline=1.0, depth=0.4, center=-50e6, fwhm=6e6)
        y = hb.lorentzian_hole(self.freq, **truth)
        fit = hb.fit_hole_lorentzian(self.freq, y)
        assert fit.baseline == pytest.approx(truth["baseline"], rel=1e-6)
        assert fit.depth == pytest.approx(truth["depth"], rel=1e-6)
        assert fit.center == pytest.approx(truth["center"], rel=1e-6)
        assert fit.fwhm == pytest.approx(truth["fwhm"], rel=1e-6)
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
        assert b.fwhm == pytest.approx(a.fwhm, rel=1e-9)
        assert b.center == pytest.approx(a.center, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(shift=st.floats(-1e9, 1e9))
    def test_frequency_translation(self, shift):
        y = hb.lorentzian_hole(self.freq, 1.0, 0.4, -50e6, 6e6)
        a = hb.fit_hole_lorentzian(self.freq, y)
        b = hb.fit_hole_lorentzian(self.freq + shift, y)
        assert b.fwhm == pytest.approx(a.fwhm, rel=1e-9)
        # the center is located on the span-normalized axis, so a shift
        # near zero is resolved to 1e-9 of the span, not of the shift
        assert b.center - a.center == pytest.approx(
            shift, rel=1e-9, abs=1e-9 * np.ptp(self.freq))

    def test_center_seed_near_zero(self):
        # the middle sample normalizes to ~2.6e-17, the centre's seed
        freq = np.linspace(-1e8, 1e8, 2001) + 1e7 / 3
        center = freq[1000] + 0.3 * (freq[1] - freq[0])
        y = hb.lorentzian_hole(freq, 1.0, 0.3, center, 6e6)
        fit = hb.fit_hole_lorentzian(freq, y)
        assert fit.center == pytest.approx(center, abs=1e-9 * np.ptp(freq))
        assert fit.fwhm == pytest.approx(6e6, rel=1e-8)

    def test_flat_trace_not_detected(self):
        fit = hb.fit_hole_lorentzian(self.freq, np.full_like(self.freq, 2.0))
        assert fit.depth == pytest.approx(0.0, abs=1e-3)
        assert not fit.hole_detected

    def test_sigma_weighting_accepted(self):
        rng = np.random.default_rng(5)
        y = hb.lorentzian_hole(self.freq, 1.0, 0.4, -50e6, 6e6) \
            + rng.normal(0, 0.02, self.freq.size)
        fit = hb.fit_hole_lorentzian(self.freq, y, sigma_point=0.02)
        assert fit.fwhm == pytest.approx(6e6, rel=0.1)
        assert fit.fwhm_err > 0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            hb.fit_hole_lorentzian(np.arange(5.0), np.ones(5))

    def test_nonfinite_signal_rejected(self):
        y = hb.lorentzian_hole(self.freq, 1.0, 0.4, -50e6, 6e6)
        y[3] = np.nan  # e.g. an excluded zero-power point left in
        with pytest.raises(ValueError, match="finite"):
            hb.fit_hole_lorentzian(self.freq, y)

    def test_failure_raises_with_diagnostics(self):
        y = hb.lorentzian_hole(self.freq, 1.0, 0.4, -50e6, 6e6)
        with pytest.raises(FitError) as err:
            hb.fit_hole_lorentzian(self.freq, y,
                                   options=MinimizeOptions(max_iter=3))
        assert "converged" in err.value.diagnostics


class TestHomLinewidth:
    def test_six_to_three_mhz(self):
        assert hb.hom_linewidth_from_hole(6e6) == 3e6

    def test_halving(self):
        assert hb.hom_linewidth_from_hole(0.1) == 0.05
        x = 7.7e6
        assert hb.hom_linewidth_from_hole(2 * x) == x

    def test_invalid(self):
        with pytest.raises(ValueError):
            hb.hom_linewidth_from_hole(0.0)


class TestExponentialFit:
    times = np.linspace(0.0, 0.5, 30)

    def test_noiseless_recovery(self):
        y = hb.exp_decay(self.times, 1.0, 0.072, 0.1)
        fit = hb.fit_exponential(self.times, y, with_offset=True)
        assert fit.tau == pytest.approx(0.072, rel=1e-3)
        assert fit.amplitude == pytest.approx(1.0, rel=1e-3)
        assert fit.offset == pytest.approx(0.1, rel=1e-3)

    def test_no_offset_mode(self):
        y = hb.exp_decay(self.times, 2.0, 0.1)
        fit = hb.fit_exponential(self.times, y, with_offset=False)
        assert fit.offset is None
        assert fit.tau == pytest.approx(0.1, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(c=st.one_of(st.floats(0.01, 100.0), st.floats(-100.0, -0.01)))
    def test_value_rescaling_leaves_tau(self, c):
        y = hb.exp_decay(self.times, 1.0, 0.072, 0.1)
        a = hb.fit_exponential(self.times, y)
        b = hb.fit_exponential(self.times, c * y)
        assert b.tau == pytest.approx(a.tau, rel=1e-9)
        assert b.amplitude == pytest.approx(c * a.amplitude, rel=1e-9)
        assert b.offset == pytest.approx(c * a.offset, rel=1e-9)

    def test_constant_data(self):
        fit = hb.fit_exponential(self.times, np.full_like(self.times, 3.0))
        assert fit.amplitude == pytest.approx(0.0, abs=1e-9)
        assert fit.tau > 0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            hb.fit_exponential([0.0, 1.0, 2.0], [3.0, 2.0, 1.0])

    def test_unresolvable_decay_raises(self):
        # a decay complete before the second sample drives tau toward 0,
        # where the amplitude at t = 0 is no longer a finite number
        t = np.arange(1.0, 9.0)
        y = np.zeros_like(t)
        y[0] = 1.0
        with pytest.raises(FitError) as err:
            hb.fit_exponential(t, y)
        assert err.value.diagnostics["tau_s"] < 1e-3

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


@st.composite
def bounded_problems(draw):
    """(design, target, nonneg) for `_least_squares`.

    Random designs have columns over six decades, maybe a zero column and a
    random mask.  Trap-shaped designs have one positive decay column per
    curve, nonzero only on that curve's rows, and a shared power column,
    all bounded; the target's background may be negative so B >= 0 binds.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        design = rng.normal(size=(draw(st.integers(n + 2, 30)), n))
        design *= 10.0 ** rng.uniform(-3, 3, n)
        if draw(st.booleans()):
            design[:, draw(st.integers(0, n - 1))] = 0.0
        nonneg = np.array(draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)))
        truth = rng.normal(size=n)
    else:
        sizes = draw(st.lists(st.integers(3, 12), min_size=1, max_size=7))
        t = [np.sort(rng.uniform(0, 5, k)) for k in sizes]
        design = np.zeros((sum(sizes), len(sizes) + 1))
        rows = np.repeat(np.arange(len(sizes)), sizes)
        design[np.arange(rows.size), rows] = np.concatenate(
            [np.exp(-rng.uniform(0.1, 3) * tc) + rng.uniform(0, 1)
             for tc in t])
        design[:, -1] = rng.uniform(1, 50, len(sizes))[rows]
        nonneg = True
        truth = np.r_[rng.uniform(0, 1e3, len(sizes)), rng.uniform(-5, 5)]
    target = design @ truth + rng.normal(size=design.shape[0])
    return design, target, nonneg


class TestLeastSquares:
    @settings(max_examples=300, deadline=None)
    @given(problem=bounded_problems())
    def test_matches_bvls(self, problem):
        from scipy.optimize import lsq_linear

        design, target, nonneg = problem
        coef, sse = _least_squares(design, target, nonneg)
        bounded = np.broadcast_to(nonneg, coef.shape)
        scaled = design / _column_norms(design)
        ref = lsq_linear(scaled, target, method="bvls",
                         bounds=(np.where(bounded, 0.0, -np.inf), np.inf))
        assert sse == pytest.approx(2 * ref.cost, rel=1e-10)
        assert np.all(coef[bounded] >= 0)
        # KKT: moving a column held at 0 upwards cannot lower the SSE.
        gradient = scaled.T @ (target - design @ coef)
        held = bounded & (coef == 0)
        assert np.all(gradient[held] <= 1e-9 * np.linalg.norm(target))

    def test_feasible_optimum_is_one_solve(self):
        # an unconstrained optimum that satisfies the bounds is returned
        # exactly as the plain least-squares solve gives it
        x = np.linspace(0, 1, 20)
        design = np.column_stack([np.ones_like(x), np.exp(-3 * x)])
        target = design @ [0.5, 2.0] + 0.01 * np.sin(40 * x)
        norms = _column_norms(design)
        plain = np.linalg.lstsq(design / norms, target, rcond=None)[0]
        coef, _ = _least_squares(design, target, nonneg=True)
        assert np.array_equal(coef, plain / norms)


@pytest.mark.parametrize("dof", [*range(1, 60), 100, 250, 1000])
def test_t_quantile_matches_scipy(dof):
    from scipy.special import stdtrit

    for level in [0.5, 0.505, 0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.995,
                  0.999]:
        assert _t_quantile(dof, level) == pytest.approx(
            float(stdtrit(dof, level)), rel=1e-11, abs=1e-11)


class TestTrapFit:
    def test_brent_matches_simplex_oracle(self, material, fast_domain,
                                          two_curve_batch, monkeypatch):
        brent = hb.fit_trap_model(two_curve_batch, material,
                                  domain=fast_domain)

        def simplex_adapter(objective, x0, options):
            res = minimize(lambda x: objective(x[0]), [x0],
                           MinimizeOptions(xtol_rel=options.xtol_rel,
                                           ftol_rel=1e-9,
                                           max_iter=options.max_iter))
            return MinimizeResult(x=float(res.x[0]), fun=res.fun,
                                  iterations=res.iterations, nfev=res.nfev,
                                  converged=res.converged)

        monkeypatch.setattr(fitting, "minimize_scalar", simplex_adapter)
        oracle = hb.fit_trap_model(two_curve_batch, material,
                                   domain=fast_domain)
        assert brent.converged and oracle.converged
        assert brent.gamma_trap == pytest.approx(oracle.gamma_trap, rel=1e-7)
        assert brent.residual == pytest.approx(oracle.residual, rel=1e-12)
        assert brent.nfev <= 25 < oracle.nfev

    def test_brent_calls_per_fit(self, material, fast_domain):
        # Near the minimum the SSE is flat to its rounding, so a parabola's
        # vertex can land just beyond a bracket end that is already closed.
        # Plain Brent then walks the other end in by golden sections (26
        # calls on 3 of these 20 batches); minimize_scalar steps there.
        t = np.linspace(0, 120, 31)
        for seed in range(1, 21):
            curves = hb.gen_decay_batch(
                material, 9e4, 0.19, 9.4e7, [8e-6, 29e-6], t,
                hb.NoiseSpec(kind="poisson", seed=seed), domain=fast_domain)
            res = hb.fit_trap_model(curves, material, domain=fast_domain)
            assert res.converged
            assert res.nfev <= 22, seed

    def test_noiseless_roundtrip(self, material, fast_domain):
        t = np.linspace(0, 150, 51)
        scale = hb.ScaledSignalParams(0.19, 9.4e7, 20e-6)
        curve = hb.gen_decay_curve(material, 7e4, scale, t,
                                   domain=fast_domain)
        res = hb.fit_trap_model([curve], material, domain=fast_domain)
        assert res.converged
        assert res.gamma_trap == pytest.approx(7e4, rel=0.01)
        assert res.scale_a[0] == pytest.approx(0.19, rel=0.02)

    def test_curve_permutation_invariance(self, material, fast_domain):
        t = np.linspace(0, 120, 31)
        noise = hb.NoiseSpec(kind="poisson", seed=8)
        curves = hb.gen_decay_batch(material, 9e4, 0.19, 9.4e7,
                                    [8e-6, 29e-6], t, noise,
                                    domain=fast_domain)
        fwd = hb.fit_trap_model(curves, material, domain=fast_domain)
        rev = hb.fit_trap_model(curves[::-1], material, domain=fast_domain)
        assert rev.residual == pytest.approx(fwd.residual, rel=1e-6)
        assert rev.scale_a[0] == pytest.approx(fwd.scale_a[1], rel=1e-4)
        assert rev.scale_a[1] == pytest.approx(fwd.scale_a[0], rel=1e-4)

    @settings(max_examples=8, deadline=None)
    @given(c=st.floats(1e-3, 1e3))
    def test_value_rescaling_scales_a_and_b(self, material, fast_domain,
                                            two_curve_batch, c):
        curves = two_curve_batch
        base = hb.fit_trap_model(curves, material, domain=fast_domain)
        scaled = hb.fit_trap_model([(t, c * y, p0) for t, y, p0 in curves],
                                   material, domain=fast_domain)
        assert scaled.gamma_trap == pytest.approx(base.gamma_trap, rel=1e-6)
        assert scaled.residual == pytest.approx(c**2 * base.residual,
                                                rel=1e-6)
        assert scaled.background_b == pytest.approx(c * base.background_b,
                                                    rel=1e-4)
        for sa, ba in zip(scaled.scale_a, base.scale_a):
            assert sa == pytest.approx(c * ba, rel=1e-4)

    def test_negative_background_clamped(self, material, fast_domain):
        # True B = 0 and each curve lowered by 2e6 counts/W x P, so the
        # unconstrained optimum has B < 0; the fit must stop at B = 0.
        t = np.linspace(0, 120, 31)
        noise = hb.NoiseSpec(kind="poisson", seed=3)
        powers = [8e-6, 29e-6]
        curves = hb.gen_decay_batch(material, 9e4, 0.19, 0.0, powers, t,
                                    noise, domain=fast_domain)
        shifted = [(c.time_s, c.counts_per_s - 2e6 * p0, p0)
                   for c, p0 in zip(curves, powers)]
        res = hb.fit_trap_model(shifted, material, domain=fast_domain)
        assert res.converged
        assert res.background_b == 0.0
        assert all(a >= 0 for a in res.scale_a)
        hb.ScaledSignalParams(res.scale_a[0], res.background_b, powers[0])

    def test_nonpositive_seed_rejected(self, material, fast_domain,
                                       two_curve_batch):
        with pytest.raises(ValueError, match="seed"):
            hb.fit_trap_model(two_curve_batch, material, domain=fast_domain,
                              options=hb.TrapFitOptions(gamma_trap_seed=-1e5))

    def test_degenerate_curve_rejected(self, material, fast_domain):
        t = np.linspace(0, 10, 11)
        with pytest.raises(ValueError, match="degenerate"):
            hb.fit_trap_model([(t, np.zeros_like(t), 20e-6)], material,
                              domain=fast_domain)

    def test_nonmonotonic_times_rejected(self, material, fast_domain):
        t = np.array([0.0, 2.0, 1.0, 3.0])
        with pytest.raises(ValueError, match="increasing"):
            hb.fit_trap_model([(t, np.array([4.0, 3.0, 2.0, 1.0]), 2e-5)],
                              material, domain=fast_domain)

    def test_negative_times_rejected(self, material, fast_domain,
                                     two_curve_batch):
        t = np.linspace(-10.0, 150.0, 41)
        curves = [*two_curve_batch, (t, np.linspace(5, 1, 41), 13e-6)]
        with pytest.raises(ValueError, match=r"curve 2 \(1\.3e-05 W\).*"
                                             r"nonnegative"):
            hb.fit_trap_model(curves, material, domain=fast_domain)

    def test_missing_power_rejected(self, material, fast_domain):
        t = np.linspace(0, 10, 11)
        y = np.linspace(5, 1, 11)
        with pytest.raises(ValueError, match="power"):
            hb.fit_trap_model([(t, y, None)], material, domain=fast_domain)

    def test_curve_power_pair_rejected(self, material, fast_domain):
        # only DecayCurve records and (times, counts, power) triples
        t = np.linspace(0, 10, 11)
        curve = hb.DecayCurve(time_s=t, counts_per_s=np.linspace(5, 1, 11))
        with pytest.raises(ValueError, match="unpack"):
            hb.fit_trap_model([(curve, 2e-5)], material, domain=fast_domain)


# scipy is a test-only dependency; numpy.polynomial (leggauss) and numpy.ma
# (np.median) are numpy subpackages that load lazily, on first use, and
# cost a CLI job their import time.
UNUSED_MODULES = ("scipy", "numpy.polynomial", "numpy.ma")


def modules_after(code, prefixes=UNUSED_MODULES):
    """Modules in the `prefixes` packages loaded by `code` in a fresh
    interpreter, as the printed sorted list."""
    src = str(Path(hb.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code += (f"; print(sorted(m for m in sys.modules for p in {prefixes!r} "
             "if m == p or m.startswith(p + '.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


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


FIT_JOBS = pytest.mark.parametrize("command, flag, gen", [
    ("trap", [], ["gen", "decay", "--n-t", "21", "--tol", "0"]),
    ("hole", ["--scan"], ["gen", "holescan"]),
    ("hole", ["--aom-off", "auto", "--scan"], ["gen", "holescan"]),
    ("expdecay", ["--series"], ["gen", "holedecay", "--offset", "0.05"]),
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


# Loaded by every CLI job: the front end, the config and what it holds.
CLI_CORE = {"holeburn", "holeburn.cli", "holeburn.config",
            "holeburn.constants", "holeburn.csvio", "holeburn.errors",
            "holeburn.model", "holeburn.zeeman"}


def test_simulate_loads_only_the_integrator(tmp_path):
    job = ["simulate", "--t-end", "5", "--n-t", "3",
           "--out", str(tmp_path / "s.csv")]
    assert holeburn_modules_after(job) == CLI_CORE | {"holeburn.integrator"}


def test_zeeman_loads_only_the_cli_core(tmp_path):
    job = ["zeeman", "--delta-f", "1e6", "--out", str(tmp_path / "z.csv")]
    assert holeburn_modules_after(job) == CLI_CORE


@pytest.mark.parametrize("job", [
    ["simulate", "--t-end", "5", "--n-t", "3"],
    ["gen", "decay", "--t-end", "5", "--n-t", "3"],
], ids=["simulate", "gen-decay"])
def test_integrating_command_loads_no_lazy_module(tmp_path, job):
    # both refine once, so the Gauss-Legendre rule is built for n = 48, 96
    out = str(tmp_path / "out.csv")
    assert cli_modules_after([*job, "--out", out]) == "[]"
