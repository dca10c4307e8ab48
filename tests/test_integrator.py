import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import holeburn as hb
from holeburn import integrator
from holeburn.csvio import write_signal_csv
from holeburn.integrator import TrapDecayModel
from oracles import (excited_population, r2_from_rates, saturation_ratio,
                     steady_state_fractions)


@pytest.fixture(scope="module")
def material():
    return hb.MaterialParams()


@pytest.fixture(scope="module")
def geom(material):
    return hb.BeamGeometry.for_material(material, power=20e-6)


@pytest.fixture(scope="module")
def small_domain():
    return hb.IntegrationDomain(n_r=24, n_z=24, n_delta=48)


def flat_profiles(value, coll_value):
    return (lambda r, z: np.full_like(r, value),
            lambda r, z: np.full_like(r, coll_value))


def flat_beam_oracle(material, intensity, coll, domain, gamma_trap, t):
    """Closed-form signal for a uniform box: V * f0 * R2 * k * N * coll * exp."""
    r1 = saturation_ratio(intensity, material.sat_intensity)
    g_ion = hb.ionization_rate(intensity, material.sigma_ion,
                               material.vac_wavelength)
    r2 = r2_from_rates(g_ion, material.gamma_rec_spon)
    k = steady_state_fractions(r1, r2)
    volume = np.pi * domain.r_max**2 * 2 * domain.z_halfwidth
    bandwidth = 2 * domain.delta_halfwidth
    return (volume * bandwidth * material.fluor_rate * r2 * k
            * material.ion_density * coll * np.exp(-gamma_trap * k * t))


class TestDomain:
    def test_defaults(self):
        d = hb.IntegrationDomain()
        assert (d.r_max, d.z_halfwidth, d.delta_halfwidth) == (4e-6, 60e-6, 100e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            hb.IntegrationDomain(r_max=-1e-6)
        with pytest.raises(ValueError):
            hb.IntegrationDomain(n_r=0)

    @pytest.mark.parametrize("field, value", [
        ("n_r", 2.5), ("n_z", math.nan), ("n_delta", math.inf),
        ("n_r", True), ("n_z", 0), ("n_delta", np.int64(0)), ("n_r", 3.0),
        ("r_max", math.inf), ("r_max", 1e-320), ("r_max", math.nan),
        ("z_halfwidth", 1e308), ("z_halfwidth", 0.0),
        ("delta_halfwidth", 1e300), ("delta_halfwidth", -1.0)])
    def test_rejects_what_it_cannot_integrate(self, field, value):
        # a fractional count would run ceil(n) cells of width limit / n,
        # past the limit, and limits beyond the package's range give
        # S = NaN or 0
        with pytest.raises(ValueError, match=f"^{field} must be"):
            hb.IntegrationDomain(**{field: value})

    def test_accepts_numpy_integers_and_range_ends(self):
        d = hb.IntegrationDomain(r_max=1e-100, z_halfwidth=1e100,
                                 n_r=np.int32(3), n_z=np.int64(2))
        assert d.n_points == 3 * 2 * 128

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r_max", [1e-100, 4e-6, 1e100])
    @pytest.mark.parametrize("z_halfwidth", [1e-100, 60e-6, 1e100])
    @pytest.mark.parametrize("delta_halfwidth", [1e-100, 100e6, 1e100])
    def test_every_corner_of_the_range_is_finite(self, material, geom, r_max,
                                                 z_halfwidth, delta_halfwidth):
        # a node the collection misses adds exactly 0: its weight, which
        # overflows far from the focus, never meets coll = 0 as inf * 0
        box = hb.IntegrationDomain(r_max=r_max, z_halfwidth=z_halfwidth,
                                   delta_halfwidth=delta_halfwidth,
                                   n_r=8, n_z=8, n_delta=8)
        res = hb.detected_signal([0.0, 10.0], material, geom, 7e4, box)
        assert np.all(np.isfinite(res.values))

    def test_doubled_and_widened(self):
        d = hb.IntegrationDomain()
        assert d.doubled().n_points == 8 * d.n_points
        w = d.widened(1.5)
        assert w.r_max == pytest.approx(6e-6)
        assert w.n_r == 96

    def test_refined_box_keeps_its_profiles(self):
        ifn, cfn = flat_profiles(5e6, 0.01)
        d = hb.IntegrationDomain(n_r=4, n_z=4, n_delta=4, intensity_fn=ifn,
                                 coll_fn=cfn)
        for refined in (d.doubled(), d.widened(1.5)):
            assert refined.intensity_fn is ifn and refined.coll_fn is cfn
        assert hb.IntegrationDomain() == hb.IntegrationDomain()


class TestLevelSetRule:
    def test_default_and_validation(self):
        rule = hb.LevelSetRule()
        assert (rule.n, rule.n_points) == (48, 48**2)
        with pytest.raises(ValueError):
            hb.LevelSetRule(n=0)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 2.5, True, -1])
    def test_rejects_a_count_it_cannot_run(self, n):
        # a float n cannot size the Gauss rule, and n = True would run
        # one node
        with pytest.raises(ValueError, match="^n must be an integer"):
            hb.LevelSetRule(n=n)

    def test_doubled_and_widened(self):
        rule = hb.LevelSetRule(n=12)
        assert rule.doubled() == hb.LevelSetRule(n=24)
        assert rule.widened(1.5) == rule

    def test_holds_no_profiles(self):
        # only a box's record carries (r, z) profiles
        with pytest.raises(TypeError):
            hb.LevelSetRule(intensity_fn=hb.beam_intensity)

    def test_records_resolve_never_none(self, material, geom):
        assert hb.detected_signal([0.0], material, geom, 7e4).domain \
            == hb.IntegrationDomain()
        assert TrapDecayModel(material, geom).domain == hb.LevelSetRule()

    @pytest.mark.parametrize("rel_tol", [0.0, 5e-3])
    def test_no_rule_named_is_the_level_set_rule(self, material, geom,
                                                  rel_tol):
        # every entry but detected_signal, which keeps the box for 1a,
        # runs LevelSetRule() and its doublings, and takes no other rule
        t = np.array([0.0, 5.0, 60.0, 200.0])
        res = hb.refine_until_converged(t, material, geom, 7e4,
                                        rel_tol=rel_tol)
        rule = hb.LevelSetRule()
        for _ in range(res.refinements):
            rule = rule.doubled()
        assert res.domain == rule and rule.n_points <= 96**2
        assert res.values.tobytes() == hb.detected_signal(
            t, material, geom, 7e4, rule).values.tobytes()
        amp, k = integrator._cloud(material, geom, hb.LevelSetRule())
        binned = integrator.CompressedDecayModel(amp, k)
        assert [a.tobytes() for a in TrapDecayModel(
            material, geom).compressed().signal(t, 7e4)] == [
            a.tobytes() for a in binned.signal(t, 7e4)]

    @settings(max_examples=200, deadline=None)
    @given(r=st.floats(0.0, 20e-6), z=st.floats(-500e-6, 500e-6),
           power=st.floats(1e-9, 1e-2), focus=st.floats(0.2e-6, 5e-6))
    def test_collection_follows_intensity(self, material, r, z, power, focus):
        """coll / coll0 == I / I0, the identity the rule rests on."""
        geom = hb.BeamGeometry.for_material(material, power=power,
                                            focus_fwhm=focus)
        envelope = hb.beam_intensity(r, z, geom) / geom.peak_intensity
        coll = hb.collection_efficiency(r, z, geom, material.coll0)
        assert coll / material.coll0 == pytest.approx(envelope, rel=1e-12,
                                                      abs=1e-300)

    @pytest.mark.parametrize("power", [2e-6, 20e-6, 44e-6])
    def test_matches_infinite_limit_oracle(self, material, power):
        """Independent 3-D Gauss rule in rho = r/w(z), phi, theta.

        z = z_R tan(phi) and detuning = (Gamma_hom / 2) tan(theta) take
        both limits to infinity; rho stops at 3, where the integrand is
        down by exp(-36).  The physics chain is rebuilt from the public
        `model.py` operations, as in `test_gauss_legendre_cross_check`.
        """
        geom = hb.BeamGeometry.for_material(material, power=power)
        t = np.array([0.0, 2.0, 30.0, 200.0])
        gamma_trap = 7e4

        def gl_nodes(n, a, b):
            x, w = np.polynomial.legendre.leggauss(n)
            return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w

        rho, w_rho = gl_nodes(64, 0.0, 3.0)
        phi, w_phi = gl_nodes(48, 0.0, np.pi / 2)
        theta, w_theta = gl_nodes(48, 0.0, np.pi / 2)
        z = geom.rayleigh * np.tan(phi)[None, :, None]
        w_z = hb.beam_radius(z, geom)
        r = rho[:, None, None] * w_z
        i_sp = hb.beam_intensity(r, z, geom)
        coll = hb.collection_efficiency(r, z, geom, material.coll0)
        ghom = material.hom_linewidth0 * hb.power_broadened_linewidth(
            i_sp / material.sat_intensity)
        delta = ghom / 2 * np.tan(theta)
        i_l = hb.detuned_intensity(i_sp, delta, ghom)
        g_ion = hb.ionization_rate(i_sp, material.sigma_ion,
                                   material.vac_wavelength)
        r2 = 1 + material.gamma_rec_spon / g_ion
        k = steady_state_fractions(
            saturation_ratio(i_l, material.sat_intensity), r2)
        # dr dz dDelta, with both signs of z and of the detuning
        weight = (4 * w_z * w_rho[:, None, None]
                  * (geom.rayleigh * w_phi / np.cos(phi) ** 2)[None, :, None]
                  * ghom / 2 * w_theta / np.cos(theta) ** 2)
        oracle = [np.sum(weight * 2 * np.pi * r * coll * material.fluor_rate
                         * excited_population(tj, material.ion_density,
                                              r2, k, gamma_trap))
                  for tj in t]
        rule = hb.detected_signal(t, material, geom, gamma_trap,
                                  hb.LevelSetRule())
        np.testing.assert_allclose(rule.values, oracle, rtol=1e-9)

    def test_refinement_converges_after_one_doubling(self, material, geom):
        t = np.array([0.0, 2.0, 30.0, 200.0])
        res = hb.refine_until_converged(t, material, geom, 7e4,
                                        rel_tol=5e-3)
        assert res.achieved_rel_change < 5e-3 and res.refinements == 1
        assert res.domain.n_points == 96**2
        assert res.achieved_rel_change < 1e-9


class TestGaussLegendre:
    """The rule `LevelSetRule` places its nodes with."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200))
    def test_nodes_and_weights(self, n):
        x, w = integrator._gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0) and -1 < x[0] and x[-1] < 1
        assert np.array_equal(x, -x[::-1])
        assert np.all(w > 0)
        assert np.array_equal(w, w[::-1])
        assert abs(np.sum(w) - 2) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200))
    def test_exact_for_degree_below_2n(self, n):
        x, w = integrator._gauss_legendre(n)
        for k in range(2 * n):
            integral = np.sum(w * x**k)
            if k % 2:
                assert abs(integral) <= 1e-14
            else:
                assert integral == pytest.approx(2 / (k + 1), rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200))
    def test_matches_leggauss(self, n):
        # leggauss is only an oracle here.  Its weights, rescaled to sum
        # to 2, drift from 40-digit values by up to 4e-11 for n near 200,
        # against 3e-13 for this rule, hence the weight tolerance.
        x, w = integrator._gauss_legendre(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, w_ref, rtol=1e-10)

    @pytest.mark.parametrize("n", [48, 96, 192])
    def test_weights_match_40_digit_values(self, n):
        mpmath = pytest.importorskip("mpmath")
        x, w = integrator._gauss_legendre(n)
        with mpmath.workdps(40):
            for xi, wi in zip(x, w):
                # Newton on P_n in 40 digits from the float node
                r = mpmath.mpf(float(xi))
                for _ in range(3):
                    p_prev, p = mpmath.mpf(1), r
                    for j in range(1, n):
                        p_prev, p = p, ((2 * j + 1) * r * p
                                        - j * p_prev) / (j + 1)
                    dp = n * (p_prev - r * p) / (1 - r * r)
                    r -= p / dp
                assert abs(float(xi) - r) <= 1e-15
                assert abs(wi / (2 / ((1 - r * r) * dp**2)) - 1) <= 1e-12

    def test_read_only_and_cached(self):
        x, w = integrator._gauss_legendre(7)
        assert not x.flags.writeable and not w.flags.writeable
        again = integrator._gauss_legendre(7)
        assert again[0] is x and again[1] is w


class TestDetectedSignal:
    @pytest.mark.parametrize("domain", [
        hb.IntegrationDomain(r_max=40e-6, n_r=8, n_z=4, n_delta=4),
        hb.LevelSetRule()])
    def test_zero_g_ratio_stays_finite(self, geom, domain):
        # no spontaneous recombination, so both rates vanish wherever the
        # Gaussian envelope underflows to 0
        res = hb.detected_signal([0.0, 1.0, 30.0], hb.MaterialParams(
            g_ratio=0.0), geom, 7e4, domain)
        assert np.all(np.isfinite(res.values)) and np.all(res.values > 0)
        assert np.all(np.diff(res.values) <= 0)

    def test_no_trapping_is_constant(self, material, geom, small_domain):
        t = np.array([0.0, 10.0, 300.0])
        res = hb.detected_signal(t, material, geom, 0.0, small_domain)
        assert np.allclose(res.values, res.values[0], rtol=1e-14)

    def test_gaussian_beam_semianalytic_oracle(self, material, geom):
        """Independent reduction of S(0) to a 2-D adaptive quadrature.

        For any point, the detuning integral of the saturated Lorentzian
        response has the closed form
            int x L/(x L + 1) dD = 2 x (G0/2) atan(D_max / W),
        with x = I(r,z)/I_sat and W = (G0/2)(1+x), because the power
        broadening G = G0 sqrt(1+x) exactly cancels the saturation
        flattening.  What remains is a smooth (r, z) integral evaluated
        here with scipy's adaptive rule, entirely independent of the
        midpoint-grid code (the conduction-band correction to the
        denominator is below 1e-4 at these intensities).
        """
        from scipy import integrate

        domain = hb.IntegrationDomain()
        g0_half = material.hom_linewidth0 / 2

        def integrand(r, z):
            w = geom.waist * np.sqrt(1 + (z / geom.rayleigh) ** 2)
            envelope = (geom.waist / w) ** 2 * np.exp(-2 * r**2 / w**2)
            x = geom.peak_intensity * envelope / material.sat_intensity
            coll = material.coll0 * envelope
            delta_integral = 2 * x * g0_half * np.arctan(
                domain.delta_halfwidth / (g0_half * (1 + x)))
            return (material.fluor_rate * material.ion_density / 2
                    * coll * delta_integral * r)

        oracle, err = integrate.dblquad(
            integrand, -domain.z_halfwidth, domain.z_halfwidth,
            0.0, domain.r_max, epsrel=1e-9)
        oracle *= 2 * np.pi
        grid = hb.detected_signal([0.0], material, geom, 7e4, domain)
        assert grid.values[0] == pytest.approx(oracle, rel=3e-3)

    def test_gauss_legendre_cross_check(self, material, geom):
        """Same integral, independent integrand assembly and rule.

        The physics chain is rebuilt here from the public closed-form
        operations and integrated with Gauss-Legendre nodes instead of the
        library's midpoint grid, at several times.  Agreement of the two
        constructions bounds both discretization and assembly errors.
        """
        domain = hb.IntegrationDomain()
        t = np.array([0.0, 2.0, 30.0, 200.0])
        gamma_trap = 7e4

        def gl_nodes(n, a, b):
            x, w = np.polynomial.legendre.leggauss(n)
            return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w

        r, wr = gl_nodes(48, 0.0, domain.r_max)
        z, wz = gl_nodes(48, -domain.z_halfwidth, domain.z_halfwidth)
        d, wd = gl_nodes(256, -domain.delta_halfwidth, domain.delta_halfwidth)

        total = np.zeros_like(t)
        for zi, wzi in zip(z, wz):
            i_sp = hb.beam_intensity(r, zi, geom)
            coll = hb.collection_efficiency(r, zi, geom, material.coll0)
            ghom = material.hom_linewidth0 * hb.power_broadened_linewidth(
                i_sp / material.sat_intensity)
            g_ion = hb.ionization_rate(i_sp, material.sigma_ion,
                                       material.vac_wavelength)
            r2 = 1 + material.gamma_rec_spon / g_ion
            i_l = hb.detuned_intensity(i_sp[:, None], d[None, :],
                                       ghom[:, None])
            r1 = saturation_ratio(i_l, material.sat_intensity)
            k = steady_state_fractions(r1, r2[:, None])
            weight = wzi * (wr * r)[:, None] * wd[None, :]
            for j, tj in enumerate(t):
                n5d = excited_population(tj, material.ion_density,
                                         r2[:, None], k, gamma_trap)
                total[j] += np.sum(weight * material.fluor_rate * n5d
                                   * coll[:, None])
        total *= 2 * np.pi

        grid = hb.detected_signal(t, material, geom, gamma_trap, domain)
        rel = np.max(np.abs(grid.values - total) / total)
        assert rel < 5e-3

    def test_flat_beam_oracle(self, material, geom):
        intensity, coll = 5e6, 0.01
        ifn, cfn = flat_profiles(intensity, coll)
        domain = hb.IntegrationDomain(r_max=2e-6, z_halfwidth=10e-6,
                                      delta_halfwidth=0.5, n_r=16, n_z=16,
                                      n_delta=8, intensity_fn=ifn,
                                      coll_fn=cfn)
        t = np.linspace(0, 3000, 50)
        res = hb.detected_signal(t, material, geom, 7e4, domain)
        oracle = flat_beam_oracle(material, intensity, coll, domain, 7e4, t)
        assert np.max(np.abs(res.values - oracle) / oracle) < 1e-3

    def test_linear_in_ion_density(self, geom, small_domain):
        t = np.array([0.0, 5.0, 50.0])
        base = hb.detected_signal(t, hb.MaterialParams(), geom, 7e4,
                                  small_domain)
        scaled = hb.detected_signal(t, hb.MaterialParams(ion_density=3 * 6e10),
                                    geom, 7e4, small_domain)
        assert np.allclose(scaled.values, 3 * base.values, rtol=1e-12)

    def test_strictly_decreasing_with_trapping(self, material, geom,
                                               small_domain):
        t = np.linspace(0, 100, 21)
        res = hb.detected_signal(t, material, geom, 7e4, small_domain)
        assert np.all(np.diff(res.values) < 0)

    @settings(max_examples=60, deadline=None)
    @given(rule=st.sampled_from([
        hb.LevelSetRule(8), hb.IntegrationDomain(n_r=6, n_z=6, n_delta=8)]),
        gamma=st.floats(1e3, 1e6), j=st.integers(-3, 3),
        s=st.floats(1 / 8, 4))
    def test_depends_on_gamma_and_t_only_through_their_product(
            self, material, geom, rule, gamma, j, s):
        """Every node decays as exp(-gamma k t): scaling gamma by 2^j is
        scaling t by 2^j bit for bit, and scaling both by s agrees to
        rounding (ROADMAP direction 5)."""
        t = np.array([0.0, 0.5, 5.0, 60.0, 200.0])

        def signal(times, rate):
            return hb.detected_signal(times, material, geom, rate,
                                      rule).values
        assert signal(t, math.ldexp(gamma, j)).tobytes() == signal(
            np.ldexp(t, j), gamma).tobytes()
        np.testing.assert_allclose(signal(t, gamma * s), signal(t * s, gamma),
                                   rtol=1e-14, atol=0)

    def test_deterministic(self, material, geom, small_domain):
        t = np.array([0.0, 7.0])
        a = hb.detected_signal(t, material, geom, 7e4, small_domain)
        b = hb.detected_signal(t, material, geom, 7e4, small_domain)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("bad_t", [
        [], [-1.0, 0.0], [1.0, 0.5], 5.0, [[0.0, 1.0]],
    ])
    def test_bad_time_grids_rejected(self, material, geom, small_domain, bad_t):
        with pytest.raises(ValueError):
            hb.detected_signal(bad_t, material, geom, 7e4, small_domain)

    @pytest.mark.parametrize("bad_t", [[np.nan], [0.0, np.inf]])
    def test_nonfinite_times_rejected(self, material, geom, small_domain,
                                      bad_t):
        with pytest.raises(ValueError):
            hb.detected_signal(bad_t, material, geom, 7e4, small_domain)

    @pytest.mark.parametrize("override", ["intensity_fn", "coll_fn"])
    def test_single_model_override_reproduces_default(self, material, geom,
                                                      small_domain, override):
        fn = {"intensity_fn": lambda r, z: hb.beam_intensity(r, z, geom),
              "coll_fn": lambda r, z: hb.collection_efficiency(
                  r, z, geom, material.coll0)}[override]
        t = np.linspace(0, 200, 9)
        default = hb.detected_signal(t, material, geom, 7e4, small_domain)
        overridden = hb.detected_signal(t, material, geom, 7e4, replace(
            small_domain, **{override: fn}))
        np.testing.assert_allclose(overridden.values, default.values,
                                   rtol=1e-13)

    def test_cloud_matches_model_ratio_chain(self, material, geom):
        """Per node, amplitude and k equal the chain of model.py ratios."""
        domain = hb.IntegrationDomain(n_r=3, n_z=4, n_delta=5)
        amp, k = integrator._cloud(material, geom, domain)
        r, z, d, dr, dz, dd = integrator._grid_axes(domain)
        rr, zz, delta = (a.reshape(-1) for a in np.meshgrid(r, z, d,
                                                            indexing="ij"))
        assert amp.size == k.size == domain.n_points
        for i in range(domain.n_points):
            i_sp = hb.beam_intensity(rr[i], zz[i], geom)
            i_l = hb.detuned_intensity(
                i_sp, delta[i], material.hom_linewidth0
                * hb.power_broadened_linewidth(i_sp / material.sat_intensity))
            r1 = saturation_ratio(i_l, material.sat_intensity)
            r2 = r2_from_rates(
                hb.ionization_rate(i_sp, material.sigma_ion,
                                   material.vac_wavelength),
                material.gamma_rec_spon)
            k_chain = steady_state_fractions(r1, r2)
            amp_chain = (material.fluor_rate * material.ion_density * r2
                         * k_chain * hb.collection_efficiency(
                             rr[i], zz[i], geom, material.coll0)
                         * 2 * np.pi * rr[i] * dr * dz * dd)
            assert k[i] == pytest.approx(k_chain, rel=1e-12)
            assert amp[i] == pytest.approx(amp_chain, rel=1e-12)


# What names a group in `model._groups`'s range errors.
GROUP_NAME = re.compile(r"saturation parameter s0|rate ratio rho|"
                        r"signal scale F|signal bound F s0")
SCALED_KEYS = ["fluor_rate", "ion_density", "hom_linewidth0"]


class TestGroups:
    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(SCALED_KEYS),
           exponents=st.tuples(*3 * [st.integers(-332, 332)]),
           target=st.integers(-332, 332))
    def test_signal_scales_by_powers_of_two(self, geom, key, exponents,
                                            target):
        """Setting fluor_rate, ion_density or hom_linewidth0, each 2^e
        within [1e-100, 1e100], scales S(t) by 2^k bit for bit, or the run
        is refused naming a group; no value leaves [0, 1e100].  A signal
        whose node amplitudes underflow below the normal floats cannot
        scale exactly and is only held to the range: each node carries
        more than 2^-64 of S here, so above 2^64 times the smallest normal
        float every amplitude is normal."""
        base = hb.MaterialParams(**{name: 2.0**e for name, e
                                    in zip(SCALED_KEYS, exponents)})
        scaled = replace(base, **{key: 2.0**target})
        k = target - exponents[SCALED_KEYS.index(key)]
        t = np.array([0.0, 2.0, 30.0, 200.0])
        results = []
        for material in (base, scaled):
            try:
                values = hb.detected_signal(t, material, geom, 7e4,
                                            hb.LevelSetRule()).values
            except ValueError as err:
                assert GROUP_NAME.search(str(err)), str(err)
                continue
            assert np.all((values >= 0) & (values <= 1e100))
            results.append(values)
        normal = [np.all(v >= np.ldexp(np.finfo(float).tiny, 64))
                  for v in results]
        if len(results) == 2 and all(normal):
            np.testing.assert_array_equal(results[1],
                                          np.ldexp(results[0], k))


def naive_decay_sum(t, rate, amp):
    return np.array([np.dot(amp, np.exp(-rate * tj)) for tj in t])


class TestDecaySum:
    @settings(max_examples=30, deadline=None)
    @given(n_times=st.sampled_from([1, 81, 2001]),
           edge=st.sampled_from([(1, -1), (1, 0), (1, 1), (3, 7)]),
           t_max=st.floats(0.0, 250.0),
           rate_max=st.floats(0.0, 2.0),
           frozen_frac=st.sampled_from([0.0, 0.1, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_naive_loop(self, n_times, edge, t_max, rate_max,
                                frozen_frac, seed):
        """Every node count around a block edge sums like the plain loop."""
        rng = np.random.default_rng(seed)
        block = max(1, integrator._SUM_BLOCK_ELEMENTS // n_times)
        n_nodes = edge[0] * block + edge[1]
        t = rng.uniform(0.0, t_max, n_times)
        t[0] = 0.0
        rate = rng.uniform(0.0, rate_max, n_nodes)
        rate[rng.random(n_nodes) < frozen_frac] = 0.0
        amp = rng.lognormal(0.0, 3.0, n_nodes)
        np.testing.assert_allclose(integrator._decay_sum(t, rate, amp)[0],
                                   naive_decay_sum(t, rate, amp), rtol=1e-13)

    def test_work_array_stays_one_block(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 200.0, 2001)
        rate = rng.uniform(0.0, 1.0, 200_000)
        amp = rng.uniform(0.0, 1.0, 200_000)
        tracemalloc.start()
        try:
            integrator._decay_sum(t, rate, amp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * integrator._SUM_BLOCK_ELEMENTS + t.nbytes

    def test_rows_match_single_sums(self, material, geom):
        # a box cloud over six blocks of 81 times: each row of a two-vector
        # sum is the one-vector sum, bit for bit
        t = np.linspace(0.0, 200.0, 81)
        amp, k = integrator._cloud(material, geom, hb.IntegrationDomain(
            n_r=32, n_z=32, n_delta=64))
        block = integrator._SUM_BLOCK_ELEMENTS // t.size
        assert -(-k.size // block) == 6
        rate = 7e4 * k
        rows = integrator._decay_sum(t, rate, amp, amp * k)
        assert rows.shape == (2, t.size)
        for row, vector in zip(rows, (amp, amp * k)):
            assert row.tobytes() == integrator._decay_sum(
                t, rate, vector)[0].tobytes()


class TestScaledSignal:
    def test_zero_scale_is_background(self):
        out = hb.scaled_signal(np.array([1.0, 2.0, 5.0]), 1e-100, 9.4e7,
                               20e-6)
        assert np.allclose(out, 9.4e7 * 20e-6)

    def test_no_background_scales_linearly(self):
        out = hb.scaled_signal(np.array([4.0, 2.0]), 0.19, 0.0, 20e-6)
        assert out[1] == pytest.approx(out[0] / 2)

    def test_validation(self):
        for args, message in [
                ((0.0, 0.0, 1e-6), r"scale_a must be in \[1e-100, "),
                ((0.19, -1.0, 1e-6), r"background_b must be in \[0, "),
                ((0.19, 0.0, -1e-6), r"power must be in \[0, ")]:
            with pytest.raises(ValueError, match=message):
                hb.scaled_signal(np.array([1.0]), *args)


class TestRefinement:
    def test_flat_integrand_converges_first_step(self, material, geom):
        ifn, cfn = flat_profiles(5e6, 0.01)
        domain = hb.IntegrationDomain(r_max=2e-6, z_halfwidth=10e-6,
                                      delta_halfwidth=0.5, n_r=8, n_z=8,
                                      n_delta=8, intensity_fn=ifn,
                                      coll_fn=cfn)
        t = np.array([0.0, 100.0])
        res = hb.detected_signal(t, material, geom, 7e4, domain)
        finer = hb.detected_signal(t, material, geom, 7e4, domain.doubled())
        change = np.max(np.abs(finer.values - res.values) / res.values)
        assert change < 1e-12

    def test_default_converges_within_three(self, material, geom):
        t = np.array([0.0, 5.0, 60.0, 200.0])
        res = hb.refine_until_converged(t, material, geom, 7e4, rel_tol=5e-3)
        assert res.achieved_rel_change < 5e-3
        assert res.refinements <= 3
        assert res.achieved_rel_change < 5e-3

    def test_zero_tolerance_evaluates_once(self, material, geom):
        t = np.array([0.0, 5.0])
        rule = hb.LevelSetRule()
        res = hb.refine_until_converged(t, material, geom, 7e4, rel_tol=0.0)
        assert (res.refinements, res.achieved_rel_change) == (0, None)
        assert res.domain == rule
        np.testing.assert_array_equal(
            res.values, hb.detected_signal(t, material, geom, 7e4, rule).values)

    def test_zero_tolerance_never_converges(self, material, geom):
        t = np.array([0.0, 5.0])
        with pytest.raises(hb.ConvergenceError) as err:
            hb.refine_until_converged(t, material, geom, 7e4, rel_tol=1e-300)
        best = err.value.best_result
        assert best.refinements == integrator._MAX_REFINEMENTS
        assert best.domain == hb.LevelSetRule(n=384)
        assert best.achieved_rel_change >= 0.0


def searchsorted_bins(amp, k):
    """Reference histogram: `_N_BINS` linspace log-k edges and searchsorted.

    Also returns whether a live node lies within a few ulps of an interior
    edge.  There the reference rounds the edge, the direct index rounds
    the quotient, and the two may put the node in either neighbour.
    """
    n_bins = integrator._N_BINS
    live = k > 0
    k_live, amp_live = k[live], amp[live]
    log_k = np.log(k_live)
    edges = np.linspace(log_k.min(), np.nextafter(log_k.max(), np.inf),
                        n_bins + 1)
    idx = np.clip(np.searchsorted(edges, log_k, side="right") - 1,
                  0, n_bins - 1)
    wsum = np.bincount(idx, weights=amp_live, minlength=n_bins)
    ksum = np.bincount(idx, weights=amp_live * k_live, minlength=n_bins)
    used = wsum > 0
    tie = 8 * np.spacing(np.max(np.abs(edges)))
    near_edge = np.any(np.abs(log_k[:, None] - edges[None, 1:-1]) <= tie)
    return wsum[used], ksum[used] / wsum[used], near_edge


def assert_bins_match_reference(amp, k):
    comp = integrator.CompressedDecayModel(amp, k)
    ref_amp, ref_k, _ = searchsorted_bins(amp, k)
    np.testing.assert_array_equal(comp.bin_amp, ref_amp)
    np.testing.assert_array_equal(comp.bin_k, ref_k)
    t = np.array([0.0, 0.5, 3.0, 40.0])
    ref_signal = float(np.sum(amp[k == 0])) \
        + integrator._decay_sum(t, 1.7 * ref_k, ref_amp)[0]
    np.testing.assert_array_equal(comp.signal(t, 1.7)[0], ref_signal)
    return comp


_k_values = st.one_of(
    st.just(0.0), st.sampled_from([1.0, 0.5, 2.0, 4.0, 10.0, 1e-3]),
    st.floats(1e-12, 1e3))


class TestCompressionBins:
    @settings(max_examples=300, deadline=None)
    @given(nodes=st.lists(st.tuples(st.floats(1e-3, 1e3), _k_values),
                          min_size=2, max_size=60))
    def test_direct_index_matches_searchsorted(self, nodes):
        amp, k = map(np.array, zip(*nodes))
        assume(np.count_nonzero(k > 0) >= 2)
        assume(not searchsorted_bins(amp, k)[2])
        assert_bins_match_reference(amp, k)

    def test_node_on_an_edge_moves_at_most_one_bin(self):
        # log 1 - log 1e-5 is 5/8 of log 1e3 - log 1e-5, so k = 1 sits on
        # edge 640 of 1024 up to rounding, and `below` half a bin under it.
        # The reference puts k = 1 below the edge with `below`; the direct
        # index puts it above, alone.
        width = np.log(1e8) / integrator._N_BINS
        below = float(np.exp(-width / 2))
        amp = np.ones(4)
        k = np.array([1.0, 1e3, below, 1e-5])
        ref_amp, _, near_edge = searchsorted_bins(amp, k)
        assert near_edge and ref_amp.tolist() == [1.0, 2.0, 1.0]
        comp = integrator.CompressedDecayModel(amp, k)
        assert comp.bin_amp.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert comp.bin_k.tolist() == [1e-5, below, 1.0, 1e3]

    @pytest.mark.parametrize("k_value", [1.0, 0.3, 7e-5])
    def test_all_live_k_equal(self, k_value):
        # at k = 1, log k = 0 and the one-ulp span over _N_BINS underflows
        amp = np.array([1.0, 2.0, 3.0, 4.0])
        k = np.array([0.0, k_value, k_value, k_value])
        comp = assert_bins_match_reference(amp, k)
        assert comp.bin_amp.tolist() == [9.0]
        assert comp.bin_k[0] == pytest.approx(k_value, rel=1e-15)

    def test_single_live_node(self):
        comp = assert_bins_match_reference(np.array([2.0, 5.0, 1.0]),
                                           np.array([0.0, 3e-3, 0.0]))
        assert comp.bin_amp.tolist() == [5.0] and comp.frozen_amp == 3.0

    def test_largest_k_lands_in_last_bin(self):
        # log k = (-8, -1, 0): the bin width 8 / 1024 is exact, so
        # (0 - lo) / width is exactly 1024, one past the last bin, which
        # must still hold k = 1
        amp = np.array([1.0, 2.0, 3.0])
        k = np.exp([-8.0, -1.0, 0.0])
        assert k[-1] == 1.0
        comp = assert_bins_match_reference(amp, k)
        assert comp.bin_amp.tolist() == [1.0, 2.0, 3.0]


@pytest.fixture(scope="module")
def decay_models(material, geom):
    """Both S(t) paths on the fit's rule as (t, gamma_trap) -> values:
    exact and binned."""
    return {"direct": lambda t, gamma_trap: hb.detected_signal(
                t, material, geom, gamma_trap, hb.LevelSetRule()).values,
            "compressed": lambda t, gamma_trap: TrapDecayModel(
                material, geom).compressed().signal(t, gamma_trap)[0]}


class TestTrapDecayModel:
    @pytest.mark.parametrize("kind", ["direct", "compressed"])
    @pytest.mark.parametrize("bad_t", [
        [], 5.0, [[0.0, 1.0]], [-1.0, 0.0], [np.nan],
    ])
    def test_bad_time_grids_rejected(self, decay_models, kind, bad_t):
        with pytest.raises(ValueError):
            decay_models[kind](bad_t, 7e4)

    def test_compression_error_small(self, material):
        # the bound `_N_BINS` states, at the bench's seven powers
        t = np.linspace(0, 200, 81)
        for power in [2e-6, 4e-6, 8e-6, 13e-6, 21e-6, 29e-6, 44e-6]:
            geom = hb.BeamGeometry.for_material(material, power=power)
            exact = hb.detected_signal(t, material, geom, 7e4,
                                       hb.LevelSetRule()).values
            approx, _ = TrapDecayModel(material, geom).compressed().signal(
                t, 7e4)
            assert np.max(np.abs(approx - exact) / exact) < 2e-5, power

    def test_signal_and_slope_match_separate_sums(self, material):
        # one pass gives S and dS/dgamma exactly as two sums would
        t = np.linspace(0, 200, 81)
        for power in [2e-6, 4e-6, 8e-6, 13e-6, 21e-6, 29e-6, 44e-6]:
            geom = hb.BeamGeometry.for_material(material, power=power)
            comp = TrapDecayModel(material, geom).compressed()
            rate = 7e4 * comp.bin_k
            s, slope = comp.signal(t, 7e4)
            assert s.tobytes() == (comp.frozen_amp + integrator._decay_sum(
                t, rate, comp.bin_amp)[0]).tobytes(), power
            assert slope.tobytes() == (-t * integrator._decay_sum(
                t, rate, comp.bin_amp * comp.bin_k)[0]).tobytes(), power

    def test_slope_matches_central_difference(self, material, geom):
        t = np.linspace(0, 200, 81)
        comp = TrapDecayModel(material, geom).compressed()
        _, slope = comp.signal(t, 7e4)
        step = 7e4 * 1e-5
        diff = (comp.signal(t, 7e4 + step)[0]
                - comp.signal(t, 7e4 - step)[0]) / (2 * step)
        np.testing.assert_allclose(slope[1:], diff[1:], rtol=1e-6)
        assert slope[0] == 0.0

    def test_underflowing_amp_k_joins_frozen_term(self):
        # every k is positive, but the first node's amp * k underflows to
        # 0: it counts as frozen, not as a bin of weighted k = 0
        amp = np.array([2e-10, 1e-10, 3e-10])
        k = np.array([1e-320, 1e-100, 1e-5])
        comp = integrator.CompressedDecayModel(amp, k)
        assert comp.frozen_amp == 2e-10
        assert comp.bin_amp.tolist() == [1e-10, 3e-10]
        assert comp.bin_k.tolist() == [1e-100, 1e-5]

    def test_compression_keeps_frozen_term(self):
        from holeburn.integrator import CompressedDecayModel
        amp = np.array([1.0, 2.0, 3.0])
        k = np.array([0.0, 1e-6, 2e-6])
        comp = CompressedDecayModel(amp, k)
        assert comp.frozen_amp == 1.0
        out, _ = comp.signal(np.array([0.0, 1e12]), 1.0)
        assert out[0] == pytest.approx(6.0)
        assert out[1] == pytest.approx(1.0)

    def test_all_frozen_cloud_is_constant(self):
        from holeburn.integrator import CompressedDecayModel
        comp = CompressedDecayModel(np.array([1.0, 2.0]), np.zeros(2))
        assert comp.bin_k.size == 0
        out, slope = comp.signal(np.array([0.0, 1e12]), 1.0)
        assert np.array_equal(out, [3.0, 3.0])
        assert np.array_equal(slope, [0.0, 0.0])


def test_signal_csv_roundtrip(tmp_path, material, geom, small_domain):
    t = np.linspace(0, 10, 5)
    res = hb.detected_signal(t, material, geom, 7e4, small_domain)
    scaled = hb.scaled_signal(res.values, 0.19, 9.4e7, 20e-6)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, t, res.values, scaled)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], t)
    assert np.array_equal(data[:, 1], res.values)
    assert np.array_equal(data[:, 2], scaled)
