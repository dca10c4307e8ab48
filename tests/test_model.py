import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holeburn import model, photon_energy
from holeburn import (BeamGeometry, MaterialParams, beam_intensity,
                      beam_radius, collection_efficiency, detuned_intensity,
                      ionization_rate, power_broadened_linewidth,
                      spont_recombination_rate, steady_state)
from oracles import (excited_population, r2_from_rates, saturation_ratio,
                     steady_state_fractions)


@pytest.fixture
def material():
    return MaterialParams()


@pytest.fixture
def geom(material):
    return BeamGeometry.for_material(material, power=20e-6, focus_fwhm=1e-6)


class TestParameterRecords:
    def test_defaults_valid(self, material):
        assert material.sat_intensity == 1.4e7
        assert material.fluor_rate == pytest.approx(1 / 40e-9)

    @pytest.mark.parametrize("field,value", [
        ("sat_intensity", 0.0), ("sigma_ion", -1e-22), ("coll0", 0.0),
        ("coll0", 1.5), ("ion_density", -1.0),
    ])
    def test_invalid_params_rejected(self, field, value):
        with pytest.raises(ValueError):
            MaterialParams(**{field: value})

    def test_beam_derived_quantities(self, geom):
        # FWHM 1 um: w0 = FWHM/sqrt(2 ln 2), z_R uses the in-medium wavelength
        assert geom.waist == pytest.approx(8.49322e-7, rel=1e-5)
        assert geom.rayleigh == pytest.approx(1.09949e-5, rel=1e-5)
        assert geom.peak_intensity == pytest.approx(1.7651e7, rel=1e-4)

    @pytest.mark.parametrize("fwhm", [0.0, -1e-6, np.nan, np.inf])
    def test_from_focus_rejects_bad_fwhm(self, material, fwhm):
        with pytest.raises(ValueError, match="focus_fwhm"):
            BeamGeometry.for_material(material, power=20e-6, focus_fwhm=fwhm)


class TestGroups:
    def test_default_values(self, material, geom):
        s0, rho, f = model._groups(material, geom)
        assert s0 == geom.peak_intensity / material.sat_intensity
        assert rho == pytest.approx(material.gamma_rec_spon / ionization_rate(
            material.sat_intensity, material.sigma_ion,
            material.vac_wavelength), rel=1e-15)
        assert f == pytest.approx(
            material.fluor_rate * material.ion_density * material.coll0
            * np.pi * geom.waist**2 * geom.rayleigh * material.hom_linewidth0,
            rel=1e-15)

    def test_finite_without_recombination_or_power(self):
        material = MaterialParams(g_ratio=0.0)
        s0, rho, f = model._groups(
            material, BeamGeometry.for_material(material, power=0.0))
        assert (s0, rho) == (0.0, 0.0) and 0 < f < math.inf

    def test_product_out_of_range_names_its_keys(self):
        material = MaterialParams(fluor_rate=1e100, ion_density=1e100)
        with pytest.raises(ValueError, match="signal scale F .*"
                           "ion_density_per_m3_per_hz.*got 1.59"):
            model._groups(material, BeamGeometry.for_material(material, 2e-5))

    def test_product_has_no_intermediate_overflow(self):
        assert model._product(1e200, 1e200, 1e-300) == pytest.approx(
            1e100, rel=1e-15)
        assert model._product(1e-200, 1e-200, 1e300) == pytest.approx(
            1e-100, rel=1e-15)
        assert model._product(1e300, 1e300) == math.inf
        assert model._product(0.0, 1e300, 1e300) == 0.0
        assert model._product(3.0, 7.0, 0.1) == 3.0 * 7.0 * 0.1


class TestSaturationRatio:
    def test_at_saturation(self):
        assert saturation_ratio(1.4e7, 1.4e7) == pytest.approx(3.0)

    def test_strong_drive_limit(self):
        assert saturation_ratio(1e30, 1.4e7) == pytest.approx(1.0)

    def test_twice_saturation(self):
        assert saturation_ratio(2 * 1.4e7, 1.4e7) == pytest.approx(2.0)

    def test_unexcited_point_rejected(self):
        with pytest.raises(ValueError, match="unexcited"):
            saturation_ratio(0.0, 1.4e7)


class TestRates:
    def test_zero_intensity(self):
        assert ionization_rate(0.0, 1e-22, 371e-9) == 0.0

    def test_table_value_bracket(self):
        # peak intensity of a 200 uW beam focused to 1 um FWHM
        rate = ionization_rate(1.765e8, 1e-22, 371e-9)
        assert rate == pytest.approx(3.3e4, rel=0.01)
        assert 3e4 / 2 < rate < 3e4 * 2

    def test_linear_in_intensity(self):
        one = ionization_rate(1e7, 1e-22, 371e-9)
        assert ionization_rate(2e7, 1e-22, 371e-9) == pytest.approx(2 * one)

    def test_spont_recombination_value(self):
        rate = spont_recombination_rate(1e-20, 82e12, 371e-9, 1.0)
        assert rate == pytest.approx(1.497e8, rel=1e-3)
        assert 2e8 / 2 < rate < 2e8 * 2

    def test_spont_recombination_zero_degeneracy(self):
        assert spont_recombination_rate(1e-20, 82e12, 371e-9, 0.0) == 0.0

    @pytest.mark.parametrize("call, message", [
        (lambda: ionization_rate(-1.0, 1e-22, 371e-9), "nonnegative"),
        (lambda: ionization_rate(np.array([1.0, -1.0]), 1e-22, 371e-9),
         "nonnegative"),
        (lambda: ionization_rate(1e7, -1e-22, 371e-9), "nonnegative"),
        (lambda: ionization_rate(1e7, 1e-22, 0.0), "wavelength"),
        (lambda: spont_recombination_rate(0.0, 82e12, 371e-9), "positive"),
        (lambda: spont_recombination_rate(1e-20, -1.0, 371e-9), "positive"),
        (lambda: spont_recombination_rate(1e-20, 82e12, 0.0), "positive"),
        (lambda: spont_recombination_rate(1e-20, 82e12, 371e-9, -1.0),
         "g_ratio must be nonnegative"),
    ], ids=["intensity", "intensity-array", "sigma-ion", "wavelength",
            "sigma-rec", "delta-f", "lambda-deex", "g-ratio"])
    def test_rate_inputs_checked(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("wavelength", [0.0, -371e-9])
    def test_photon_energy_needs_positive_wavelength(self, wavelength):
        with pytest.raises(ValueError, match="wavelength must be positive"):
            photon_energy(wavelength)

    def test_r2_from_rates(self):
        assert r2_from_rates(1e4, 2e8) == pytest.approx(1 + 2e4)
        with pytest.raises(ValueError, match="conduction-band"):
            r2_from_rates(0.0, 2e8)


class TestSteadyState:
    def test_fraction_examples(self):
        assert steady_state_fractions(3.0, 2.0) == pytest.approx(1 / 9)
        assert steady_state_fractions(1.0, 1.0) == pytest.approx(1 / 3)
        assert steady_state_fractions(3.0, 1e12) == pytest.approx(0.0, abs=1e-11)

    def test_invalid_ratios(self):
        with pytest.raises(ValueError):
            steady_state_fractions(0.5, 2.0)

    def test_excited_population(self):
        n0 = excited_population(0.0, 6e10, 2.0, 1e-4, 7e4)
        assert n0 == pytest.approx(2.0 * 1e-4 * 6e10)
        flat = excited_population(np.array([0.0, 10.0]), 6e10, 2.0, 1e-4, 0.0)
        assert flat[0] == flat[1]
        k, g = 1e-4, 7e4
        ratio = excited_population(1 / (g * k), 6e10, 2.0, k, g) / n0
        assert ratio == pytest.approx(1 / np.e)

    @settings(max_examples=200, deadline=None)
    @given(r1=st.floats(1.0, 1e8), r2=st.floats(1.0, 1e8))
    def test_population_closure(self, r1, r2):
        # ground r1 r2 k, excited r2 k and conduction band k of the
        # untrapped ions add up to all of them
        k = steady_state_fractions(r1, r2)
        assert r1 * r2 * k + r2 * k + k == pytest.approx(1.0, rel=1e-12)

    def test_monotonicity(self):
        t = np.linspace(0, 100, 50)
        excited = excited_population(t, 6e10, 2.0, 1e-4, 7e4)
        assert np.all(np.diff(excited) <= 0)

    @settings(max_examples=300, deadline=None)
    @given(i_l=st.floats(1e-3, 1e12), g_ion=st.floats(1e-6, 1e12),
           g_ratio=st.floats(0.0, 10.0))
    def test_steady_state_matches_ratio_form(self, i_l, g_ion, g_ratio):
        material = MaterialParams(g_ratio=g_ratio)
        r2 = r2_from_rates(g_ion, material.gamma_rec_spon)
        k = steady_state_fractions(
            saturation_ratio(i_l, material.sat_intensity), r2)
        # s = I / I_sat = g_ion / Gamma_ion(I_sat); rho over the same rate
        at_sat = ionization_rate(material.sat_intensity, material.sigma_ion,
                                 material.vac_wavelength)
        excited, k_q = steady_state(i_l / material.sat_intensity,
                                    g_ion / at_sat,
                                    material.gamma_rec_spon / at_sat)
        assert excited == pytest.approx(r2 * k, rel=1e-12)
        assert k_q == pytest.approx(k, rel=1e-12)

    @pytest.mark.parametrize("g_ion,g_ratio", [(0.0, 1.0), (5e3, 1.0),
                                               (0.0, 0.0)])
    def test_steady_state_dark_point(self, g_ion, g_ratio):
        # zero intensity, also with both rates zero (q = 0/0)
        material = MaterialParams(g_ratio=g_ratio)
        at_sat = ionization_rate(material.sat_intensity, material.sigma_ion,
                                 material.vac_wavelength)
        s_l = np.array([0.0, 1e7]) / material.sat_intensity
        excited, k = steady_state(s_l, np.array([g_ion, g_ion]) / at_sat,
                                  material.gamma_rec_spon / at_sat)
        assert np.all(np.isfinite([excited, k]))
        assert (excited[0], k[0]) == (0.0, 0.0)
        assert excited[1] > 0 and k[1] >= 0


class TestBeamOptics:
    def test_peak_intensity_example(self, geom):
        assert beam_intensity(0.0, 0.0, geom) == pytest.approx(1.77e7, rel=3e-3)

    def test_rayleigh_halves_on_axis(self, geom):
        assert beam_intensity(0.0, geom.rayleigh, geom) == \
            pytest.approx(geom.peak_intensity / 2)

    def test_waist_radius_factor(self, geom):
        z = 5e-6
        w = beam_radius(z, geom)
        on_axis = beam_intensity(0.0, z, geom)
        assert beam_intensity(w, z, geom) == pytest.approx(on_axis * np.e**-2)

    def test_collection_peak(self, geom):
        assert collection_efficiency(0.0, 0.0, geom, 0.016) == pytest.approx(0.016)
        assert collection_efficiency(0.0, geom.rayleigh, geom, 0.016) == \
            pytest.approx(0.008)

    def test_collection_matches_beam_shape(self, geom):
        r = np.linspace(0, 3e-6, 7)
        z = np.linspace(-20e-6, 20e-6, 7)
        rr, zz = np.meshgrid(r, z)
        ratio = collection_efficiency(rr, zz, geom, 0.016) / \
            beam_intensity(rr, zz, geom)
        assert np.allclose(ratio, ratio.flat[0], rtol=1e-12)

    def test_collection_coll0_validated(self, geom):
        with pytest.raises(ValueError):
            collection_efficiency(0.0, 0.0, geom, 1.5)


class TestLinewidthAndDetuning:
    def test_unbroadened(self, material):
        # the linewidth in units of hom_linewidth0 at s = I / I_sat
        assert material.hom_linewidth0 * power_broadened_linewidth(0.0) == 4e6

    def test_broadening_factors(self, material):
        g0 = material.hom_linewidth0
        assert g0 * power_broadened_linewidth(1.0) == \
            pytest.approx(4e6 * np.sqrt(2))
        assert g0 * power_broadened_linewidth(3.0) == \
            pytest.approx(8e6)

    def test_detuning_factors(self):
        assert detuned_intensity(1e7, 0.0, 4e6) == pytest.approx(1e7)
        assert detuned_intensity(1e7, 2e6, 4e6) == pytest.approx(5e6)
        assert detuned_intensity(1e7, 1e15, 4e6) == pytest.approx(0.0, abs=1e-3)

    def test_negative_saturation_rejected(self):
        for s in (-1.0, np.array([0.0, -1e-3])):
            with pytest.raises(ValueError, match="s must be nonnegative"):
                power_broadened_linewidth(s)

    def test_nonpositive_linewidth_rejected(self):
        for gamma_hom in (0.0, -4e6, np.array([4e6, 0.0])):
            with pytest.raises(ValueError,
                               match="gamma_hom must be positive"):
                detuned_intensity(1e7, 2e6, gamma_hom)

    @settings(max_examples=100, deadline=None)
    @given(delta=st.floats(0.0, 1e9), step=st.floats(1.0, 1e9))
    def test_fluorescence_never_grows_with_detuning(self, delta, step):
        # local excited population through the saturation pipeline
        def local_signal(d):
            i_l = detuned_intensity(1.77e7, d, 6e6)
            if i_l <= 0:
                return 0.0
            r1 = saturation_ratio(i_l, 1.4e7)
            k = steady_state_fractions(r1, 1e4)
            return excited_population(0.0, 6e10, 1e4, k, 7e4)
        assert local_signal(delta + step) <= local_signal(delta) * (1 + 1e-12)
