import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holeburn as hb
from holeburn import ZeemanConfig


@pytest.fixture
def cfg():
    return ZeemanConfig()


class TestTotalField:
    # total = applied + field_sign * stray_field; the coil setting for a
    # wanted total field is its inverse, applied_field
    def test_stray_cancellation(self, cfg):
        # applying -0.2 mT cancels the +0.2 mT stray field
        assert hb.applied_field(0.0, cfg) == pytest.approx(-0.2e-3,
                                                           rel=1e-15)

    def test_no_stray_identity(self):
        cfg = ZeemanConfig(stray_field=0.0)
        assert hb.applied_field(1.7e-3, cfg) == 1.7e-3

    def test_sign_flip_moves_zero(self):
        cfg = ZeemanConfig(field_sign=-1)
        assert hb.applied_field(0.0, cfg) == pytest.approx(0.2e-3,
                                                           rel=1e-15)
        res = hb.resonance_fields(44.5e6, cfg)
        assert res.b_sum_applied == pytest.approx(1.0e-3 + 0.2e-3)

    def test_applied_inverts_total(self, cfg):
        total = 1e-3
        applied = hb.applied_field(total, cfg)
        assert applied + cfg.field_sign * cfg.stray_field == \
            pytest.approx(total)


class TestSplittings:
    def test_ground_coefficient(self, cfg):
        dg, de = hb.splittings(1e-3, cfg)
        assert dg == pytest.approx(19e6)
        assert de == pytest.approx(25.5e6)
        assert dg + de == pytest.approx(44.5e6)

    def test_zero_field(self, cfg):
        assert hb.splittings(0.0, cfg) == (0.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(b=st.floats(-0.1, 0.1))
    def test_linearity(self, b):
        cfg = ZeemanConfig()
        dg1, de1 = hb.splittings(b, cfg)
        dg2, de2 = hb.splittings(2 * b, cfg)
        assert dg2 == pytest.approx(2 * dg1, rel=1e-12, abs=1e-9)
        assert de2 == pytest.approx(2 * de1, rel=1e-12, abs=1e-9)
        # reversing the field leaves the splittings unchanged
        assert hb.splittings(-b, cfg) == (dg1, de1)


class TestResonanceFields:
    def test_sum_condition(self, cfg):
        res = hb.resonance_fields(44.5e6, cfg)
        assert res.b_sum_total == pytest.approx(1.0e-3, rel=1e-12)

    def test_ground_condition(self, cfg):
        res = hb.resonance_fields(19e6, cfg)
        assert res.b_ground_total == pytest.approx(1.0e-3, rel=1e-12)

    def test_applied_values_corrected(self, cfg):
        res = hb.resonance_fields(44.5e6, cfg)
        assert res.b_sum_applied == pytest.approx(1.0e-3 - 0.2e-3)

    def test_sum_below_ground(self, cfg):
        # the stronger (sum) peaks sit at lower fields
        res = hb.resonance_fields(30e6, cfg)
        assert res.b_sum_total < res.b_ground_total

    def test_equal_coefficients_no_difference_peak(self):
        cfg = ZeemanConfig(g_ground=2e10, g_excited=2e10)
        res = hb.resonance_fields(1e7, cfg)
        assert res.b_diff_total is None
        assert res.b_diff_applied is None

    @settings(max_examples=200, deadline=None)
    @given(gg=st.floats(1e9, 1e11), ge=st.floats(1e9, 1e11),
           df=st.floats(1e6, 1e9))
    def test_sum_always_lowest(self, gg, ge, df):
        cfg = ZeemanConfig(g_ground=gg, g_excited=ge)
        res = hb.resonance_fields(df, cfg)
        assert res.b_sum_total < res.b_ground_total

    @settings(max_examples=200, deadline=None)
    @given(gg=st.floats(1e9, 1e11), ratio=st.floats(0.05, 1.95),
           df=st.floats(1e6, 1e9))
    def test_ordering_in_similar_coefficient_regime(self, gg, ratio, df):
        # the difference condition sits above the ground condition only
        # while g_excited < 2 g_ground (it diverges as the coefficients
        # approach each other); outside that regime no ordering holds
        ge = ratio * gg
        if abs(gg - ge) / max(gg, ge) < 1e-9:
            return
        cfg = ZeemanConfig(g_ground=gg, g_excited=ge)
        res = hb.resonance_fields(df, cfg)
        assert res.b_sum_total < res.b_ground_total < res.b_diff_total

    def test_invalid_delta(self, cfg):
        with pytest.raises(ValueError):
            hb.resonance_fields(0.0, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        ZeemanConfig(g_ground=0.0)
    with pytest.raises(ValueError):
        ZeemanConfig(field_sign=2)


@pytest.mark.parametrize("kwargs", [
    {"g_ground": math.inf},
    {"g_excited": math.inf},
    {"stray_field": math.inf},
    {"field_sign": True},
    {"field_sign": 1.0},
    {"field_sign": -1.0},
], ids=["g-ground-inf", "g-excited-inf", "stray-inf", "sign-bool",
        "sign-float", "sign-neg-float"])
def test_config_rejects_what_the_file_cannot_set(kwargs):
    # the config file gives finite floats and an int sign; so must callers
    with pytest.raises(ValueError):
        ZeemanConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"g_ground": 1e-320},
    {"g_excited": 1e-101},
    {"g_ground": 1e101},
    {"stray_field": 1e300},
    {"stray_field": -1e101},
], ids=["g-ground-subnormal", "g-excited-tiny", "g-ground-huge",
        "stray-huge", "stray-huge-negative"])
def test_config_keeps_the_fields_finite(kwargs):
    # the fields are delta_f / g: a subnormal coefficient made them inf
    (name, _), = kwargs.items()
    with pytest.raises(ValueError, match=f"{name} must be in"):
        ZeemanConfig(**kwargs)
