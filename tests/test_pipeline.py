import numpy as np
import pytest

import holeburn as hb
from holeburn import PipelineOrderError, csvio


def make_raw(n=400, off_a=0, off_b=40, fluor_offset=100.0, power_offset=50.0,
             power_level=1000.0, response=2.0):
    freq = np.linspace(-100e6, 100e6, n)
    power = np.full(n, power_level)
    power[off_a:off_b] = 0.0
    fluor = response * power + fluor_offset
    return hb.RawScan(freq=freq, fluor_counts=fluor,
                      power_monitor=power + power_offset,
                      aom_off_range=(off_a, off_b))


class TestRawScan:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hb.RawScan(freq=np.arange(3.0), fluor_counts=np.arange(4.0),
                       power_monitor=np.arange(3.0), aom_off_range=(0, 1))

    @pytest.mark.parametrize("rng", [(2, 2), (-1, 3), (0, 99)])
    def test_bad_off_range(self, rng):
        n = 10
        with pytest.raises(ValueError):
            hb.RawScan(freq=np.arange(float(n)), fluor_counts=np.zeros(n),
                       power_monitor=np.zeros(n), aom_off_range=rng)


    @pytest.mark.parametrize("channel", ["fluor_counts", "power_monitor",
                                         "freq"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_channel(self, channel, bad):
        # background subtraction would spread it over every point; a
        # frequency in the AOM-off segment would pass to the treated scan
        n = 10
        traces = {"freq": np.arange(float(n)), "fluor_counts": np.ones(n),
                  "power_monitor": np.ones(n)}
        traces[channel][3] = bad
        with pytest.raises(ValueError, match="must be finite"):
            hb.RawScan(aom_off_range=(0, 4), **traces)


class TestDetectAomOff:
    def test_recovers_true_segment(self):
        freq = np.linspace(-100e6, 100e6, 3000)
        scan = hb.gen_hole_scan(freq, 1.0, 0.4, -50e6, 6e6, 1000.0,
                                aom_off_range=(120, 400), power_slope=0.2,
                                fluor_offset=80.0, power_offset=25.0)
        assert hb.detect_aom_off_range(scan.power_monitor) == (120, 400)

    def test_flat_trace_rejected(self):
        with pytest.raises(ValueError, match="flat"):
            hb.detect_aom_off_range(np.full(100, 5.0))

    def test_short_runs_rejected(self):
        power = np.full(100, 10.0)
        power[40:43] = 0.0  # shorter than _MIN_OFF_LENGTH
        with pytest.raises(ValueError, match="sufficient length"):
            hb.detect_aom_off_range(power)

    def test_picks_longest_run(self):
        power = np.full(200, 10.0)
        power[10:30] = 0.0
        power[100:180] = 0.0
        assert hb.detect_aom_off_range(power) == (100, 180)


class TestSubtractBackground:
    def test_constant_offsets_removed(self):
        scan = make_raw(response=0.0, power_level=0.0, fluor_offset=100.0,
                        power_offset=100.0)
        out = hb.subtract_background(scan)
        assert np.allclose(out.fluor_counts, 0.0, atol=1e-12)
        assert np.allclose(out.power_monitor, 0.0, atol=1e-12)

    def test_channel_specific_offsets(self):
        scan = make_raw(fluor_offset=120.0, power_offset=35.0)
        out = hb.subtract_background(scan)
        a, b = scan.aom_off_range
        assert np.mean(out.fluor_counts[a:b]) == pytest.approx(0.0, abs=1e-9)
        assert np.mean(out.power_monitor[a:b]) == pytest.approx(0.0, abs=1e-9)
        assert out.meta["background_fluor"] == pytest.approx(120.0)
        assert out.meta["background_power"] == pytest.approx(35.0)

    def test_idempotent(self):
        scan = make_raw()
        once = hb.subtract_background(scan)
        twice = hb.subtract_background(once)
        assert np.allclose(twice.fluor_counts, once.fluor_counts, atol=1e-12)
        assert np.allclose(twice.power_monitor, once.power_monitor, atol=1e-12)


    def test_subtracted_trace_checked_again(self):
        # a valid scan whose subtracted fluorescence, -1e100 - 1e100, leaves
        # the range: the second pass through RawScan's checks rejects it
        on = np.arange(40) >= 10
        scan = hb.RawScan(freq=np.linspace(-100e6, 100e6, 40),
                          fluor_counts=np.where(on, -1e100, 1e100),
                          power_monitor=np.where(on, 1000.0, 0.0),
                          aom_off_range=(0, 10))
        with pytest.raises(ValueError, match=r"^fluor_counts must be in "
                                             r"\[-1e\+100, 1e\+100\], "
                                             r"got -2e\+100$"):
            hb.subtract_background(scan)


class TestNormalize:
    def test_constant_response(self):
        scan = hb.subtract_background(make_raw(response=2.0))
        norm = hb.normalize_by_power(scan)
        assert np.allclose(norm.signal[norm.included], 2.0, rtol=1e-12)

    def test_zero_power_points_excluded(self):
        scan = hb.subtract_background(make_raw(off_a=0, off_b=40))
        norm = hb.normalize_by_power(scan)
        assert np.all(norm.excluded[:40])
        assert not np.any(norm.excluded[40:])
        assert np.all(np.isnan(norm.signal[:40]))
        assert np.all(np.isfinite(norm.signal[40:]))

    def test_refuses_unsubtracted(self):
        with pytest.raises(PipelineOrderError):
            hb.normalize_by_power(make_raw())

    def test_all_excluded_rejected(self):
        # subtracted-looking trace whose laser was never actually on
        n = 50
        power = np.concatenate([np.zeros(10), np.full(n - 10, -1.0)])
        scan = hb.RawScan(freq=np.arange(float(n)), fluor_counts=np.zeros(n),
                          power_monitor=power, aom_off_range=(0, 10))
        with pytest.raises(ValueError, match="no usable laser power"):
            hb.normalize_by_power(scan)

    def test_unsubtracted_zero_mean_off_segment_refused(self):
        # the AOM-off segment averages to zero, but no subtraction is on
        # record
        scan = make_raw(fluor_offset=0.0, power_offset=0.0)
        with pytest.raises(PipelineOrderError):
            hb.normalize_by_power(scan)

    def test_record_read_back_from_file(self, tmp_path):
        # a file's metadata gives the record back as text
        scan = hb.subtract_background(make_raw(power_offset=33.3))
        path = tmp_path / "subtracted.csv"
        csvio.write_raw_scan(path, scan)
        read = csvio.read_raw_scan(path)
        assert isinstance(read.meta["background_power"], str)
        norm, oracle = map(hb.normalize_by_power, (read, scan))
        assert np.array_equal(norm.freq, oracle.freq)
        assert np.array_equal(norm.signal, oracle.signal, equal_nan=True)
        assert np.array_equal(norm.excluded, oracle.excluded)

    @pytest.mark.parametrize("level", [33.0, 1000.0, 0.0])
    def test_power_flat_to_its_rounding_all_excluded(self, level):
        # the power stays within 3 ulp of its AOM-off level: what is left
        # after subtraction is rounding, not laser power
        rng = np.random.default_rng(5)
        power = level + rng.integers(-3, 4, 200) * np.spacing(level)
        scan = hb.subtract_background(hb.RawScan(
            freq=np.arange(200.0), fluor_counts=np.linspace(90.0, 120.0, 200),
            power_monitor=power, aom_off_range=(0, 30)))
        with pytest.raises(ValueError, match="no usable laser power"):
            hb.normalize_by_power(scan)

    def test_flat_fluorescence_normalizes(self):
        # fluorescence within 3 ulp of its AOM-off level is no order error
        raw = make_raw()
        rng = np.random.default_rng(6)
        fluor = 120.0 + rng.integers(-3, 4, raw.freq.size) * np.spacing(120.0)
        flat = hb.RawScan(freq=raw.freq, fluor_counts=fluor,
                          power_monitor=raw.power_monitor,
                          aom_off_range=raw.aom_off_range)
        norm = hb.normalize_by_power(hb.subtract_background(flat))
        assert np.all(np.abs(norm.signal[norm.included]) < 1e-15)

    def test_sloped_power_flat_baseline(self):
        freq = np.linspace(-100e6, 100e6, 3000)
        scan = hb.gen_hole_scan(freq, baseline=1.5, depth=0.0, center=0.0,
                                fwhm=4e6, power_level=800.0,
                                aom_off_range=(0, 60), power_slope=0.4,
                                fluor_offset=90.0, power_offset=20.0)
        norm = hb.normalize_by_power(hb.subtract_background(scan))
        vals = norm.signal[norm.included]
        assert np.allclose(vals, 1.5, rtol=1e-9)


class TestHoleArea:
    def make_scan(self, freq, signal, excluded=None):
        n = len(freq)
        if excluded is None:
            excluded = np.zeros(n, dtype=bool)
        return hb.NormalizedScan(freq=np.asarray(freq, dtype=float),
                                 signal=np.asarray(signal, dtype=float),
                                 excluded=excluded)

    def test_sigma_sqrt_n_identity(self):
        n, sigma = 137, 0.37
        scan = self.make_scan(np.arange(float(n)), np.ones(n))
        res = hb.hole_area_with_error(scan, baseline=1.0, sigma_point=sigma)
        assert res.sigma_area == pytest.approx(sigma * np.sqrt(n), rel=1e-12)

    def test_zero_depth_consistent_with_error(self):
        rng = np.random.default_rng(17)
        n, sigma = 400, 0.05
        scan = self.make_scan(np.arange(float(n)),
                              1.0 + rng.normal(0, sigma, n))
        res = hb.hole_area_with_error(scan, baseline=1.0, sigma_point=sigma)
        assert abs(res.area) < 3 * res.sigma_area

    def test_lorentzian_area_matches_analytic(self):
        freq = np.linspace(-200e6, 200e6, 8001)
        w, d = 4e6, 0.4
        scan = self.make_scan(freq, hb.lorentzian_hole(freq, 1.0, d, 0.0, w))
        res = hb.hole_area_with_error(scan, baseline=1.0, sigma_point=0.0)
        # closed form over the scan window
        half = w / 2
        analytic = d * half * (np.arctan(200e6 / half) * 2)
        assert res.area_hz == pytest.approx(analytic, rel=1e-3)
        assert res.area_hz == pytest.approx(np.pi * d * w / 2, rel=0.01)

    def test_additive_over_partitions(self):
        rng = np.random.default_rng(3)
        freq = np.linspace(0.0, 1e8, 1000)
        sig = 1.0 - rng.uniform(0, 0.1, 1000)
        full = self.make_scan(freq, sig)
        left = self.make_scan(freq[:600], sig[:600])
        right = self.make_scan(freq[600:], sig[600:])
        a = hb.hole_area_with_error(full, 1.0, 0.02)
        b = hb.hole_area_with_error(left, 1.0, 0.02)
        c = hb.hole_area_with_error(right, 1.0, 0.02)
        assert a.area == pytest.approx(b.area + c.area, rel=1e-12)
        assert a.sigma_area**2 == pytest.approx(
            b.sigma_area**2 + c.sigma_area**2, rel=1e-12)

    def test_hz_values_weighted_by_frequency_step(self):
        scan = self.make_scan(np.arange(0.0, 50.0, 2.5), np.full(20, 0.5))
        res = hb.hole_area_with_error(scan, baseline=1.0, sigma_point=0.2)
        assert res.freq_step == 2.5
        assert res.area_hz == pytest.approx(res.area * 2.5, rel=1e-15)
        assert res.sigma_area_hz == pytest.approx(res.sigma_area * 2.5,
                                                  rel=1e-15)

    def test_nonfinite_baseline_rejected(self):
        scan = self.make_scan(np.arange(20.0), np.ones(20))
        with pytest.raises(ValueError):
            hb.hole_area_with_error(scan, np.nan, 0.1)
