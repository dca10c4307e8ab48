import numpy as np
import pytest

import holeburn as hb
from holeburn import NoiseSpec, csvio
from holeburn.cli import main


@pytest.fixture(scope="module")
def material():
    return hb.MaterialParams()


class TestNoiseSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="uniform")

    def test_same_seed_identical(self):
        values = np.linspace(100.0, 1000.0, 50)
        for kind in ("poisson", "gaussian"):
            spec = NoiseSpec(kind=kind, seed=31, gaussian_sigma=2.0)
            a = hb.apply_noise(values, spec)
            b = hb.apply_noise(values, spec)
            assert np.array_equal(a, b)

    def test_streams_differ(self):
        values = np.full(100, 500.0)
        spec = NoiseSpec(kind="poisson", seed=31)
        a = hb.apply_noise(values, spec, stream=0)
        b = hb.apply_noise(values, spec, stream=1)
        assert not np.array_equal(a, b)

    def test_none_is_exact_copy(self):
        values = np.array([1.0, 2.0, 3.0])
        out = hb.apply_noise(values, NoiseSpec())
        assert np.array_equal(out, values)

    def test_poisson_rejects_negative(self):
        with pytest.raises(ValueError):
            hb.apply_noise(np.array([-1.0]), NoiseSpec(kind="poisson"))

    def test_poisson_relative_fluctuation(self):
        level = 1e4
        spec = NoiseSpec(kind="poisson", seed=5)
        draws = hb.apply_noise(np.full(20000, level), spec)
        rel = np.std(draws) / np.mean(draws)
        assert rel == pytest.approx(1 / np.sqrt(level), rel=0.05)

    def test_poisson_unbiased_across_seeds(self):
        # sample mean over many independent streams stays within 3 standard
        # errors of the noiseless value
        level = 900.0
        spec = NoiseSpec(kind="poisson", seed=77)
        n = 10000
        rng = np.random.default_rng([77, 0])
        draws = rng.poisson(np.full(n, level))
        sem = np.sqrt(level / n)
        assert abs(np.mean(draws) - level) < 3 * sem


class TestGenDecayCurve:
    """A single curve is the batch of one, on noise stream 0."""

    def test_noiseless_matches_integrator(self, material):
        t = np.linspace(0, 100, 21)
        [curve] = hb.gen_decay_batch(material, 7e4, 0.19, 9.4e7, [20e-6], t)
        geom = hb.BeamGeometry.for_material(material, power=20e-6)
        direct = hb.detected_signal(t, material, geom, 7e4, hb.LevelSetRule())
        expected = 0.19 * direct.values + 9.4e7 * 20e-6
        assert np.allclose(curve.counts_per_s, expected, rtol=1e-12)

    def test_metadata_truth(self, material):
        t = np.linspace(0, 10, 5)
        [curve] = hb.gen_decay_batch(material, 7e4, 0.19, 9.4e7, [20e-6], t,
                                     NoiseSpec(kind="poisson", seed=4))
        assert curve.meta["gamma_trap_per_s"] == 7e4
        assert curve.meta["noise_seed"] == 4
        assert curve.meta["noise_stream"] == 0
        assert curve.power_w == 20e-6

    def test_seed_reproducibility(self, material):
        t = np.linspace(0, 10, 5)
        kw = dict(noise=NoiseSpec(kind="poisson", seed=9))
        [a] = hb.gen_decay_batch(material, 7e4, 0.19, 9.4e7, [20e-6], t, **kw)
        [b] = hb.gen_decay_batch(material, 7e4, 0.19, 9.4e7, [20e-6], t, **kw)
        assert np.array_equal(a.counts_per_s, b.counts_per_s)

    def test_reference_decay_shape(self, material):
        # 20 uW with the reference fit parameters: fast early drop and a
        # count level in the 1e5/s class
        t = np.array([0.0, 5.0])
        [curve] = hb.gen_decay_batch(material, 7e4, 0.19, 9.4e7, [20e-6], t)
        assert curve.counts_per_s[0] > 1e5
        assert curve.counts_per_s[1] < 0.90 * curve.counts_per_s[0]

    def test_batch_streams_and_powers(self, material):
        t = np.linspace(0, 10, 5)
        powers = [2e-6, 4e-6]
        curves = hb.gen_decay_batch(material, 7e4, 0.19, 9.4e7, powers, t,
                                    NoiseSpec(kind="poisson", seed=1))
        assert [c.power_w for c in curves] == powers
        assert curves[0].meta["noise_stream"] == 0
        assert curves[1].meta["noise_stream"] == 1


class TestGenHoleScan:
    freq = np.linspace(-100e6, 100e6, 2000)

    def test_flat_no_hole_no_offset(self):
        scan = hb.gen_hole_scan(self.freq, baseline=2.0, depth=0.0,
                                center=0.0, fwhm=5e6, power_level=100.0,
                                aom_off_range=(0, 50))
        on = np.arange(len(self.freq)) >= 50
        assert np.allclose(scan.fluor_counts[on], 200.0, rtol=1e-12)
        assert np.allclose(scan.fluor_counts[:50], 0.0, atol=1e-12)

    def test_aom_off_zeroes_power(self):
        scan = hb.gen_hole_scan(self.freq, 1.0, 0.4, 0.0, 5e6, 100.0,
                                aom_off_range=(10, 60), power_offset=7.0)
        assert np.allclose(scan.power_monitor[10:60], 7.0)

    def test_full_pipeline_roundtrip_noiseless(self):
        scan = hb.gen_hole_scan(self.freq, 1.0, 0.4, -50e6, 6e6, 1000.0,
                                aom_off_range=(0, 100), power_slope=0.3,
                                fluor_offset=120.0, power_offset=35.0)
        norm = hb.normalize_by_power(hb.subtract_background(scan))
        keep = norm.included
        fit = hb.fit_hole_lorentzian(norm.freq[keep], norm.signal[keep])
        assert fit.depth == pytest.approx(0.4, rel=1e-6)
        assert fit.center_hz == pytest.approx(-50e6, rel=1e-6)
        assert fit.fwhm_hz == pytest.approx(6e6, rel=1e-6)

    def test_negative_power_profile_rejected(self):
        with pytest.raises(ValueError):
            hb.gen_hole_scan(self.freq, 1.0, 0.4, 0.0, 5e6, 100.0,
                             aom_off_range=(0, 50), power_slope=-2.0)

    @pytest.mark.parametrize("off", [(5, 5), (-1, 3), (0, freq.size + 1)],
                             ids=["empty", "negative-start", "past-the-end"])
    def test_off_range_outside_the_trace_rejected(self, off):
        with pytest.raises(ValueError, match="aom_off_range"):
            hb.gen_hole_scan(self.freq, 1.0, 0.4, 0.0, 5e6, 100.0,
                             aom_off_range=off)

    def test_cli_off_range_past_the_end_exit_2(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["gen", "holescan", "--n-points", "300",
                     "--aom-off", "0:301", "--out", str(out)]) == 2
        assert "aom_off_range" in capsys.readouterr().err
        assert not out.exists()


class TestGenHoleDecaySeries:
    def test_noiseless_exact(self):
        waits = np.linspace(0, 0.5, 20)
        areas = hb.gen_hole_decay_series(0.072, 0.05, waits)
        assert np.allclose(areas, np.exp(-waits / 0.072) + 0.05, rtol=1e-12)

    def test_one_over_e_crossing(self):
        waits = np.array([0.0, 0.072])
        areas = hb.gen_hole_decay_series(0.072, 0.05, waits)
        assert (areas[1] - 0.05) / (areas[0] - 0.05) == pytest.approx(1 / np.e)

    def test_no_offset_long_time_zero(self):
        areas = hb.gen_hole_decay_series(0.072, 0.0, np.array([0.0, 100.0]))
        assert areas[1] == pytest.approx(0.0, abs=1e-12)

    def test_wait_times_must_ascend(self):
        with pytest.raises(ValueError):
            hb.gen_hole_decay_series(0.072, 0.0, np.array([0.1, 0.0]))

    @pytest.mark.parametrize("waits", [0.5, [[0.0, 0.1], [0.2, 0.3]]])
    def test_wait_times_must_be_1d(self, waits):
        with pytest.raises(ValueError, match="1-D ascending"):
            hb.gen_hole_decay_series(0.072, 0.0, waits)


class TestRedrawFromMetadata:
    """A generated file records every setting its noise was drawn with, so
    the library redraws the file's data rows from the file alone."""

    @staticmethod
    def noise(meta):
        assert meta["rng"] == "numpy PCG64, default_rng([seed, stream])"
        assert meta["noise_stream"] == "0"
        return NoiseSpec(kind=meta["noise_kind"], seed=int(meta["noise_seed"]),
                         gaussian_sigma=float(meta["gaussian_sigma"]))

    def test_gaussian_hole_scan(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["gen", "holescan", "--center=-2e7", "--n-points", "400",
                     "--noise", "gaussian", "--gaussian-sigma", "5",
                     "--seed", "7", "--out", str(out)]) == 0
        meta, cols = csvio._read_table(
            out, ["freq_hz", "fluor_counts", "power_counts"])
        scan = hb.gen_hole_scan(
            np.array(cols["freq_hz"]), float(meta["baseline"]),
            float(meta["depth"]), float(meta["center_hz"]),
            float(meta["fwhm_hz"]), float(meta["power_level"]),
            (int(meta["aom_off_start"]), int(meta["aom_off_stop"])),
            power_slope=float(meta["power_slope"]),
            fluor_offset=float(meta["fluor_offset"]),
            power_offset=float(meta["power_offset"]), noise=self.noise(meta))
        assert scan.fluor_counts.tolist() == cols["fluor_counts"]
        assert scan.power_monitor.tolist() == cols["power_counts"]

    def test_gaussian_hole_decay_series(self, tmp_path):
        out = tmp_path / "series.csv"
        assert main(["gen", "holedecay", "--offset", "0.05",
                     "--noise", "gaussian", "--gaussian-sigma", "0.02",
                     "--seed", "3", "--out", str(out)]) == 0
        meta, cols = csvio._read_table(out, ["wait_time_s", "area"])
        areas = hb.gen_hole_decay_series(
            float(meta["tau_s"]), float(meta["offset"]), cols["wait_time_s"],
            self.noise(meta), amplitude=float(meta["amplitude"]))
        assert areas.tolist() == cols["area"]
