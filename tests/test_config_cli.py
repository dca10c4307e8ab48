import dataclasses
import json
import os
import re

import numpy as np
import pytest

from conftest import run_fresh
import holeburn as hb
from holeburn import cli, csvio, simplex
from holeburn.cli import main
from holeburn.config import _SCHEMA, ConfigError, RunConfig, load_config
from holeburn.fitting import LorentzianHoleFit, TrapFitResult
from holeburn.integrator import TrapDecayModel
from holeburn.lifetime import ExpDecayFit
from holeburn.linefit import LinearFit

# Every config key with a valid non-default value and the attribute the
# code reads it from, written out independently of the schema table.
EVERY_KEY = [
    ("material", "sat_intensity_w_per_m2", 2.5e7,
     lambda c: c.material.sat_intensity),
    ("material", "sigma_ion_m2", 3e-22, lambda c: c.material.sigma_ion),
    ("material", "sigma_rec_m2", 4e-20, lambda c: c.material.sigma_rec),
    ("material", "photoioniz_fwhm_hz", 90e12,
     lambda c: c.material.photoioniz_fwhm),
    ("material", "vac_wavelength_m", 380e-9,
     lambda c: c.material.vac_wavelength),
    ("material", "refr_index", 1.75, lambda c: c.material.refr_index),
    ("material", "hom_linewidth0_hz", 5e6,
     lambda c: c.material.hom_linewidth0),
    ("material", "ion_density_per_m3_per_hz", 7e10,
     lambda c: c.material.ion_density),
    ("material", "fluor_rate_per_s", 2e7, lambda c: c.material.fluor_rate),
    ("material", "g_ratio", 0.5, lambda c: c.material.g_ratio),
    ("material", "coll0", 0.02, lambda c: c.material.coll0),
    ("beam", "focus_fwhm_m", 1.5e-6, lambda c: c.focus_fwhm),
    ("scale", "scale_a", 0.25, lambda c: c.scale_a),
    ("scale", "background_b_counts_per_w", 8e7, lambda c: c.background_b),
    ("zeeman", "g_ground_hz_per_t", 2e10, lambda c: c.zeeman.g_ground),
    ("zeeman", "g_excited_hz_per_t", 3e10, lambda c: c.zeeman.g_excited),
    ("zeeman", "stray_field_t", 1e-4, lambda c: c.zeeman.stray_field),
]


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.material.sat_intensity == 1.4e7
        assert cfg.focus_fwhm == 1e-6
        assert cfg.zeeman.g_ground == 1.9e10

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("""
[material]
sat_intensity_w_per_m2 = 2.0e7

[beam]
focus_fwhm_m = 1.5e-6

[zeeman]
stray_field_t = 0
""")
        cfg = load_config(path)
        assert cfg.material.sat_intensity == 2.0e7
        assert cfg.material.sigma_ion == 1e-22  # untouched default
        assert cfg.focus_fwhm == 1.5e-6
        assert cfg.zeeman.stray_field == 0.0

    def test_unknown_key_rejected(self, tmp_path):
        # the beam power is a per-run choice, set by --power-w only
        for text in ["[material]\nnot_a_key = 3\n",
                     "[beam]\npower_w = 5e-6\n"]:
            path = tmp_path / "bad.ini"
            path.write_text(text)
            with pytest.raises(ConfigError, match="unknown key"):
                load_config(path)

    # [fit] is gone: the searches' settings are constants of `fitting`, and
    # the slope CI level is set by `fit linear --confidence` only.
    @pytest.mark.parametrize("text", [
        "[detector]\ngain = 3\n", "[domain]\nn_r = 16\n",
        "[fit]\nftol_rel = 1e-9\n", "[fit]\ngamma_trap_seed_per_s = 1e5\n",
        "[fit]\nmax_iter = 8000\n", "[fit]\nxtol_rel = 1e-9\n",
        "[fit]\nconfidence = 0.9\n",
    ], ids=["detector", "domain", "fit-ftol_rel", "fit-gamma_trap_seed",
            "fit-max_iter", "fit-xtol_rel", "fit-confidence"])
    def test_unknown_section_rejected(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_bad_type_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[zeeman]\nstray_field_t = minus\n")
        with pytest.raises(ConfigError, match="stray_field_t"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.ini"):
            load_config(tmp_path / "nope.ini")

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[material]\ncoll0 = 2.0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("level", ["0", "1", "1.5", "-0.2"])
    def test_confidence_outside_unit_interval_rejected(self, tmp_path,
                                                       capsys, level):
        points = tmp_path / "p.csv"
        csvio.write_table(points, ["x", "y"], [[0.0, 1.0, 2.0],
                                               [1.0, 2.0, 4.0]])
        report = tmp_path / "r.json"
        assert main(["fit", "linear", "--points", str(points),
                     "--confidence", level, "--out", str(report)]) == 2
        assert not report.exists()
        assert "confidence must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("text, match", [
        ("scale_a = 0", "scale_a must be in [1e-100, 1e+100], got 0"),
        ("scale_a = -0.19", "scale_a must be in [1e-100, 1e+100], got -0.19"),
        ("background_b_counts_per_w = -1", "background_b must be in "
                                           "[0, 1e+100], got -1"),
    ], ids=["scale_a = 0-scale_a must be positive",
            "scale_a = -0.19-scale_a must be positive",
            "background_b_counts_per_w = -1-background_b must be "
            "nonnegative"])
    def test_scale_values_rejected_at_load(self, tmp_path, capsys,
                                           monkeypatch, text, match):
        path = tmp_path / "bad.ini"
        path.write_text(f"[scale]\n{text}\n")
        with pytest.raises(ConfigError, match=re.escape(match)):
            load_config(path)
        out = tmp_path / "z.csv"
        assert main(["--config", str(path), "zeeman", "--delta-f", "1e6",
                     "--out", str(out)]) == 2
        assert not out.exists()
        # simulate stops before it integrates anything
        calls = []
        monkeypatch.setattr(cli, "refine_until_converged",
                            lambda *args, **kwargs: calls.append(args))
        assert main(["--config", str(path), "simulate",
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert calls == []
        assert match in capsys.readouterr().err

    def test_to_dict_echoes_schema(self):
        d = load_config(None).to_dict()
        assert d["material"]["sat_intensity_w_per_m2"] == 1.4e7
        assert d["beam"] == {"focus_fwhm_m": 1e-6}
        assert list(d) == ["material", "beam", "scale", "zeeman"]

    def test_echoed_config_loads_back_unchanged(self, tmp_path):
        echoed = load_config(None).to_dict()
        path = tmp_path / "echo.ini"
        path.write_text("".join(
            f"[{section}]\n" + "".join(f"{key} = {value!r}\n"
                                       for key, value in keys.items())
            for section, keys in echoed.items()))
        assert load_config(path).to_dict() == echoed

    def test_every_key_applied_and_echoed(self, tmp_path):
        assert sorted((sec, key) for sec, key, _, _ in EVERY_KEY) == \
            sorted((sec, key) for sec, keys in _SCHEMA.items() for key in keys)
        sections = {}
        for section, key, value, _ in EVERY_KEY:
            sections.setdefault(section, []).append(f"{key} = {value!r}\n")
        path = tmp_path / "all.ini"
        path.write_text("".join(f"[{section}]\n" + "".join(lines)
                                for section, lines in sections.items()))
        defaults, cfg = load_config(None), load_config(path)
        echoed = cfg.to_dict()
        for section, key, value, read in EVERY_KEY:
            assert read(defaults) != value, key
            assert read(cfg) == value, key
            assert type(read(cfg)) is type(value), key
            assert echoed[section][key] == value, key

    def test_compress_bins_rejected(self, tmp_path, capsys):
        path = tmp_path / "old.ini"
        path.write_text("[fit]\ncompress_bins = 1024\n")
        with pytest.raises(ConfigError, match=r"unknown section \[fit\]"):
            load_config(path)
        code = main(["--config", str(path), "zeeman",
                     "--out", str(tmp_path / "z.csv")])
        assert code == 2
        assert "unknown section [fit]" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[beam]\npower_w = 5e-6\n",
         "unknown key 'power_w' in section [beam]"),
        ("[fit]\nconfidence = 0.9\n", "unknown section [fit]"),
    ], ids=["beam-power_w", "fit-confidence"])
    def test_per_run_key_exits_2_before_any_work(self, tmp_path, capsys,
                                                 text, message):
        path = tmp_path / "old.ini"
        path.write_text(text)
        out = tmp_path / "out"
        missing = str(tmp_path / "missing.csv")
        for job in [["simulate"], ["fit", "trap", missing],
                    ["fit", "hole", "--scan", missing],
                    ["fit", "expdecay", "--series", missing],
                    ["fit", "linear", "--points", missing],
                    ["zeeman", "--delta-f", "1e6"], ["gen", "decay"],
                    ["gen", "holescan"], ["gen", "holedecay"]]:
            code = main(["--config", str(path), *job, "--out", str(out)])
            assert code == 2, job
            assert message in capsys.readouterr().err, job
            assert not out.exists(), job


class TestCsvIO:
    def test_decay_curve_roundtrip(self, tmp_path):
        curve = hb.DecayCurve(time_s=np.array([0.0, 1.5]),
                              counts_per_s=np.array([10.0, 5.25]),
                              power_w=2e-5, meta={"gamma_trap_per_s": 7e4})
        path = tmp_path / "c.csv"
        csvio.write_decay_curve(path, curve)
        back = csvio.read_decay_curve(path)
        assert np.array_equal(back.time_s, curve.time_s)
        assert np.array_equal(back.counts_per_s, curve.counts_per_s)
        assert back.power_w == 2e-5
        assert float(back.meta["gamma_trap_per_s"]) == 7e4

    def test_raw_scan_roundtrip(self, tmp_path):
        scan = hb.gen_hole_scan(np.linspace(-1e8, 1e8, 200), 1.0, 0.3, 0.0,
                                5e6, 100.0, aom_off_range=(0, 20),
                                fluor_offset=3.0, power_offset=1.0)
        path = tmp_path / "s.csv"
        csvio.write_raw_scan(path, scan)
        back = csvio.read_raw_scan(path)
        assert back.aom_off_range == (0, 20)
        assert np.array_equal(back.freq, scan.freq)
        assert np.array_equal(back.fluor_counts, scan.fluor_counts)

    def test_written_range_is_the_scans(self, tmp_path):
        # the field wins over the range the file recorded
        path = tmp_path / "s.csv"
        csvio.write_raw_scan(path, hb.gen_hole_scan(
            np.linspace(-1e8, 1e8, 40), 1.0, 0.3, 0.0, 5e6, 100.0,
            aom_off_range=(0, 40)))
        csvio.write_raw_scan(path, csvio.read_raw_scan(path, (5, 35)))
        assert csvio.read_raw_scan(path).aom_off_range == (5, 35)

    def test_written_power_is_the_curves(self, tmp_path):
        # the field wins over the power_w its generator recorded in meta
        curve = hb.gen_decay_batch(hb.MaterialParams(), 7e4, 0.19, 9.4e7,
                                   [1e-5], np.linspace(0.0, 200.0, 5),
                                   hb.NoiseSpec())[0]
        assert curve.meta["power_w"] == 1e-5
        path = tmp_path / "c.csv"
        csvio.write_decay_curve(path, dataclasses.replace(curve, power_w=2e-5))
        assert csvio.read_decay_curve(path).power_w == 2e-5

    def test_raw_scan_missing_range(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("freq_hz,fluor_counts,power_counts\n0.0,1.0,1.0\n"
                        "1.0,1.0,1.0\n")
        with pytest.raises(ValueError, match="aom_off_range"):
            csvio.read_raw_scan(path)
        back = csvio.read_raw_scan(path, aom_off_range=(0, 1))
        assert back.aom_off_range == (0, 1)

    def test_raw_scan_auto_range(self, tmp_path):
        scan = hb.gen_hole_scan(np.linspace(-1e8, 1e8, 200), 1.0, 0.3, 0.0,
                                5e6, 100.0, aom_off_range=(30, 70),
                                power_offset=1.0)
        path = tmp_path / "s.csv"
        csvio.write_raw_scan(path, scan)
        assert csvio.read_raw_scan(path, "auto").aom_off_range == (30, 70)
        path.write_text("freq_hz,fluor_counts,power_counts\n"
                        + "1.0,1.0,1.0\n" * 20)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: flat power trace"):
            csvio.read_raw_scan(path, "auto")

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="missing columns"):
            csvio.read_xy(path, "wait_time_s", "area")

    def test_write_table_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        csvio.write_table(path, ["x", "n", "maybe"],
                          [np.array([0.1, 1e-300]), np.array([3, 4]),
                           [None, 2.5]], meta={"k": "v"})
        assert path.read_text() == ("# k = v\nx,n,maybe\n"
                                    "0.1,3,\n1e-300,4,2.5\n")

    @pytest.mark.parametrize("columns, text", [
        ([np.array([0.1, -2.5e-7, 1e16])], "0.1\n-2.5e-07\n1e+16\n"),
        ([np.array([3, -4, 0])], "3\n-4\n0\n"),
        ([[None, 2.5, None]], "\n2.5\n\n"),
        ([[np.float64(0.1), np.float64(1e-300)]], "0.1\n1e-300\n"),
        ([[]], ""),
        ([np.array([])], ""),
    ], ids=["float-array", "int-array", "list-none", "list-float64",
            "empty-list", "empty-array"])
    def test_write_table_bytes(self, tmp_path, columns, text):
        path = tmp_path / "t.csv"
        csvio.write_table(path, ["c"], columns)
        assert path.read_text() == "c\n" + text

    @pytest.mark.parametrize("header, columns, match", [
        (["a", "b"], [[1.0, 2.0, 3.0], [1.0]], "differ in length"),
        (["a", "b", "c"], [[1.0, 2.0]], "1 columns for the 3 names"),
        (["a"], [[1.0], [2.0]], "2 columns for the 1 names"),
        (["a"], [np.ones((2, 2))], "'a' is not 1-D"),
        (["a"], [[[1.0, 2.0]]], "'a' is not 1-D"),
        (["a"], [np.float64(1.0)], "'a' is not 1-D"),
    ], ids=["ragged", "short", "long", "2-d-array", "nested-list",
            "scalar"])
    def test_write_table_rejects_malformed(self, tmp_path, header, columns,
                                           match):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=match):
            csvio.write_table(path, header, columns)
        assert not path.exists()

    @pytest.mark.parametrize("text, meta", [
        ("x,y\n", {}),
        ("# k = v\nx,y\n", {"k": "v"}),
    ], ids=["before-header", "before-meta"])
    def test_byte_order_mark_skipped(self, tmp_path, text, meta):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (text + "1,2\n3,5\n").encode())
        assert csvio.read_xy(path, "x", "y") == ([1.0, 3.0], [2.0, 5.0], meta)

    def test_repeated_required_column_rejected(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("x,y,y\n0,1,9\n1,2,9\n2,4,9\n")
        code = main(["fit", "linear", "--points", str(path),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"{path}: the header names column 'y' more than once" \
            in capsys.readouterr().err
        # a repeated column the reader does not need is no ambiguity
        assert csvio.read_xy(path, "x", "x")[0] == [0.0, 1.0, 2.0]

    def test_blank_lines_between_rows_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("# tau_s = 0.072\n\nx,y\n0,1\n\n  \n1,3\n\n")
        assert csvio.read_xy(path, "x", "y") == (
            [0.0, 1.0], [1.0, 3.0], {"tau_s": "0.072"})

    def test_no_header_line_rejected(self, tmp_path):
        path = tmp_path / "comments.csv"
        path.write_text("# tau_s = 0.072\n# only comments\n\n")
        with pytest.raises(ValueError,
                           match=f"{re.escape(str(path))}: no header line"):
            csvio.read_xy(path, "x", "y")

    def test_header_only_reads_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        csvio.write_table(path, ["wait_time_s", "area"], [[], []],
                          meta={"tau_s": 0.072})
        t, y, meta = csvio.read_xy(path, "wait_time_s", "area")
        assert len(t) == len(y) == 0
        assert meta == {"tau_s": "0.072"}


class TestCli:
    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "absent.ini"), "zeeman",
                     "--delta-f", "1e6", "--out", str(tmp_path / "z.csv")])
        assert code == 2
        assert "absent.ini" in capsys.readouterr().err

    def test_config_without_section_header_exit_2(self, tmp_path, capsys):
        config = tmp_path / "bare.ini"
        config.write_text("scale_a = 0.5\n")
        out = tmp_path / "z.csv"
        assert main(["--config", str(config), "zeeman", "--delta-f", "1e6",
                     "--out", str(out)]) == 2
        assert f"cannot parse {config}" in capsys.readouterr().err
        assert not out.exists()

    def test_zeeman_empty_list_header_only(self, tmp_path):
        out = tmp_path / "z.csv"
        assert main(["zeeman", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("delta_f_hz,")

    def test_zeeman_table_values(self, tmp_path):
        out = tmp_path / "z.csv"
        assert main(["zeeman", "--delta-f", "44.5e6,19e6",
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        first = rows[0].split(",")
        assert float(first[2]) == pytest.approx(1.0e-3)  # b_sum_total
        second = rows[1].split(",")
        assert float(second[1]) == pytest.approx(1.0e-3)  # b_ground_total

    def test_gen_decay_deterministic(self, tmp_path):
        args = ["gen", "decay", "--power-w", "2e-6", "--t-end", "5",
                "--n-t", "3", "--tol", "0", "--noise", "poisson",
                "--seed", "3"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--out", str(f1)]) == 0
        assert main([*args, "--out", str(f2)]) == 0
        assert f1.read_text() == f2.read_text()

    def test_gen_matches_simulate(self, tmp_path):
        # identical refinement settings produce identical scaled signals
        sim_out = tmp_path / "sim.csv"
        gen_out = tmp_path / "gen.csv"
        assert main(["simulate", "--t-end", "5", "--n-t", "3",
                     "--out", str(sim_out)]) == 0
        assert main(["gen", "decay", "--t-end", "5", "--n-t", "3",
                     "--out", str(gen_out)]) == 0
        sim = np.loadtxt(sim_out, delimiter=",", skiprows=1)
        gen = csvio.read_decay_curve(gen_out)
        assert np.allclose(gen.counts_per_s, sim[:, 2], rtol=1e-12)
        # scaled column decays toward but stays above the B*P0 floor
        floor = 9.4e7 * 20e-6
        assert np.all(np.diff(sim[:, 2]) < 0)
        assert np.all(sim[:, 2] > floor)

    def test_simulate_t_end_zero_single_row(self, tmp_path):
        out = tmp_path / "sig.csv"
        assert main(["simulate", "--t-end", "0", "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (3,)
        assert data[0] == 0.0

    def test_gen_decay_t_end_zero_single_row(self, tmp_path):
        # simulate's time grid: one sample, not --n-t copies of t = 0
        out = tmp_path / "decay.csv"
        assert main(["gen", "decay", "--t-end", "0", "--out", str(out)]) == 0
        assert csvio.read_decay_curve(out).time_s == [0.0]

    def test_gen_decay_negative_t_end_exit_2(self, tmp_path, capsys):
        code = main(["gen", "decay", "--t-end", "-5",
                     "--out", str(tmp_path / "decay.csv")])
        assert code == 2
        assert "t-end must be nonnegative" in capsys.readouterr().err

    def test_simulate_zero_tol_exit_3(self, tmp_path):
        code = main(["simulate", "--t-end", "2",
                     "--n-t", "2", "--tol", "1e-300",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_gen_decay_unmet_tol_exit_3(self, tmp_path):
        code = main(["gen", "decay", "--t-end", "2",
                     "--n-t", "2", "--tol", "1e-300",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_zero_tol_evaluates_the_rule_once(self, tmp_path, capsys):
        # --tol 0 means the same in both subcommands: the 48^2 rule, once
        sim_out, gen_out = tmp_path / "sim.csv", tmp_path / "gen.csv"
        args = ["--t-end", "5", "--n-t", "3", "--tol", "0"]
        assert main(["simulate", *args, "--out", str(sim_out)]) == 0
        assert "(2304 nodes, rel change n/a)" in capsys.readouterr().out
        assert main(["gen", "decay", *args, "--out", str(gen_out)]) == 0
        sim = np.loadtxt(sim_out, delimiter=",", skiprows=1)
        gen = csvio.read_decay_curve(gen_out)
        assert gen.power_w == 20e-6  # the --power-w default
        np.testing.assert_array_equal(gen.counts_per_s, sim[:, 2])

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, keys in _SCHEMA.items() for key in keys])
    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_config_float_exit_2(self, tmp_path, capsys, section,
                                            key, value):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        code = main(["--config", str(path), "zeeman",
                     "--out", str(tmp_path / "z.csv")])
        assert code == 2
        assert f"'{key}' in section [{section}] must be finite" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("focus", ["1e300", "1e308"])
    @pytest.mark.parametrize("job", ["simulate", "gen decay", "fit trap"])
    def test_focus_beyond_magnitude_exit_2(self, tmp_path, capsys,
                                           job_inputs, job, focus):
        # the waist squared overflowed: NaN rows at exit 0, and warnings
        path = tmp_path / "focus.ini"
        path.write_text(f"[beam]\nfocus_fwhm_m = {focus}\n")
        argv = {"simulate": ["simulate", "--n-t", "3", "--tol", "0"],
                "gen decay": ["gen", "decay", "--n-t", "3", "--tol", "0"],
                "fit trap": ["fit", "trap", job_inputs[0]]}[job]
        out = tmp_path / "out"
        assert main(["--config", str(path), *argv, "--out", str(out)]) == 2
        assert not out.exists()
        assert "focus_fwhm" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, name", [
        ("g_ground_hz_per_t", "1e-320", "g_ground"),
        ("g_excited_hz_per_t", "1e300", "g_excited"),
        ("stray_field_t", "-1e300", "stray_field"),
    ])
    def test_zeeman_value_beyond_magnitude_exit_2(self, tmp_path, capsys,
                                                  key, value, name):
        # a subnormal coefficient wrote inf fields at exit 0
        path = tmp_path / "zeeman.ini"
        path.write_text(f"[zeeman]\n{key} = {value}\n")
        out = tmp_path / "z.csv"
        assert main(["--config", str(path), "zeeman", "--delta-f", "1e8",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert f"{name} must be in" in capsys.readouterr().err

    def test_field_sign_key_exit_2(self, tmp_path, capsys):
        # a reversed coil is a stray field of the other sign
        path = tmp_path / "zeeman.ini"
        path.write_text("[zeeman]\nfield_sign = -1\n")
        out = tmp_path / "z.csv"
        assert main(["--config", str(path), "zeeman", "--delta-f", "1e7",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "unknown key 'field_sign' in section [zeeman]" \
            in capsys.readouterr().err

    def test_negative_stray_field_is_the_reversed_coil(self, tmp_path):
        # the table written with field_sign = -1 and stray_field_t = 2e-4,
        # before the sign became the stray field's own
        reversed_coil = (
            "delta_f_hz,b_ground_total_t,b_sum_total_t,b_diff_total_t,"
            "b_ground_applied_t,b_sum_applied_t,b_diff_applied_t\n"
            "19000000.0,0.001,0.00042696629213483144,0.002923076923076923,"
            "0.0012000000000000001,0.0006269662921348315,"
            "0.0031230769230769233\n"
            "44500000.0,0.002342105263157895,0.001,0.006846153846153846,"
            "0.002542105263157895,0.0012000000000000001,"
            "0.007046153846153846\n"
            "10000000.0,0.0005263157894736842,0.00022471910112359551,"
            "0.0015384615384615385,0.0007263157894736842,"
            "0.00042471910112359555,0.0017384615384615386\n")
        path = tmp_path / "zeeman.ini"
        path.write_text("[zeeman]\nstray_field_t = -2e-4\n")
        out = tmp_path / "z.csv"
        assert main(["--config", str(path), "zeeman", "--delta-f",
                     "19e6,44.5e6,1e7", "--out", str(out)]) == 0
        assert out.read_bytes() == reversed_coil.encode()

    def test_zeeman_field_beyond_magnitude_exit_2(self, tmp_path, capsys):
        # 1e300 Hz over 1e-100 Hz/T wrote inf fields at exit 0; at the
        # range's edge the field, 1e200 T, is still a finite float
        path = tmp_path / "zeeman.ini"
        path.write_text("[zeeman]\ng_ground_hz_per_t = 1e-100\n")
        out = tmp_path / "z.csv"
        assert main(["--config", str(path), "zeeman", "--delta-f", "1e300",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "delta_f" in capsys.readouterr().err
        assert main(["--config", str(path), "zeeman", "--delta-f", "1e100",
                     "--out", str(out)]) == 0
        _, fields, _ = csvio.read_xy(out, "delta_f_hz", "b_ground_total_t")
        assert fields == [1e200]

    @pytest.mark.parametrize("job, message", [
        (["simulate", "--gamma-trap", "nan"], "must be nonnegative"),
        (["simulate", "--tol", "nan"], "must be nonnegative"),
        # the power passes the range rule, "must be in [0, 1e+100]"
        (["simulate", "--power-w", "nan"], "must be in [0, "),
        (["gen", "decay", "--tol", "nan"], "must be nonnegative"),
        (["gen", "decay", "--tol", "-1"], "must be nonnegative"),
    ], ids=["simulate-gamma-trap-nan", "simulate-tol-nan",
            "simulate-power-nan", "gen-tol-nan", "gen-tol-negative"])
    def test_invalid_number_flag_exit_2(self, tmp_path, capsys, job,
                                        message):
        code = main([*job, "--t-end", "2", "--n-t", "2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("job", [
        ["zeeman", "--delta-f", "nan,1e6"],
        ["zeeman", "--delta-f", "inf"],
        ["gen", "holedecay", "--tau", "nan"],
        ["gen", "holedecay", "--offset", "nan"],
        ["gen", "holescan", "--center", "nan"],
        ["simulate", "--gamma-trap", "inf"],
        ["simulate", "--power-w", "inf"],
        ["simulate", "--power-w", "1e300"],
        ["simulate", "--t-end", "inf"],
        ["gen", "decay", "--gamma-trap", "inf"],
        ["gen", "decay", "--power-w", "1e308"],
        ["gen", "holescan", "--fwhm", "1e300"],
        ["gen", "holescan", "--f-min", "-1e308"],
        ["gen", "holescan", "--power-slope", "1e300"],
        ["gen", "holedecay", "--wait-max", "nan"],
        ["gen", "holedecay", "--wait-max", "inf"],
        ["gen", "holedecay", "--tau", "1e-320"],
    ], ids=["zeeman-delta-f-nan", "zeeman-delta-f-inf", "holedecay-tau-nan",
            "holedecay-offset-nan", "holescan-center-nan",
            "simulate-gamma-trap-inf", "simulate-power-inf",
            "simulate-power-1e300", "simulate-t-end-inf",
            "gen-decay-gamma-trap-inf", "gen-decay-power-1e308",
            "holescan-fwhm-1e300", "holescan-f-min-big",
            "holescan-power-slope-1e300", "holedecay-wait-max-nan",
            "holedecay-wait-max-inf", "holedecay-tau-subnormal"])
    def test_non_finite_flag_exit_2(self, tmp_path, capsys, job):
        out = tmp_path / "x.csv"
        assert main([*job, "--out", str(out)]) == 2
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("job", [
        ["gen", "decay", "--noise", "poisson", "--seed", "2"],
        ["gen", "holescan"],
        ["gen", "holedecay", "--noise", "none"],
    ], ids=["decay", "holescan", "holedecay"])
    def test_gaussian_sigma_needs_gaussian_noise(self, tmp_path, capsys, job):
        # a sigma that no noise draws from sets nothing, so it is refused
        out = tmp_path / "x.csv"
        assert main([*job, "--gaussian-sigma", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--gaussian-sigma" in err and "--noise gaussian" in err
        assert not out.exists()

    def test_gaussian_noise_beyond_magnitude_exit_2(self, tmp_path, capsys):
        # sigma 1e100 put 105 of 300 counts beyond 1e100 at exit 0
        out = tmp_path / "x.csv"
        assert main(["gen", "holescan", "--n-points", "300", "--aom-off",
                     "0:30", "--noise", "gaussian", "--gaussian-sigma",
                     "1e100", "--out", str(out)]) == 2
        assert "--gaussian-sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("center", [
        ["--center", "-6e7"], ["--center=-6e7"], ["--center", "-6.0E+07"],
        ["--center", "-60000000"]], ids=["exponent", "equals", "upper",
                                         "plain"])
    def test_negative_exponent_value_parses(self, tmp_path, center):
        out = tmp_path / "scan.csv"
        assert main(["gen", "holescan", "--f-min", "-1e8", *center,
                     "--n-points", "200", "--aom-off", "0:20",
                     "--out", str(out)]) == 0
        meta, cols = csvio._read_table(out, ["freq_hz"])
        assert float(meta["center_hz"]) == -6e7
        assert cols["freq_hz"][0] == -1e8

    def test_fit_hole_end_to_end(self, tmp_path):
        scan_path = tmp_path / "scan.csv"
        report_path = tmp_path / "hole.json"
        assert main(["gen", "holescan", "--center=-50e6", "--fwhm", "6e6",
                     "--power-slope", "0.3", "--fluor-offset", "120",
                     "--power-offset", "33", "--seed", "7",
                     "--out", str(scan_path)]) == 0
        assert main(["fit", "hole", "--scan", str(scan_path),
                     "--out", str(report_path),
                     "--treated-out", str(tmp_path / "treated.csv")]) == 0
        report = json.loads(report_path.read_text())
        assert report["fwhm_hz"] == pytest.approx(6e6, rel=1e-5)
        assert report["hom_linewidth_hz"] == pytest.approx(3e6, rel=1e-5)
        assert report["nfev"] > report["iterations"] > 0
        assert report["unresolved"] == []
        assert report["config"]["material"]["sat_intensity_w_per_m2"] == 1.4e7
        treated = (tmp_path / "treated.csv").read_text().splitlines()
        header = [l for l in treated if l.startswith("freq_hz")][0]
        assert header == "freq_hz,fluor_counts,power_counts,excluded"

    @pytest.mark.parametrize("recorded", [True, False],
                             ids=["other-range", "no-range"])
    def test_treated_scan_records_the_range_it_averaged(self, tmp_path,
                                                        recorded):
        # the backgrounds in the treated file are the means over --aom-off,
        # whatever range the raw scan recorded, if any
        scan, treated = tmp_path / "scan.csv", tmp_path / "treated.csv"
        assert main(["gen", "holescan", "--n-points", "400",
                     "--out", str(scan)]) == 0  # records 0:100
        if not recorded:
            scan.write_text("".join(
                line for line in scan.read_text().splitlines(keepends=True)
                if not line.startswith("# aom_off_")))
        aom_off = "10:90" if recorded else "0:40"
        assert main(["fit", "hole", "--scan", str(scan), "--aom-off", aom_off,
                     "--treated-out", str(treated),
                     "--out", str(tmp_path / "hole.json")]) == 0
        meta = csvio.read_xy(treated, "freq_hz", "power_counts")[2]
        assert f"{meta['aom_off_start']}:{meta['aom_off_stop']}" == aom_off

    def test_treated_scan_is_not_a_raw_scan_exit_2(self, tmp_path, capsys):
        # a treated file holds the normalized signal, nan on excluded rows
        scan, treated = tmp_path / "scan.csv", tmp_path / "treated.csv"
        assert main(["gen", "holescan", "--n-points", "400",
                     "--out", str(scan)]) == 0
        assert main(["fit", "hole", "--scan", str(scan), "--treated-out",
                     str(treated), "--out", str(tmp_path / "hole.json")]) == 0
        capsys.readouterr()
        report = tmp_path / "again.json"
        assert main(["fit", "hole", "--scan", str(treated),
                     "--out", str(report)]) == 2
        assert capsys.readouterr().err == (
            f"error: {treated}: freq and both traces must be finite\n")
        assert not report.exists()

    def test_fit_hole_extreme_power_background_exit_2(self, tmp_path,
                                                      capsys):
        # -1e308 in an AOM-off power reading leaves every weight 0 after
        # normalization: the fit divided by zero
        scan_path = tmp_path / "scan.csv"
        assert main(["gen", "holescan", "--n-points", "400",
                     "--out", str(scan_path)]) == 0
        lines = scan_path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines)
                   if line.startswith("freq_hz")) + 1
        lines[row] = ",".join(lines[row].split(",")[:2] + ["-1e308"])
        scan_path.write_text("\n".join(lines) + "\n")
        assert main(["fit", "hole", "--scan", str(scan_path),
                     "--out", str(tmp_path / "hole.json")]) == 2
        assert "must be in [-1e+100, 1e+100]" in capsys.readouterr().err

    def test_fit_hole_subtracted_trace_beyond_range_exit_2(self, tmp_path,
                                                          capsys):
        # every reading is in range, but the AOM-off fluorescence, +1e100,
        # subtracted from the rest, -1e100, is not
        scan_path, report = tmp_path / "scan.csv", tmp_path / "hole.json"
        on = np.arange(40) >= 10
        csvio.write_raw_scan(scan_path, hb.RawScan(
            freq=np.linspace(-100e6, 100e6, 40),
            fluor_counts=np.where(on, -1e100, 1e100),
            power_monitor=np.where(on, 1000.0, 0.0), aom_off_range=(0, 10)))
        assert main(["fit", "hole", "--scan", str(scan_path),
                     "--out", str(report)]) == 2
        assert capsys.readouterr().err == ("error: fluor_counts must be in "
                                           "[-1e+100, 1e+100], got -2e+100\n")
        assert not report.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_fit_hole_nonfinite_frequency_exit_2(self, tmp_path, capsys, bad):
        # the first row lies in the AOM-off segment, which the fit never
        # sees: the job exited 0 and copied the value into --treated-out
        scan_path = tmp_path / "scan.csv"
        assert main(["gen", "holescan", "--n-points", "400",
                     "--out", str(scan_path)]) == 0
        lines = scan_path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines)
                   if line.startswith("freq_hz")) + 1
        lines[row] = ",".join([bad] + lines[row].split(",")[1:])
        scan_path.write_text("\n".join(lines) + "\n")
        report, treated = tmp_path / "hole.json", tmp_path / "treated.csv"
        assert main(["fit", "hole", "--scan", str(scan_path),
                     "--treated-out", str(treated), "--out", str(report)]) == 2
        assert f"{scan_path}: freq and both traces must be finite" \
            in capsys.readouterr().err
        assert not report.exists() and not treated.exists()

    def test_hole_scan_values_held_to_range_exit_2(self, tmp_path, capsys):
        # baseline times power is 1e200: the generator wrote it, and the
        # fit took it for a scan with no hole (exit 4)
        scan_path = tmp_path / "scan.csv"
        assert main(["gen", "holescan", "--baseline", "1e100",
                     "--power-level", "1e100", "--n-points", "300",
                     "--aom-off", "0:30", "--out", str(scan_path)]) == 2
        assert "fluor_counts must be in [-1e+100, 1e+100], got 1e+200" \
            in capsys.readouterr().err
        assert not scan_path.exists()
        assert main(["gen", "holescan", "--n-points", "300",
                     "--aom-off", "0:30", "--out", str(scan_path)]) == 0
        lines = scan_path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines)
                   if line.startswith("freq_hz")) + 100
        cells = lines[row].split(",")
        lines[row] = ",".join([cells[0], "1e200", cells[2]])
        scan_path.write_text("\n".join(lines) + "\n")
        report = tmp_path / "hole.json"
        assert main(["fit", "hole", "--scan", str(scan_path),
                     "--out", str(report)]) == 2
        assert f"{scan_path}: fluor_counts must be in [-1e+100, 1e+100], " \
            "got 1e+200" in capsys.readouterr().err
        assert not report.exists()

    def test_hole_decay_areas_held_to_range_exit_2(self, tmp_path, capsys):
        # amplitude plus offset is 2e100: the generator wrote it
        out = tmp_path / "series.csv"
        assert main(["gen", "holedecay", "--amplitude", "1e100",
                     "--offset", "1e100", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--amplitude, --offset must be in [-1e+100, 1e+100], " \
            "got 2e+100" in err
        assert not out.exists()

    def test_fit_hole_auto_aom_detection(self, tmp_path):
        scan_path = tmp_path / "scan.csv"
        report_path = tmp_path / "hole.json"
        assert main(["gen", "holescan", "--center=-50e6", "--fwhm", "6e6",
                     "--aom-off", "150:420", "--fluor-offset", "90",
                     "--power-offset", "40", "--out", str(scan_path)]) == 0
        assert main(["fit", "hole", "--scan", str(scan_path),
                     "--aom-off", "auto", "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["fwhm_hz"] == pytest.approx(6e6, rel=1e-5)

    def test_fit_hole_explicit_range_matches_recorded(self, tmp_path):
        scan_path = tmp_path / "scan.csv"
        assert main(["gen", "holescan", "--aom-off", "0:30",
                     "--fluor-offset", "90", "--power-offset", "40",
                     "--noise", "poisson", "--out", str(scan_path)]) == 0
        reports = [tmp_path / "recorded.json", tmp_path / "explicit.json"]
        for report, flags in zip(reports, [[], ["--aom-off", "0:30"]]):
            assert main(["fit", "hole", "--scan", str(scan_path), *flags,
                         "--out", str(report)]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_fit_hole_malformed_range_exit_2(self, tmp_path, capsys):
        scan_path, report = tmp_path / "scan.csv", tmp_path / "hole.json"
        assert main(["gen", "holescan", "--out", str(scan_path)]) == 0
        assert main(["fit", "hole", "--scan", str(scan_path), "--aom-off",
                     "10:x", "--out", str(report)]) == 2
        assert "range must look like start:stop, got '10:x'" \
            in capsys.readouterr().err
        assert not report.exists()

    def test_fit_hole_unresolved_exit_4(self, tmp_path, capsys):
        # no hole: the depth clamps at 0, and the fit returns with no
        # error bar on the center and the width
        scan_path = tmp_path / "scan.csv"
        report_path = tmp_path / "hole.json"
        assert main(["gen", "holescan", "--depth", "0",
                     "--out", str(scan_path)]) == 0
        assert main(["fit", "hole", "--scan", str(scan_path),
                     "--out", str(report_path)]) == 4
        report = json.loads(report_path.read_text())
        assert report["command"] == "fit hole" and "config" in report
        assert report["depth"] == 0.0 and report["hole_detected"] is False
        assert report["unresolved"] == ["center_hz", "fwhm_hz"]
        assert report["center_err_hz"] is None
        assert report["fwhm_err_hz"] is None
        assert report["hom_linewidth_hz"] is None
        assert report["depth_err"] is not None and report["fwhm_hz"] > 0
        assert "fwhm_hz" in capsys.readouterr().err

    def test_fit_hole_noise_bump_exit_4(self, tmp_path):
        # Poisson noise with no hole: a bump of depth within 3 sigma of 0
        # is fitted, but it is no detection, so it has no center or width
        scan_path = tmp_path / "scan.csv"
        report_path = tmp_path / "hole.json"
        assert main(["gen", "holescan", "--depth", "0", "--noise", "poisson",
                     "--out", str(scan_path)]) == 0
        assert main(["fit", "hole", "--scan", str(scan_path),
                     "--out", str(report_path)]) == 4
        report = json.loads(report_path.read_text())
        assert 0 < report["depth"] <= 3 * report["depth_err"]
        assert report["hole_detected"] is False
        assert report["unresolved"] == ["center_hz", "fwhm_hz"]
        assert report["center_err_hz"] is None
        assert report["fwhm_err_hz"] is None
        assert report["hom_linewidth_hz"] is None

    def test_fit_hole_singular_jacobian_exit_4(self, tmp_path, capsys):
        # a search without bounds ended this no-hole scan on a 0.02 Hz
        # spike, where J^T J is singular (test_simplex.py keeps those
        # columns); the bounded search ends on a resolved shape, and the
        # undetected hole leaves its center and FWHM unresolved
        scan_path = tmp_path / "scan.csv"
        report_path = tmp_path / "hole.json"
        assert main(["gen", "holescan", "--depth", "0", "--n-points", "400",
                     "--aom-off", "0:40", "--noise", "poisson", "--seed",
                     "45", "--out", str(scan_path)]) == 0
        assert main(["fit", "hole", "--scan", str(scan_path),
                     "--out", str(report_path)]) == 4
        report = json.loads(report_path.read_text())
        assert report["unresolved"] == ["center_hz", "fwhm_hz"]
        assert report["hole_detected"] is False
        assert "unresolved center_hz, fwhm_hz" in capsys.readouterr().err

    def test_fit_expdecay_end_to_end(self, tmp_path):
        series = tmp_path / "series.csv"
        report = tmp_path / "exp.json"
        assert main(["gen", "holedecay", "--tau", "0.072", "--offset", "0.05",
                     "--out", str(series)]) == 0
        assert main(["fit", "expdecay", "--series", str(series),
                     "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["tau_s"] == pytest.approx(0.072, rel=1e-3)
        assert data["nfev"] > data["iterations"] > 0
        assert data["unresolved"] == []

    def test_fit_expdecay_headerless_series_exit_2(self, tmp_path, capsys):
        series = tmp_path / "comments.csv"
        series.write_text("# tau_s = 0.072\n# no table follows\n")
        report = tmp_path / "expdecay.json"
        assert main(["fit", "expdecay", "--series", str(series),
                     "--out", str(report)]) == 2
        assert not report.exists()
        assert f"{series}: no header line found" in capsys.readouterr().err

    def test_gen_holescan_one_point_exit_2(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["gen", "holescan", "--n-points", "1",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "freq must be a 1-D axis with at least 2 points" \
            in capsys.readouterr().err

    def test_fit_expdecay_unresolved_exit_4(self, tmp_path, capsys):
        # constant areas: the fit returns, but with no error bar on tau
        series = tmp_path / "series.csv"
        report = tmp_path / "exp.json"
        csvio.write_table(series, ["wait_time_s", "area"],
                          [np.linspace(0.0, 0.5, 30), np.full(30, 3.0)])
        assert main(["fit", "expdecay", "--series", str(series),
                     "--out", str(report)]) == 4
        data = json.loads(report.read_text())
        assert data["command"] == "fit expdecay"
        assert data["tau_err_s"] is None and data["unresolved"] == ["tau_s"]
        assert data["tau_s"] > 0 and "config" in data
        assert "tau_s" in capsys.readouterr().err

    def test_fit_linear_end_to_end(self, tmp_path):
        pts = tmp_path / "pts.csv"
        x = np.linspace(0, 5, 10)
        csvio.write_table(pts, ["x", "y"], [x, 2 * x + 1])
        report = tmp_path / "lin.json"
        assert main(["fit", "linear", "--points", str(pts),
                     "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["slope"] == pytest.approx(2.0)

    def test_fit_linear_confidence_flag(self, tmp_path):
        pts = tmp_path / "pts.csv"
        x = np.linspace(0, 5, 10)
        y = 2 * x + 1 + np.random.default_rng(4).normal(0, 0.3, x.size)
        csvio.write_table(pts, ["x", "y"], [x, y])
        report = tmp_path / "lin.json"
        argv = ["fit", "linear", "--points", str(pts), "--out", str(report)]
        for flag, level in [([], 0.80), (["--confidence", "0.99"], 0.99)]:
            assert main(argv + flag) == 0
            data = json.loads(report.read_text())
            assert data["confidence"] == level
            assert data["slope_ci"] == hb.fit_linear_ci(x, y, level).slope_ci
            # the level is a per-run choice, not part of the echoed setup
            assert "fit" not in data["config"]

    def test_fit_linear_one_column_twice_exit_2(self, tmp_path, capsys):
        # a column fitted against itself would report slope 1 +- 0
        pts = tmp_path / "pts.csv"
        x = np.linspace(0, 5, 10)
        csvio.write_table(pts, ["x", "y"], [x, 2 * x + 1])
        report = tmp_path / "lin.json"
        assert main(["fit", "linear", "--points", str(pts), "--x-column", "y",
                     "--y-column", "y", "--out", str(report)]) == 2
        err = capsys.readouterr().err
        assert "--x-column and --y-column both name 'y'" in err
        assert not report.exists()

    @pytest.mark.parametrize("gen, fit, record", [
        (["decay", "--powers", "8e-6,29e-6", "--t-end", "150", "--n-t", "31",
          "--tol", "0", "--noise", "poisson", "--seed", "2", "--out", "in"],
         ["trap", "in/decay_8uW.csv", "in/decay_29uW.csv"], TrapFitResult),
        (["holescan", "--seed", "7", "--out", "in"], ["hole", "--scan", "in"],
         LorentzianHoleFit),
        (["holedecay", "--offset", "0.05", "--out", "in"],
         ["expdecay", "--series", "in"], ExpDecayFit),
        (["holedecay", "--out", "in"],
         ["linear", "--points", "in", "--x-column", "wait_time_s",
          "--y-column", "area"], LinearFit),
    ], ids=["trap", "hole", "expdecay", "linear"])
    def test_fit_report_keys_are_record_fields(self, tmp_path, monkeypatch,
                                               gen, fit, record):
        # each report writes its fit record's fields under their own names,
        # in order, between the input and the config, and nothing else
        monkeypatch.chdir(tmp_path)
        assert main(["gen", *gen]) == 0
        assert main(["fit", *fit, "--out", "fit.json"]) == 0
        keys = list(json.loads((tmp_path / "fit.json").read_text()))
        assert keys[0] == "command" and keys[1] in ("input", "inputs")
        assert keys[2:] == [f.name for f in dataclasses.fields(record)] \
            + ["config"]

    def test_gen_decay_powers_sharing_a_file_exit_2(self, tmp_path, capsys):
        # both powers print as 1 uW, so the batch kept one of its curves
        out = tmp_path / "batch"
        assert main(["gen", "decay", "--powers", "1e-6,1.0000001e-6",
                     "--n-t", "3", "--tol", "0", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "1e-06 and 1.0000001e-06" in err and "decay_1uW.csv" in err

    def test_fit_trap_end_to_end(self, tmp_path):
        batch = tmp_path / "batch"
        assert main(["gen", "decay", "--powers",
                     "8e-6,29e-6", "--gamma-trap", "9e4", "--t-end", "150",
                     "--n-t", "31", "--tol", "0", "--noise", "poisson",
                     "--seed", "2", "--out", str(batch)]) == 0
        files = sorted(batch.glob("decay_*uW.csv"))
        assert [f.name for f in files] == ["decay_29uW.csv", "decay_8uW.csv"]
        report = tmp_path / "trap.json"
        assert main(["fit", "trap",
                     *[str(f) for f in files], "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["gamma_trap_per_s"] == pytest.approx(9e4, rel=0.05)
        assert len(data["scale_a"]) == 2
        assert data["iterations"] < data["nfev"] <= 25

    def test_fit_trap_no_decay_exit_4(self, tmp_path, capsys):
        # two curves rising 1% over 200 s carry no decay to fit
        t = np.linspace(0.0, 200.0, 81)
        rng = np.random.default_rng(0)
        files = []
        for p0 in (2e-6, 2e-5):
            files.append(str(tmp_path / f"ramp_{p0:g}.csv"))
            csvio.write_decay_curve(files[-1], hb.DecayCurve(
                time_s=t, counts_per_s=1e5 * (1 + 0.01 * t / 200)
                + rng.normal(0, 30, t.size), power_w=p0))
        report = tmp_path / "trap.json"
        assert main(["fit", "trap", *files, "--out", str(report)]) == 4
        data = json.loads(report.read_text())
        assert data["command"] == "fit trap"
        assert "no resolvable decay" in data["error"]
        # the search stops on its lower bound, 1 / (100 max k max t)
        material = hb.MaterialParams()
        fastest = max(TrapDecayModel(material, hb.BeamGeometry.for_material(
            material, power=p0, focus_fwhm=1e-6)).compressed().bin_k.max()
            * t[-1] for p0 in (2e-6, 2e-5))
        assert data["diagnostics"]["gamma_trap_per_s"] == pytest.approx(
            1 / (100 * fastest), rel=1e-12)
        assert data["diagnostics"]["nfev"] <= 20
        assert "no resolvable decay" in capsys.readouterr().err

    def test_fit_trap_step_exit_4(self, tmp_path, capsys):
        # the curve has fully decayed by its second sample: the search
        # stops on its upper bound instead of returning gamma ~ 6e26 /s
        curve = tmp_path / "step.csv"
        t = np.linspace(0.0, 200.0, 81)
        csvio.write_decay_curve(curve, hb.DecayCurve(
            time_s=t, counts_per_s=np.where(t == 0, 1e6, 2e3),
            power_w=2e-5))
        report = tmp_path / "trap.json"
        assert main(["fit", "trap", str(curve), "--out", str(report)]) == 4
        assert "no resolvable decay" in json.loads(report.read_text())["error"]
        assert "no resolvable decay" in capsys.readouterr().err

    def test_fit_trap_underflowing_cloud_exit_4(self, tmp_path, capsys):
        # at 1e-150 W every amp * k of the cloud underflows: the job
        # reports no resolvable decay instead of "math domain error"
        path = tmp_path / "huge.ini"
        path.write_text("[material]\nion_density_per_m3_per_hz = 1e90\n"
                        "fluor_rate_per_s = 1e9\n")
        curve = tmp_path / "curve.csv"
        t = np.linspace(0.0, 120.0, 41)
        csvio.write_decay_curve(curve, hb.DecayCurve(
            time_s=t, counts_per_s=1 + np.exp(-t / 30), power_w=1e-150))
        report = tmp_path / "trap.json"
        assert main(["--config", str(path), "fit", "trap", str(curve),
                     "--out", str(report)]) == 4
        data = json.loads(report.read_text())
        assert data["error"] == "trap fit found no resolvable decay"
        assert data["diagnostics"] == {"gamma_trap_max_per_s": 0.0}
        assert "no resolvable decay" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [
        "fluor_rate_per_s", "ion_density_per_m3_per_hz", "hom_linewidth0_hz"])
    @pytest.mark.parametrize("job", [["simulate"], ["gen", "decay"]])
    def test_tiny_signal_scale_runs(self, tmp_path, key, job):
        # F is held to [0, 1e100]: at 1e-100 the signal underflows with it
        # and the counts are the background B P
        path = tmp_path / "tiny.ini"
        path.write_text(f"[material]\n{key} = 1e-100\n")
        out = tmp_path / "out.csv"
        assert main(["--config", str(path), *job, "--n-t", "5", "--tol", "0",
                     "--out", str(out)]) == 0
        _, counts, _ = csvio.read_xy(out, "time_s", "scaled_counts_per_s"
                                     if job == ["simulate"]
                                     else "counts_per_s")
        assert counts == pytest.approx([9.4e7 * 20e-6] * 5, rel=1e-12)

    @pytest.mark.parametrize("key, value", [
        ("g_ratio", "1e95"), ("sigma_rec_m2", "1e75")])
    def test_fit_trap_vanishing_cloud_rates_exit_4(self, tmp_path, capsys,
                                                   key, value):
        # the cloud's rates per unit gamma nearly vanish: at 10 nW, with
        # the rate ratio rho near its 1e100 limit, resolving the decay
        # would take gamma past its 1e100 cap.  Constants beyond their
        # range (sigma_ion_m2 = 1e-320, g_ratio = 1e300), whose
        # exp(log gamma) overflowed, now exit 2 at load, and a rho past
        # 1e100 (g_ratio = 1e100) exits 2 naming it: see the config
        # sweeps in test_cli_contract.py
        curve = str(tmp_path / "curve.csv")
        assert main(["gen", "decay", "--power-w", "1e-8", "--t-end", "100",
                     "--n-t", "21", "--tol", "0", "--noise", "poisson",
                     "--seed", "5", "--out", curve]) == 0
        path = tmp_path / "rates.ini"
        path.write_text(f"[material]\n{key} = {value}\n")
        report = tmp_path / "trap.json"
        assert main(["--config", str(path), "fit", "trap", curve,
                     "--out", str(report)]) == 4
        data = json.loads(report.read_text())
        assert "no resolvable decay" in data["error"]
        assert data["diagnostics"]["gamma_trap_max_per_s"] == \
            pytest.approx(1e100)
        assert "no resolvable decay" in capsys.readouterr().err

    def test_fit_trap_more_points_than_parameters(self, tmp_path, capsys):
        # one curve of 3 points would fit gamma_trap, A and B exactly
        curve_file = tmp_path / "short.csv"
        assert main(["gen", "decay", "--t-end", "100", "--n-t", "3",
                     "--tol", "0", "--noise", "poisson", "--seed", "1",
                     "--out", str(curve_file)]) == 0
        report = tmp_path / "trap.json"
        assert main(["fit", "trap", str(curve_file),
                     "--out", str(report)]) == 2
        assert not report.exists()
        assert "3 points cannot fit 3 parameters" in capsys.readouterr().err

    def test_fit_trap_empty_curve_names_the_file(self, tmp_path, capsys):
        curve_file = tmp_path / "empty.csv"
        csvio.write_table(curve_file, ["time_s", "counts_per_s"], [[], []],
                          meta={"power_w": 2e-5})
        assert main(["fit", "trap", str(curve_file),
                     "--out", str(tmp_path / "trap.json")]) == 2
        assert f"{curve_file}: the curve has no data rows" \
            in capsys.readouterr().err

    def test_fit_trap_curve_without_power_names_the_file(self, tmp_path,
                                                        capsys):
        curve_file, report = tmp_path / "nopower.csv", tmp_path / "trap.json"
        csvio.write_table(curve_file, ["time_s", "counts_per_s"],
                          [[0.0, 10.0, 20.0, 30.0], [9.0, 7.0, 6.0, 5.5]])
        assert main(["fit", "trap", str(curve_file),
                     "--out", str(report)]) == 2
        assert f"{curve_file}: curve metadata lacks power_w" \
            in capsys.readouterr().err
        assert not report.exists()

    def test_fit_expdecay_no_decay_exit_4(self, tmp_path, capsys):
        # areas on a straight line: tau runs past 100 sampled spans
        series = tmp_path / "series.csv"
        report = tmp_path / "exp.json"
        t = np.linspace(0.0, 0.5, 30)
        csvio.write_table(series, ["wait_time_s", "area"], [t, 3 - 0.5 * t])
        assert main(["fit", "expdecay", "--series", str(series),
                     "--out", str(report)]) == 4
        data = json.loads(report.read_text())
        assert data["command"] == "fit expdecay"
        assert "no resolvable decay" in data["error"]
        assert "no resolvable decay" in capsys.readouterr().err

    def test_fit_trap_negative_times_exit_2(self, tmp_path, capsys):
        curve_file = tmp_path / "early.csv"
        t = np.linspace(-10.0, 150.0, 41)
        csvio.write_decay_curve(curve_file, hb.DecayCurve(
            time_s=t, counts_per_s=3e3 + 2e3 * np.exp(-t / 50.0),
            power_w=20e-6))
        code = main(["fit", "trap", str(curve_file),
                     "--out", str(tmp_path / "trap.json")])
        assert code == 2
        assert "curve 0" in capsys.readouterr().err

    def test_malformed_csv_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,columns\n1,2\n")
        code = main(["fit", "expdecay", "--series", str(bad),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    commands = {
        "hole": (["fit", "hole", "--scan"],
                 "freq_hz,fluor_counts,power_counts"),
        "linear": (["fit", "linear", "--points"], "x,y"),
        "expdecay": (["fit", "expdecay", "--series"], "wait_time_s,area"),
        "trap": (["fit", "trap"], "time_s,counts_per_s"),
    }
    bad_meta = {"word-index": ("aom_off_start", "x"),
                "fractional-index": ("aom_off_stop", "1.5"),
                "word-power": ("power_w", "twenty")}

    @pytest.mark.parametrize("command, defect", [
        *[(c, d) for c in ("hole", "linear", "expdecay", "trap")
          for d in ("non-numeric", "short-row")],
        ("hole", "word-index"), ("hole", "fractional-index"),
        ("trap", "word-power"),
    ])
    def test_malformed_file_exit_2(self, tmp_path, capsys, command, defect):
        argv, header = self.commands[command]
        n = header.count(",") + 1
        rows = [",".join([f"{i}.0"] * n) for i in range(5)]
        if defect in ("non-numeric", "short-row"):
            rows[2] = ",".join(["2.0"] * (n - 1) + (
                ["abc"] if defect == "non-numeric" else []))
        meta = {"aom_off_start": "0", "aom_off_stop": "1", "power_w": "2e-05"}
        key, value = self.bad_meta.get(defect, (None, None))
        if key:
            meta[key] = value
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(f"# {k} = {v}\n" for k, v in meta.items())
                       + "\n".join([header, *rows]) + "\n")
        code = main([*argv, str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if key:
            assert f"{bad}: metadata {key} = {value!r}" in err
        else:
            assert f"{bad}, line 7" in err

    def test_fit_failure_exit_4_with_report(self, tmp_path, monkeypatch):
        # a budget of 1 trial step cannot converge the trap fit
        monkeypatch.setattr(simplex, "_GN_MAX_ITER", 1)
        curve_file = tmp_path / "curve.csv"
        assert main(["gen", "decay", "--t-end", "100", "--n-t", "21",
                     "--tol", "0", "--out", str(curve_file)]) == 0
        report = tmp_path / "trap.json"
        code = main(["fit", "trap", str(curve_file), "--out", str(report)])
        assert code == 4
        data = json.loads(report.read_text())
        assert "diagnostics" in data and "error" in data
        assert data["config"] == RunConfig().to_dict()


BLAS_TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"

# Runs one CLI job in a fresh interpreter and prints its exit code and the
# value the variable had when numpy was first imported.
NUMPY_IMPORT_WATCH = """
import os, sys
seen = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get({name!r}))
        return None

sys.meta_path.insert(0, Watch())
from holeburn.cli import main
print(main({job!r}), seen)
"""


@pytest.fixture(scope="module")
def job_inputs(tmp_path_factory):
    """A decay curve and a hole scan for the fit jobs."""
    root = tmp_path_factory.mktemp("inputs")
    curve, scan = str(root / "curve.csv"), str(root / "scan.csv")
    assert main(["gen", "decay", "--t-end", "100", "--n-t", "21", "--tol",
                 "0", "--noise", "poisson", "--seed", "5",
                 "--out", curve]) == 0
    assert main(["gen", "holescan", "--n-points", "400", "--aom-off", "0:40",
                 "--seed", "5", "--out", scan]) == 0
    return curve, scan


class TestBlasTimeout:
    """`main` lets OpenBLAS's idle workers sleep at once; a caller's
    setting wins, and only `main` touches the environment."""

    def test_main_fills_in_an_unset_value(self, tmp_path, monkeypatch):
        # set first, so that monkeypatch also removes the value main sets
        monkeypatch.setenv(BLAS_TIMEOUT, "")
        monkeypatch.delenv(BLAS_TIMEOUT)
        assert main(["zeeman", "--out", str(tmp_path / "z.csv")]) == 0
        assert os.environ[BLAS_TIMEOUT] == "4"

    def test_main_keeps_an_explicit_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BLAS_TIMEOUT, "30")
        assert main(["zeeman", "--out", str(tmp_path / "z.csv")]) == 0
        assert os.environ[BLAS_TIMEOUT] == "30"

    def test_import_leaves_the_environment_alone(self):
        run = run_fresh("import os; before = dict(os.environ); "
                        "import holeburn.cli; print(os.environ == before)",
                        env={BLAS_TIMEOUT: None})
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["True"]

    @pytest.mark.parametrize("command", ["simulate", "gen decay", "fit trap",
                                         "fit hole"])
    def test_set_before_numpy_loads(self, tmp_path, job_inputs, command):
        curve, scan = job_inputs
        args = {"simulate": ["--t-end", "5", "--n-t", "3"],
                "gen decay": ["--t-end", "5", "--n-t", "3"],
                "fit trap": [curve],
                "fit hole": ["--scan", scan]}[command]
        job = [*command.split(), *args, "--out", str(tmp_path / "out")]
        run = run_fresh(NUMPY_IMPORT_WATCH.format(name=BLAS_TIMEOUT, job=job),
                        env={BLAS_TIMEOUT: None})
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "0 ['4']"

    def test_outputs_match_the_spinning_pool(self, tmp_path, job_inputs):
        # "28" is OpenBLAS's compiled default: the pool spins ~0.1 s
        curve, scan = job_inputs
        jobs = {"signal.csv": ["simulate", "--t-end", "5", "--n-t", "3"],
                "trap.json": ["fit", "trap", curve],
                "hole.json": ["fit", "hole", "--scan", scan]}
        outputs = []
        for value in (None, "28"):
            out = tmp_path / f"timeout-{value}"
            out.mkdir()
            code = "from holeburn.cli import main\n" + "".join(
                f"assert main({[*argv, '--out', str(out / name)]!r}) == 0\n"
                for name, argv in jobs.items())
            run = run_fresh(code, env={BLAS_TIMEOUT: value})
            assert run.returncode == 0, run.stderr
            outputs.append({name: (out / name).read_bytes() for name in jobs})
        assert outputs[0] == outputs[1]
