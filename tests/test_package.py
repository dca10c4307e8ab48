"""Package-wide contracts: the lazy namespace, the names the bench tracer
wraps, the records' rejection of NaN, the declared dependencies and Python
floor, and the README's config documentation."""

import ast
import dataclasses
import glob
import importlib
import inspect
import json
import math
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import run_fresh
import holeburn as hb
from holeburn.cli import main
from holeburn.config import _SCHEMA, load_config

ROOT = Path(__file__).resolve().parents[1]

# The public names of the package.
PUBLIC_NAMES = {
    "BeamGeometry", "ConvergenceError", "DecayCurve", "ExpDecayFit",
    "FitError", "HoleArea", "IntegrationDomain", "LevelSetRule", "LinearFit",
    "LorentzianHoleFit", "MaterialParams", "MinimizeOptions",
    "MinimizeResult", "NoiseSpec", "NormalizedScan", "PLANCK_CONSTANT",
    "PipelineOrderError", "RawScan", "ResonanceFields", "SPEED_OF_LIGHT",
    "SignalResult", "TrapFitResult", "ZeemanConfig",
    "applied_field", "apply_noise", "beam_intensity", "beam_radius",
    "collection_efficiency", "detect_aom_off_range", "detected_signal",
    "detuned_intensity", "exp_decay", "fit_exponential",
    "fit_hole_lorentzian", "fit_linear_ci", "fit_trap_model",
    "gen_decay_batch", "gen_hole_decay_series", "gen_hole_scan",
    "hole_area_with_error", "hom_linewidth_from_hole",
    "ionization_rate", "lorentzian_hole", "minimize",
    "normalize_by_power", "photon_energy",
    "power_broadened_linewidth", "refine_until_converged",
    "resonance_fields", "scaled_signal", "splittings",
    "spont_recombination_rate", "steady_state",
    "subtract_background",
}


class TestLazyNamespace:
    def test_all_is_unchanged(self):
        assert set(hb.__all__) == PUBLIC_NAMES

    @pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
    def test_name_is_its_module_attribute(self, name):
        module = importlib.import_module(f"holeburn.{hb._MODULE_OF[name]}")
        assert getattr(hb, name) is getattr(module, name)

    @pytest.mark.parametrize("name", hb._SUBMODULES)
    def test_submodule_resolves(self, name):
        assert getattr(hb, name) is importlib.import_module(f"holeburn.{name}")

    def test_material_params_is_one_record(self):
        # defined in config with the rest of the setup, re-exported by
        # model for the formulas
        assert hb.MaterialParams is hb.model.MaterialParams
        assert hb.MaterialParams is hb.config.MaterialParams
        assert hb.fitting.MaterialParams is hb.config.MaterialParams

    def test_submodules_are_every_module(self):
        # a module left out of _EXPORTS would not resolve as an attribute
        stems = {path.stem for path in (ROOT / "src" / "holeburn").glob("*.py")}
        assert set(hb._SUBMODULES) == stems - {"__init__"}
        assert len(hb._SUBMODULES) == len(set(hb._SUBMODULES))

    def test_lifetime_fit_is_plain_python(self):
        # the lifetime fit moved out of fitting, which loads numpy
        assert hb.fit_exponential is hb.lifetime.fit_exponential
        assert hb.ExpDecayFit is hb.lifetime.ExpDecayFit
        assert not hasattr(hb.fitting, "fit_exponential")
        # and so is the lifetime model, which the generator evaluates too
        assert hb.exp_decay is hb.lifetime.exp_decay
        assert not hasattr(hb.fitting, "exp_decay")

    def test_dir_lists_public_names(self):
        listing = dir(hb)
        assert "__all__" in listing
        assert PUBLIC_NAMES <= set(listing)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hb.no_such_name
        assert not hasattr(hb, "median")

    def test_star_import_in_fresh_interpreter(self):
        run = run_fresh("from holeburn import *; print(len(dir()))")
        run.check_returncode()
        out = run.stdout
        assert int(out) >= len(PUBLIC_NAMES)


def test_bench_tracer_instruments_fresh_package(tmp_path):
    """bench/tracing.py wraps names that the CLI looks up when a job runs;
    every one must exist and each wrapped layer must still be reached."""
    curve, scan, points = (tmp_path / n for n in ("c.csv", "s.csv", "p.csv"))
    assert main(["gen", "decay", "--n-t", "21", "--tol", "0",
                 "--out", str(curve)]) == 0
    assert main(["gen", "holescan", "--n-points", "400", "--aom-off", "0:40",
                 "--out", str(scan)]) == 0
    x = np.linspace(0.0, 5.0, 10)
    hb.csvio.write_table(points, ["x", "y"], [x, 2 * x + np.sin(7 * x)])
    out = str(tmp_path / "out")
    jobs = [["simulate", "--t-end", "5", "--n-t", "3", "--out", out + ".csv"],
            ["fit", "trap", str(curve), "--out", out + ".json"],
            ["fit", "hole", "--scan", str(scan), "--out", out + ".json"],
            ["fit", "linear", "--points", str(points), "--out", out + ".json"]]
    code = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location(
    "tracing", {str(ROOT / "bench" / "tracing.py")!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import holeburn
rec = tracing.Recorder()
restore = tracing.instrument(rec, holeburn)
codes = [holeburn.cli.main(job) for job in {jobs!r}]
restore()
print(json.dumps({{"codes": codes, "spans": sorted({{s[0] for s in rec.spans}}),
                  "counts": rec.counts}}))
"""
    run = run_fresh(code)
    run.check_returncode()
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0] * len(jobs)
    assert {"integrator.refine", "csvio.write_signal_csv", "fitting.trap",
            "integrator.signal", "integrator.cloud", "integrator.compress",
            "integrator.compressed_eval", "fitting.hole",
            "simplex.minimize", "csvio.read_raw_scan",
            "pipeline.normalize_by_power", "fitting.linear",
            "csvio.write_report"} <= set(report["spans"])
    assert report["counts"]["integrator.refinements"] > 0


def _records():
    """(record class, valid keyword arguments) for every validated record."""
    geom = hb.BeamGeometry.for_material(hb.MaterialParams(), 2e-5, 1e-6)
    return [
        (hb.MaterialParams, {}),
        (hb.BeamGeometry, dataclasses.asdict(geom)),
        (hb.IntegrationDomain, {}),
        (hb.ZeemanConfig, {}),
        (hb.NoiseSpec, {"kind": "gaussian", "gaussian_sigma": 0.1}),
    ]


@pytest.mark.parametrize("record, kwargs, name", [
    (record, kwargs, f.name) for record, kwargs in _records()
    for f in dataclasses.fields(record)
    if isinstance(kwargs.get(f.name, f.default), float)
], ids=lambda v: v if isinstance(v, str) else getattr(v, "__name__", ""))
def test_record_rejects_nan(record, kwargs, name):
    record(**kwargs)
    with pytest.raises(ValueError):
        record(**{**kwargs, name: math.nan})


NAN = math.nan
FREQ = np.linspace(-1e8, 1e8, 200)


@pytest.mark.parametrize("call", [
    lambda: hb.gen_hole_scan(FREQ, 1.0, 0.3, 0.0, NAN, 1e3, (0, 20)),
    lambda: hb.gen_hole_scan(FREQ, 1.0, NAN, 0.0, 6e6, 1e3, (0, 20)),
    lambda: hb.gen_hole_scan(FREQ, 1.0, 0.3, 0.0, 6e6, NAN, (0, 20)),
    lambda: hb.gen_hole_scan(FREQ, NAN, 0.3, 0.0, 6e6, 1e3, (0, 20)),
    lambda: hb.gen_hole_scan(FREQ, 1.0, 0.3, NAN, 6e6, 1e3, (0, 20)),
    lambda: hb.gen_hole_scan(FREQ, 1.0, 0.3, 0.0, 6e6, 1e3, (0, 20),
                             fluor_offset=math.inf),
    lambda: hb.gen_hole_decay_series(NAN, 0.0, [0.0, 0.1]),
    lambda: hb.gen_hole_decay_series(0.1, NAN, [0.0, 0.1]),
    lambda: hb.gen_hole_decay_series(0.1, 0.0, [0.0, 0.1], amplitude=NAN),
    lambda: hb.resonance_fields(NAN, hb.ZeemanConfig()),
    lambda: hb.resonance_fields(math.inf, hb.ZeemanConfig()),
    lambda: hb.scaled_signal([1.0], NAN, 9.4e7, 2e-5),
    lambda: hb.scaled_signal([1.0], 0.19, NAN, 2e-5),
    lambda: hb.scaled_signal([1.0], 0.19, 9.4e7, NAN),
    lambda: hb.detected_signal([0.0, 1.0], hb.MaterialParams(),
                               hb.BeamGeometry.for_material(
                                   hb.MaterialParams(), 2e-5), math.inf,
                               hb.LevelSetRule()),
    lambda: hb.BeamGeometry.for_material(hb.MaterialParams(), math.inf),
    lambda: hb.BeamGeometry.for_material(hb.MaterialParams(), 1e300),
    lambda: hb.gen_hole_scan(FREQ, 1.0, 0.3, 0.0, 1e300, 1e3, (0, 20)),
    lambda: hb.gen_hole_scan(FREQ, 1.0, 0.3, 1e300, 6e6, 1e3, (0, 20)),
    lambda: hb.gen_hole_scan(FREQ, -1e308, 0.3, 0.0, 6e6, 1e3, (0, 20)),
    lambda: hb.gen_hole_decay_series(0.1, 0.0, [0.0, NAN]),
    lambda: hb.gen_hole_decay_series(0.1, 0.0, [0.0, math.inf]),
    lambda: hb.gen_hole_decay_series(1e-320, 0.0, [0.0, 0.1]),
    lambda: hb.NoiseSpec("gaussian", 1, math.inf),
    lambda: hb.NoiseSpec("poisson", -1),
], ids=["holescan-fwhm", "holescan-depth", "holescan-power-level",
        "holescan-baseline", "holescan-center", "holescan-fluor-offset-inf",
        "holedecay-tau", "holedecay-offset", "holedecay-amplitude",
        "delta-f-nan", "delta-f-inf", "scaled-signal-scale-a",
        "scaled-signal-background-b", "scaled-signal-power",
        "signal-gamma-trap-inf", "beam-power-inf", "beam-power-1e300",
        "holescan-fwhm-1e300", "holescan-center-1e300",
        "holescan-baseline-big", "holedecay-wait-nan", "holedecay-wait-inf",
        "holedecay-tau-subnormal", "noise-sigma-inf", "noise-seed-negative"])
def test_generator_rejects_non_finite(call):
    with pytest.raises(ValueError):
        call()


def _imported_modules(path):
    """Top-level modules a test file imports or passes to importorskip."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "importorskip"):
            found.add(node.args[0].value)
    return {name.partition(".")[0] for name in found}


def test_declared_dependencies_cover_the_tests():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", req).group().lower()
                for req in [*project["dependencies"],
                            *project["optional-dependencies"]["test"]]}
    imported = set().union(*map(_imported_modules,
                                (ROOT / "tests").glob("*.py")))
    ours = {"holeburn"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
    assert imported - sys.stdlib_module_names - ours <= declared


def test_sources_parse_at_the_declared_python_floor():
    text = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text)
    version = (int(floor.group(1)), int(floor.group(2)))
    for path in sorted((ROOT / "src" / "holeburn").glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=version)


def test_one_place_picks_the_default_rule():
    """No code resolves a missing rule: the two entries that take none,
    `refine_until_converged` and `TrapDecayModel`, build `LevelSetRule()`
    themselves, and `detected_signal` alone builds its no-rule box.  No
    other code calls `LevelSetRule()` or `IntegrationDomain()` without
    arguments, so `LevelSetRule.n` decides the CLI's rule."""
    records = {"LevelSetRule", "IntegrationDomain"}
    sites = set()
    for path in sorted((ROOT / "src" / "holeburn").glob("*.py")):
        owner = {}
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                name = ".".join(filter(None, [owner.get(id(scope)),
                                              scope.name]))
                owner.update((id(node), name) for node in ast.walk(scope))
        for node in ast.walk(tree):
            name = (getattr(node.func, "id", None)
                    or getattr(node.func, "attr", None)
                    if isinstance(node, ast.Call) else None)
            if name in records and not node.args and not node.keywords:
                sites.add((path.stem, owner.get(id(node), "<module>"), name))
    assert sites == {
        ("integrator", "refine_until_converged", "LevelSetRule"),
        ("integrator", "TrapDecayModel.__init__", "LevelSetRule"),
        ("integrator", "detected_signal", "IntegrationDomain")}


def test_refinement_and_trap_cloud_take_no_rule():
    """Only `detected_signal` takes a rule: the entries the CLI and the
    fits run have no `domain` parameter and refuse one."""
    from holeburn.integrator import TrapDecayModel
    material = hb.MaterialParams()
    geom = hb.BeamGeometry.for_material(material, power=20e-6)
    for entry, args in ((hb.refine_until_converged,
                         ([0.0, 5.0], material, geom, 7e4)),
                        (TrapDecayModel, (material, geom))):
        assert "domain" not in inspect.signature(entry).parameters
        with pytest.raises(TypeError, match="domain"):
            entry(*args, domain=hb.LevelSetRule())


def test_box_profiles_live_in_the_rule_record():
    """`detected_signal` and `_cloud` take the physics and one rule record:
    no profile parameter, and a box's record holds its (r, z) profiles."""
    from holeburn import integrator
    material = hb.MaterialParams()
    geom = hb.BeamGeometry.for_material(material, power=20e-6)
    box = hb.IntegrationDomain(n_r=2, n_z=2, n_delta=2)
    for entry, args in ((hb.detected_signal,
                         ([0.0], material, geom, 7e4, box)),
                        (integrator._cloud, (material, geom, box))):
        for name in ("intensity_fn", "coll_fn"):
            assert name not in inspect.signature(entry).parameters
            with pytest.raises(TypeError, match=name):
                entry(*args, **{name: hb.beam_intensity})
    fields = {record: {f.name for f in dataclasses.fields(record)}
              for record in (hb.IntegrationDomain, hb.LevelSetRule)}
    assert {"intensity_fn", "coll_fn"} <= fields[hb.IntegrationDomain]
    assert {"intensity_fn", "coll_fn"} & fields[hb.LevelSetRule] == set()


@pytest.mark.parametrize("module", ["fitting", "synth", "cli"])
def test_fits_generators_and_cli_take_no_rule(module):
    """The rule is a parameter only of the quadrature layer: the trap fit,
    the generators and the CLI name no rule class and take no `domain`."""
    tree = ast.parse((ROOT / "src" / "holeburn" / f"{module}.py").read_text(
        encoding="utf-8"))
    records = {"LevelSetRule", "IntegrationDomain"}
    named = {getattr(node, "id", None) or getattr(node, "attr", None)
             for node in ast.walk(tree)} | {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert named & records == set()
    takes = [func.name for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda))
             for arg in (*func.args.posonlyargs, *func.args.args,
                         *func.args.kwonlyargs)
             if arg.arg == "domain"]
    assert takes == []


def test_readme_documents_every_config_key(tmp_path):
    readme = (ROOT / "README.md").read_text()
    missing = [f"[{section}] {key}" for section, keys in _SCHEMA.items()
               for key in keys if f"`{key}`" not in readme]
    assert missing == []
    # and the config table documents no key the schema lacks
    rows = re.findall(r"^\| (?:`\[\w+\]`)? *\| `(\w+)` \|", readme, re.M)
    assert len(rows) == sum(map(len, _SCHEMA.values()))
    assert set(rows) == {key for keys in _SCHEMA.values() for key in keys}
    examples = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(examples) == 1
    path = tmp_path / "example.ini"
    path.write_text(examples[0])
    load_config(path)


def test_readme_cli_example_runs_in_order(tmp_path, monkeypatch, capsys):
    # each command of the README's example session, continuations joined
    # and curves/*.csv expanded, exits 0 on the files the earlier ones wrote
    readme = (ROOT / "README.md").read_text()
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", readme, re.S)
              if re.search(r"^holeburn ", b, re.M)]
    assert len(blocks) == 1
    commands = [line for line in blocks[0].replace("\\\n", " ").splitlines()
                if line and not line.startswith("#")]
    assert all(line.startswith("holeburn ") for line in commands)
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = []
        for token in shlex.split(command)[1:]:
            argv += sorted(glob.glob(token)) if "*" in token else [token]
        assert main(argv) == 0, (command, capsys.readouterr().err)
