"""The CLI's exit-code contract on malformed input files and on extreme
flag values.

Every fit subcommand reads a CSV a user hands it, so each must end on one
of the documented exit codes (0 success, 2 input error, 3 non-convergence,
4 fit failure) whatever the file holds, never on a traceback.  An exit 2
writes no report; an exit 4 writes one that names the command and echoes
the config, with either the error and its diagnostics or the unresolved
parameters.  Each case
mutates a valid fixture once: a cell set to NaN, +-inf, +-1e308, a
subnormal, text or nothing; the file cut to its header or to one row,
its rows reversed or all made equal; a column added to or cut from one
row; CRLF line endings; a UTF-8 byte-order mark.  Which rows a cell
mutation hits is drawn once from a fixed seed.  The hole scan also has
its power or its fluorescence trace made flat, each reading within 3 ulp
of the AOM-off level by draws from the same seed, and `fit hole` runs
every case with the recorded AOM-off range and with `--aom-off auto`.

The commands that compute or generate data must likewise end on exit 0,
2 or 3 whatever a numeric flag holds: every such flag is set, one per
run, to NaN, +-inf, +-1e308, 1e300, 0, -1 and a subnormal.  An exit 2
names the flag and writes no file; an exit 0 writes only finite cells.
The setup read from the config file is held to the same contract: every
config key is set, one per run, to each of those values and to the edges
of the range that bounds the config's numbers, and `simulate`,
`gen decay`, `fit trap` and `zeeman` must end on exit 0, 2, 3 or 4.  An
exit 2 names the key or the field it sets and writes no file; an exit 0
writes only finite numbers.  The model multiplies these numbers, so a
cross sweep sets every pair of the multiplying keys and the power to
1e100 and 1e-100 together: `simulate` and `gen decay` must end on exit
0, 2, 3 or 4, an exit 2 must name one of the pair and write no file, and
an exit 0 must write only finite cells within +-1e100.
All four sweeps run in process, with numpy's warnings as errors.
"""

import argparse
import itertools
import json
import math
import random

import numpy as np
import pytest

import holeburn as hb
from holeburn import csvio, synth
from holeburn.cli import build_parser, main
from holeburn.config import _SCHEMA, load_config

CELL_VALUES = {"nan": "nan", "inf": "inf", "-inf": "-inf", "big": "1e308",
               "-big": "-1e308", "subnormal": "5e-324", "text": "abc",
               "empty": ""}
FILE_MUTATIONS = ["header-only", "one-row", "reversed", "constant",
                  "extra-column", "short-column", "crlf", "bom"]
# The hole fixture's traces made flat, by their column: every reading set
# to that of row 0, an AOM-off row, shifted by -3 to +3 ulp.
FLAT_TRACES = {"flat-fluorescence": 1, "flat-power": 2}
# `fit hole` runs every case with the recorded AOM-off range and with auto.
HOLE_RANGES = ([], ["--aom-off", "auto"])
CONTRACT_CODES = {0, 2, 3, 4}


def _split(text):
    """(metadata and header lines, data rows as cell lists)."""
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines)
                if not line.startswith("#")) + 1
    return lines[:head], [line.split(",") for line in lines[head:]]


def _join(head, rows, newline="\n"):
    return newline.join(head + [",".join(row) for row in rows]) + newline


def mutate_file(text, kind):
    head, rows = _split(text)
    if kind == "header-only":
        return _join(head, [])
    if kind == "one-row":
        return _join(head, rows[:1])
    if kind == "reversed":
        return _join(head, rows[::-1])
    if kind == "constant":
        return _join(head, [rows[0]] * len(rows))
    middle = len(rows) // 2
    if kind == "extra-column":
        rows[middle] = rows[middle] + ["1.0"]
        return _join(head, rows)
    if kind == "short-column":
        rows[middle] = rows[middle][:-1]
        return _join(head, rows)
    if kind == "crlf":
        return _join(head, rows, "\r\n")
    assert kind == "bom"
    return "\ufeff" + text


def mutate_cell(text, row, column, value):
    head, rows = _split(text)
    rows[row][column] = value
    return _join(head, rows)


def flatten_column(text, column, seed):
    """Every reading in `column` set to row 0's, shifted by a drawn
    -3 to +3 ulp."""
    head, rows = _split(text)
    rng = random.Random(seed)
    level = float(rows[0][column])
    for row in rows:
        row[column] = repr(level + rng.randint(-3, 3) * math.ulp(level))
    return _join(head, rows)


def cell_cases(name, text, seed):
    """(id, mutated text) for every cell value, on the first, the last and
    one drawn row of every column."""
    _, rows = _split(text)
    rng = random.Random(seed)
    for column in range(len(rows[0])):
        for row in sorted({0, len(rows) - 1, rng.randrange(len(rows))}):
            for label, value in CELL_VALUES.items():
                yield (f"{name}-r{row}c{column}-{label}",
                       mutate_cell(text, row, column, value))


def write_fixtures(root):
    """{subcommand: path of a valid input file} for each fit subcommand."""
    material = hb.MaterialParams()
    t = np.linspace(0.0, 200.0, 21)
    curve = synth.gen_decay_batch(material, 7e4, 0.19, 9.4e7, [20e-6], t,
                                  hb.NoiseSpec(kind="poisson", seed=1))[0]
    scan = synth.gen_hole_scan(np.linspace(-100e6, 100e6, 300), 1.0, 0.4,
                               -20e6, 12e6, 1000.0, (0, 30),
                               fluor_offset=120.0, power_offset=33.0,
                               noise=hb.NoiseSpec(kind="gaussian", seed=2,
                                                  gaussian_sigma=5.0))
    waits = np.linspace(0.0, 0.5, 25)
    areas = synth.gen_hole_decay_series(0.072, 0.05, waits,
                                        hb.NoiseSpec(kind="gaussian", seed=3,
                                                     gaussian_sigma=0.01))
    x = np.arange(12.0)
    paths = {name: root / f"{name}.csv"
             for name in ("trap", "hole", "expdecay", "linear")}
    csvio.write_decay_curve(paths["trap"], curve)
    csvio.write_raw_scan(paths["hole"], scan)
    csvio.write_table(paths["expdecay"], ["wait_time_s", "area"],
                      [waits, areas])
    csvio.write_table(paths["linear"], ["x", "y"],
                      [x, 2.5 * x - 1.0 + 0.1 * np.sin(7 * x)])
    return paths


def argv(name, path, tmp_path):
    out = str(tmp_path / "report.json")
    return {"trap": ["fit", "trap", str(path), "--out", out],
            "hole": ["fit", "hole", "--scan", str(path), "--out", out],
            "expdecay": ["fit", "expdecay", "--series", str(path),
                         "--out", out],
            "linear": ["fit", "linear", "--points", str(path),
                       "--out", out]}[name]


@pytest.fixture(scope="module")
def valid_texts(tmp_path_factory):
    paths = write_fixtures(tmp_path_factory.mktemp("valid"))
    return {name: path.read_text(encoding="utf-8")
            for name, path in paths.items()}


@pytest.mark.parametrize("name", ["trap", "hole", "expdecay", "linear"])
def test_every_mutation_ends_on_a_contract_code(name, valid_texts, tmp_path,
                                                capsys):
    text = valid_texts[name]
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    ranges = HOLE_RANGES if name == "hole" else ([],)
    for flags in ranges:
        assert main([*argv(name, path, tmp_path), *flags]) == 0, \
            "the fixture must fit"
    cases = [(f"{name}-{kind}", mutate_file(text, kind))
             for kind in FILE_MUTATIONS]
    cases += list(cell_cases(name, text, seed=31))
    if name == "hole":
        cases += [(f"hole-{kind}", flatten_column(text, column, seed=31))
                  for kind, column in FLAT_TRACES.items()]
    report = tmp_path / "report.json"
    broken = []
    for (case, mutated), flags in itertools.product(cases, ranges):
        case = " ".join([case, *flags])
        path.write_text(mutated, encoding="utf-8", newline="")
        report.unlink(missing_ok=True)
        try:
            code = main([*argv(name, path, tmp_path), *flags])
        except Exception as exc:  # a traceback breaks the contract
            broken.append(f"{case}: {type(exc).__name__}: {exc}")
            continue
        if code not in CONTRACT_CODES:
            broken.append(f"{case}: exit {code}")
        elif code == 2 and report.exists():
            broken.append(f"{case}: exit 2 wrote a report")
        elif code == 4 and not fit_failure_reported(report, name):
            broken.append(f"{case}: exit 4 without a full failure report")
    capsys.readouterr()
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("kind, flags, code, message", [
    ("flat-power", [], 2, "all points excluded: no usable laser power"),
    ("flat-power", ["--aom-off", "auto"], 2,
     "no off segment of sufficient length found"),
    ("flat-fluorescence", [], 4, "unresolved center_hz, fwhm_hz"),
    ("flat-fluorescence", ["--aom-off", "auto"], 4,
     "unresolved center_hz, fwhm_hz"),
], ids=["power", "power-auto", "fluorescence", "fluorescence-auto"])
def test_flat_traces_exit_2_on_power_and_4_on_fluorescence(
        valid_texts, tmp_path, capsys, kind, flags, code, message):
    # a trace within a few ulp of its AOM-off level: nothing but rounding
    # is left after subtraction, which is no laser power but is a
    # fluorescence signal, one without a hole
    path, report = tmp_path / "input.csv", tmp_path / "report.json"
    path.write_text(flatten_column(valid_texts["hole"], FLAT_TRACES[kind],
                                   seed=31), encoding="utf-8")
    assert main([*argv("hole", path, tmp_path), *flags]) == code
    assert message in capsys.readouterr().err
    assert report.exists() == (code == 4)


@pytest.mark.parametrize("name, flags, message", [
    ("trap", ["--out", "{input}"], "--out and a curve both name"),
    ("hole", ["--treated-out", "{input}"],
     "--treated-out and --scan both name"),
    ("expdecay", ["--out", "{input}"], "--out and --series both name"),
    ("linear", ["--out", "{input}"], "--out and --points both name"),
    ("hole", ["--treated-out", "{report}"],
     "--treated-out and --out both name"),
    ("linear", ["--out", "{config}"], "--out and --config both name"),
], ids=["trap", "hole", "expdecay", "linear", "hole-two-outputs", "config"])
def test_no_job_writes_over_a_file_it_reads_or_writes(
        valid_texts, tmp_path, capsys, name, flags, message):
    # an output naming an input would replace the data it was fitted from
    path, report = tmp_path / "input.csv", tmp_path / "report.json"
    config = tmp_path / "setup.ini"
    path.write_text(valid_texts[name], encoding="utf-8")
    config.write_text("[beam]\nfocus_fwhm_m = 1e-6\n", encoding="utf-8")
    before = {p: p.read_bytes() for p in (path, config)}
    files = {"input": path, "report": report, "config": config}
    assert main(["--config", str(config), *argv(name, path, tmp_path),
                 *(f.format(**files) for f in flags)]) == 2
    assert message in capsys.readouterr().err
    assert {p: p.read_bytes() for p in (path, config)} == before
    assert sorted(tmp_path.iterdir()) == sorted(before)


def fit_failure_reported(report, name):
    """An exit-4 report names its command and carries the config, and either
    the error with its diagnostics or the unresolved parameters."""
    if not report.exists():
        return False
    data = json.loads(report.read_text())
    return (data.get("command") == f"fit {name}" and "config" in data
            and ({"error", "diagnostics"} <= data.keys()
                 or bool(data.get("unresolved"))))


# A negative value is also passed joined to its flag, as `--flag=-1`.
FLAG_VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "1e300", "0", "-1",
               "1e-320")
FLAG_CODES = {0, 2, 3}
# Flags that take comma-separated numbers; argparse reads them as text.
LIST_FLAGS = {"--delta-f", "--powers"}
# Each job's base flags come first, so the swept value overrides them.
FLAG_JOBS = {
    "simulate": ["simulate", "--n-t", "5"],
    "gen-decay": ["gen", "decay", "--n-t", "5"],
    "gen-decay-poisson": ["gen", "decay", "--n-t", "5", "--noise", "poisson"],
    "gen-holescan": ["gen", "holescan", "--n-points", "300",
                     "--aom-off", "0:30"],
    "gen-holescan-gaussian": ["gen", "holescan", "--n-points", "300",
                              "--aom-off", "0:30", "--noise", "gaussian",
                              "--gaussian-sigma", "5"],
    "gen-holedecay": ["gen", "holedecay"],
    "zeeman": ["zeeman"],
}


def numeric_flags(base):
    """Option strings of the flags that take numbers, for the subcommand
    that `base` starts with: every flag with a type, and the lists."""
    parser = build_parser()
    for token in base:
        subparsers = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
        if not subparsers or token.startswith("-"):
            break
        parser = subparsers[0].choices[token]
    return [a.option_strings[0] for a in parser._actions
            if a.type is not None or set(a.option_strings) & LIST_FLAGS]


def flag_cases(job):
    for flag in numeric_flags(FLAG_JOBS[job]):
        for value in FLAG_VALUES:
            yield flag, [flag, value]
            if value.startswith("-"):
                yield flag, [f"{flag}={value}"]


def names_the_flag(err, flag):
    """Whether an error line names the flag, or a word of four or more
    letters from its name, in the singular ("power" for --power-w and
    --powers)."""
    stem = flag.lstrip("-")
    words = [w.removesuffix("s") for w in stem.split("-") if len(w) >= 4]
    return any(w in err for w in [stem, stem.replace("-", "_"), *words])


def written_cells(out):
    """Every data cell of the CSV file, or of each CSV in the directory."""
    paths = sorted(out.glob("*.csv")) if out.is_dir() else [out]
    for path in paths:
        _, rows = _split(path.read_text(encoding="utf-8"))
        for row in rows:
            yield from row


def test_every_extreme_flag_ends_on_a_contract_code(tmp_path, capsys):
    cases = [(job, flag, value) for job in FLAG_JOBS
             for flag, value in flag_cases(job)]
    broken = []
    for run, (job, flag, value) in enumerate(cases):
        out = tmp_path / f"run{run}.csv"
        case = " ".join([*FLAG_JOBS[job], *value])
        try:
            code = main([*FLAG_JOBS[job], *value, "--out", str(out)])
        except SystemExit as exc:  # argparse's own exit 2
            code = exc.code
        except Exception as exc:  # a traceback or a numpy warning
            capsys.readouterr()
            broken.append(f"{case}: {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        if code not in FLAG_CODES:
            broken.append(f"{case}: exit {code}")
        elif code == 2 and out.exists():
            broken.append(f"{case}: exit 2 wrote {out.name}")
        elif code == 2 and not names_the_flag(err, flag):
            broken.append(f"{case}: exit 2 without naming {flag}: {err!r}")
        elif code == 0 and not all(map(math.isfinite,
                                       map(float, written_cells(out)))):
            broken.append(f"{case}: exit 0 wrote a non-finite cell")
    assert not broken, (f"{len(broken)} of {len(cases)} runs broke the "
                        "contract:\n" + "\n".join(broken))


# The flag values, and the edges of [1e-100, 1e100] and of [-1e100, 1e100]
# with a value just past each.
KEY_VALUES = FLAG_VALUES + ("1e100", "-1e100", "1e-100", "2e100", "5e-101")
CONFIG_JOBS = {
    "simulate": ["simulate", "--n-t", "5", "--tol", "0"],
    "gen-decay": ["gen", "decay", "--n-t", "5", "--tol", "0"],
    "fit-trap": ["fit", "trap"],
    "zeeman": ["zeeman", "--delta-f", "1e8,2e9"],
}


def report_numbers(node):
    """Every float in a parsed JSON report."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from report_numbers(item)
    elif isinstance(node, float):
        yield node


def written_numbers(out):
    """Every number of the JSON report, or of the CSV file or files."""
    if out.suffix == ".json":
        return report_numbers(json.loads(out.read_text(encoding="utf-8")))
    return map(float, written_cells(out))


def test_every_extreme_config_key_ends_on_a_contract_code(tmp_path, capsys):
    batch = tmp_path / "batch"
    assert main(["gen", "decay", "--powers", "5e-6,2e-5,4.4e-5", "--n-t",
                 "21", "--t-end", "100", "--tol", "0", "--noise", "poisson",
                 "--seed", "3", "--out", str(batch)]) == 0
    jobs = dict(CONFIG_JOBS)
    jobs["fit-trap"] = [*jobs["fit-trap"], *map(str, sorted(batch.iterdir()))]
    keys = [(section, key, target.rpartition(".")[2])
            for section, table in _SCHEMA.items()
            for key, target in table.items()]
    cases = [(job, key, value) for job in jobs for key in keys
             for value in KEY_VALUES]
    broken = []
    for run, (job, (section, key, field), value) in enumerate(cases):
        config = tmp_path / f"run{run}.ini"
        config.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / (f"run{run}.json" if job == "fit-trap"
                          else f"run{run}.csv")
        case = f"{job} with {key} = {value}"
        try:
            code = main(["--config", str(config), *jobs[job],
                         "--out", str(out)])
        except Exception as exc:  # a traceback or a numpy warning
            capsys.readouterr()
            broken.append(f"{case}: {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        if code not in CONTRACT_CODES:
            broken.append(f"{case}: exit {code}")
        elif code == 2 and out.exists():
            broken.append(f"{case}: exit 2 wrote {out.name}")
        elif code == 2 and key not in err and field not in err:
            broken.append(f"{case}: exit 2 without naming {key}: {err!r}")
        elif code == 0 and not all(map(math.isfinite, written_numbers(out))):
            broken.append(f"{case}: exit 0 wrote a non-finite number")
    assert not broken, (f"{len(broken)} of {len(cases)} runs broke the "
                        "contract:\n" + "\n".join(broken))


def multiplying_keys(tmp_path):
    """(section, key, field) of every key of [material], [beam] and
    [scale] that loads at both 1e100 and 1e-100 (all but coll0, a
    fraction), and ("", "--power-w", "power") for the power flag."""
    keys, config = [], tmp_path / "probe.ini"
    for section in ("material", "beam", "scale"):
        for key, target in _SCHEMA[section].items():
            try:
                for value in ("1e100", "1e-100"):
                    config.write_text(f"[{section}]\n{key} = {value}\n")
                    load_config(config)
            except ValueError:
                continue
            keys.append((section, key, target.rpartition(".")[2]))
    return keys + [("", "--power-w", "power")]


CROSS_JOBS = {"simulate": CONFIG_JOBS["simulate"],
              "gen-decay": CONFIG_JOBS["gen-decay"]}


def test_every_pair_of_extreme_keys_ends_on_a_contract_code(tmp_path,
                                                            capsys):
    keys = multiplying_keys(tmp_path)
    cases = [(job, pair, values) for job in CROSS_JOBS
             for pair in itertools.combinations(keys, 2)
             for values in itertools.product(("1e100", "1e-100"), repeat=2)]
    broken = []
    for run, (job, pair, values) in enumerate(cases):
        config, sections, flags = tmp_path / f"run{run}.ini", {}, []
        for (section, key, _), value in zip(pair, values):
            if section:
                sections.setdefault(section, []).append(f"{key} = {value}")
            else:
                flags += [key, value]
        config.write_text("".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                                  for section, lines in sections.items()))
        out = tmp_path / f"run{run}.csv"
        case = f"{job} with " + ", ".join(
            f"{key} = {value}" for (_, key, _), value in zip(pair, values))
        try:
            code = main(["--config", str(config), *CROSS_JOBS[job], *flags,
                         "--out", str(out)])
        except Exception as exc:  # a traceback or a numpy warning
            capsys.readouterr()
            broken.append(f"{case}: {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        names = [name for _, key, field in pair for name in (key, field)]
        if code not in CONTRACT_CODES:
            broken.append(f"{case}: exit {code}")
        elif code == 2 and out.exists():
            broken.append(f"{case}: exit 2 wrote {out.name}")
        elif code == 2 and not any(name in err for name in names):
            broken.append(f"{case}: exit 2 naming neither: {err!r}")
        elif code == 0 and not all(abs(v) <= 1e100 for v in
                                   map(float, written_cells(out))):
            broken.append(f"{case}: exit 0 wrote a cell beyond 1e100 or "
                          f"not finite")
    assert not broken, (f"{len(broken)} of {len(cases)} runs broke the "
                        "contract:\n" + "\n".join(broken))


@pytest.mark.parametrize("config, flags", [
    ("[material]\nion_density_per_m3_per_hz = 1e100\nfluor_rate_per_s = 1e100"
     "\nhom_linewidth0_hz = 1e100\n[scale]\nscale_a = 1e100\n", []),
    ("[material]\nhom_linewidth0_hz = 1e100\n", ["--power-w", "1e80"]),
], ids=["four-keys-1e100", "linewidth-1e100-power-1e80"])
@pytest.mark.parametrize("job", ["simulate", "gen-decay"])
def test_products_past_the_range_exit_2_naming_their_keys(tmp_path, capsys,
                                                          config, flags, job):
    # each key lies in its range, but their product does not
    path, out = tmp_path / "run.ini", tmp_path / "out.csv"
    path.write_text(config)
    assert main(["--config", str(path), *CROSS_JOBS[job], *flags,
                 "--out", str(out)]) == 2
    assert "hom_linewidth0_hz" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, job", [
    ("[scale]\nscale_a = 1e90\n",
     ["gen", "decay", "--n-t", "5", "--tol", "0", "--noise", "poisson"]),
    ("", ["gen", "holescan", "--n-points", "300", "--aom-off", "0:30",
          "--baseline", "1e30", "--noise", "poisson"]),
], ids=["gen-decay", "gen-holescan"])
def test_poisson_mean_past_numpys_limit_exits_2(tmp_path, capsys, config,
                                                job):
    # numpy draws no Poisson count of mean above about 9.2e18
    path, out = tmp_path / "run.ini", tmp_path / "out.csv"
    path.write_text(config)
    assert main(["--config", str(path), *job, "--out", str(out)]) == 2
    assert "--noise poisson" in capsys.readouterr().err
    assert not out.exists()
