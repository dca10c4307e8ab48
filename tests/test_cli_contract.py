"""The CLI's exit-code contract on malformed input files.

Every fit subcommand reads a CSV a user hands it, so each must end on one
of the documented exit codes (0 success, 2 input error, 3 non-convergence,
4 fit failure) whatever the file holds, never on a traceback.  Each case
mutates a valid fixture once: a cell set to NaN, +-inf, +-1e308, a
subnormal, text or nothing; the file cut to its header or to one row,
its rows reversed or all made equal; a column added to or cut from one
row; CRLF line endings; a UTF-8 byte-order mark.  Which rows a cell
mutation hits is drawn once from a fixed seed.
"""

import random

import numpy as np
import pytest

import holeburn as hb
from holeburn import csvio, synth
from holeburn.cli import main

CELL_VALUES = {"nan": "nan", "inf": "inf", "-inf": "-inf", "big": "1e308",
               "-big": "-1e308", "subnormal": "5e-324", "text": "abc",
               "empty": ""}
FILE_MUTATIONS = ["header-only", "one-row", "reversed", "constant",
                  "extra-column", "short-column", "crlf", "bom"]
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
                                  hb.NoiseSpec(kind="poisson", seed=1),
                                  domain=hb.LevelSetRule())[0]
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
    assert main(argv(name, path, tmp_path)) == 0, "the fixture must fit"
    cases = [(f"{name}-{kind}", mutate_file(text, kind))
             for kind in FILE_MUTATIONS]
    cases += list(cell_cases(name, text, seed=31))
    broken = []
    for case, mutated in cases:
        path.write_text(mutated, encoding="utf-8", newline="")
        try:
            code = main(argv(name, path, tmp_path))
        except Exception as exc:  # a traceback breaks the contract
            broken.append(f"{case}: {type(exc).__name__}: {exc}")
            continue
        if code not in CONTRACT_CODES:
            broken.append(f"{case}: exit {code}")
    capsys.readouterr()
    assert not broken, "\n".join(broken)
