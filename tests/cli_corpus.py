"""A committed corpus of CLI behaviour: the jobs, their runner, and the
comparison of a run against the manifest.

Each job runs through `holeburn.cli.main` in one working directory, in
order, so later jobs read what earlier, seeded ones wrote; every path is
relative to that directory.  A job's record holds its exit code, stdout,
stderr and every file it wrote or changed, as text.
`tests/test_cli_corpus.py` replays the jobs and compares them with the
committed manifest.  To regenerate the manifest after a deliberate
behaviour change (and name each moved job, and why, in CHANGES.md):

    PYTHONPATH=src python tests/cli_corpus.py

which first prints every way the fresh run departs from the committed
manifest, byte for byte, and then writes the new one.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent / "data" / "cli_corpus.json"

# Floats compare within this relative bound: numpy's SIMD kernels differ
# by CPU, and with AVX-512 off a simulate cell moved by 3.1e-16 and a
# trap fit's B by 6.4e-14 relative.
FLOAT_REL = 1e-13

POWERS = "2e-6,4e-6,8e-6,13e-6,21e-6,29e-6,44e-6"
CURVES = [f"curves/decay_{p}uW.csv" for p in (2, 4, 8, 13, 21, 29, 44)]

# Config files `run_jobs` writes into the job directory before the first
# job: a setup that moves three values the decay path reads off their
# defaults, and one that sets the removed [beam] power_w key.
CONFIGS = {
    "setup.ini": "[material]\nsat_intensity_w_per_m2 = 1.68e7\n\n"
                 "[beam]\nfocus_fwhm_m = 1.2e-6\n\n[scale]\nscale_a = 0.25\n",
    "beam_power.ini": "[beam]\npower_w = 2e-5\n",
}
CONFIG_CURVES = [f"curves_config/decay_{p}uW.csv" for p in (4, 13, 29)]

JOBS = [
    ["simulate", "--power-w", "2e-6", "--out", "sim_2uW.csv"],
    ["simulate", "--power-w", "20e-6", "--out", "sim_20uW.csv"],
    ["simulate", "--power-w", "44e-6", "--out", "sim_44uW.csv"],
    ["simulate", "--power-w", "20e-6", "--tol", "0", "--out",
     "sim_tol0.csv"],
    ["gen", "decay", "--powers", POWERS, "--noise", "poisson", "--seed", "7",
     "--out", "curves"],
    ["fit", "trap", *CURVES, "--out", "trap.json"],
    ["gen", "decay", "--power-w", "20e-6", "--tol", "0", "--noise",
     "poisson", "--seed", "11", "--out", "decay_single.csv"],
    ["fit", "trap", "decay_single.csv", "--out", "trap_single.json"],
    ["gen", "holescan", "--n-points", "400", "--aom-off", "0:40",
     "--power-slope", "0.2", "--fluor-offset", "120", "--power-offset", "33",
     "--noise", "poisson", "--seed", "3", "--out", "scan.csv"],
    ["fit", "hole", "--scan", "scan.csv", "--treated-out", "treated.csv",
     "--out", "hole.json"],
    ["fit", "hole", "--scan", "scan.csv", "--aom-off", "auto",
     "--treated-out", "treated_auto.csv", "--out", "hole_auto.json"],
    ["fit", "hole", "--scan", "scan.csv", "--aom-off", "0:40",
     "--treated-out", "treated_explicit.csv", "--out", "hole_explicit.json"],
    ["gen", "holedecay", "--offset", "0.05", "--noise", "gaussian",
     "--gaussian-sigma", "0.01", "--seed", "5", "--out", "holedecay.csv"],
    ["fit", "expdecay", "--series", "holedecay.csv", "--out",
     "expdecay.json"],
    ["fit", "linear", "--points", "holedecay.csv", "--x-column",
     "wait_time_s", "--y-column", "area", "--out", "linear.json"],
    ["zeeman", "--delta-f", "1e6,5e6,2e7", "--out", "zeeman.csv"],
    # exit 2: a treated scan is not a raw scan
    ["fit", "hole", "--scan", "treated.csv", "--out", "refused.json"],
    # exit 3: three doublings cannot meet the tolerance
    ["simulate", "--t-end", "5", "--n-t", "3", "--tol", "1e-16",
     "--out", "unconverged.csv"],
    # exit 4: a scan with no hole
    ["gen", "holescan", "--n-points", "400", "--depth", "0",
     "--noise", "poisson", "--seed", "4", "--out", "flat.csv"],
    ["fit", "hole", "--scan", "flat.csv", "--out", "flat.json"],
    # the decay path on a non-default setup
    ["--config", "setup.ini", "simulate", "--power-w", "20e-6", "--out",
     "sim_config.csv"],
    ["--config", "setup.ini", "gen", "decay", "--powers", "4e-6,13e-6,29e-6",
     "--noise", "poisson", "--seed", "13", "--out", "curves_config"],
    ["--config", "setup.ini", "fit", "trap", *CONFIG_CURVES, "--out",
     "trap_config.json"],
    # exit 2: the power is a flag, not a config key
    ["--config", "beam_power.ini", "simulate", "--out", "beam_power.csv"],
]

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

# The change a refinement prints is a difference of two rules that agree
# to rounding, so its digits move with the CPU dispatch: the tolerance
# tier masks it, and the exact tier compares it.
_ROUNDING = re.compile(r"((?:rel|last) change) [-+.\deE]+")


def platform():
    """The numpy version and the SIMD dispatch targets this CPU runs."""
    import numpy as np
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {"numpy": np.__version__,
            "cpu_dispatch": [name for name in umath.__cpu_dispatch__
                             if umath.__cpu_features__.get(name)]}


def _snapshot(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_jobs(root):
    """The record of each job in JOBS, run in order in directory `root`
    after CONFIGS are written there."""
    from holeburn.cli import main
    root, records = Path(root), []
    for name, text in CONFIGS.items():
        (root / name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in JOBS:
            before = _snapshot(root)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(list(argv))
            files = {name: data.decode("utf-8")
                     for name, data in _snapshot(root).items()
                     if before.get(name) != data}
            records.append({"argv": argv, "exit": code,
                            "stdout": out.getvalue(),
                            "stderr": err.getvalue(), "files": files})
    finally:
        os.chdir(cwd)
    return records


def _texts(record):
    """(label, text) of every stream and file of a job's record."""
    yield "stdout", record["stdout"]
    yield "stderr", record["stderr"]
    for name, text in record["files"].items():
        yield name, text


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def text_differences(expected, actual):
    """Where `actual` departs from `expected`: its text between numbers
    and its integers must be equal, and its floats within FLOAT_REL."""
    want, got = _NUMBER.split(expected), _NUMBER.split(actual)
    if want != got:
        line = next((i + 1 for i, (a, b) in enumerate(itertools.zip_longest(
            expected.splitlines(), actual.splitlines(), fillvalue=""))
            if _NUMBER.split(a) != _NUMBER.split(b)), "end")
        return [f"line {line}: text differs"]
    problems = []
    for a, b in zip(_NUMBER.findall(expected), _NUMBER.findall(actual)):
        if not re.search(r"[.eE]", a + b):
            if a != b:
                problems.append(f"integer {b} != {a}")
        elif abs(float(a) - float(b)) > FLOAT_REL * max(abs(float(a)),
                                                        abs(float(b))):
            problems.append(f"float {b} != {a}")
    return problems


def differences(manifest, records, exact):
    """Every way `records` departs from the manifest's jobs; with `exact`,
    each stream and file must also hash as recorded."""
    jobs = {" ".join(job["argv"]): job for job in manifest["jobs"]}
    ran = {" ".join(record["argv"]): record for record in records}
    problems = [f"{name}: not in the manifest" for name in ran
                if name not in jobs]
    problems += [f"{name}: did not run" for name in jobs if name not in ran]
    if [n for n in jobs if n in ran] != [n for n in ran if n in jobs]:
        problems.append("the jobs ran in another order")
    for name, record in ran.items():
        job = jobs.get(name)
        if job is None:
            continue
        if job["exit"] != record["exit"]:
            problems.append(f"{name}: exit {record['exit']} != {job['exit']}")
        if sorted(job["files"]) != sorted(record["files"]):
            problems.append(f"{name}: wrote {sorted(record['files'])}, "
                            f"not {sorted(job['files'])}")
            continue
        for label, text in _texts(record):
            want = job[label] if label in ("stdout", "stderr") \
                else job["files"][label]
            if not exact:
                want, text = (_ROUNDING.sub(r"\1 ~", s) for s in (want, text))
            problems += [f"{name}: {label}: {p}"
                         for p in text_differences(want, text)]
            if exact and job["sha256"][label] != _sha256(text):
                problems.append(f"{name}: {label}: hash differs")
    return problems


def build_manifest(records):
    for record in records:
        record["sha256"] = {label: _sha256(text)
                            for label, text in _texts(record)}
    return {**platform(), "jobs": records}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = run_jobs(tmp)
    committed = json.loads(MANIFEST.read_text(encoding="utf-8"))
    for problem in differences(committed, records, exact=True):
        print(f"moved: {problem}", file=sys.stderr)
    manifest = build_manifest(records)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(manifest['jobs'])} jobs -> {MANIFEST}",
          file=sys.stderr)
