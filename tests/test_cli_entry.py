"""The two forms of `cli.main`.

`main()` with no argv, the form that the `holeburn` script and `python -m
holeburn.cli` run, owns its process: it runs `sys.argv[1:]` with the
cyclic GC off, flushes stdout and stderr and ends with `os._exit`.  A job
run that way must end as `sys.exit(main(argv))` ends it: the same exit
code, stdout, stderr and written files, byte for byte, with stdout read
through a pipe.  `main(argv)` returns its code and leaves the GC as it
found it.
"""

import gc
import shutil

import numpy as np
import pytest

from conftest import run_fresh
from holeburn import csvio
from holeburn.cli import main

# `main()` must end the process itself: returning to the caller would
# exit 99, which no job's code is.
FORMS = {
    "returned": "from holeburn.cli import main; sys.exit(main({argv!r}))",
    "owned": ("from holeburn.cli import main; "
              "sys.argv = ['holeburn', *{argv!r}]; main(); sys.exit(99)"),
    "module": ("import runpy; sys.argv = ['holeburn', *{argv!r}]; "
               "runpy.run_module('holeburn.cli', run_name='__main__', "
               "alter_sys=True); sys.exit(99)"),
}

# A child's stdout is a pipe, block-buffered unless PYTHONUNBUFFERED is
# set: only then can an unflushed line be lost at `os._exit`.
BUFFERED = {"PYTHONUNBUFFERED": None}

JOBS = {
    "simulate": (["simulate", "--t-end", "5", "--n-t", "3", "--tol", "0",
                  "--out", "s.csv"], 0),
    "simulate-nonconvergence": (["simulate", "--t-end", "5", "--n-t", "3",
                                 "--tol", "1e-16", "--out", "s.csv"], 3),
    "zeeman": (["zeeman", "--delta-f", "1e6,2e6"], 0),
    "fit-linear": (["fit", "linear", "--points", "points.csv"], 0),
    "fit-trap": (["fit", "trap", "decay.csv"], 0),
    "fit-hole-auto": (["fit", "hole", "--aom-off", "auto", "--scan",
                       "hole.csv", "--treated-out", "treated.csv"], 0),
    "fit-hole-no-hole": (["fit", "hole", "--scan", "flat.csv"], 4),
    "fit-expdecay-fit-error": (["fit", "expdecay", "--series", "line.csv"],
                               4),
    "gen-decay-batch": (["gen", "decay", "--t-end", "5", "--n-t", "3",
                         "--tol", "0", "--powers", "1e-5,2e-5", "--noise",
                         "poisson", "--out", "batch"], 0),
    "gen-holescan": (["gen", "holescan", "--n-points", "300", "--aom-off",
                      "0:30", "--noise", "poisson"], 0),
    "gen-holedecay": (["gen", "holedecay", "--noise", "gaussian",
                       "--gaussian-sigma", "0.01"], 0),
    "missing-file": (["fit", "linear", "--points", "missing.csv"], 2),
    "bad-flag": (["zeeman", "--bogus"], 2),
    "help": (["--help"], 0),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding every input file the jobs read."""
    root = tmp_path_factory.mktemp("inputs")
    x = np.linspace(0.0, 5.0, 10)
    csvio.write_table(root / "points.csv", ["x", "y"],
                      [x, 2 * x + 1 + np.sin(7 * x)])
    t = np.linspace(0.0, 0.5, 30)
    # areas on a straight line: no resolvable decay, a FitError
    csvio.write_table(root / "line.csv", ["wait_time_s", "area"],
                      [t, 3 - 0.5 * t])
    for argv in (["gen", "decay", "--n-t", "21", "--tol", "0",
                  "--out", "decay.csv"],
                 ["gen", "holescan", "--aom-off", "150:420", "--out",
                  "hole.csv"],
                 ["gen", "holescan", "--depth", "0", "--out", "flat.csv"]):
        argv[-1] = str(root / argv[-1])
        assert main(argv) == 0
    return root


def run_job(form, argv, inputs, workdir):
    """Run `argv` through `form` in a fresh interpreter in a copy of
    `inputs`; return (exit code, stdout, stderr, {file: bytes})."""
    shutil.copytree(inputs, workdir)
    code = f"import os, sys; os.chdir({str(workdir)!r}); "
    run = run_fresh(code + FORMS[form].format(argv=argv), env=BUFFERED)
    files = {str(p.relative_to(workdir)): p.read_bytes()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    return run.returncode, run.stdout, run.stderr, files


@pytest.mark.parametrize("job", JOBS)
def test_owned_entry_ends_as_main_returns(job, inputs, tmp_path):
    argv, expected = JOBS[job]
    returned = run_job("returned", argv, inputs, tmp_path / "returned")
    assert returned[0] == expected, returned[2]
    if expected == 0:
        # the job prints: a lost flush would show as an empty stdout
        assert returned[1]
    for form in ("owned", "module"):
        assert run_job(form, argv, inputs, tmp_path / form) == returned, form


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_with_argv_returns_and_keeps_the_gc_state(enabled, tmp_path):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["zeeman", "--delta-f", "1e6",
                     "--out", str(tmp_path / "z.csv")]) == 0
        assert gc.isenabled() is enabled
        assert main(["fit", "linear", "--points",
                     str(tmp_path / "missing.csv")]) == 2
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit) as exit_:
            main(["zeeman", "--bogus"])
        assert exit_.value.code == 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_owned_entry_runs_the_job_with_the_gc_off(tmp_path):
    # the job's end is seen through `os._exit`, which the entry calls last
    run = run_fresh(
        f"import gc, os, sys; os.chdir({str(tmp_path)!r}); exit = os._exit\n"
        "def seen(code):\n"
        "    print('gc enabled:', gc.isenabled(), flush=True)\n"
        "    exit(code)\n"
        "os._exit = seen\n"
        "from holeburn.cli import main\n"
        "sys.argv = ['holeburn', 'zeeman', '--delta-f', '1e6']\n"
        "main()")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "gc enabled: False"


def test_owned_entry_ends_an_uncaught_exception_as_python_does(tmp_path):
    run = run_fresh(
        f"import os, sys; os.chdir({str(tmp_path)!r})\n"
        "from holeburn import cli\n"
        "def fail(args, cfg):\n"
        "    raise RuntimeError('handler failed')\n"
        "cli._cmd_zeeman = fail\n"
        "sys.argv = ['holeburn', 'zeeman']\n"
        "cli.main()")
    assert run.returncode == 1
    assert run.stderr.startswith("Traceback")
    assert run.stderr.endswith("RuntimeError: handler failed\n")
