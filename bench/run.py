"""Benchmark of the holeburn command line: time to result and accuracy.

Usage, from the root of a checkout:

    python3 bench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

Workloads (one client, closed loop: each job starts after the previous
one exits, one job at a time):

* ``simulate``: ``holeburn simulate`` at 2, 20 and 44 uW, 81 times up to
  200 s, tol 5e-3.  Dominated by ``integrator.detected_signal``.
* ``trap-fit``: ``holeburn fit trap`` over seven-power Poisson batches made
  from this benchmark's infinite-limit reference.  Dominated by the
  simplex over the compressed decay model.
* ``hole-session``: short analysis jobs (two ``fit hole`` scans, one with
  ``--aom-off auto``, ``fit expdecay``, ``fit linear``, ``zeeman``).
  Dominated by ``import holeburn``.

A round is one pass over a workload's jobs.  An untraced run makes as
many rounds of CLI subprocesses (at least one) as take about ``--seconds``
on a 2-CPU machine, and reports end-to-end metrics; a traced run (``--trace 1``) runs one
round in this process with and without spans and reports per-layer
metrics.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _clamp_threads(env):
    """Cap every BLAS/OpenMP thread setting at the usable CPU count."""
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, NPROC))
        except ValueError:
            wanted = NPROC
        env[var] = str(min(max(wanted, 1), NPROC))


# Set before numpy loads, so this process and its children agree.
_clamp_threads(os.environ)

import numpy as np  # noqa: E402

import fixtures  # noqa: E402
import reference  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TRAP_BATCHES = 6
HOLE_SESSIONS = 2
# A fitted hole width further than this many of its own reported standard
# errors from the truth is a wrong answer, not noise.
HOLE_SIGMA_LIMIT = 5.0
# The pull of a hole fit is (fwhm - truth) / sigma.  Pooled over the N hole
# fits of a round, a mean pull beyond POOLED_PULL_LIMIT / sqrt(N) is a width
# bias, and fails every hole fit of the round.  Unbiased fits stay within
# it with probability 1 - 7e-6.
POOLED_PULL_LIMIT = 4.5
# Jobs still running this long after the start are killed, so that every
# run ends well within three minutes.
RUN_DEADLINE_S = 150.0
CLI_BOOT = "import sys; from holeburn.cli import main; sys.exit(main())"
# Wall time of one round of each workload on a 2-CPU machine.  A run makes
# round(seconds / ROUND_S) rounds (at least one), a number fixed by its
# arguments: the minimum over rounds that wall_s takes would otherwise read
# higher whenever a slow machine left time for fewer rounds.
ROUND_S = {"simulate": 13.0, "trap-fit": 27.0, "hole-session": 15.0}


class CheckError(RuntimeError):
    """A job's output is missing or wrong."""


@dataclass
class Job:
    name: str
    argv: list
    check: Callable[[], dict]
    outputs: tuple

    def clear_outputs(self):
        """Remove earlier outputs, so a job that writes nothing fails."""
        for path in self.outputs:
            Path(path).unlink(missing_ok=True)


@dataclass
class JobResult:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    figures: dict = field(default_factory=dict)
    error: str = ""


# --- workload set-up -------------------------------------------------------

def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: unreadable report ({exc})") from None


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _setup_simulate(seed, out, phys):
    config = fixtures.write_config(out / "run.ini", phys)
    t = fixtures.times()
    jobs = []
    for power in fixtures.simulate_order(seed):
        s_ref = reference.reference_signal(phys, power, t, fixtures.GAMMA_TRAP)
        csv = out / f"signal_{power * 1e6:g}uW.csv"

        def check(csv=csv, s_ref=s_ref, power=power):
            try:
                data = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
            except (OSError, ValueError) as exc:
                raise CheckError(f"{csv}: unreadable ({exc})") from None
            _require(data.shape == (fixtures.N_TIMES, 3),
                     f"{csv}: {data.shape[0]} rows, want {fixtures.N_TIMES}")
            _require(np.all(np.isfinite(data)), f"{csv}: non-finite values")
            _require(np.allclose(data[:, 0], t, rtol=0, atol=1e-12),
                     f"{csv}: wrong time column")
            scaled = phys.scale_a * data[:, 1] + phys.background_b * power
            _require(np.allclose(data[:, 2], scaled, rtol=1e-9),
                     f"{csv}: scaled column ignores the configured A and B")
            return {"s_rel_err": float(np.max(np.abs(data[:, 1] - s_ref) / s_ref))}

        jobs.append(Job(f"simulate {power * 1e6:g}uW",
                        ["--config", str(config), "simulate",
                         "--power-w", repr(power),
                         "--gamma-trap", repr(fixtures.GAMMA_TRAP),
                         "--t-end", repr(fixtures.T_END),
                         "--n-t", str(fixtures.N_TIMES), "--tol", "5e-3",
                         "--out", str(csv)], check, (csv,)))
    return jobs


def _setup_trap_fit(seed, out, phys):
    config = fixtures.write_config(out / "run.ini", phys)
    t = fixtures.times()
    clean = {p: phys.scale_a * reference.reference_signal(
                 phys, p, t, fixtures.GAMMA_TRAP)
             + phys.background_b * p for p in fixtures.TRAP_POWERS}
    jobs = []
    for b, batch in enumerate(fixtures.write_trap_batches(out, seed, phys, clean,
                                                          TRAP_BATCHES)):
        report = out / f"trap_fit{b}.json"

        def check(report=report, batch=batch):
            fit = _read_json(report)
            _require(fit.get("converged") is True, f"{report}: not converged")
            gamma = fit.get("gamma_trap_per_s", 0.0)
            _require(gamma > 0, f"{report}: gamma_trap {gamma} <= 0")
            _require(len(fit.get("scale_a", ())) == len(batch.paths),
                     f"{report}: wrong number of scale factors")
            return {"gamma_rel_err": abs(gamma - batch.gamma_trap) / batch.gamma_trap,
                    "b_rel_err": abs(fit["background_b_counts_per_w"]
                                     - batch.background_b) / batch.background_b}

        jobs.append(Job(f"fit trap batch{b}",
                        ["--config", str(config), "fit", "trap",
                         *map(str, batch.paths), "--out", str(report)], check,
                        (report,)))
    return jobs


def _check_hole(report, scan, session):
    fit = _read_json(report)
    _require(fit.get("converged") is True, f"{report}: not converged")
    _require(fit.get("hole_detected") is True, f"{report}: hole not detected")
    fwhm, sigma = fit.get("fwhm_hz", 0.0), fit.get("fwhm_err_hz", 0.0)
    _require(fwhm > 0 and sigma > 0, f"{report}: fwhm {fwhm} +- {sigma}")
    _require(abs(fwhm - scan.fwhm) <= HOLE_SIGMA_LIMIT * sigma,
             f"{report}: fwhm {fwhm:.6g} is {abs(fwhm - scan.fwhm) / sigma:.1f} "
             f"sigma from the true {scan.fwhm:.6g}")
    return {"fwhm_rel_err": abs(fwhm - scan.fwhm) / scan.fwhm,
            "fwhm_rel_sigma": sigma / fwhm, "fwhm_pull": (fwhm - scan.fwhm) / sigma,
            "session": session}


def _setup_hole_session(seed, out, phys):
    config = fixtures.write_config(out / "run.ini", phys)
    jobs = []
    for s, session in enumerate(fixtures.write_sessions(out, seed, HOLE_SESSIONS)):
        common = ["--config", str(config)]
        a, b = session.explicit_scan, session.auto_scan
        rep_a, rep_b = out / f"hole{s}_a.json", out / f"hole{s}_b.json"
        rep_exp, rep_lin = out / f"expdecay{s}.json", out / f"linear{s}.json"
        zee, treated = out / f"zeeman{s}.csv", out / f"treated{s}.csv"

        def check_exp(rep=rep_exp):
            fit = _read_json(rep)
            _require(fit.get("converged") is True, f"{rep}: not converged")
            _require(fit.get("tau_s", 0.0) > 0, f"{rep}: tau <= 0")
            return {}

        def check_lin(rep=rep_lin):
            fit = _read_json(rep)
            _require(np.isfinite(fit.get("slope", np.nan)), f"{rep}: no slope")
            _require(fit.get("slope_ci", 0.0) > 0, f"{rep}: no interval")
            return {}

        def check_zeeman(path=zee, deltas=session.delta_f):
            try:
                rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            except (OSError, ValueError) as exc:
                raise CheckError(f"{path}: unreadable ({exc})") from None
            _require(rows.shape[0] == len(deltas), f"{path}: wrong row count")
            df = np.asarray(deltas)
            _require(np.allclose(rows[:, 1], df / phys.g_ground, rtol=1e-12)
                     and np.allclose(rows[:, 2], df / (phys.g_ground + phys.g_excited),
                                     rtol=1e-12), f"{path}: wrong resonance fields")
            return {}

        jobs += [
            Job(f"fit hole session{s} explicit",
                [*common, "fit", "hole", "--scan", str(a.path),
                 "--aom-off", f"{a.aom_off[0]}:{a.aom_off[1]}",
                 "--treated-out", str(treated), "--out", str(rep_a)],
                lambda rep=rep_a, scan=a, s=s: _check_hole(rep, scan, s), (rep_a, treated)),
            Job(f"fit hole session{s} auto",
                [*common, "fit", "hole", "--scan", str(b.path), "--aom-off", "auto",
                 "--out", str(rep_b)],
                lambda rep=rep_b, scan=b, s=s: _check_hole(rep, scan, s), (rep_b,)),
            Job(f"fit expdecay session{s}",
                [*common, "fit", "expdecay", "--series", str(session.series),
                 "--out", str(rep_exp)], check_exp, (rep_exp,)),
            Job(f"fit linear session{s}",
                [*common, "fit", "linear", "--points", str(session.points),
                 "--out", str(rep_lin)], check_lin, (rep_lin,)),
            Job(f"zeeman session{s}",
                [*common, "zeeman", "--delta-f", ",".join(map(repr, session.delta_f)),
                 "--out", str(zee)], check_zeeman, (zee,)),
        ]
    return jobs


SETUPS = {"simulate": _setup_simulate, "trap-fit": _setup_trap_fit,
          "hole-session": _setup_hole_session}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def warm_up(env):
    """One fresh ``import holeburn``, which also writes the bytecode cache.

    A failing import is not raised here: every job then fails and is
    counted."""
    subprocess.run([sys.executable, "-c", "import holeburn"], env=env,
                   cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def setup(workload, seed, out, env):
    """Write the fixtures and reference of one round, then warm up."""
    out.mkdir(parents=True, exist_ok=True)
    jobs = SETUPS[workload](seed, out, reference.Physics())
    warm_up(env)
    return jobs


# --- running jobs ----------------------------------------------------------

def _checked(job: Job, wall, cpu, rss_mb, code) -> JobResult:
    result = JobResult(job.name, wall, cpu, rss_mb, False)
    if code != 0:
        result.error = f"exit code {code}"
        return result
    try:
        result.figures = job.check()
        result.ok = True
    except CheckError as exc:
        result.error = str(exc)
    return result


def run_job(job: Job, env, log, deadline) -> JobResult:
    """Run one CLI job as a subprocess; time it, read its CPU time (user
    plus system) and max RSS.

    A job still running at ``deadline`` (a ``perf_counter`` value) is
    killed and counts as failed, so a hung program cannot hold the run.
    """
    job.clear_outputs()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CLI_BOOT, *job.argv], env=env,
                            cwd=ROOT, stdout=log, stderr=log)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return _checked(job, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode)


def run_in_process(job: Job, main, log, span=nullcontext) -> JobResult:
    """Run one CLI job through ``main``; ``span`` wraps only that call."""
    job.clear_outputs()
    start = time.perf_counter()
    with redirect_stdout(log), span():
        code = main(job.argv)
    return _checked(job, time.perf_counter() - start, 0.0, 0.0, code)


# --- figures ---------------------------------------------------------------

def check_pooled_pull(results):
    """Fail every hole fit of a round whose mean pull shows a width bias.

    Returns the mean pull, or None for a round without hole fits."""
    holes = [r for r in results if r.ok and "fwhm_pull" in r.figures]
    if not holes:
        return None
    mean_pull = statistics.fmean(r.figures["fwhm_pull"] for r in holes)
    if abs(mean_pull) > POOLED_PULL_LIMIT / len(holes) ** 0.5:
        for r in holes:
            r.ok = False
            r.error = (f"mean width pull {mean_pull:.2f} over {len(holes)} hole "
                       f"fits exceeds {POOLED_PULL_LIMIT} / sqrt({len(holes)})")
    return mean_pull


def accuracy(workload, first_round):
    """The workload's accuracy figures as (value, unit, samples), from the
    first pass over its inputs; later rounds repeat the same inputs."""
    figs = [r.figures for r in first_round]

    def values(key):
        return [f[key] for f in figs if key in f]

    def summary(reduce, vals, unit="ratio"):
        return (reduce(vals) if vals else None, unit, len(vals))

    if workload == "simulate":
        return {"s_rel_err": summary(max, values("s_rel_err"))}
    if workload == "trap-fit":
        return {"gamma_rel_err": summary(statistics.fmean, values("gamma_rel_err")),
                "b_rel_err": summary(statistics.fmean, values("b_rel_err"))}
    sessions = {}
    for f in figs:
        if "session" in f:
            sessions.setdefault(f["session"], []).append(f["fwhm_rel_err"])
    return {"fwhm_rel_err": summary(statistics.median,
                                    [max(errs) for errs in sessions.values()]),
            "fwhm_rel_sigma": summary(statistics.median, values("fwhm_rel_sigma")),
            "fwhm_mean_pull": summary(statistics.fmean, values("fwhm_pull"), "sigma")}


# The gated accuracy of each workload.  simulate and trap-fit carry a
# deterministic truncation bias, so their distance from the truth is
# steady across seeds.  A hole fit has no bias: its distance from the
# truth is a draw of the counting noise, so the gate uses the width's
# reported relative standard error instead.  HOLE_SIGMA_LIMIT checks each
# fit's distance against it, and POOLED_PULL_LIMIT the round's mean pull,
# so that a width bias fails the run.
ACCURACY = ("s_rel_err", "gamma_rel_err", "b_rel_err", "fwhm_rel_err",
            "fwhm_rel_sigma", "fwhm_mean_pull")
REL_ERR = {"simulate": "s_rel_err", "trap-fit": "gamma_rel_err",
           "hole-session": "fwhm_rel_sigma"}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def provenance(seed, env):
    return {"nproc": NPROC,
            "threads": {var: env[var] for var in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"), "seed": seed,
            "commit": git_commit()}


def import_times(env):
    """Wall time of fresh ``import holeburn`` interpreters, and the
    top cumulative entries of ``-X importtime``."""
    walls = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import holeburn"], env=env,
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import holeburn"], env=env, check=True, cwd=ROOT,
                          capture_output=True, text=True)
    rows = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)", line)
        if m:
            rows.append((int(m.group(2)), int(m.group(1)), m.group(4)))
    top = sorted(rows, reverse=True)[:12]
    return walls, [{"module": name, "cumulative_s": cum / 1e6, "self_s": own / 1e6}
                   for cum, own, name in top]


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def print_table(title, rows):
    print(title)
    for name, value, unit, n in rows:
        print(f"  {name:34s} {_fmt(value):>14s} {unit:6s} (n={n})")


# --- the two kinds of run --------------------------------------------------

def min_round(rounds, key):
    """Sum over a round's jobs of each job's fastest run across rounds.

    Load on a shared machine only ever slows a job down, so the minimum
    over repeats is the steadiest estimate of its cost."""
    return sum(min(key(rnd[i]) for rnd in rounds) for i in range(len(rounds[0])))


def untraced(workload, seed, seconds, out, env, deadline):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        jobs = setup(workload, seed, out, env)
        setups.append(time.perf_counter() - start)

    rounds = []
    with open(out / "jobs.log", "w", encoding="utf-8") as log:
        for _ in range(max(1, round(seconds / ROUND_S[workload]))):
            rounds.append([run_job(job, env, log, deadline) for job in jobs])
            check_pooled_pull(rounds[-1])

    results = [r for rnd in rounds for r in rnd]
    failed = [r for r in results if not r.ok]
    acc = accuracy(workload, rounds[0])
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (min_round(rounds, lambda r: r.wall_s), "s", len(results)),
        "cpu_s": (min_round(rounds, lambda r: r.cpu_s), "s", len(results)),
        "job_p50_s": (statistics.median(r.wall_s for r in results), "s", len(results)),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB", len(results)),
        "rel_err": acc[REL_ERR[workload]],
    }
    detail = {"failed_frac": (len(failed) / len(results), "ratio", len(results)),
              **{k: acc.get(k, (None, "ratio", 0)) for k in ACCURACY}}
    print_table(f"{workload} seed {seed}: end-to-end", [
        (k, *v) for k, v in {**metrics, **detail}.items()])
    print(json.dumps({"detail": {"workload": workload, "rounds": len(rounds),
                                 "round_jobs": len(jobs),
                                 "provenance": provenance(seed, env),
                                 "jobs": [[r.name, r.wall_s, r.cpu_s, r.rss_mb, r.ok]
                                          for r in results]}}))
    return results, {k: (v, unit) for k, (v, unit, _) in metrics.items()}


def traced(workload, seed, out, env):
    import tracing

    jobs = setup(workload, seed, out, env)
    walls, profile = import_times(env)

    sys.path.insert(0, str(SRC))
    import holeburn
    import holeburn.cli
    if Path(holeburn.__file__).resolve().parent != (SRC / "holeburn").resolve():
        raise SystemExit(f"imported holeburn from {holeburn.__file__}, not {SRC}")

    # Each job runs untraced and then traced, back to back, so that a drift
    # in machine speed shows as little as possible in the overhead.
    rec = tracing.Recorder()
    plain, spanned = [], []
    with open(out / "jobs_traced.log", "w", encoding="utf-8") as log:
        for i, job in enumerate(jobs):
            plain.append(run_in_process(job, holeburn.cli.main, log))
            restore = tracing.instrument(rec, holeburn)
            try:
                rec.job = i
                spanned.append(run_in_process(job, holeburn.cli.main, log,
                                              lambda: rec.span("cli")))
            finally:
                restore()
    check_pooled_pull(plain)
    check_pooled_pull(spanned)
    plain_wall = sum(r.wall_s for r in plain)
    traced_wall = sum(r.wall_s for r in spanned)

    (out / "spans.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "job"],
         "jobs": [job.name for job in jobs], "spans": rec.spans}), encoding="utf-8")
    layers = {"import.wall_s": statistics.median(walls),
              **tracing.layer_metrics(rec),
              "trace.untraced_wall_s": plain_wall,
              "trace.traced_wall_s": traced_wall,
              "trace.overhead_s": traced_wall - plain_wall}
    print_table(f"{workload} seed {seed}: per layer (one round, {len(rec.spans)} spans)",
                [(k, v, layer_unit(k), len(walls) if k == "import.wall_s" else len(jobs))
                 for k, v in layers.items()])
    print(json.dumps({"detail": {"workload": workload,
                                 "provenance": provenance(seed, env),
                                 "import_profile": profile}}))
    return plain + spanned, {k: (v, layer_unit(k)) for k, v in layers.items()}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if "bytes" in name:
        return "B"
    if "ns_per" in name:
        return "ns"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(SETUPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "holeburn" / "__init__.py").is_file():
        print(f"error: no holeburn sources under {SRC}", file=sys.stderr)
        return 2
    out = WORK / args.workload
    env = child_env()
    if args.trace:
        results, values = traced(args.workload, args.seed, out, env)
    else:
        results, values = untraced(args.workload, args.seed, args.seconds, out, env,
                                   started + RUN_DEADLINE_S)
    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"FAILED {r.name}: {r.error}", file=sys.stderr)
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
