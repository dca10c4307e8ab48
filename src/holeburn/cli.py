"""Command-line front end: simulate, fit, zeeman tables, fixture generation.

Exit codes are a stable contract: 0 success, 2 input or configuration
error, 3 integration non-convergence, 4 fit failure.  A job whose output
names a file it reads or its other output exits 2 before it runs
(`_check_paths`).  `_write_fit` writes
every fit report (command, input, the record's fields, config) and exits 4
when the record leaves a parameter unresolved; a fit that raises FitError
gets a report of the error, its diagnostics and the config, and exits 4.

`main(argv)` returns the exit code and leaves the cyclic GC as it found
it.  `main()` with no argv, which the `holeburn` script and `python -m
holeburn.cli` call, owns the process: it runs `sys.argv[1:]` with the
cyclic GC off, flushes stdout and stderr and ends with `os._exit`, so no
job pays for tearing the interpreter down.  Nothing is lost at that exit:
every file is written whole and closed before the job returns, and
`holeburn` registers no `atexit` handler.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import re
import sys
from pathlib import Path

from . import _deferred, csvio
from .config import load_config
from .csvio import write_signal_csv
from .errors import ConvergenceError, FitError, _check_within

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3
EXIT_FITFAIL = 4

# The handlers call these through this module's globals (see _deferred).
refine_until_converged = _deferred("integrator", "refine_until_converged")
fit_trap_model = _deferred("fitting", "fit_trap_model")
fit_hole_lorentzian = _deferred("fitting", "fit_hole_lorentzian")
fit_exponential = _deferred("lifetime", "fit_exponential")
fit_linear_ci = _deferred("linefit", "fit_linear_ci")


def _parse_range(text):
    try:
        a, _, b = text.partition(":")
        return int(a), int(b)
    except ValueError:
        raise ValueError(f"range must look like start:stop, got '{text}'") from None


def _parse_floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _count(text):
    """A number of samples: an integer of at least 1."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def _noise_from_args(args):
    from .synth import NoiseSpec
    if args.gaussian_sigma != 0 and args.noise != "gaussian":
        raise ValueError(f"--gaussian-sigma {args.gaussian_sigma:g} sets "
                         f"nothing without --noise gaussian")
    return NoiseSpec(kind=args.noise, seed=args.seed,
                     gaussian_sigma=args.gaussian_sigma)


def _time_grid(args):
    """`--n-t` times from 0 to `--t-end`, or one sample when t-end is 0."""
    import numpy as np
    if not 0 <= args.t_end < np.inf:
        raise ValueError("t-end must be nonnegative and finite")
    if args.t_end == 0:
        return np.array([0.0])
    return np.linspace(0.0, args.t_end, args.n_t)


def _check_paths(args):
    """ValueError when an output (`--out`, `--treated-out`) names a file
    the job reads or another output: the job would overwrite it."""
    names = {}
    for dest in ("config", "curves", "scan", "series", "points", "out",
                 "treated_out"):
        paths = getattr(args, dest, None)
        flag = "a curve" if dest == "curves" else "--" + dest.replace("_", "-")
        for path in paths if isinstance(paths, list) else [paths]:
            if path is None:
                continue
            key = os.path.realpath(path)
            if key in names and dest in ("out", "treated_out"):
                raise ValueError(f"{flag} and {names[key]} both name {path}")
            names.setdefault(key, flag)


def _command(args) -> str:
    """The subcommand as typed: "simulate", "fit trap", "gen decay", ..."""
    sub = getattr(args, f"{args.command}_command", None)
    return f"{args.command} {sub}" if sub else args.command


def _report(args, cfg, payload) -> dict:
    return {"command": _command(args), **payload, "config": cfg.to_dict()}


def _write_fit(args, cfg, source, fit, summary) -> int:
    """Write the report of `fit` on `source`, a path or a list of them; exit
    4 naming its unresolved parameters, if any, else print `summary(fit)`."""
    key = "inputs" if isinstance(source, list) else "input"
    csvio.write_report(args.out, _report(args, cfg, {
        key: source, **dataclasses.asdict(fit)}))
    unresolved = getattr(fit, "unresolved", [])
    if unresolved:
        print(f"error: {_command(args)}: unresolved {', '.join(unresolved)} "
              f"-> {args.out}", file=sys.stderr)
        return EXIT_FITFAIL
    print(f"{_command(args)}: {summary(fit)} -> {args.out}")
    return EXIT_OK


def _cmd_simulate(args, cfg):
    from .integrator import scaled_signal
    from .model import BeamGeometry
    t_grid = _time_grid(args)
    geom = BeamGeometry.for_material(cfg.material, power=args.power_w,
                                     focus_fwhm=cfg.focus_fwhm)
    result = refine_until_converged(t_grid, cfg.material, geom,
                                    args.gamma_trap, rel_tol=args.tol)
    scaled = scaled_signal(result.values, cfg.scale_a, cfg.background_b,
                           args.power_w)
    write_signal_csv(args.out, t_grid, result.values, scaled)
    change = ("n/a" if result.achieved_rel_change is None
              else f"{result.achieved_rel_change:.2e}")
    print(f"simulate: wrote {args.out} "
          f"({result.domain.n_points} nodes, rel change {change})")
    return EXIT_OK


def _cmd_fit_trap(args, cfg):
    curves = []
    for path in args.curves:
        curve = csvio.read_decay_curve(path)
        if curve.power_w is None:
            raise ValueError(f"{path}: curve metadata lacks power_w")
        if not curve.time_s.size:
            raise ValueError(f"{path}: the curve has no data rows")
        curves.append(curve)
    result = fit_trap_model(curves, cfg.material, focus_fwhm=cfg.focus_fwhm)
    return _write_fit(args, cfg, list(args.curves), result, lambda fit: (
        f"gamma_trap = {fit.gamma_trap_per_s:.4g} /s, "
        f"B = {fit.background_b_counts_per_w:.4g} counts/W"))


def _cmd_fit_hole(args, cfg):
    from . import pipeline
    aom_off = args.aom_off or None
    if aom_off not in (None, "auto"):
        aom_off = _parse_range(aom_off)
    scan = csvio.read_raw_scan(args.scan, aom_off_range=aom_off)
    subtracted = pipeline.subtract_background(scan)
    normalized = pipeline.normalize_by_power(subtracted)
    if args.treated_out:
        csvio.write_treated_scan(args.treated_out, subtracted, normalized)
    keep = normalized.included
    fit = fit_hole_lorentzian(normalized.freq[keep], normalized.signal[keep])
    return _write_fit(args, cfg, args.scan, fit, lambda fit: (
        f"fwhm = {fit.fwhm_hz / 1e6:.3g} MHz, "
        f"hom linewidth = {fit.hom_linewidth_hz / 1e6:.3g} MHz"))


def _cmd_fit_expdecay(args, cfg):
    t, y, _ = csvio.read_xy(args.series, "wait_time_s", "area")
    fit = fit_exponential(t, y, with_offset=not args.no_offset)
    return _write_fit(args, cfg, args.series, fit,
                      lambda fit: f"tau = {fit.tau_s:.4g} s")


def _cmd_fit_linear(args, cfg):
    if args.x_column == args.y_column:
        raise ValueError(f"--x-column and --y-column both name '{args.x_column}'")
    x, y, _ = csvio.read_xy(args.points, args.x_column, args.y_column)
    fit = fit_linear_ci(x, y, confidence=args.confidence)
    return _write_fit(args, cfg, args.points, fit, lambda fit: (
        f"slope = {fit.slope:.4g} +- {fit.slope_ci:.2g} "
        f"({fit.confidence:.0%} CI)"))


def _cmd_zeeman(args, cfg):
    from . import zeeman
    deltas = _parse_floats(args.delta_f) if args.delta_f else []
    results = [zeeman.resonance_fields(df, cfg.zeeman) for df in deltas]
    names = [f.name for f in dataclasses.fields(zeeman.ResonanceFields)]
    csvio.write_table(args.out, ["delta_f_hz", *(f"{n}_t" for n in names)],
                      [deltas, *([getattr(r, n) for r in results]
                                 for n in names)])
    print(f"zeeman: wrote {len(deltas)} rows -> {args.out}")
    return EXIT_OK


def _cmd_gen_decay(args, cfg):
    from . import synth
    noise = _noise_from_args(args)
    t_grid = _time_grid(args)
    # A single curve is the batch of one: it gets noise stream 0.
    powers = _parse_floats(args.powers) if args.powers else [args.power_w]
    curves = synth.gen_decay_batch(cfg.material, args.gamma_trap,
                                   cfg.scale_a, cfg.background_b, powers,
                                   t_grid, noise, cfg.focus_fwhm,
                                   refine_tol=args.tol)
    if args.powers:
        # Files are named by the power in uW to 6 digits, so two powers that
        # print alike would write one file.
        names = {}
        for p0 in powers:
            name = f"decay_{p0 * 1e6:g}uW.csv"
            if name in names:
                raise ValueError(f"--powers {names[name]!r} and {p0!r} would "
                                 f"both be written to {name}")
            names[name] = p0
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, curve in zip(names, curves):
            csvio.write_decay_curve(out_dir / name, curve)
        print(f"gen decay: wrote {len(powers)} curves -> {out_dir}")
    else:
        csvio.write_decay_curve(args.out, curves[0])
        print(f"gen decay: wrote {args.out}")
    return EXIT_OK


def _cmd_gen_holescan(args, cfg):
    import numpy as np

    from . import synth
    noise = _noise_from_args(args)
    _check_within(f_min=args.f_min, f_max=args.f_max)
    freq = np.linspace(args.f_min, args.f_max, args.n_points)
    scan = synth.gen_hole_scan(freq, args.baseline, args.depth, args.center,
                               args.fwhm, args.power_level,
                               _parse_range(args.aom_off),
                               power_slope=args.power_slope,
                               fluor_offset=args.fluor_offset,
                               power_offset=args.power_offset, noise=noise)
    csvio.write_raw_scan(args.out, scan)
    print(f"gen holescan: wrote {args.out}")
    return EXIT_OK


def _cmd_gen_holedecay(args, cfg):
    import numpy as np

    from . import synth
    noise = _noise_from_args(args)
    _check_within(0.0, wait_max=args.wait_max)
    waits = np.linspace(0.0, args.wait_max, args.n_points)
    areas = synth.gen_hole_decay_series(args.tau, args.offset, waits, noise,
                                        amplitude=args.amplitude)
    csvio.write_table(args.out, ["wait_time_s", "area"], [waits, areas],
                      meta={"tau_s": args.tau, "offset": args.offset,
                            "amplitude": args.amplitude, **noise.meta()})
    print(f"gen holedecay: wrote {args.out}")
    return EXIT_OK


def _add_decay_args(parser):
    parser.add_argument("--power-w", type=float, default=20e-6)
    parser.add_argument("--gamma-trap", type=float, default=7e4)
    parser.add_argument("--t-end", type=float, default=200.0)
    parser.add_argument("--n-t", type=_count, default=81)
    parser.add_argument("--tol", type=float, default=5e-3,
                        help="relative change of S(t) that ends grid "
                             "refinement (0 evaluates the rule once)")


def _add_noise_args(parser):
    parser.add_argument("--noise", choices=["none", "poisson", "gaussian"],
                        default="none")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--gaussian-sigma", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holeburn",
        description="Trapping-decay simulation and spectral-hole analysis")
    parser.add_argument("--config", default=None,
                        help="INI config file (defaults when omitted)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate the detected decay signal")
    _add_decay_args(p)
    p.add_argument("--out", default="signal.csv")
    p.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="least-squares fits").add_subparsers(
        dest="fit_command", required=True)

    p = fit.add_parser("trap", help="multi-curve trapping-rate fit")
    p.add_argument("curves", nargs="+", help="decay-curve CSV files")
    p.add_argument("--out", default="trap_fit.json")
    p.set_defaults(func=_cmd_fit_trap)

    p = fit.add_parser("hole", help="treat a raw scan and fit the hole")
    p.add_argument("--scan", required=True)
    p.add_argument("--aom-off", default=None, metavar="START:STOP",
                   help="off-segment indices; 'auto' applies a heuristic "
                        "detection from the power trace")
    p.add_argument("--out", default="hole_fit.json")
    p.add_argument("--treated-out", default=None)
    p.set_defaults(func=_cmd_fit_hole)

    p = fit.add_parser("expdecay", help="exponential hole-lifetime fit")
    p.add_argument("--series", required=True)
    p.add_argument("--no-offset", action="store_true")
    p.add_argument("--out", default="expdecay_fit.json")
    p.set_defaults(func=_cmd_fit_expdecay)

    p = fit.add_parser("linear", help="linear fit with confidence interval")
    p.add_argument("--points", required=True)
    p.add_argument("--x-column", default="x")
    p.add_argument("--y-column", default="y")
    p.add_argument("--confidence", type=float, default=0.80,
                   help="slope CI level, in (0, 1)")
    p.add_argument("--out", default="linear_fit.json")
    p.set_defaults(func=_cmd_fit_linear)

    p = sub.add_parser("zeeman", help="resonance-field table")
    p.add_argument("--delta-f", default="",
                   help="comma-separated laser frequency separations [Hz]")
    p.add_argument("--out", default="zeeman.csv")
    p.set_defaults(func=_cmd_zeeman)

    gen = sub.add_parser("gen", help="synthetic fixtures").add_subparsers(
        dest="gen_command", required=True)

    p = gen.add_parser("decay", help="synthetic decay curve(s)")
    _add_decay_args(p)
    p.add_argument("--powers", default=None,
                   help="comma-separated powers [W] for a batch")
    p.add_argument("--out", default="decay.csv",
                   help="output file, or directory for a batch")
    _add_noise_args(p)
    p.set_defaults(func=_cmd_gen_decay)

    p = gen.add_parser("holescan", help="synthetic raw hole scan")
    p.add_argument("--f-min", type=float, default=-100e6)
    p.add_argument("--f-max", type=float, default=100e6)
    p.add_argument("--n-points", type=_count, default=5000)
    p.add_argument("--baseline", type=float, default=1.0)
    p.add_argument("--depth", type=float, default=0.4)
    p.add_argument("--center", type=float, default=-50e6)
    p.add_argument("--fwhm", type=float, default=6e6)
    p.add_argument("--power-level", type=float, default=1000.0)
    p.add_argument("--power-slope", type=float, default=0.0)
    p.add_argument("--fluor-offset", type=float, default=0.0)
    p.add_argument("--power-offset", type=float, default=0.0)
    p.add_argument("--aom-off", default="0:100", metavar="START:STOP")
    p.add_argument("--out", default="holescan.csv")
    _add_noise_args(p)
    p.set_defaults(func=_cmd_gen_holescan)

    p = gen.add_parser("holedecay", help="synthetic hole-area decay series")
    p.add_argument("--tau", type=float, default=0.072)
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--wait-max", type=float, default=0.5)
    p.add_argument("--n-points", type=_count, default=25)
    p.add_argument("--out", default="holedecay.csv")
    _add_noise_args(p)
    p.set_defaults(func=_cmd_gen_holedecay)

    return parser


# argparse reads a token that starts with '-' as an option unless it looks
# like a plain negative number, and that test misses exponents ('-6e7').
_NEGATIVE_EXPONENT = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


def _join_negative_values(argv):
    """Pass '--flag -6e7' as '--flag=-6e7', the form argparse accepts."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and out[-1] != "--"
                and "=" not in out[-1] and _NEGATIVE_EXPONENT.fullmatch(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _run(argv) -> int:
    """Run the job that `argv` names; return its exit code."""
    # No job gives OpenBLAS work, so its idle workers should sleep after
    # 2^4 cycles, not spin for 2^28 (~0.1 s of CPU) once numpy loads.
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(argv))
    try:
        _check_paths(args)
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except FitError as exc:
        # Only the fit subcommands raise it, and each has --out.
        print(f"error: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print(f"diagnostics: {exc.diagnostics}", file=sys.stderr)
        csvio.write_report(args.out, _report(args, cfg, {
            "error": str(exc), "diagnostics": exc.diagnostics}))
        return EXIT_FITFAIL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main(argv=None) -> int:
    """Run the job that `argv` names and return its exit code; with no
    `argv`, run `sys.argv[1:]` and end the process (module docstring)."""
    if argv is not None:
        return _run(argv)
    gc.disable()
    try:
        code = _run(sys.argv[1:])
    except SystemExit as exc:
        # argparse's exit: 0 after --help, 2 on a bad flag
        code = exc.code
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
