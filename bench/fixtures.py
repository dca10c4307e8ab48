"""Seeded inputs for the benchmark workloads, written as the CLI reads them.

Every random draw comes from ``numpy.random.default_rng([seed, stream,
...])``, so one workload seed always yields byte-identical files.  The
ground truth of each fixture is returned next to its path; the files carry
it in their metadata comments as well, which the program ignores.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

GAMMA_TRAP = 7e4
SIMULATE_POWERS = (2e-6, 20e-6, 44e-6)
TRAP_POWERS = (2e-6, 4e-6, 8e-6, 13e-6, 21e-6, 29e-6, 44e-6)
N_TIMES = 81
T_END = 200.0
SCAN_POINTS = 2001
# Power-monitor level of a hole scan, in counts per point.  It sets the
# fitted width's relative standard error (about 0.8%), and so how small a
# width bias the run's pooled pull check can see.
SCAN_POWER_COUNTS = 1e4

# Stream numbers keep the workloads' random draws independent.
_SIMULATE, _TRAP, _HOLE = 1, 2, 3


def times() -> np.ndarray:
    """The 81 sample times of every decay curve and simulation [s]."""
    return np.linspace(0.0, T_END, N_TIMES)


def _write_csv(path: Path, meta: dict, header: str, columns) -> None:
    lines = [f"# {key} = {value}" for key, value in meta.items()]
    lines.append(header)
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_config(path: Path, phys: reference.Physics) -> Path:
    path.write_text(phys.config_ini(), encoding="utf-8")
    return path


def simulate_order(seed: int) -> list:
    """The three simulate powers in the seed's job order."""
    rng = np.random.default_rng([seed, _SIMULATE])
    return [SIMULATE_POWERS[i] for i in rng.permutation(len(SIMULATE_POWERS))]


@dataclass(frozen=True)
class TrapBatch:
    paths: list
    gamma_trap: float
    background_b: float


def write_trap_batches(out: Path, seed: int, phys: reference.Physics,
                       clean: dict, n_batches: int) -> list:
    """Independent Poisson draws of the seven-power batch.

    ``clean`` maps power to the noiseless count rate A S(t) + B P; counts
    are drawn per one-second bin, as the package's own generator does.
    """
    batches = []
    for b in range(n_batches):
        paths = []
        for i, power in enumerate(TRAP_POWERS):
            rng = np.random.default_rng([seed, _TRAP, b, i])
            counts = rng.poisson(clean[power]).astype(float)
            path = out / f"batch{b}_{power * 1e6:g}uW.csv"
            _write_csv(path, {"power_w": repr(power),
                              "gamma_trap_per_s": repr(GAMMA_TRAP),
                              "scale_a": repr(phys.scale_a),
                              "background_b_counts_per_w": repr(phys.background_b),
                              "noise": "poisson, 1 s bins"},
                       "time_s,counts_per_s", [times(), counts])
            paths.append(path)
        batches.append(TrapBatch(paths, GAMMA_TRAP, phys.background_b))
    return batches


@dataclass(frozen=True)
class HoleScan:
    path: Path
    aom_off: tuple
    fwhm: float


@dataclass(frozen=True)
class Session:
    explicit_scan: HoleScan
    auto_scan: HoleScan
    series: Path
    points: Path
    delta_f: list


def _hole_scan(path: Path, rng: np.random.Generator) -> HoleScan:
    """A raw 2001-point scan: power-scaled hole, detector offsets, AOM-off run.

    Fluorescence counts are Poisson; the power monitor is noiseless, as in
    the package's generator, so the off segment is unambiguous.
    """
    freq = np.linspace(-100e6, 100e6, SCAN_POINTS)
    # Width, depth and power vary little between seeds: they set the
    # fit's relative standard error, which is the session's gated accuracy.
    center = rng.uniform(-60e6, 60e6)
    fwhm = rng.uniform(5.8e6, 6.2e6)
    depth = rng.uniform(0.38, 0.42)
    slope = rng.uniform(-0.1, 0.1)
    fluor_offset = rng.uniform(80.0, 160.0)
    power_offset = rng.uniform(20.0, 40.0)
    n_off = int(rng.integers(80, 121))
    power = SCAN_POWER_COUNTS * (1 + slope * (freq - freq[0]) / np.ptp(freq))
    power[:n_off] = 0.0
    half = fwhm / 2
    response = 1.0 - depth * half**2 / ((freq - center) ** 2 + half**2)
    fluor = rng.poisson(response * power + fluor_offset).astype(float)
    _write_csv(path, {"aom_off_start": 0, "aom_off_stop": n_off,
                      "center_hz": repr(center), "fwhm_hz": repr(fwhm),
                      "depth": repr(depth)},
               "freq_hz,fluor_counts,power_counts",
               [freq, fluor, power + power_offset])
    return HoleScan(path, (0, n_off), fwhm)


def write_sessions(out: Path, seed: int, n_sessions: int) -> list:
    """Inputs of each hole-analysis session: two scans, a hole-area decay
    series, Zeeman-field points for a linear fit and laser separations."""
    sessions = []
    for s in range(n_sessions):
        rng = np.random.default_rng([seed, _HOLE, s])
        explicit = _hole_scan(out / f"session{s}_scan_a.csv", rng)
        auto = _hole_scan(out / f"session{s}_scan_b.csv", rng)

        waits = np.linspace(0.0, 0.5, 25)
        tau = rng.uniform(0.05, 0.1)
        offset = rng.uniform(0.02, 0.08)
        area = np.exp(-waits / tau) + offset + rng.normal(0.0, 0.01, waits.size)
        series = out / f"session{s}_series.csv"
        _write_csv(series, {"tau_s": repr(tau), "offset": repr(offset)},
                   "wait_time_s,area", [waits, area])

        field = np.linspace(0.0, 2e-3, 12)
        resonance = rng.uniform(30e6, 50e6) * field / 2e-3 + rng.normal(0.0, 1e5, field.size)
        points = out / f"session{s}_points.csv"
        _write_csv(points, {}, "x,y", [field, resonance])

        delta_f = [float(v) for v in rng.uniform(10e6, 60e6, 4)]
        sessions.append(Session(explicit, auto, series, points, delta_f))
    return sessions
