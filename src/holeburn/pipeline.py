"""Two-step treatment of raw hole scans and its error propagation.

A raw scan carries a fluorescence trace and a laser-power monitor trace,
both with a detector offset visible in the segment where the modulator was
off.  Treatment subtracts that offset from each channel and records it,
then divides fluorescence by power point by point.  Points of (near) zero
laser power are excluded rather than divided through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import _check_within, _samples

# Monitors never read exactly zero, so "laser off" means below this
# fraction of the maximum power reading.
ZERO_POWER_REL_THRESHOLD = 1e-3

# Fewest readings in a modulator-off segment `detect_aom_off_range` accepts.
_MIN_OFF_LENGTH = 8


class PipelineOrderError(RuntimeError):
    """A treatment step was applied out of order."""


@dataclass(frozen=True)
class RawScan:
    """Raw frequency scan: fluorescence and power traces plus metadata.

    aom_off_range is a half-open [start, stop) index interval marking the
    modulator-off segment that shows the detector background.  The three
    columns may be given as any 1-D sequences; they are checked by
    `errors._samples` and the range rule and held as float arrays.
    """

    freq: np.ndarray
    fluor_counts: np.ndarray
    power_monitor: np.ndarray
    aom_off_range: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        names = ("freq", "fluor_counts", "power_monitor")
        columns = _samples("freq and both traces",
                           *(getattr(self, name) for name in names))
        _check_within(**dict(zip(names, columns)))
        for name in names:
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        a, b = self.aom_off_range
        if not (0 <= a < b <= len(self.freq)):
            raise ValueError("aom_off_range must be a nonempty index interval "
                             "inside the trace")


@dataclass(frozen=True)
class NormalizedScan:
    """Power-normalized scan with zero-power points excluded."""

    freq: np.ndarray
    signal: np.ndarray
    excluded: np.ndarray

    @property
    def included(self) -> np.ndarray:
        return ~self.excluded


@dataclass(frozen=True)
class HoleArea:
    """Summed hole area with its propagated uncertainty.

    area/sigma_area are in signal-times-point units; the _hz variants are
    weighted by the recorded frequency step.
    """

    area: float
    sigma_area: float
    freq_step: float
    n_points: int

    @property
    def area_hz(self) -> float:
        return self.area * self.freq_step

    @property
    def sigma_area_hz(self) -> float:
        return self.sigma_area * self.freq_step


def detect_aom_off_range(power_monitor) -> tuple:
    """Heuristic: locate the modulator-off segment from the power trace.

    Picks the longest contiguous run of readings within 5% (of the trace
    spread) of the minimum level.  This is a convenience for scans whose
    off-segment index range was not recorded; prefer the explicit range
    when it is known, since a deep fluorescence hole cannot fool the
    power monitor but unusual power profiles can fool this guess.
    """
    (power,) = _samples("power trace", power_monitor,
                        min_points=_MIN_OFF_LENGTH)
    spread = max(power) - min(power)
    if spread == 0:
        raise ValueError("flat power trace: no off segment to detect")
    level = min(power) + 0.05 * spread

    best, run_start = None, None
    for i, flag in enumerate([v <= level for v in power] + [False]):
        if flag and run_start is None:
            run_start = i
        elif not flag and run_start is not None:
            if best is None or i - run_start > best[1] - best[0]:
                best = (run_start, i)
            run_start = None
    if best is None or best[1] - best[0] < _MIN_OFF_LENGTH:
        raise ValueError("no off segment of sufficient length found")
    return best


def subtract_background(scan: RawScan) -> RawScan:
    """Remove each channel's detector offset, estimated in the AOM-off segment,
    and record both in `meta` as `background_fluor` and `background_power`."""
    a, b = scan.aom_off_range
    fluor_bg = float(np.mean(scan.fluor_counts[a:b]))
    power_bg = float(np.mean(scan.power_monitor[a:b]))
    return replace(scan,
                   fluor_counts=scan.fluor_counts - fluor_bg,
                   power_monitor=scan.power_monitor - power_bg,
                   meta={**scan.meta, "background_fluor": fluor_bg,
                         "background_power": power_bg})


def normalize_by_power(scan: RawScan) -> NormalizedScan:
    """Divide fluorescence by laser power point by point.

    A point whose power is at most ZERO_POWER_REL_THRESHOLD of the peak
    |power|, or 8 ulp of the recorded power background (the rounding of
    the subtraction), is excluded; ValueError if every point is.  Then
    PipelineOrderError unless `meta` holds the record `subtract_background`
    writes (as text when read back from a file).
    """
    power_bg = float(scan.meta.get("background_power", 0.0))
    tol = max(ZERO_POWER_REL_THRESHOLD * float(np.max(np.abs(scan.power_monitor))),
              8 * math.ulp(power_bg))
    excluded = scan.power_monitor <= tol
    if np.all(excluded):
        raise ValueError("all points excluded: no usable laser power")
    if not {"background_fluor", "background_power"} <= scan.meta.keys():
        raise PipelineOrderError("background not subtracted: no record of it in meta")
    signal = np.full(len(scan.freq), np.nan)
    signal[~excluded] = scan.fluor_counts[~excluded] / scan.power_monitor[~excluded]
    return NormalizedScan(freq=scan.freq, signal=signal, excluded=excluded)


def hole_area_with_error(scan: NormalizedScan, baseline: float,
                         sigma_point: float) -> HoleArea:
    """Hole area as the summed dip below baseline, with sqrt-sum-of-squares error.

    It misses the Lorentzian tails beyond the window and in the AOM-off gap,
    so it reads low (0.969 of the true area, sigma 2.3x its scatter, over
    200 Poisson scans of a 6 MHz hole).  No CLI path uses it."""
    if not np.isfinite(baseline):
        raise ValueError("baseline must be finite")
    y = scan.signal[scan.included]
    n = int(y.size)
    area = float(np.sum(baseline - y))
    sigma_area = float(np.sqrt(n * sigma_point**2))
    f = scan.freq[scan.included]
    step = float(np.median(np.abs(np.diff(f)))) if f.size > 1 else 0.0
    return HoleArea(area=area, sigma_area=sigma_area, freq_step=step,
                    n_points=n)
