"""Two-step treatment of raw hole scans and its error propagation.

A raw scan carries a fluorescence trace and a laser-power monitor trace,
both with a detector offset visible in the segment where the modulator was
off.  Treatment subtracts that offset from each channel, then divides
fluorescence by power point by point.  Points of (near) zero laser power
are excluded rather than divided through.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# Monitors never read exactly zero, so "laser off" means below this
# fraction of the maximum power reading.
ZERO_POWER_REL_THRESHOLD = 1e-3

# Residual AOM-off level (relative to trace peak) above which a scan is
# treated as not background subtracted.  Laxer than the exclusion
# threshold so detector noise does not trigger false refusals.
_UNSUBTRACTED_REL_THRESHOLD = 1e-2

# Fewest readings in a modulator-off segment `detect_aom_off_range` accepts.
_MIN_OFF_LENGTH = 8

# Fewest usable points `point_rms` estimates the noise from.
_MIN_RMS_POINTS = 16


class PipelineOrderError(RuntimeError):
    """A treatment step was applied out of order."""


@dataclass(frozen=True)
class RawScan:
    """Raw frequency scan: fluorescence and power traces plus metadata.

    aom_off_range is a half-open [start, stop) index interval marking the
    modulator-off segment that shows the detector background.
    """

    freq: np.ndarray
    fluor_counts: np.ndarray
    power_monitor: np.ndarray
    aom_off_range: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.freq)
        if len(self.fluor_counts) != n or len(self.power_monitor) != n:
            raise ValueError("freq, fluor_counts and power_monitor must have "
                             "equal lengths")
        if not np.all(np.isfinite([self.freq, self.fluor_counts,
                                   self.power_monitor])):
            raise ValueError("freq and both traces must be finite")
        a, b = self.aom_off_range
        if not (0 <= a < b <= n):
            raise ValueError("aom_off_range must be a nonempty index interval "
                             "inside the trace")


@dataclass(frozen=True)
class NormalizedScan:
    """Power-normalized scan with zero-power points excluded."""

    freq: np.ndarray
    signal: np.ndarray
    excluded: np.ndarray
    meta: dict = field(default_factory=dict)

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
    power = np.asarray(power_monitor, dtype=float)
    if power.ndim != 1 or power.size < _MIN_OFF_LENGTH:
        raise ValueError("power trace too short for detection")
    spread = float(np.ptp(power))
    if spread == 0:
        raise ValueError("flat power trace: no off segment to detect")
    low = power <= np.min(power) + 0.05 * spread

    best, run_start = None, None
    for i, flag in enumerate(np.append(low, False)):
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
    """Remove each channel's detector offset, estimated in the AOM-off segment."""
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

    Requires the background to have been subtracted already (the AOM-off
    segment must average to about zero in both channels).  Points whose
    power reading is at the zero level are excluded from the result.
    """
    a, b = scan.aom_off_range
    power_peak = float(np.max(np.abs(scan.power_monitor)))
    if power_peak == 0:
        raise ValueError("power trace is identically zero")
    tol = ZERO_POWER_REL_THRESHOLD * power_peak
    fluor_peak = float(np.max(np.abs(scan.fluor_counts)))
    if abs(np.mean(scan.power_monitor[a:b])) > _UNSUBTRACTED_REL_THRESHOLD * power_peak \
            or abs(np.mean(scan.fluor_counts[a:b])) > \
            _UNSUBTRACTED_REL_THRESHOLD * max(fluor_peak, 1e-300):
        raise PipelineOrderError("background not subtracted: AOM-off segment "
                                 "does not average to zero")

    excluded = scan.power_monitor <= tol
    if np.all(excluded):
        raise ValueError("all points excluded: no usable laser power")
    signal = np.full(len(scan.freq), np.nan)
    signal[~excluded] = scan.fluor_counts[~excluded] / scan.power_monitor[~excluded]
    return NormalizedScan(freq=np.asarray(scan.freq, dtype=float),
                          signal=signal, excluded=excluded,
                          meta=dict(scan.meta))


def point_rms(scan: NormalizedScan) -> float:
    """Per-point RMS noise from a scan that contains no burned hole.

    The RMS is taken relative to the mean signal level over all included
    points, which is the baseline when no hole is present.
    """
    y = scan.signal[scan.included]
    if y.size < _MIN_RMS_POINTS:
        raise ValueError(f"need at least {_MIN_RMS_POINTS} usable points")
    baseline = float(np.mean(y))
    return float(np.sqrt(np.mean((y - baseline) ** 2)))


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
