"""Synthetic measurement generator with known ground truth.

The decay-curve and hole-scan generators embed their input parameters in
the record metadata, so a round-trip test can compare fitted values
against the truth that produced the data; `gen_hole_decay_series` returns
a bare array, and the `gen holedecay` command writes its truth beside it.
Randomness always comes from numpy's PCG64 generator seeded with (seed,
stream).  Only `gen_decay_batch` uses more than stream 0: curve i of a
batch draws from stream i.  `NoiseSpec.meta` records the noise in every
generated file, so the file alone reproduces identical data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import _FOCUS_FWHM
from .csvio import DecayCurve
from .errors import _MAX_MAGNITUDE, _check_within
from .fitting import lorentzian_hole
from .integrator import LevelSetRule, refine_until_converged, scaled_signal
from .lifetime import exp_decay
from .model import BeamGeometry, MaterialParams
from .pipeline import RawScan

_NOISE_KINDS = ("none", "poisson", "gaussian")

# The largest mean numpy's Poisson sampler takes (about 9.2e18).
_POISSON_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model: none, per-sample Poisson counts, or additive Gaussian."""

    kind: str = "none"
    seed: int = 0
    gaussian_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ValueError(f"kind must be one of {_NOISE_KINDS}")
        if not self.seed >= 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.kind == "gaussian":
            _check_within(0.0, gaussian_sigma=self.gaussian_sigma)

    def meta(self, stream: int = 0) -> dict:
        """The metadata that redraws this noise on `stream`: kind, seed,
        stream, generator and, for Gaussian noise, sigma."""
        meta = {"noise_kind": self.kind, "noise_seed": self.seed,
                "noise_stream": stream,
                "rng": "numpy PCG64, default_rng([seed, stream])"}
        if self.kind == "gaussian":
            meta["gaussian_sigma"] = self.gaussian_sigma
        return meta


def apply_noise(values, noise: NoiseSpec, stream: int = 0) -> np.ndarray:
    """Apply the configured noise to an array of signal values.

    Poisson mode draws integer counts with the sample value as the mean
    (one-second bins), so the relative fluctuation is 1/sqrt(value).
    Gaussian noise must leave every value within +-1e100.
    """
    values = np.asarray(values, dtype=float)
    if noise.kind == "none":
        return values.copy()
    rng = np.random.default_rng([noise.seed, stream])
    if noise.kind == "poisson":
        if not np.all((values >= 0) & (values <= _POISSON_MAX)):
            raise ValueError(f"--noise poisson takes means in [0, "
                             f"{_POISSON_MAX:.4g}], got {values.min():g} to "
                             f"{values.max():g}")
        return rng.poisson(values).astype(float)
    noisy = values + rng.normal(0.0, noise.gaussian_sigma, size=values.shape)
    _check_within(**{"the values with --gaussian-sigma noise": noisy})
    return noisy


def gen_decay_batch(material: MaterialParams, gamma_trap: float,
                    scale_a: float, background_b: float,
                    powers: Sequence[float], t_grid,
                    noise: NoiseSpec = NoiseSpec(),
                    focus_fwhm: float = _FOCUS_FWHM,
                    domain=None,
                    refine_tol: float = 0.0) -> list:
    """Simulate one decay curve per power, each on its own noise stream.

    Curve i is A * S(t) + B * P_i with counting noise from stream i, so a
    single curve is the batch of one on stream 0.  Ground truth
    (gamma_trap, A, B, noise settings) is stored in each curve's metadata.
    S(t) comes from `refine_until_converged` on `domain` at `refine_tol`,
    as in the simulate command, so the fixture matches its output; the
    default 0 evaluates the rule once.  `domain` None is `LevelSetRule()`,
    the rule the CLI and `fit_trap_model` use.
    """
    domain = LevelSetRule() if domain is None else domain
    curves = []
    for stream, p0 in enumerate(powers):
        geom = BeamGeometry.for_material(material, power=p0,
                                         focus_fwhm=focus_fwhm)
        result = refine_until_converged(t_grid, material, geom, gamma_trap,
                                        domain, rel_tol=refine_tol)
        counts = apply_noise(scaled_signal(result.values, scale_a,
                                           background_b, p0), noise, stream)
        meta = {
            "gamma_trap_per_s": gamma_trap,
            "scale_a": scale_a,
            "background_b_counts_per_w": background_b,
            "power_w": p0,
            "focus_fwhm_m": focus_fwhm,
            **noise.meta(stream),
        }
        curves.append(DecayCurve(time_s=np.asarray(t_grid, dtype=float),
                                 counts_per_s=counts, power_w=p0, meta=meta))
    return curves


def gen_hole_scan(freq, baseline: float, depth: float, center: float,
                  fwhm: float, power_level: float,
                  aom_off_range: tuple,
                  power_slope: float = 0.0,
                  fluor_offset: float = 0.0, power_offset: float = 0.0,
                  noise: NoiseSpec = NoiseSpec()) -> RawScan:
    """Construct a raw hole scan the way the detectors would record it.

    The true response is a constant minus a Lorentzian; fluorescence is
    that response times the (possibly sloped) laser power, plus a detector
    offset.  The AOM-off segment has zero true power, so both traces show
    only their offsets there.  Noise is applied to the fluorescence trace.
    Every input and, as `RawScan` checks, every written value lies within
    +-1e100, the range the hole fit accepts, with fwhm at least 1e-100;
    `RawScan` also checks that aom_off_range lies inside the trace.
    """
    f = np.asarray(freq, dtype=float)
    if f.ndim != 1 or f.size < 2 or f[0] == f[-1]:
        raise ValueError("freq must be a 1-D axis with at least 2 points "
                         "and distinct ends")
    if not power_level > 0:
        raise ValueError("power_level must be positive")
    _check_within(baseline=baseline, center=center, power_level=power_level,
                  power_slope=power_slope, fluor_offset=fluor_offset,
                  power_offset=power_offset)
    _check_within(0.0, depth=depth)
    _check_within(1 / _MAX_MAGNITUDE, fwhm=fwhm)
    a, b = aom_off_range
    span = float(f[-1] - f[0])
    power_true = power_level * (1.0 + power_slope * (f - f[0]) / span)
    if np.any(power_true < 0):
        raise ValueError("power profile goes negative; reduce power_slope")
    power_true[a:b] = 0.0

    response = lorentzian_hole(f, baseline, depth, center, fwhm)
    fluor = response * power_true + fluor_offset
    fluor = apply_noise(fluor, noise)
    meta = {
        "baseline": baseline, "depth": depth, "center_hz": center,
        "fwhm_hz": fwhm, "power_level": power_level,
        "power_slope": power_slope, "fluor_offset": fluor_offset,
        "power_offset": power_offset, **noise.meta(),
    }
    return RawScan(freq=f, fluor_counts=fluor,
                   power_monitor=power_true + power_offset,
                   aom_off_range=(a, b), meta=meta)


def gen_hole_decay_series(tau: float, offset: float, wait_times,
                          noise: NoiseSpec = NoiseSpec(),
                          amplitude: float = 1.0) -> np.ndarray:
    """Spectral-hole areas versus wait time: a exp(-t/tau) + offset.

    A positive offset models the persistent hole floor that survives the
    spin-level relaxation.  The wait times are 1-D and ascend within
    [0, 1e100], tau lies in [1e-100, 1e100], and the offset, the amplitude
    and every clean area within +-1e100.
    """
    t = np.asarray(wait_times, dtype=float)
    if t.ndim != 1 or np.any(np.diff(t) < 0):
        raise ValueError("wait_times must be a 1-D ascending sequence")
    _check_within(0.0, wait_times=t)
    _check_within(1 / _MAX_MAGNITUDE, tau=tau)
    _check_within(offset=offset, amplitude=amplitude)
    clean = exp_decay(t.tolist(), amplitude, tau, offset)
    _check_within(**{"the areas a exp(-t/tau) + offset of --amplitude, "
                     "--offset": clean})
    return apply_noise(clean, noise)
