"""Synthetic measurement generator with known ground truth.

Every generator embeds its input parameters in the record metadata, so a
round-trip test can compare fitted values against the truth that produced
the data.  Randomness always comes from numpy's PCG64 generator seeded
with (seed, stream), where the stream index separates curves generated in
one batch; an identical noise spec therefore reproduces identical data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .csvio import DecayCurve
from .fitting import exp_decay, lorentzian_hole
from .integrator import (ScaledSignalParams, detected_signal,
                         refine_until_converged)
from .model import BeamGeometry, MaterialParams
from .pipeline import RawScan

_NOISE_KINDS = ("none", "poisson", "gaussian")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model: none, per-sample Poisson counts, or additive Gaussian."""

    kind: str = "none"
    seed: int = 0
    gaussian_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ValueError(f"kind must be one of {_NOISE_KINDS}")
        if self.kind == "gaussian" and not self.gaussian_sigma >= 0:
            raise ValueError("gaussian_sigma must be nonnegative")


def _rng(noise: NoiseSpec, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([noise.seed, stream])


def apply_noise(values, noise: NoiseSpec, stream: int = 0) -> np.ndarray:
    """Apply the configured noise to an array of signal values.

    Poisson mode draws integer counts with the sample value as the mean
    (one-second bins), so the relative fluctuation is 1/sqrt(value).
    """
    values = np.asarray(values, dtype=float)
    if noise.kind == "none":
        return values.copy()
    rng = _rng(noise, stream)
    if noise.kind == "poisson":
        if np.any(values < 0):
            raise ValueError("poisson noise requires nonnegative values")
        return rng.poisson(values).astype(float)
    return values + rng.normal(0.0, noise.gaussian_sigma, size=values.shape)


def gen_decay_curve(material: MaterialParams, gamma_trap: float,
                    scale: ScaledSignalParams, t_grid,
                    noise: NoiseSpec = NoiseSpec(),
                    focus_fwhm: float = 1e-6,
                    domain=None,
                    stream: int = 0,
                    refine_tol: Optional[float] = None) -> DecayCurve:
    """Simulate one fluorescence decay curve and apply counting noise.

    The excitation power is taken from scale.power.  Ground truth
    (gamma_trap, A, B, noise settings) is stored in the metadata.  With
    refine_tol set, the rule is refined as in the simulate command so the
    fixture matches its output.
    """
    geom = BeamGeometry.for_material(material, power=scale.power,
                                     focus_fwhm=focus_fwhm)
    if refine_tol is None:
        result = detected_signal(t_grid, material, geom, gamma_trap, domain)
    else:
        result = refine_until_converged(t_grid, material, geom, gamma_trap,
                                        domain, rel_tol=refine_tol)
    clean = result.scaled(scale)
    noisy = apply_noise(clean, noise, stream)
    meta = {
        "gamma_trap_per_s": gamma_trap,
        "scale_a": scale.scale_a,
        "background_b_counts_per_w": scale.background_b,
        "power_w": scale.power,
        "focus_fwhm_m": focus_fwhm,
        "noise_kind": noise.kind,
        "noise_seed": noise.seed,
        "noise_stream": stream,
        "rng": "numpy PCG64, default_rng([seed, stream])",
    }
    if noise.kind == "gaussian":
        meta["gaussian_sigma"] = noise.gaussian_sigma
    return DecayCurve(time_s=np.asarray(t_grid, dtype=float),
                      counts_per_s=noisy, power_w=scale.power, meta=meta)


def gen_decay_batch(material: MaterialParams, gamma_trap: float,
                    scale_a: float, background_b: float,
                    powers: Sequence[float], t_grid,
                    noise: NoiseSpec = NoiseSpec(),
                    focus_fwhm: float = 1e-6,
                    domain=None,
                    refine_tol: Optional[float] = None) -> list:
    """One decay curve per power, with per-curve noise streams."""
    curves = []
    for i, p0 in enumerate(powers):
        scale = ScaledSignalParams(scale_a=scale_a, background_b=background_b,
                                   power=p0)
        curves.append(gen_decay_curve(material, gamma_trap, scale, t_grid,
                                      noise, focus_fwhm, domain, stream=i,
                                      refine_tol=refine_tol))
    return curves


def gen_hole_scan(freq, baseline: float, depth: float, center: float,
                  fwhm: float, power_level: float,
                  aom_off_range: tuple,
                  power_slope: float = 0.0,
                  fluor_offset: float = 0.0, power_offset: float = 0.0,
                  noise: NoiseSpec = NoiseSpec(), stream: int = 0) -> RawScan:
    """Construct a raw hole scan the way the detectors would record it.

    The true response is a constant minus a Lorentzian; fluorescence is
    that response times the (possibly sloped) laser power, plus a detector
    offset.  The AOM-off segment has zero true power, so both traces show
    only their offsets there.  Noise is applied to the fluorescence trace.
    """
    f = np.asarray(freq, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ValueError("freq must be a 1-D axis with at least 2 points")
    if not fwhm > 0:
        raise ValueError("fwhm must be positive")
    if not depth >= 0:
        raise ValueError("depth must be nonnegative")
    if not power_level > 0:
        raise ValueError("power_level must be positive")
    if not np.all(np.isfinite([baseline, center, power_slope, fluor_offset,
                               power_offset])):
        raise ValueError("baseline, center, power_slope and the offsets "
                         "must be finite")
    a, b = aom_off_range
    if not (0 <= a < b <= f.size):
        raise ValueError("aom_off_range must be a nonempty interval inside "
                         "the trace")
    span = float(f[-1] - f[0])
    power_true = power_level * (1.0 + power_slope * (f - f[0]) / span)
    if np.any(power_true < 0):
        raise ValueError("power profile goes negative; reduce power_slope")
    power_true[a:b] = 0.0

    response = lorentzian_hole(f, baseline, depth, center, fwhm)
    fluor = response * power_true + fluor_offset
    fluor = apply_noise(fluor, noise, stream)
    meta = {
        "baseline": baseline, "depth": depth, "center_hz": center,
        "fwhm_hz": fwhm, "power_level": power_level,
        "power_slope": power_slope, "fluor_offset": fluor_offset,
        "power_offset": power_offset, "noise_kind": noise.kind,
        "noise_seed": noise.seed, "noise_stream": stream,
        "aom_off_start": a, "aom_off_stop": b,
        "rng": "numpy PCG64, default_rng([seed, stream])",
    }
    return RawScan(freq=f, fluor_counts=fluor,
                   power_monitor=power_true + power_offset,
                   aom_off_range=(a, b), meta=meta)


def gen_hole_decay_series(tau: float, offset: float, wait_times,
                          noise: NoiseSpec = NoiseSpec(),
                          amplitude: float = 1.0,
                          stream: int = 0) -> np.ndarray:
    """Spectral-hole areas versus wait time: a exp(-t/tau) + offset.

    A positive offset models the persistent hole floor that survives the
    spin-level relaxation.
    """
    t = np.asarray(wait_times, dtype=float)
    if np.any(np.diff(t) < 0):
        raise ValueError("wait_times must be ascending")
    if not tau > 0:
        raise ValueError("tau must be positive")
    if not np.isfinite(offset) or not np.isfinite(amplitude):
        raise ValueError("offset and amplitude must be finite")
    clean = exp_decay(t, amplitude, tau, offset)
    return apply_noise(clean, noise, stream)
