"""Closed-form pieces of the permanent-trapping rate model.

Four levels: ground (4f-like), fluorescent excited state (5d-like), the
conduction band, and a long-lived trap.  The first three are assumed to sit
in a steady state set by the local excitation intensity, so everything here
reduces to algebraic population ratios plus one exponential for the trap
filling.  Beam optics (Gaussian focus) and the confocal collection
efficiency live here as well, since every spatial point of the simulation
is evaluated through these functions.  The crystal's constants,
MaterialParams, are a scalar record in constants.py.

All quantities are SI: W/m^2, Hz, m, s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import MaterialParams, photon_energy
from .errors import _MAX_MAGNITUDE


@dataclass(frozen=True)
class BeamGeometry:
    """Gaussian beam focus: power plus derived waist and Rayleigh length."""

    power: float
    waist: float
    rayleigh: float

    def __post_init__(self):
        if not self.waist > 0:
            raise ValueError("waist must be positive")
        if not self.rayleigh > 0:
            raise ValueError("rayleigh must be positive")
        # The bound is on the power, so the check itself cannot overflow.
        power_max = _MAX_MAGNITUDE * np.pi * self.waist**2 / 2
        if not 0 <= self.power <= power_max:
            raise ValueError(f"power must be nonnegative and at most "
                             f"{power_max:g} W, where the peak intensity at "
                             f"this focus_fwhm stays within "
                             f"{_MAX_MAGNITUDE:g} W/m^2, got {self.power!r}")

    @classmethod
    def from_focus(cls, power, focus_fwhm, vac_wavelength, refr_index):
        """Build the geometry from the intensity-profile FWHM of the focus.

        waist = FWHM/sqrt(2 ln 2) and the Rayleigh length uses the
        wavelength inside the medium, vac_wavelength/refr_index.
        """
        # w0^2, z_R = pi w0^2 / medium and the focal volume pi w0^2 z_R
        # stay within _MAX_MAGNITUDE, and w0^2 a normal float; the bound is
        # on the focus, so the check itself cannot overflow.
        lim, medium = _MAX_MAGNITUDE, vac_wavelength / refr_index
        w2_max = min(lim, lim * medium / np.pi, np.sqrt(lim * medium) / np.pi)
        focus_max = np.sqrt(2 * np.log(2) * w2_max)
        if not 1 / lim <= focus_fwhm <= focus_max:
            raise ValueError(f"focus_fwhm must be in [{1 / lim:g}, "
                             f"{focus_max:g}] m, where the waist squared, the "
                             f"Rayleigh length and the focal volume stay "
                             f"normal floats, got {focus_fwhm!r}")
        waist = focus_fwhm / np.sqrt(2 * np.log(2))
        rayleigh = np.pi * waist**2 / medium
        return cls(power=power, waist=waist, rayleigh=rayleigh)

    @classmethod
    def for_material(cls, material: MaterialParams, power, focus_fwhm=1e-6):
        return cls.from_focus(power, focus_fwhm, material.vac_wavelength,
                              material.refr_index)

    @property
    def peak_intensity(self) -> float:
        """On-axis intensity at the waist, 2 P0 / (pi w0^2)."""
        return 2 * self.power / (np.pi * self.waist**2)


def saturation_ratio(i_exc, i_sat):
    """Steady-state ground/excited population ratio, 1 + 2 I_sat / I_exc.

    Zero excitation has no finite ratio; such points are dark and must be
    handled by the caller instead of being fed through this formula.
    """
    if np.any(np.asarray(i_sat) <= 0):
        raise ValueError("i_sat must be positive")
    if np.any(np.asarray(i_exc) <= 0):
        raise ValueError("unexcited point: i_exc must be positive")
    return 1 + 2 * i_sat / i_exc


def ionization_rate(intensity, sigma_ion, wavelength):
    """Stimulated ionization (or recombination) rate sigma * I / E_photon."""
    if np.any(np.asarray(intensity) < 0) or sigma_ion < 0:
        raise ValueError("intensity and sigma_ion must be nonnegative")
    return sigma_ion * intensity / photon_energy(wavelength)


def spont_recombination_rate(sigma_rec, delta_f, lambda_deex, g_ratio=1.0):
    """Spontaneous decay rate from the conduction band.

    Uses the frequency-integrated cross section sigma_rec * 2 pi * delta_f
    and a radiative-decay assumption at the deexcitation wavelength:
    4 sigma_0 / lambda^2 times the degeneracy ratio.
    """
    if sigma_rec <= 0 or delta_f <= 0 or lambda_deex <= 0:
        raise ValueError("sigma_rec, delta_f and lambda_deex must be positive")
    if g_ratio < 0:
        raise ValueError("g_ratio must be nonnegative")
    sigma0 = sigma_rec * 2 * np.pi * delta_f
    return 4 * sigma0 / lambda_deex**2 * g_ratio


def r2_from_rates(gamma_ion, gamma_rec_spon):
    """Excited/conduction-band population ratio 1 + spon/ion.

    gamma_ion = 0 means no conduction-band coupling at all; callers should
    treat such points as k = 0 rather than requesting this ratio.
    """
    if gamma_ion < 0 or gamma_rec_spon < 0:
        raise ValueError("rates must be nonnegative")
    if gamma_ion == 0:
        raise ValueError("no conduction-band coupling: gamma_ion is zero")
    return 1 + gamma_rec_spon / gamma_ion


def steady_state_fractions(r1, r2):
    """Conduction-band fraction k = 1 / (r1 r2 + r2 + 1) of untrapped ions."""
    if np.any(np.asarray(r1) < 1) or np.any(np.asarray(r2) < 1):
        raise ValueError("population ratios cannot be below 1")
    return 1.0 / (r1 * r2 + r2 + 1)


def steady_state(i_l, g_ion, material: MaterialParams):
    """(excited, k): excited-state and conduction-band fractions r2 k and k.

    i_l is the detuned excitation intensity and g_ion the ionization rate
    of the full local intensity; they broadcast against each other.  This
    is the steady state of `saturation_ratio`, `r2_from_rates` and
    `steady_state_fractions` in a form that stays finite for zero
    intensity: with q = Gamma_ion / (Gamma_ion + Gamma_spon),
    excited = I_L / (2 (I_L + I_sat) + q I_L) and k = q excited, which
    reduce to the two-level steady state with k = 0 when the
    conduction-band coupling vanishes.  (The ratio functions raise there,
    and wide integration domains underflow the Gaussian envelope to
    exactly 0.)  Where both rates are 0, I_L is 0 too and q = 1 stands in
    for 0/0.
    """
    rates = np.asarray(g_ion + material.gamma_rec_spon, dtype=float)
    q = np.divide(g_ion, rates, out=np.ones_like(rates), where=rates > 0)
    excited = i_l / (2 * (i_l + material.sat_intensity) + q * i_l)
    return excited, q * excited


def excited_population(t, n_total, r2, k, gamma_trap):
    """Excited-state population density r2 k N exp(-gamma_trap k t)."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be nonnegative")
    return r2 * k * n_total * np.exp(-gamma_trap * k * np.asarray(t, dtype=float))


def beam_radius(z, geom: BeamGeometry):
    """1/e^2 beam radius w(z) = w0 sqrt(1 + (z/z_R)^2)."""
    return geom.waist * np.sqrt(1 + (np.asarray(z, dtype=float) / geom.rayleigh) ** 2)


def beam_intensity(r, z, geom: BeamGeometry):
    """Gaussian-beam intensity at cylindrical position (r, z) [W/m^2]."""
    w = beam_radius(z, geom)
    return geom.peak_intensity * (geom.waist / w) ** 2 * np.exp(
        -2 * np.asarray(r, dtype=float) ** 2 / w**2)


def power_broadened_linewidth(i_exc, params: MaterialParams):
    """Homogeneous linewidth broadened by saturation, Gamma0 sqrt(1 + I/I_sat)."""
    if np.any(np.asarray(i_exc) < 0):
        raise ValueError("i_exc must be nonnegative")
    return params.hom_linewidth0 * np.sqrt(1 + np.asarray(i_exc, dtype=float)
                                           / params.sat_intensity)


def detuned_intensity(i_exc, delta, gamma_hom):
    """Effective excitation intensity of an ion detuned by delta.

    Applies the Lorentzian factor (G/2)^2 / (delta^2 + (G/2)^2).
    """
    if np.any(np.asarray(gamma_hom) <= 0):
        raise ValueError("gamma_hom must be positive")
    half = np.asarray(gamma_hom, dtype=float) / 2
    return i_exc * half**2 / (np.asarray(delta, dtype=float) ** 2 + half**2)


def collection_efficiency(r, z, geom: BeamGeometry, coll0):
    """Spatial photon collection efficiency, coll0 (w0/w)^2 exp(-2 r^2/w^2)."""
    if not 0 < coll0 <= 1:
        raise ValueError("coll0 must lie in (0, 1]")
    w = beam_radius(z, geom)
    return coll0 * (geom.waist / w) ** 2 * np.exp(
        -2 * np.asarray(r, dtype=float) ** 2 / w**2)
