"""Closed-form pieces of the permanent-trapping rate model.

Four levels: ground (4f-like), fluorescent excited state (5d-like), the
conduction band, and a long-lived trap.  The first three are assumed to sit
in a steady state set by the local excitation intensity, so everything here
reduces to algebraic population ratios plus one exponential for the trap
filling.  Beam optics (Gaussian focus) and the confocal collection
efficiency live here as well, since every spatial point of the simulation
is evaluated through these functions.  The crystal's constants,
MaterialParams, are a scalar record of the setup in config.py.

Rates and beam are SI (W/m^2, Hz, m, s); `_groups` forms the run's SI
products once, and per node the model takes saturation parameters I/I_sat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _FOCUS_FWHM, MaterialParams, photon_energy
from .errors import _MAX_MAGNITUDE, _check_within


@dataclass(frozen=True)
class BeamGeometry:
    """Gaussian beam focus: power plus derived waist and Rayleigh length."""

    power: float
    waist: float
    rayleigh: float

    def __post_init__(self):
        _check_within(0.0, power=self.power)
        if not (self.waist > 0 and self.rayleigh > 0):
            raise ValueError("waist and rayleigh (of focus_fwhm_m, "
                             "vac_wavelength_m, refr_index) must be positive")

    @classmethod
    def for_material(cls, material: MaterialParams, power,
                     focus_fwhm=_FOCUS_FWHM):
        """Build the geometry from the intensity-profile FWHM of the focus.

        waist = FWHM/sqrt(2 ln 2) and the Rayleigh length uses the
        wavelength inside the medium, vac_wavelength/refr_index.
        """
        _check_within(1 / _MAX_MAGNITUDE, focus_fwhm=focus_fwhm)
        waist = focus_fwhm / math.sqrt(2 * math.log(2))
        wavelength = material.vac_wavelength / material.refr_index
        return cls(power=power, waist=waist,
                   rayleigh=math.pi * waist**2 / wavelength)

    @property
    def peak_intensity(self) -> float:
        """On-axis intensity at the waist, 2 P0 / (pi w0^2)."""
        return 2 * self.power / (np.pi * self.waist**2)


def _product(*factors):
    """Product of nonnegative floats, kept as mantissa and exponent so no
    partial product overflows; inf where the product itself does."""
    mantissa, exponent = 1.0, 0
    for m, e in map(math.frexp, factors):
        mantissa, carry = math.frexp(mantissa * m)
        exponent += e + carry
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


# The config keys the signal scale F is formed from.
_F_KEYS = ("fluor_rate_per_s, ion_density_per_m3_per_hz, coll0, "
           "hom_linewidth0_hz, focus_fwhm_m, vac_wavelength_m, refr_index")


def _groups(material: MaterialParams, geom: BeamGeometry):
    """(s0, rho, F): the run's groups, each checked once, as is F s0.

    s0 = I0 / I_sat.  rho = Gamma_spon / Gamma_ion(I_sat), so the ionized
    share is q = s / (s + rho) and rho = 0 at g_ratio = 0.  F = fluor_rate
    ion_density coll0 pi w0^2 z_R hom_linewidth0 [1/s] scales S(t), which
    on the infinite-limit rule stays below (pi^2 / 16) F s0.  No step
    before a check overflows, and each check names the config keys and
    flags its group is formed from.  F may underflow towards 0, which
    gives a signal that underflows with it.
    """
    s0 = geom.peak_intensity / material.sat_intensity
    rho = material.gamma_rec_spon / ionization_rate(
        material.sat_intensity, material.sigma_ion, material.vac_wavelength)
    f = _product(material.fluor_rate, material.ion_density, material.coll0,
                 np.pi, geom.waist, geom.waist, geom.rayleigh,
                 material.hom_linewidth0)
    _check_within(0.0, **{
        "the saturation parameter s0 of --power-w, focus_fwhm_m, "
        "sat_intensity_w_per_m2": s0,
        "the rate ratio rho of sigma_rec_m2, photoioniz_fwhm_hz, g_ratio, "
        "vac_wavelength_m, sigma_ion_m2, sat_intensity_w_per_m2": rho,
        f"the signal scale F of {_F_KEYS}": f})
    _check_within(0.0, **{f"the signal bound F s0 of {_F_KEYS}, --power-w, "
                          f"sat_intensity_w_per_m2": f * s0})
    return s0, rho, f


def ionization_rate(intensity, sigma_ion, wavelength):
    """Stimulated ionization (or recombination) rate sigma * I / E_photon."""
    if np.any(np.asarray(intensity) < 0) or sigma_ion < 0:
        raise ValueError("intensity and sigma_ion must be nonnegative")
    return sigma_ion * intensity / photon_energy(wavelength)


def spont_recombination_rate(sigma_rec, delta_f, lambda_deex, g_ratio=1.0):
    """Spontaneous decay rate from the conduction band.

    Uses the frequency-integrated cross section sigma_rec * 2 pi * delta_f
    and a radiative-decay assumption at the deexcitation wavelength:
    4 sigma_0 / lambda^2 times the degeneracy ratio (first, so that
    g_ratio = 0 gives 0 however large the rest).
    """
    if sigma_rec <= 0 or delta_f <= 0 or lambda_deex <= 0:
        raise ValueError("sigma_rec, delta_f and lambda_deex must be positive")
    if g_ratio < 0:
        raise ValueError("g_ratio must be nonnegative")
    sigma0 = sigma_rec * 2 * np.pi * delta_f
    return g_ratio * sigma0 * 4 / lambda_deex**2


def steady_state(s_l, s, rho):
    """(excited, k): excited-state and conduction-band fractions r2 k and k.

    s_l = I_L / I_sat of the detuned excitation and s = I / I_sat of the
    full local intensity, which alone ionizes, broadcast together.  With
    `_groups`'s rho, q = s / (s + rho) = Gamma_ion / (Gamma_ion + Gamma_spon),
    excited = s_L / (2 (s_L + 1) + q s_L) and k = q excited: the chain
    r1 = 1 + 2 / s_L, r2 = 1 + rho / s, k = 1 / (r1 r2 + r2 + 1), finite at
    zero intensity (where the envelope underflows) and where s and rho are
    both 0, with q = 1 for 0/0.
    """
    rates = np.asarray(s + rho, dtype=float)
    q = np.divide(s, rates, out=np.ones_like(rates), where=rates > 0)
    excited = s_l / (2 * (s_l + 1) + q * s_l)
    return excited, q * excited


def beam_radius(z, geom: BeamGeometry):
    """1/e^2 beam radius w(z) = w0 sqrt(1 + (z/z_R)^2)."""
    return geom.waist * np.sqrt(1 + (np.asarray(z, dtype=float) / geom.rayleigh) ** 2)


def beam_intensity(r, z, geom: BeamGeometry):
    """Gaussian-beam intensity at cylindrical position (r, z) [W/m^2]: the
    peak times the envelope, which is the collection at coll0 = 1."""
    return geom.peak_intensity * collection_efficiency(r, z, geom, 1.0)


def power_broadened_linewidth(s):
    """Homogeneous linewidth over hom_linewidth0, sqrt(1 + s), at
    saturation parameter s = I / I_sat."""
    if np.any(np.asarray(s) < 0):
        raise ValueError("s must be nonnegative")
    return np.sqrt(1 + np.asarray(s, dtype=float))


def detuned_intensity(i_exc, delta, gamma_hom):
    """Effective excitation intensity of an ion detuned by delta: the
    Lorentzian factor 1 / (1 + x^2), x = delta / (G/2), which cannot
    overflow."""
    if np.any(np.asarray(gamma_hom) <= 0):
        raise ValueError("gamma_hom must be positive")
    half = np.asarray(gamma_hom, dtype=float) / 2
    return i_exc / (1 + (np.asarray(delta, dtype=float) / half) ** 2)


def collection_efficiency(r, z, geom: BeamGeometry, coll0):
    """Spatial photon collection efficiency, coll0 (w0/w)^2 exp(-2 r^2/w^2)."""
    if not 0 < coll0 <= 1:
        raise ValueError("coll0 must lie in (0, 1]")
    w = beam_radius(z, geom)
    return coll0 * (geom.waist / w) ** 2 * np.exp(
        -2 * np.asarray(r, dtype=float) ** 2 / w**2)
