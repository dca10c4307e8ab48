"""Independent reference for the detected signal, and the benchmark's fixtures.

The reference evaluates the same steady-state trapping physics as the
package, written out here from the model equations, on two quadrature
rules:

* ``midpoint_rule``: the package's finite (r, z, detuning) box with
  uniform midpoint nodes.  It exists only to show that this file computes
  the same physics as ``holeburn.integrator.detected_signal``.
* ``mapped_rule``: Gauss-Legendre nodes in coordinates that follow the
  integrand, rho = r / w(z), z = z_R tan(phi), detuning = (Gamma_hom / 2)
  tan(theta).  Every factor is smooth and bounded in (rho, phi, theta), so
  z and detuning are truly infinite and only RHO_MAX is finite (the
  integrand falls as exp(-4 rho^2)).  This is the infinite-limit
  reference that accuracy is measured against.

Nothing here imports ``holeburn``: the fixtures handed to the program are
made only from this file and the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PLANCK = 6.62607015e-34
C0 = 299792458.0


@dataclass(frozen=True)
class Physics:
    """Material, beam, scale and Zeeman constants of the benchmark's fixtures.

    The values are written to the config file each job reads, so the
    program and the reference always describe the same crystal.
    """

    sat_intensity: float = 1.4e7
    sigma_ion: float = 1e-22
    sigma_rec: float = 1e-20
    photoioniz_fwhm: float = 82e12
    vac_wavelength: float = 371e-9
    refr_index: float = 1.8
    hom_linewidth0: float = 4e6
    ion_density: float = 6e10
    fluor_rate: float = 2.5e7
    g_ratio: float = 1.0
    coll0: float = 0.016
    focus_fwhm: float = 1e-6
    scale_a: float = 0.19
    background_b: float = 9.4e7
    g_ground: float = 1.9e10
    g_excited: float = 2.55e10

    def config_ini(self) -> str:
        return (
            "[material]\n"
            f"sat_intensity_w_per_m2 = {self.sat_intensity!r}\n"
            f"sigma_ion_m2 = {self.sigma_ion!r}\n"
            f"sigma_rec_m2 = {self.sigma_rec!r}\n"
            f"photoioniz_fwhm_hz = {self.photoioniz_fwhm!r}\n"
            f"vac_wavelength_m = {self.vac_wavelength!r}\n"
            f"refr_index = {self.refr_index!r}\n"
            f"hom_linewidth0_hz = {self.hom_linewidth0!r}\n"
            f"ion_density_per_m3_per_hz = {self.ion_density!r}\n"
            f"fluor_rate_per_s = {self.fluor_rate!r}\n"
            f"g_ratio = {self.g_ratio!r}\n"
            f"coll0 = {self.coll0!r}\n"
            "\n[beam]\n"
            f"focus_fwhm_m = {self.focus_fwhm!r}\n"
            "\n[scale]\n"
            f"scale_a = {self.scale_a!r}\n"
            f"background_b_counts_per_w = {self.background_b!r}\n"
            "\n[zeeman]\n"
            f"g_ground_hz_per_t = {self.g_ground!r}\n"
            f"g_excited_hz_per_t = {self.g_excited!r}\n")


@dataclass(frozen=True)
class Beam:
    waist: float
    rayleigh: float
    peak_intensity: float

    @classmethod
    def focus(cls, phys: Physics, power: float) -> "Beam":
        waist = phys.focus_fwhm / np.sqrt(2 * np.log(2))
        rayleigh = np.pi * waist**2 * phys.refr_index / phys.vac_wavelength
        return cls(waist, rayleigh, 2 * power / (np.pi * waist**2))

    def radius(self, z):
        return self.waist * np.sqrt(1 + (z / self.rayleigh) ** 2)


def _spatial(phys: Physics, beam: Beam, r, z):
    """Intensity, collection efficiency and half homogeneous linewidth."""
    w = beam.radius(z)
    envelope = (beam.waist / w) ** 2 * np.exp(-2 * r**2 / w**2)
    i_sp = beam.peak_intensity * envelope
    ghom_half = 0.5 * phys.hom_linewidth0 * np.sqrt(1 + i_sp / phys.sat_intensity)
    return i_sp, phys.coll0 * envelope, ghom_half


def _point_terms(phys: Physics, i_sp, coll, r, lorentz):
    """Per-point fluorescence density (per unit r dr dz dDelta) and rate k.

    Local steady state of the ground, excited and conduction-band levels:
    with q = Gamma_ion / (Gamma_ion + Gamma_spon) and I_L the detuned
    intensity, the excited-state fluorescence density is
    f0 N I_L / (2 (I_L + I_sat) + q I_L) and the conduction-band fraction
    is k = q I_L / (2 (I_L + I_sat) + q I_L).
    """
    e_photon = PLANCK * C0 / phys.vac_wavelength
    sigma0 = phys.sigma_rec * 2 * np.pi * phys.photoioniz_fwhm
    g_spon = 4 * sigma0 / phys.vac_wavelength**2 * phys.g_ratio
    g_ion = phys.sigma_ion * i_sp / e_photon
    q = g_ion / (g_ion + g_spon)
    i_l = i_sp * lorentz
    denom = 2 * (i_l + phys.sat_intensity) + q * i_l
    density = 2 * np.pi * phys.fluor_rate * phys.ion_density * coll * r * i_l / denom
    return density, q * i_l / denom


def midpoint_rule(phys: Physics, power: float, domain):
    """(amplitude, k) per node of a finite midpoint box.

    ``domain`` is the package's ``IntegrationDomain`` (limits and counts
    of r, z and detuning); this function only reads its fields.
    """
    beam = Beam.focus(phys, power)
    r_max, z_half, delta_half = domain.r_max, domain.z_halfwidth, domain.delta_halfwidth
    dr = r_max / domain.n_r
    dz = 2 * z_half / domain.n_z
    dd = 2 * delta_half / domain.n_delta
    r = ((np.arange(domain.n_r) + 0.5) * dr)[:, None, None]
    z = (-z_half + (np.arange(domain.n_z) + 0.5) * dz)[None, :, None]
    d = (-delta_half + (np.arange(domain.n_delta) + 0.5) * dd)[None, None, :]
    i_sp, coll, gh = _spatial(phys, beam, r, z)
    density, k = _point_terms(phys, i_sp, coll, r, gh**2 / (d**2 + gh**2))
    return (density * (dr * dz * dd)).ravel(), np.broadcast_to(k, density.shape).ravel()


# Upper limit of rho = r / w(z).  The integrand falls as exp(-4 rho^2),
# about 2e-16 of its peak at rho = 3.
RHO_MAX = 3.0


def _gauss_legendre(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


def mapped_rule(phys: Physics, power: float, nodes):
    """(amplitude, k) per node of the infinite-limit mapped Gauss rule.

    ``nodes`` is the (rho, phi, theta) node count.  z and detuning are
    integrated over half their (even) range and the weights doubled for
    each.
    """
    n_rho, n_phi, n_theta = nodes
    beam = Beam.focus(phys, power)
    rho, w_rho = _gauss_legendre(n_rho, 0.0, RHO_MAX)
    phi, w_phi = _gauss_legendre(n_phi, 0.0, 0.5 * np.pi)
    theta, w_theta = _gauss_legendre(n_theta, 0.0, 0.5 * np.pi)
    z = (beam.rayleigh * np.tan(phi))[None, :, None]
    w = beam.radius(z)
    r = rho[:, None, None] * w
    i_sp, coll, gh = _spatial(phys, beam, r, z)
    cos2 = np.cos(theta)[None, None, :] ** 2
    density, k = _point_terms(phys, i_sp, coll, r, cos2)
    # dr dz dDelta = w drho * z_R sec^2(phi) dphi * gh sec^2(theta) dtheta
    jac = (w * w_rho[:, None, None]) \
        * (beam.rayleigh / np.cos(phi) ** 2 * w_phi)[None, :, None] \
        * (gh * (w_theta / np.cos(theta) ** 2)[None, None, :])
    return (4 * density * jac).ravel(), np.broadcast_to(k, density.shape).ravel()


def signal(cloud, times, gamma_trap):
    """S(t) = sum over nodes of amplitude * exp(-gamma_trap k t)."""
    amp, k = cloud
    rate = gamma_trap * k
    return np.array([amp @ np.exp(-rate * t) for t in np.asarray(times, float)])


# Node counts (rho, phi, theta) of the reference.  Doubling all three
# changes S(t) by less than 1e-6 relative on every benchmark power and time
# (see selfcheck.py); rho needs the most nodes because k varies fastest
# across the beam.
NODES = (64, 48, 48)


def reference_signal(phys: Physics, power, times, gamma_trap, nodes=NODES):
    return signal(mapped_rule(phys, power, nodes), times, gamma_trap)
