"""Physical constants (CODATA 2018, exact by definition) and the crystal's
fixed material constants."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import _MAX_MAGNITUDE, _check_within

PLANCK_CONSTANT = 6.62607015e-34  # J s
SPEED_OF_LIGHT = 299792458.0  # m/s

# Intensity FWHM of the beam focus [m] wherever a config or caller sets none.
_FOCUS_FWHM = 1e-6


def photon_energy(wavelength):
    """Photon energy h*c0/lambda in joules for a vacuum wavelength in meters."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    return PLANCK_CONSTANT * SPEED_OF_LIGHT / wavelength


@dataclass(frozen=True)
class MaterialParams:
    """Fixed physical constants of the crystal and its UV transition.

    Attributes
    ----------
    sat_intensity : float
        Saturation intensity of the ground-excited transition [W/m^2].
    sigma_ion : float
        Cross section for photoionization of the excited state into the
        conduction band [m^2].
    sigma_rec : float
        Cross section for stimulated recombination from the conduction
        band [m^2].
    photoioniz_fwhm : float
        FWHM of the excited-state photoionization band [Hz].
    vac_wavelength : float
        Vacuum excitation wavelength, also used as the deexcitation
        wavelength for the spontaneous recombination estimate [m].
    refr_index : float
        Refractive index of the crystal.
    hom_linewidth0 : float
        Unbroadened homogeneous linewidth of the optical transition [Hz].
    ion_density : float
        Spectral density of ions [ions/m^3/Hz].
    fluor_rate : float
        Fluorescence emission rate of the excited state, 1/lifetime [1/s].
    g_ratio : float
        Degeneracy ratio between the excited state and the conduction
        band states (assumed 1 when unknown).
    coll0 : float
        Peak photon collection efficiency of the detection setup.
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

    def __post_init__(self):
        # every constant but g_ratio (>= 0) and coll0 (a fraction) is > 0
        _check_within(1 / _MAX_MAGNITUDE, **{
            name: value for name, value in vars(self).items()
            if name not in ("g_ratio", "coll0")})
        _check_within(0.0, g_ratio=self.g_ratio)
        if not 0 < self.coll0 <= 1:
            raise ValueError("coll0 must lie in (0, 1]")

    @property
    def photon_energy(self) -> float:
        return photon_energy(self.vac_wavelength)

    @property
    def gamma_rec_spon(self) -> float:
        """Spontaneous conduction-band decay rate derived from sigma_rec."""
        from .model import spont_recombination_rate
        return spont_recombination_rate(self.sigma_rec, self.photoioniz_fwhm,
                                        self.vac_wavelength, self.g_ratio)
