"""The setup, which stays fixed from run to run, and the typed INI file
that sets it: the crystal's constants, the focus, the detection scale and
the Zeeman coefficients, with the CODATA constants (exact by definition).

All quantities are SI and the unit rides in the key name, so a config
file diff is unambiguous.  Unknown sections or keys are rejected
outright; a missing file section falls back to the built-in defaults.
The module loads no numpy, and the INI parser only to read a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path

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


@dataclass(frozen=True)
class ZeemanConfig:
    """Splitting coefficients [Hz/T] and the stray-field offset [T]."""

    g_ground: float = 1.9e10
    g_excited: float = 2.55e10
    stray_field: float = 2e-4

    def __post_init__(self):
        _check_within(1 / _MAX_MAGNITUDE, g_ground=self.g_ground,
                      g_excited=self.g_excited)
        _check_within(stray_field=self.stray_field)


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


# The one map from config keys to RunConfig: section -> key -> target, a
# RunConfig attribute or "record.field" for a field of one of its records.
# Every key is a finite float.  Loading and echoing both read only this
# table.
_SCHEMA = {
    "material": {
        "sat_intensity_w_per_m2": "material.sat_intensity",
        "sigma_ion_m2": "material.sigma_ion",
        "sigma_rec_m2": "material.sigma_rec",
        "photoioniz_fwhm_hz": "material.photoioniz_fwhm",
        "vac_wavelength_m": "material.vac_wavelength",
        "refr_index": "material.refr_index",
        "hom_linewidth0_hz": "material.hom_linewidth0",
        "ion_density_per_m3_per_hz": "material.ion_density",
        "fluor_rate_per_s": "material.fluor_rate",
        "g_ratio": "material.g_ratio",
        "coll0": "material.coll0",
    },
    "beam": {
        "focus_fwhm_m": "focus_fwhm",
    },
    "scale": {
        "scale_a": "scale_a",
        "background_b_counts_per_w": "background_b",
    },
    "zeeman": {
        "g_ground_hz_per_t": "zeeman.g_ground",
        "g_excited_hz_per_t": "zeeman.g_excited",
        "stray_field_t": "zeeman.stray_field",
    },
}


@dataclass
class RunConfig:
    material: MaterialParams = field(default_factory=MaterialParams)
    focus_fwhm: float = _FOCUS_FWHM
    scale_a: float = 0.19
    background_b: float = 9.4e7
    zeeman: ZeemanConfig = field(default_factory=ZeemanConfig)

    def __post_init__(self):
        _check_within(1 / _MAX_MAGNITUDE, scale_a=self.scale_a)
        _check_within(0.0, background_b=self.background_b)

    def to_dict(self) -> dict:
        """Resolved configuration keyed exactly like the config file."""
        return {section: {key: attrgetter(target)(self)
                          for key, target in keys.items()}
                for section, keys in _SCHEMA.items()}


def load_config(path=None) -> RunConfig:
    """Parse a config file; None or a missing-section file yields defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    import configparser
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    # record name ("" for RunConfig itself) -> {field: value}
    updates = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key, raw in parser.items(section):
            where = f"key '{key}' in section [{section}]"
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown {where}")
            try:
                value = float(raw)
            except ValueError:
                raise ConfigError(f"{where} must be float, got '{raw}'") \
                    from None
            if not math.isfinite(value):
                raise ConfigError(f"{where} must be finite, got '{raw}'")
            record, _, name = _SCHEMA[section][key].rpartition(".")
            updates.setdefault(record, {})[name] = value

    # replace() reruns each record's own validation on the merged fields.
    try:
        records = {record: replace(getattr(cfg, record), **values)
                   for record, values in updates.items() if record}
        return replace(cfg, **updates.get("", {}), **records)
    except ValueError as exc:
        raise ConfigError(f"invalid configuration in {path}: {exc}") from None
