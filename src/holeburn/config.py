"""Typed INI configuration covering every module's parameters.

All physical quantities are SI and the unit rides in the key name, so a
config file diff is unambiguous.  Unknown sections or keys are rejected
outright; a missing file section falls back to the built-in defaults.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .fitting import TrapFitOptions
from .integrator import ScaledSignalParams
from .model import MaterialParams
from .zeeman import ZeemanConfig


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


_SCHEMA = {
    "material": {
        "sat_intensity_w_per_m2": ("sat_intensity", float),
        "sigma_ion_m2": ("sigma_ion", float),
        "sigma_rec_m2": ("sigma_rec", float),
        "photoioniz_fwhm_hz": ("photoioniz_fwhm", float),
        "vac_wavelength_m": ("vac_wavelength", float),
        "refr_index": ("refr_index", float),
        "hom_linewidth0_hz": ("hom_linewidth0", float),
        "ion_density_per_m3_per_hz": ("ion_density", float),
        "fluor_rate_per_s": ("fluor_rate", float),
        "g_ratio": ("g_ratio", float),
        "coll0": ("coll0", float),
    },
    "beam": {
        "power_w": ("power_w", float),
        "focus_fwhm_m": ("focus_fwhm_m", float),
    },
    "scale": {
        "scale_a": ("scale_a", float),
        "background_b_counts_per_w": ("background_b", float),
    },
    "zeeman": {
        "g_ground_hz_per_t": ("g_ground", float),
        "g_excited_hz_per_t": ("g_excited", float),
        "stray_field_t": ("stray_field", float),
        "field_sign": ("field_sign", int),
    },
    "fit": {
        "gamma_trap_seed_per_s": ("gamma_trap_seed", float),
        "compress_bins": ("n_bins", int),
        "max_iter": ("max_iter", int),
        "xtol_rel": ("xtol_rel", float),
        "ftol_rel": ("ftol_rel", float),
        "confidence": ("confidence", float),
    },
}


@dataclass
class RunConfig:
    material: MaterialParams = field(default_factory=MaterialParams)
    beam_power: float = 20e-6
    focus_fwhm: float = 1e-6
    scale_a: float = 0.19
    background_b: float = 9.4e7
    zeeman: ZeemanConfig = field(default_factory=ZeemanConfig)
    fit: TrapFitOptions = field(default_factory=TrapFitOptions)
    confidence: float = 0.80

    def scaled_params(self, power=None) -> ScaledSignalParams:
        return ScaledSignalParams(scale_a=self.scale_a,
                                  background_b=self.background_b,
                                  power=self.beam_power if power is None else power)

    def to_dict(self) -> dict:
        """Resolved configuration keyed exactly like the config file."""
        m, z, f = self.material, self.zeeman, self.fit
        return {
            "material": {
                "sat_intensity_w_per_m2": m.sat_intensity,
                "sigma_ion_m2": m.sigma_ion,
                "sigma_rec_m2": m.sigma_rec,
                "photoioniz_fwhm_hz": m.photoioniz_fwhm,
                "vac_wavelength_m": m.vac_wavelength,
                "refr_index": m.refr_index,
                "hom_linewidth0_hz": m.hom_linewidth0,
                "ion_density_per_m3_per_hz": m.ion_density,
                "fluor_rate_per_s": m.fluor_rate,
                "g_ratio": m.g_ratio,
                "coll0": m.coll0,
            },
            "beam": {
                "power_w": self.beam_power,
                "focus_fwhm_m": self.focus_fwhm,
            },
            "scale": {
                "scale_a": self.scale_a,
                "background_b_counts_per_w": self.background_b,
            },
            "zeeman": {
                "g_ground_hz_per_t": z.g_ground,
                "g_excited_hz_per_t": z.g_excited,
                "stray_field_t": z.stray_field,
                "field_sign": z.field_sign,
            },
            "fit": {
                "gamma_trap_seed_per_s": f.gamma_trap_seed,
                "compress_bins": f.n_bins,
                "max_iter": f.max_iter,
                "xtol_rel": f.xtol_rel,
                "ftol_rel": f.ftol_rel,
                "confidence": self.confidence,
            },
        }


def _collect(parser, section) -> dict:
    """Validate one section against the schema and return typed values."""
    schema = _SCHEMA[section]
    values = {}
    for key, raw in parser.items(section):
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
        name, typ = schema[key]
        try:
            values[name] = typ(raw)
        except ValueError:
            raise ConfigError(
                f"key '{key}' in section [{section}] must be {typ.__name__}, "
                f"got '{raw}'") from None
    return values


def load_config(path=None) -> RunConfig:
    """Parse a config file; None or a missing-section file yields defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")

    try:
        if parser.has_section("material"):
            cfg.material = MaterialParams(**_collect(parser, "material"))
        if parser.has_section("beam"):
            got = _collect(parser, "beam")
            cfg.beam_power = got.get("power_w", cfg.beam_power)
            cfg.focus_fwhm = got.get("focus_fwhm_m", cfg.focus_fwhm)
        if parser.has_section("scale"):
            got = _collect(parser, "scale")
            cfg.scale_a = got.get("scale_a", cfg.scale_a)
            cfg.background_b = got.get("background_b", cfg.background_b)
        if parser.has_section("zeeman"):
            cfg.zeeman = ZeemanConfig(**_collect(parser, "zeeman"))
        if parser.has_section("fit"):
            got = _collect(parser, "fit")
            cfg.confidence = got.pop("confidence", cfg.confidence)
            cfg.fit = TrapFitOptions(**got)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration in {path}: {exc}") from None
    return cfg
