"""Typed INI configuration of the setup, which stays fixed from run to run.

All physical quantities are SI and the unit rides in the key name, so a
config file diff is unambiguous.  Unknown sections or keys are rejected
outright; a missing file section falls back to the built-in defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path

from .constants import MaterialParams
from .zeeman import ZeemanConfig


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


# The one map from config keys to RunConfig: section -> key -> (target,
# type).  A target is a RunConfig attribute, or "record.field" for a field
# of one of its records.  Loading and echoing both read only this table.
_SCHEMA = {
    "material": {
        "sat_intensity_w_per_m2": ("material.sat_intensity", float),
        "sigma_ion_m2": ("material.sigma_ion", float),
        "sigma_rec_m2": ("material.sigma_rec", float),
        "photoioniz_fwhm_hz": ("material.photoioniz_fwhm", float),
        "vac_wavelength_m": ("material.vac_wavelength", float),
        "refr_index": ("material.refr_index", float),
        "hom_linewidth0_hz": ("material.hom_linewidth0", float),
        "ion_density_per_m3_per_hz": ("material.ion_density", float),
        "fluor_rate_per_s": ("material.fluor_rate", float),
        "g_ratio": ("material.g_ratio", float),
        "coll0": ("material.coll0", float),
    },
    "beam": {
        "focus_fwhm_m": ("focus_fwhm", float),
    },
    "scale": {
        "scale_a": ("scale_a", float),
        "background_b_counts_per_w": ("background_b", float),
    },
    "zeeman": {
        "g_ground_hz_per_t": ("zeeman.g_ground", float),
        "g_excited_hz_per_t": ("zeeman.g_excited", float),
        "stray_field_t": ("zeeman.stray_field", float),
        "field_sign": ("zeeman.field_sign", int),
    },
}


@dataclass
class RunConfig:
    material: MaterialParams = field(default_factory=MaterialParams)
    focus_fwhm: float = 1e-6
    scale_a: float = 0.19
    background_b: float = 9.4e7
    zeeman: ZeemanConfig = field(default_factory=ZeemanConfig)

    def __post_init__(self):
        if not self.scale_a > 0:
            raise ValueError(f"scale_a must be positive, got "
                             f"{self.scale_a!r}")
        if not self.background_b >= 0:
            raise ValueError(f"background_b must be nonnegative, got "
                             f"{self.background_b!r}")

    def to_dict(self) -> dict:
        """Resolved configuration keyed exactly like the config file."""
        return {section: {key: attrgetter(target)(self)
                          for key, (target, _) in keys.items()}
                for section, keys in _SCHEMA.items()}


def _collect(parser, section) -> dict:
    """Validate one section against the schema; map target to typed value."""
    schema = _SCHEMA[section]
    values = {}
    for key, raw in parser.items(section):
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
        target, typ = schema[key]
        try:
            values[target] = typ(raw)
        except ValueError:
            raise ConfigError(
                f"key '{key}' in section [{section}] must be {typ.__name__}, "
                f"got '{raw}'") from None
        if typ is float and not math.isfinite(values[target]):
            raise ConfigError(f"key '{key}' in section [{section}] must be "
                              f"finite, got '{raw}'")
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

    # record name ("" for RunConfig itself) -> {field: value}
    updates = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for target, value in _collect(parser, section).items():
            record, _, name = target.rpartition(".")
            updates.setdefault(record, {})[name] = value

    # replace() reruns each record's own validation on the merged fields.
    try:
        records = {record: replace(getattr(cfg, record), **values)
                   for record, values in updates.items() if record}
        return replace(cfg, **updates.get("", {}), **records)
    except ValueError as exc:
        raise ConfigError(f"invalid configuration in {path}: {exc}") from None
