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

from .constants import _FOCUS_FWHM, MaterialParams
from .errors import _MAX_MAGNITUDE, _check_within
from .zeeman import ZeemanConfig


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


def _collect(parser, section) -> dict:
    """Validate one section against the schema; map target to float value."""
    schema = _SCHEMA[section]
    values = {}
    for key, raw in parser.items(section):
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"key '{key}' in section [{section}] must be "
                              f"float, got '{raw}'") from None
        if not math.isfinite(value):
            raise ConfigError(f"key '{key}' in section [{section}] must be "
                              f"finite, got '{raw}'")
        values[schema[key]] = value
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
