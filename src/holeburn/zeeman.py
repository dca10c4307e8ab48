"""Zeeman splittings and repump resonance fields.

Both the ground and the excited doublet split linearly with the magnetic
field along the crystal b-axis (where the two magnetic sites overlap), so
a scalar field model is enough.  A configurable stray field offsets the
applied field, total = applied + field_sign * stray_field; the sign can be
flipped to model a reversed coil polarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ZeemanConfig:
    """Splitting coefficients [Hz/T] and the stray-field offset [T]."""

    g_ground: float = 1.9e10
    g_excited: float = 2.55e10
    stray_field: float = 2e-4
    field_sign: int = 1

    def __post_init__(self):
        if not (self.g_ground > 0 and self.g_excited > 0):
            raise ValueError("splitting coefficients must be positive")
        if not math.isfinite(self.stray_field):
            raise ValueError("stray_field must be finite")
        if self.field_sign not in (-1, 1):
            raise ValueError("field_sign must be +1 or -1")


@dataclass(frozen=True)
class ResonanceFields:
    """Fields at which two-frequency repumping becomes resonant [T].

    The *_total values are real (stray-corrected) fields; the *_applied
    values are what one would set on the coil.  b_diff is None when the
    two splitting coefficients coincide.
    """

    b_ground_total: float
    b_sum_total: float
    b_diff_total: Optional[float]
    b_ground_applied: float
    b_sum_applied: float
    b_diff_applied: Optional[float]


def applied_field(total, cfg: ZeemanConfig):
    """Coil setting that produces the given total field."""
    return np.asarray(total, dtype=float) - cfg.field_sign * cfg.stray_field


def splittings(b_total, cfg: ZeemanConfig):
    """Ground and excited Zeeman splittings (Hz) at the given total field."""
    mag = np.abs(np.asarray(b_total, dtype=float))
    return cfg.g_ground * mag, cfg.g_excited * mag


def resonance_fields(delta_f_laser, cfg: ZeemanConfig) -> ResonanceFields:
    """Fields where a two-frequency drive separated by delta_f repumps.

    Resonance occurs when delta_f matches the ground splitting, the sum of
    ground and excited splittings, or their difference.  The sum condition
    always sits at the lowest field.
    """
    if not 0 < delta_f_laser < math.inf:
        raise ValueError("delta_f_laser must be positive and finite")
    b_ground = delta_f_laser / cfg.g_ground
    b_sum = delta_f_laser / (cfg.g_ground + cfg.g_excited)
    diff = abs(cfg.g_ground - cfg.g_excited)
    b_diff = delta_f_laser / diff if diff > 0 else None
    return ResonanceFields(
        b_ground_total=b_ground,
        b_sum_total=b_sum,
        b_diff_total=b_diff,
        b_ground_applied=float(applied_field(b_ground, cfg)),
        b_sum_applied=float(applied_field(b_sum, cfg)),
        b_diff_applied=None if b_diff is None else float(applied_field(b_diff, cfg)),
    )
