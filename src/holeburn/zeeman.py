"""Zeeman splittings and repump resonance fields.

Both the ground and the excited doublet split linearly with the magnetic
field along the crystal b-axis (where the two magnetic sites overlap), so
a scalar field model is enough.  A configurable stray field offsets the
applied field, total = applied + field_sign * stray_field; the sign can be
flipped to model a reversed coil polarity.

The field functions take a float or a numpy array of fields and return
the same kind; the module itself needs no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import _MAX_MAGNITUDE, _check_within


@dataclass(frozen=True)
class ZeemanConfig:
    """Splitting coefficients [Hz/T] and the stray-field offset [T]."""

    g_ground: float = 1.9e10
    g_excited: float = 2.55e10
    stray_field: float = 2e-4
    field_sign: int = 1

    def __post_init__(self):
        _check_within(1 / _MAX_MAGNITUDE, g_ground=self.g_ground,
                      g_excited=self.g_excited)
        _check_within(stray_field=self.stray_field)
        # type() rather than isinstance(): True is an int equal to 1
        if type(self.field_sign) is not int or self.field_sign not in (-1, 1):
            raise ValueError("field_sign must be the integer +1 or -1")


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
    """Coil setting [T] that produces the given total field (float or array)."""
    return total - cfg.field_sign * cfg.stray_field


def splittings(b_total, cfg: ZeemanConfig):
    """Ground and excited Zeeman splittings [Hz] at the given total field.

    b_total is a float or a numpy array [T]; each splitting has its kind.
    """
    mag = abs(b_total)
    return cfg.g_ground * mag, cfg.g_excited * mag


def resonance_fields(delta_f_laser, cfg: ZeemanConfig) -> ResonanceFields:
    """Fields where a two-frequency drive separated by delta_f repumps.

    Resonance occurs when delta_f matches the ground splitting, the sum of
    ground and excited splittings, or their difference.  The sum condition
    always sits at the lowest field.
    """
    _check_within(1 / _MAX_MAGNITUDE, delta_f_laser=delta_f_laser)
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
