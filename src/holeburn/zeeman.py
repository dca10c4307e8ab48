"""Zeeman splittings and repump resonance fields.

Both the ground and the excited doublet split linearly with the magnetic
field along the crystal b-axis (where the two magnetic sites overlap), so
a scalar field model is enough.  A configurable stray field offsets the
applied field, total = applied + stray_field; a reversed coil polarity is
the stray field with the other sign.  The coefficients and the stray field
are the setup's `config.ZeemanConfig`.

The field functions take a float or a numpy array of fields and return
the same kind; the module itself needs no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import _MAX_MAGNITUDE, _check_within

if TYPE_CHECKING:
    from .config import ZeemanConfig


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
    return total - cfg.stray_field


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
    totals = (b_ground, b_sum, b_diff)
    return ResonanceFields(*totals, *(
        None if b is None else float(applied_field(b, cfg)) for b in totals))
