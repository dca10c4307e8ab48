"""The rate model's SI ratio chain, the oracle the tests rebuild S(t)
from to check the library's dimensionless form.

Each function raises where its ratio is undefined (no excitation, no
ionization), points that `model.steady_state` takes in its stride.
"""

import numpy as np


def saturation_ratio(i_exc, i_sat):
    """Steady-state ground/excited population ratio, 1 + 2 I_sat / I_exc.

    Zero excitation has no finite ratio; such points are dark and must be
    handled by the caller instead of being fed through this formula.
    """
    if np.any(np.asarray(i_sat) <= 0):
        raise ValueError("i_sat must be positive")
    if np.any(np.asarray(i_exc) <= 0):
        raise ValueError("unexcited point: i_exc must be positive")
    return 1 + 2 * i_sat / i_exc


def r2_from_rates(gamma_ion, gamma_rec_spon):
    """Excited/conduction-band population ratio 1 + spon/ion.

    gamma_ion = 0 means no conduction-band coupling at all; callers should
    treat such points as k = 0 rather than requesting this ratio.
    """
    if gamma_ion < 0 or gamma_rec_spon < 0:
        raise ValueError("rates must be nonnegative")
    if gamma_ion == 0:
        raise ValueError("no conduction-band coupling: gamma_ion is zero")
    return 1 + gamma_rec_spon / gamma_ion


def steady_state_fractions(r1, r2):
    """Conduction-band fraction k = 1 / (r1 r2 + r2 + 1) of untrapped ions."""
    if np.any(np.asarray(r1) < 1) or np.any(np.asarray(r2) < 1):
        raise ValueError("population ratios cannot be below 1")
    return 1.0 / (r1 * r2 + r2 + 1)


def excited_population(t, n_total, r2, k, gamma_trap):
    """Excited-state population density r2 k N exp(-gamma_trap k t)."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be nonnegative")
    return r2 * k * n_total * np.exp(-gamma_trap * k * np.asarray(t, dtype=float))
