"""Time-dependent detected signal via quadrature over space and detuning.

Each point of (r, z, detuning) evolves independently: its local
steady-state populations set a fluorescence amplitude and a trap-filling
rate, and the detected signal is the collection-weighted sum of the
per-point exponentials, each built from the formulas in `model.py`.  The
azimuthal integral is a plain factor 2 pi because nothing depends on it.

Two rules place the nodes; only `detected_signal` takes one, and the
other entries run `LevelSetRule()`.  `LevelSetRule` integrates over
infinite limits: the collection efficiency shares the beam's envelope,
so everything depends on (r, z) only through u = I / I0, and the focal
volume per intensity turns the integral into a smooth one on
[0, pi/2]^2 with Gauss-Legendre nodes in (alpha, theta).  An
`IntegrationDomain` is a finite midpoint box in (r, z, detuning), and
its record carries its own (r, z) profiles.

S(t) has two paths: `detected_signal` sums the cloud exactly, and the
trap fit bins it into `_N_BINS` log-k bins (`TrapDecayModel.compressed`)
for S and dS/dgamma_trap.  Both sum through one kernel, `_decay_sum`: it
walks the nodes in blocks of about `_SUM_BLOCK_ELEMENTS` node-time pairs
and, per block, fills one reused (times x nodes) work array with
exp(-rate * t) and reduces it against each amplitude vector (S's and the
slope's).  Each node is read once and the work array stays small,
instead of every time streaming the whole cloud through memory.  The
reduction is a single-threaded einsum, not BLAS: a threaded gemv or dot
keeps extra threads busy that cost CPU time without saving wall time at
these sizes.  The same holds for the nodes: `_gauss_legendre` runs
Newton's method on the Legendre recurrence instead of a LAPACK eigensolver, so nothing here gives OpenBLAS's worker
threads work.  (numpy's import still starts them, and they spin until
OpenBLAS's idle timeout, which the CLI shortens.)  Summation order is
fixed, so results are bit-stable run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from . import model
from .errors import _MAX_MAGNITUDE, ConvergenceError, _check_within, _samples
from .model import BeamGeometry, MaterialParams

# Node-time pairs per block of `_decay_sum` (one 8 MB float64 work array).
_SUM_BLOCK_ELEMENTS = 1 << 20

# Log-k bins of every `CompressedDecayModel`.  On the CLI's level-set cloud
# the histogram is at most 2e-5 off the exact sum from 2 to 44 uW, far
# below any fit tolerance.
_N_BINS = 1024

# Doublings of the rule `refine_until_converged` tries before it gives up.
_MAX_REFINEMENTS = 3


def _check_counts(**counts):
    """Raise ValueError naming the first count that is not an integer
    (a Python or numpy one, not a bool) of at least 1."""
    for name, n in counts.items():
        if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                or n < 1):
            raise ValueError(f"{name} must be an integer of at least 1, "
                             f"got {n!r}")


@dataclass(frozen=True)
class IntegrationDomain:
    """Limits and grid counts for (r, z, detuning), and the box's profiles
    intensity_fn(r, z) and coll_fn(r, z), where None is the beam's own."""

    r_max: float = 4e-6
    z_halfwidth: float = 60e-6
    delta_halfwidth: float = 100e6
    n_r: int = 64
    n_z: int = 64
    n_delta: int = 128
    intensity_fn: Optional[Callable] = None
    coll_fn: Optional[Callable] = None

    def __post_init__(self):
        _check_within(1 / _MAX_MAGNITUDE, r_max=self.r_max,
                      z_halfwidth=self.z_halfwidth,
                      delta_halfwidth=self.delta_halfwidth)
        _check_counts(n_r=self.n_r, n_z=self.n_z, n_delta=self.n_delta)

    def doubled(self) -> "IntegrationDomain":
        return replace(self, n_r=2 * self.n_r, n_z=2 * self.n_z,
                       n_delta=2 * self.n_delta)

    def widened(self, factor: float) -> "IntegrationDomain":
        """Scale all limits by `factor`, scaling counts to keep resolution."""
        return replace(
            self,
            r_max=self.r_max * factor,
            z_halfwidth=self.z_halfwidth * factor,
            delta_halfwidth=self.delta_halfwidth * factor,
            n_r=int(round(self.n_r * factor)),
            n_z=int(round(self.n_z * factor)),
            n_delta=int(round(self.n_delta * factor)),
        )

    @property
    def n_points(self) -> int:
        return self.n_r * self.n_z * self.n_delta


@dataclass(frozen=True)
class LevelSetRule:
    """Gauss-Legendre rule over the infinite focal volume and detuning.

    Every per-node quantity depends on (r, z) only through u = I / I0, so
    the focal volume per intensity (Augst et al., JOSA B 8, 858 (1991))
    reduces S(t) to a smooth integral over [0, pi/2]^2 in (alpha, theta),
    with u = cos^2 alpha and detuning = (Gamma_hom / 2) tan theta.  `n` is
    the node count per axis.
    """

    n: int = 48

    def __post_init__(self):
        _check_counts(n=self.n)

    def doubled(self) -> "LevelSetRule":
        return replace(self, n=2 * self.n)

    def widened(self, factor: float) -> "LevelSetRule":
        """An equal rule: both limits are already infinite."""
        return self

    @property
    def n_points(self) -> int:
        return self.n**2


@dataclass
class SignalResult:
    """Model signal S(t) plus the grid it was computed on.

    `achieved_rel_change` is filled by the refinement loop; a plain
    single-grid evaluation leaves it None.
    """

    times: np.ndarray
    values: np.ndarray
    domain: IntegrationDomain | LevelSetRule
    achieved_rel_change: Optional[float] = None
    refinements: int = 0


def _grid_axes(domain: IntegrationDomain):
    """Midpoint nodes and uniform cell widths for the three axes."""
    dr = domain.r_max / domain.n_r
    dz = 2 * domain.z_halfwidth / domain.n_z
    dd = 2 * domain.delta_halfwidth / domain.n_delta
    r = (np.arange(domain.n_r) + 0.5) * dr
    z = -domain.z_halfwidth + (np.arange(domain.n_z) + 0.5) * dz
    d = -domain.delta_halfwidth + (np.arange(domain.n_delta) + 0.5) * dd
    return r, z, d, dr, dz, dd


def _check_times(t_grid) -> np.ndarray:
    """Sample times as a float array: 1-D, nonempty, finite, nonnegative."""
    (t,) = _samples("t_grid", t_grid)
    if min(t) < 0:
        raise ValueError("t_grid must be nonnegative")
    return np.array(t)


def _decay_sum(t: np.ndarray, rate: np.ndarray, *amps) -> np.ndarray:
    """sum_i amp_i * exp(-rate_i * t_j) for every t_j, one row per vector
    amp in amps, blocked over nodes."""
    out = np.zeros((len(amps), t.size))
    block = max(1, _SUM_BLOCK_ELEMENTS // t.size)
    work = np.empty(t.size * min(block, rate.size))
    for start in range(0, rate.size, block):
        r = rate[start:start + block]
        m = work[:t.size * r.size].reshape(t.size, r.size)
        np.multiply.outer(-t, r, out=m)
        np.exp(m, out=m)
        for row, amp in zip(out, amps):
            row += np.einsum("ij,j->i", m, amp[start:start + block])
    return out


def _legendre(n, x):
    """P_n(x) and P_n'(x) for |x| < 1 by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, n * (p_prev - x * p) / (1 - x * x)


@lru_cache(maxsize=None)
def _gauss_legendre(n):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], cached per n.

    Newton's method on P_n from Tricomi's estimate of its roots (Hale &
    Townsend, SIAM J. Sci. Comput. 35, A652 (2013)) converges in a few
    steps for every n and needs no LAPACK eigensolver, whose threaded BLAS
    call would wake a worker pool.  The estimate's cos(pi (4k - 1) /
    (4n + 2)) is written as sin(pi m / (2n + 1)) with m = n + 1 - 2k, so
    the seeds, and with them the nodes, are exactly antisymmetric, and
    x = 0 is exact for odd n.
    """
    m = np.arange(1 - n, n, 2)
    x = (1 - 1 / (8 * n**2) + 1 / (8 * n**3)) * np.sin(np.pi * m / (2 * n + 1))
    step = np.inf
    while step > 1e-15:
        p, dp = _legendre(n, x)
        dx = p / dp
        x = x - dx
        step = np.max(np.abs(dx))
    w = 2 / ((1 - x * x) * _legendre(n, x)[1] ** 2)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _cloud(material: MaterialParams, geom: BeamGeometry, domain):
    """(amplitude, k per node) for the rule the record's type names.

    amplitude carries everything time-independent: fluorescence rate times
    excited-state density times collection efficiency times the quadrature
    weight.  k is the conduction-band fraction so that the per-node signal
    is amplitude * exp(-gamma_trap * k * t).  An `IntegrationDomain` is
    the midpoint box over the (r, z) profiles its record carries, the
    beam's own where they are None; a `LevelSetRule` is the infinite-limit
    Gauss rule.  Per node
    all is dimensionless (s = I / I_sat, s_L, and the weight over the
    signal scale F of `model._groups`, which multiplies once at the end).
    """
    s0, rho, scale = model._groups(material, geom)
    if isinstance(domain, LevelSetRule):
        x, w = _gauss_legendre(domain.n)
        node, w = np.pi / 4 * (x + 1), np.pi / 4 * w
        alpha, theta = node[:, None], node
        # u = I / I0 = cos^2 alpha; the focal volume per intensity times
        # the collection coll0 u is pi w0^2 z_R coll0 2 sin^2 a
        # (1 + tan^2 a / 3), and F holds pi w0^2 z_R coll0.
        s = s0 * np.cos(alpha) ** 2
        weight = (2 * np.sin(alpha) ** 2 * (1 + np.tan(alpha) ** 2 / 3)
                  * w[:, None])
        # detuning = (Gamma_hom / 2) tan theta on both signs of theta, so
        # x = tan theta, the Lorentzian is exactly cos^2 theta, and the
        # detuning step over hom_linewidth0 (in F) is b w / cos^2 theta.
        cos2 = np.cos(theta) ** 2
        detuning = lambda b: (s * cos2, b * w / cos2)
    else:
        intensity_fn = (domain.intensity_fn
                        or partial(model.beam_intensity, geom=geom))
        coll_fn = domain.coll_fn or partial(
            model.collection_efficiency, geom=geom, coll0=material.coll0)
        r, z, d, dr, dz, dd = _grid_axes(domain)
        rr, zz = np.meshgrid(r, z, indexing="ij")
        i_sp, coll = (np.broadcast_to(np.asarray(fn(rr, zz), dtype=float),
                                      rr.shape)[:, :, None]
                      for fn in (intensity_fn, coll_fn))
        s = i_sp / material.sat_intensity
        # 2 pi r dr dz coll over the pi w0^2 z_R coll0 in F; coll first, so
        # a node the collection misses adds 0 even where the rest overflows
        weight = (coll / material.coll0 * 2 * rr[:, :, None] * dr
                  / geom.waist**2 * dz / geom.rayleigh)
        g0 = material.hom_linewidth0
        detuning = lambda b: (model.detuned_intensity(s, d, g0 * b), dd / g0)

    # Ionization couples to the full local intensity (its band is far too
    # broad for MHz-scale detuning to matter); only the optical transition
    # sees the detuning Lorentzian, with a linewidth power broadened by
    # the same local intensity.
    s_l, d_delta = detuning(model.power_broadened_linewidth(s))
    excited, k = model.steady_state(s_l, s, rho)
    amp = scale * (weight * d_delta * excited).reshape(-1)
    return amp, k.reshape(-1)


def detected_signal(t_grid, material: MaterialParams, geom: BeamGeometry,
                    gamma_trap, domain=None) -> SignalResult:
    """Integrate the local fluorescence over the grid for each time.

    Parameters
    ----------
    t_grid : array_like
        Sorted, finite, nonnegative sample times [s].
    material, geom : model parameter records.
    gamma_trap : float
        Trapping rate from the conduction band [1/s].
    domain : IntegrationDomain or LevelSetRule, optional
        The midpoint box, also when omitted (for acceptance 1a: ROADMAP
        direction 5), or the level-set rule, which every other entry runs.
        A box's record carries its (r, z) profiles.

    Returns
    -------
    SignalResult with S(t) in model units (detected photons/s before the
    experimental scale factor).
    """
    t = _check_times(t_grid)
    if np.any(np.diff(t) < 0):
        raise ValueError("t_grid must be sorted ascending")
    if not 0 <= gamma_trap < np.inf:
        raise ValueError("gamma_trap must be nonnegative and finite")
    domain = IntegrationDomain() if domain is None else domain
    amp, k = _cloud(material, geom, domain)
    return SignalResult(times=t, values=_decay_sum(t, gamma_trap * k, amp)[0],
                        domain=domain)


def scaled_signal(s_model, scale_a, background_b, power):
    """Detected count rate A * S + B * P0 for each model-signal sample,
    each within +-1e100."""
    _check_within(1 / _MAX_MAGNITUDE, scale_a=scale_a)
    _check_within(0.0, background_b=background_b, power=power)
    counts = scale_a * np.asarray(s_model, dtype=float) + background_b * power
    _check_within(**{"the counts A S + B P of scale_a, "
                     "background_b_counts_per_w, --power-w": counts})
    return counts


def refine_until_converged(t_grid, material: MaterialParams,
                           geom: BeamGeometry, gamma_trap,
                           rel_tol: float = 5e-3) -> SignalResult:
    """Double `LevelSetRule()`'s node count until S(t) moves < rel_tol.

    rel_tol = 0 evaluates that rule once: no refinement, and
    `achieved_rel_change` stays None.  Raises ConvergenceError (carrying
    the best result so far) when `_MAX_REFINEMENTS` doublings do not meet
    a positive tolerance.
    """
    if not rel_tol >= 0:
        raise ValueError("rel_tol must be nonnegative")

    result = detected_signal(t_grid, material, geom, gamma_trap,
                             LevelSetRule())
    if rel_tol == 0:
        return result
    for step in range(1, _MAX_REFINEMENTS + 1):
        finer = result.domain.doubled()
        refined = detected_signal(t_grid, material, geom, gamma_trap, finer)
        scale = np.maximum(np.abs(result.values), np.finfo(float).tiny)
        change = float(np.max(np.abs(refined.values - result.values) / scale))
        refined.refinements = step
        refined.achieved_rel_change = change
        result = refined
        if change < rel_tol:
            return result
    raise ConvergenceError(
        f"no convergence to {rel_tol:g} after {_MAX_REFINEMENTS} "
        f"refinements (last change {result.achieved_rel_change:g})",
        best_result=result)


class TrapDecayModel:
    """One curve's cloud (amplitude, k per node) on `LevelSetRule()`.

    The cloud does not depend on gamma_trap, so the trap fit builds one
    per curve and evaluates its `compressed` log-k histogram of `_N_BINS`
    bins, at a relative error far below fit tolerances.
    """

    def __init__(self, material: MaterialParams, geom: BeamGeometry):
        self.domain = LevelSetRule()
        self._amp, self._k = _cloud(material, geom, self.domain)

    def compressed(self) -> "CompressedDecayModel":
        return CompressedDecayModel(self._amp, self._k)


class CompressedDecayModel:
    """A TrapDecayModel cloud's amp-weighted histogram in `_N_BINS` log-k
    bins; nodes whose amp * k is 0 (k = 0, or underflow) are `frozen_amp`."""

    def __init__(self, amp: np.ndarray, k: np.ndarray):
        live = amp * k > 0
        self.frozen_amp = float(np.sum(amp[~live]))
        k_live, amp_live = k[live], amp[live]
        if k_live.size == 0:
            self.bin_amp = np.zeros(0)
            self.bin_k = np.zeros(0)
            return
        log_k = np.log(k_live)
        lo = log_k.min()
        # The tiny floor keeps an all-equal cloud at k = 1 (log k = 0, whose
        # one-ulp span underflows when divided) in bin 0 instead of 0/0.
        width = max((np.nextafter(log_k.max(), np.inf) - lo) / _N_BINS,
                    np.finfo(float).tiny)
        # log_k - lo >= 0, so truncation is floor; the largest k can round
        # up to _N_BINS and belongs in the last bin.
        idx = np.minimum(((log_k - lo) / width).astype(np.intp), _N_BINS - 1)
        wsum = np.bincount(idx, weights=amp_live, minlength=_N_BINS)
        ksum = np.bincount(idx, weights=amp_live * k_live, minlength=_N_BINS)
        used = wsum > 0
        self.bin_amp = wsum[used]
        self.bin_k = ksum[used] / wsum[used]

    def signal(self, t_grid, gamma_trap):
        """(S, dS/dgamma_trap) from one pass: S = frozen_amp + sum amp
        exp(-gamma_trap k t), and dS/dgamma_trap = -t sum amp k exp(...)."""
        t = _check_times(t_grid)
        decay, slope = _decay_sum(t, gamma_trap * self.bin_k, self.bin_amp,
                                  self.bin_amp * self.bin_k)
        return self.frozen_amp + decay, -t * slope
