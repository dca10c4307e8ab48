"""Permanent-trapping fluorescence simulation and spectral-hole analysis."""

from .constants import PLANCK_CONSTANT, SPEED_OF_LIGHT, photon_energy
from .fitting import (ExpDecayFit, FitError, LinearFit, LorentzianHoleFit,
                      TrapFitOptions, TrapFitResult, exp_decay,
                      fit_exponential, fit_hole_lorentzian, fit_linear_ci,
                      fit_trap_model, hom_linewidth_from_hole,
                      lorentzian_hole)
from .integrator import (ConvergenceError, IntegrationDomain, LevelSetRule,
                         ScaledSignalParams, SignalResult, TrapDecayModel,
                         detected_signal, refine_until_converged,
                         scaled_signal)
from .model import (BeamGeometry, MaterialParams, beam_intensity, beam_radius,
                    collection_efficiency, detuned_intensity,
                    excited_population, ionization_rate,
                    power_broadened_linewidth, r2_from_rates,
                    saturation_ratio, spont_recombination_rate,
                    steady_state, steady_state_fractions)
from .pipeline import (HoleArea, NormalizedScan, PipelineOrderError, RawScan,
                       detect_aom_off_range, hole_area_with_error,
                       normalize_by_power, point_rms, subtract_background)
from .simplex import (MinimizeOptions, MinimizeResult, minimize,
                      minimize_scalar)
from .synth import (DecayCurve, NoiseSpec, apply_noise, gen_decay_batch,
                    gen_decay_curve, gen_hole_decay_series, gen_hole_scan)
from .zeeman import (ResonanceFields, ZeemanConfig, applied_field,
                     resonance_fields, splittings)

__version__ = "0.1.0"
