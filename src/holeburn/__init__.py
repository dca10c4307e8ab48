"""Permanent-trapping fluorescence simulation and spectral-hole analysis.

The namespace is lazy (PEP 562): ``import holeburn`` loads no submodule,
and each name below is imported from its module on first use, so a CLI job
loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "constants": ("MaterialParams", "PLANCK_CONSTANT", "SPEED_OF_LIGHT",
                  "photon_energy"),
    "csvio": ("DecayCurve",),
    "errors": ("ConvergenceError", "FitError"),
    "fitting": ("LorentzianHoleFit", "TrapFitResult", "exp_decay",
                "fit_hole_lorentzian", "fit_trap_model",
                "hom_linewidth_from_hole", "lorentzian_hole"),
    "integrator": ("IntegrationDomain", "LevelSetRule", "SignalResult",
                   "detected_signal", "refine_until_converged",
                   "scaled_signal"),
    "lifetime": ("ExpDecayFit", "fit_exponential"),
    "linefit": ("LinearFit", "fit_linear_ci"),
    "model": ("BeamGeometry", "beam_intensity", "beam_radius",
              "collection_efficiency", "detuned_intensity",
              "ionization_rate", "power_broadened_linewidth",
              "spont_recombination_rate", "steady_state"),
    "pipeline": ("HoleArea", "NormalizedScan", "PipelineOrderError",
                 "RawScan", "detect_aom_off_range", "hole_area_with_error",
                 "normalize_by_power", "subtract_background"),
    "simplex": ("MinimizeOptions", "MinimizeResult", "minimize"),
    "synth": ("NoiseSpec", "apply_noise", "gen_decay_batch",
              "gen_hole_decay_series", "gen_hole_scan"),
    "zeeman": ("ResonanceFields", "ZeemanConfig", "applied_field",
               "resonance_fields", "splittings"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
_SUBMODULES = ("cli", "config", *_EXPORTS)

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
