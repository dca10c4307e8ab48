"""Permanent-trapping fluorescence simulation and spectral-hole analysis.

The namespace is lazy (PEP 562): ``import holeburn`` loads no submodule,
and each name below is imported from its module on first use, so a CLI job
loads only the modules its subcommand runs.  `_deferred` does the same for
a name that another module calls.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "config": ("MaterialParams", "PLANCK_CONSTANT", "SPEED_OF_LIGHT",
               "ZeemanConfig", "photon_energy"),
    "csvio": ("DecayCurve",),
    "errors": ("ConvergenceError", "FitError"),
    "fitting": ("LorentzianHoleFit", "TrapFitResult", "fit_hole_lorentzian",
                "fit_trap_model", "hom_linewidth_from_hole",
                "lorentzian_hole"),
    "integrator": ("IntegrationDomain", "LevelSetRule", "SignalResult",
                   "detected_signal", "refine_until_converged",
                   "scaled_signal"),
    "lifetime": ("ExpDecayFit", "exp_decay", "fit_exponential"),
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
    "zeeman": ("ResonanceFields", "applied_field", "resonance_fields",
               "splittings"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
_SUBMODULES = ("cli", *_EXPORTS)

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def _deferred(module, name):
    """Stand-in for `module.name` that imports the module on its first call.

    A module binds these in its globals and calls the name through them, so
    a job imports only the modules it runs, and the names stay replaceable
    there (bench/tracing.py wraps them).
    """
    def call(*args, **kwargs):
        return getattr(importlib.import_module(f"{__name__}.{module}"),
                       name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
