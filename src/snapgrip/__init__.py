"""Bistable soft-gripper energy modeling and design exploration."""

__version__ = "0.1.0"

from importlib import import_module

# The names the package exports, by the module that defines them.  model
# and config load with the package, and neither imports numpy.  The solver
# layers load on first access (PEP 562), so a caller that only builds
# designs or reads a config does not compile and build them.
_EXPORTS = {
    "model": ("ChainConfiguration", "CrossSection", "EnergyLandscape",
              "FingerDesign", "GripperDesign", "LinearElastic", "RingDesign",
              "Yeoh", "chain_energy", "chain_gradient",
              "chain_gradient_hessian", "finger_energy_1dof", "gradient_1dof",
              "gravity_energy_1dof", "moment_curvature", "ring_energy_1dof",
              "sample_landscape", "set_design_value", "total_energy_1dof"),
    "config": ("build_design", "build_solver_settings", "load_config",
               "parse_config", "serialize_config"),
    "statics": ("ContinuationPath", "Equilibrium", "EquilibriumReport",
                "continuation_ramped_load", "find_equilibria_1dof",
                "find_equilibria_chain", "saddle_search_chain",
                "snap_through_energy", "trigger_moment"),
    "dynamics": ("ClosingEvent", "Trajectory", "closing_time",
                 "closing_time_vs_frequency_study", "gravity_trigger_check",
                 "natural_frequency", "simulate_1dof"),
    "explore": ("MorphologyCaseReport", "SweepSpec", "SweepTable",
                "grip_force_estimate", "reproduce_fea_cases", "run_sweep",
                "tune_ring_width"),
}
_EAGER = ("model", "config")
_LAZY = {name: module for module, names in _EXPORTS.items()
         if module not in _EAGER for name in names}
__all__ = [name for names in _EXPORTS.values() for name in names]

# numpy loads where the package first builds an array, through
# ``model._bind_numpy``, with one OpenBLAS thread unless the caller chose
# a count.
for _module in _EAGER:
    _home = import_module(f".{_module}", __name__)
    globals().update((name, getattr(_home, name))
                     for name in _EXPORTS[_module])
del _module, _home


def __getattr__(name):
    # A lazy name is read from its module at each access, not bound here,
    # so it stays the object its module holds.
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
