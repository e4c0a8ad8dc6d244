"""Finite-volume simulator for a four-species haptotaxis-chemotaxis
tissue-regeneration model, with entropy functionals, bound certificates,
weak-form residual checks, and a vanishing-regularization harness.

The namespace is lazy (PEP 562): ``import regenfv`` loads no submodule, and
each public name imports its module on first use.
"""

import importlib

_EXPORTS = {
    "config": ("RunConfig", "echo_text", "parse_config", "Grid", "StepControl"),
    "diagnostics": ("DiagnosticsRecord", "compute_record", "dissipation_D", "entropy_E"),
    "errors": ("ConfigError", "DivergenceError", "StabilityError", "StiffnessError"),
    "grid": ("gradient_components", "gradient_sq", "integrate", "laplacian_neumann"),
    "model": ("ModelParams", "RateFunction", "SupplySchedule", "event_timeline"),
    "oracle": ("HomogeneousState", "OracleTrajectory", "rk4_solve"),
    "stepping": ("SimState", "run", "trajectory"),
    "sweep": ("SweepConfig", "SweepReport", "compare_to_limit", "run_sweep"),
    "weakform": ("TestFunction", "Trajectory", "residual", "residual_table"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
