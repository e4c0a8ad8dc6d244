"""Finite-volume simulator for a four-species haptotaxis-chemotaxis
tissue-regeneration model, with entropy monitors, bound certificates,
weak-form residual checks, and a vanishing-regularization harness.
"""

from types import ModuleType as _ModuleType

from .config import RunConfig, echo_text, parse_config
from .diagnostics import (
    DiagnosticsRecord,
    EntropyParams,
    MonitorReport,
    compute_record,
    dissipation_D,
    entropy_E,
    entropy_inequality_monitor,
)
from .errors import ConfigError, DivergenceError, StabilityError, StiffnessError
from .grid import (
    Grid,
    gradient_components,
    gradient_sq,
    integrate,
    laplacian_neumann,
    taxis_divergence,
)
from .model import (
    ModelParams,
    RateFunction,
    SupplySchedule,
    eval_rate,
    event_timeline,
    reaction_rhs,
)
from .oracle import HomogeneousState, OracleTrajectory, rk4_solve
from .stepping import SimState, StepControl, run, stable_dt
from .sweep import SweepConfig, SweepReport, compare_to_limit, run_sweep
from .weakform import (
    TestFunction,
    Trajectory,
    TrajectoryRecorder,
    residual,
    residual_table,
)

# the public names, without the submodules that the imports above also bind
__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _ModuleType))]
__version__ = "0.1.0"
