"""Explicit time integration of the coupled system with positivity control.

The cell equations (c1, c2) and the medium (chi) advance by forward Euler on
diffusion + upwinded taxis + reactions. The matrix equation (tau) multiplies
its local linear sink -(mu + delta*c1)*tau by the exact exponential factor and
treats the production term and the eps-diffusion explicitly; the pure-decay
scenario then reproduces tau0*exp(-mu t) at every step, while the coupled
scheme stays first-order overall.

Any cell driven below zero by reaction stiffness is clamped to zero and the
clamped magnitude accumulates in a positivity-debt counter carried by the
state, making the approximation auditable.

The driver shortens steps so that save times, jump-dose times, and pulse
edges are hit exactly; sources are therefore never straddled and the dosing
mass budget is exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, StabilityError
from .grid import Grid, laplacian_neumann, max_face_speed, taxis_divergence
from .model import (
    EVENT_TOL,
    ModelParams,
    RateFunction,
    SupplySchedule,
    apply_dose,
    eval_supply,
    event_timeline,
    jump_doses,
    reaction_rhs,
)


@dataclass(frozen=True)
class SimState:
    """The quadruple (c1, c2, chi, tau) on one grid at time t.

    ``positivity_debt`` is the cumulative clamped mass (see module docstring).
    Construction does not check the fields; ``run`` validates its initial
    state once (``validate_initial_state``) and ``step`` keeps them finite.
    """

    t: float
    c1: np.ndarray
    c2: np.ndarray
    chi: np.ndarray
    tau: np.ndarray
    grid: Grid
    positivity_debt: float = 0.0

    def replace(self, **kwargs) -> "SimState":
        return dc_replace(self, **kwargs)

    def fields(self) -> dict[str, np.ndarray]:
        return {"c1": self.c1, "c2": self.c2, "chi": self.chi, "tau": self.tau}


@dataclass(frozen=True)
class StepControl:
    """Timestep policy: hard cap, CFL safety factor, horizon, save cadence."""

    t_end: float
    dt_max: float = math.inf
    cfl_safety: float = 0.5
    save_every: Optional[float] = None

    def __post_init__(self):
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if not self.dt_max > 0:
            raise ValueError("dt_max must be positive")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.save_every is not None and not self.save_every > 0:
            raise ValueError("save_every must be positive")


def _stability_bound(state: SimState, p: ModelParams) -> float:
    """Raw explicit-stability bound: min of diffusion, advection, reaction limits."""
    grid = state.grid
    d = grid.dim
    h_min = min(grid.spacing)
    bound = math.inf

    diff_max = max(p.a1, p.a2, p.d_chi, p.eps)
    if diff_max > 0:
        bound = min(bound, h_min**2 / (2.0 * d * diff_max))

    for s_field, coeff in ((state.tau, p.b_tau), (state.chi, p.b_chi)):
        speeds = max_face_speed(grid, s_field, coeff)
        for axis, speed in enumerate(speeds):
            if speed > 0:
                bound = min(bound, grid.spacing[axis] / speed)

    # Largest local linearized decay rate over all four equations.
    rate = 0.0
    c1, c2, chi, tau = state.c1, state.c2, state.chi, state.tau
    rate = max(rate, float(np.max(p.beta * (1.0 + 2.0 * c1 + c2 + tau))))
    if p.eps > 0:
        rate = max(rate, float(p.eps * p.theta * np.max(c1) ** (p.theta - 1.0)))
        rate = max(rate, float(p.eps * p.theta * np.max(c2) ** (p.theta - 1.0)))
    rate = max(rate, float(p.a_chi * np.max(c1 + c2)))
    rate = max(rate, float(p.delta * np.max(c1) + p.mu))
    if rate > 0:
        bound = min(bound, 1.0 / rate)
    return bound


def stable_dt(state: SimState, p: ModelParams, ctrl: StepControl) -> float:
    """Largest admissible dt: cfl_safety times the stability bound, capped by dt_max."""
    return _capped_dt(_stability_bound(state, p), ctrl)


def _capped_dt(bound: float, ctrl: StepControl) -> float:
    dt = ctrl.dt_max if math.isinf(bound) else min(ctrl.cfl_safety * bound, ctrl.dt_max)
    if math.isinf(dt) or dt <= 0:
        raise ValueError("no finite positive timestep; set dt_max")
    return dt


def _clamp(arr: np.ndarray, cell_volume: float) -> tuple[np.ndarray, float]:
    neg = arr < 0
    if not neg.any():
        return arr, 0.0
    debt = -float(np.sum(arr[neg])) * cell_volume
    arr = np.where(neg, 0.0, arr)
    return arr, debt


def _nonfinite(fields: dict[str, np.ndarray]) -> Optional[str]:
    """'<name> at cell (i, ...)' for the first non-finite value, None if all are finite."""
    for name, arr in fields.items():
        bad = ~np.isfinite(arr)
        if bad.any():
            return f"{name} at cell {tuple(int(i) for i in np.argwhere(bad)[0])}"
    return None


def step(
    state: SimState,
    p: ModelParams,
    alphas: tuple[RateFunction, RateFunction],
    schedule: SupplySchedule,
    dt: float,
    stability_bound: Optional[float] = None,
) -> SimState:
    """Advance the coupled system by one step of size dt.

    Raises StabilityError when dt exceeds the raw stability bound and
    DivergenceError (naming field and cell) if a non-finite value appears.
    Jump doses landing in (t, t+dt] are applied after the update.
    ``stability_bound`` lets the driver reuse its own bound computation.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    bound = _stability_bound(state, p) if stability_bound is None else stability_bound
    if dt > bound * (1.0 + 1e-9):
        raise StabilityError(f"dt={dt:g} exceeds stability bound {bound:g}")

    grid = state.grid
    alpha1, alpha2 = alphas
    c1, c2, chi, tau = state.c1, state.c2, state.chi, state.tau
    r1, r2, r3, _ = reaction_rhs(c1, c2, chi, tau, p, alpha1, alpha2)

    new_c1 = c1 + dt * (
        p.a1 * laplacian_neumann(grid, c1) - taxis_divergence(grid, c1, tau, p.b_tau) + r1
    )
    new_c2 = c2 + dt * (
        p.a2 * laplacian_neumann(grid, c2) - taxis_divergence(grid, c2, chi, p.b_chi) + r2
    )
    supply = eval_supply(schedule, state.t, grid.measure)
    new_chi = chi + dt * (p.d_chi * laplacian_neumann(grid, chi) + r3 + supply)

    # tau: exact exponential factor on the linear sink, explicit production,
    # explicit eps-diffusion (zero when eps=0, the limit model's pointwise ODE).
    decay = np.exp(-(p.mu + p.delta * c1) * dt)
    new_tau = tau * decay + dt * (c2 / (1.0 + c2))
    if p.eps > 0:
        new_tau = new_tau + dt * p.eps * laplacian_neumann(grid, tau)

    t_new = state.t + dt
    # The one finiteness check per step, before clamping can hide a -inf.
    if not math.isfinite(new_c1.sum() + new_c2.sum() + new_chi.sum() + new_tau.sum()):
        where = _nonfinite({"c1": new_c1, "c2": new_c2, "chi": new_chi, "tau": new_tau})
        raise DivergenceError(
            f"non-finite {where} (t={t_new:g})" if where
            else f"field magnitudes overflow at t={t_new:g}"
        )

    vol = grid.cell_volume
    new_c1, d1 = _clamp(new_c1, vol)
    new_c2, d2 = _clamp(new_c2, vol)
    new_chi, d3 = _clamp(new_chi, vol)
    new_tau, d4 = _clamp(new_tau, vol)
    out = SimState(
        t=t_new, c1=new_c1, c2=new_c2, chi=new_chi, tau=new_tau,
        grid=grid, positivity_debt=state.positivity_debt + (d1 + d2 + d3 + d4),
    )
    for _ in jump_doses(schedule, state.t, t_new):
        out = apply_dose(out, schedule)
    return out


def validate_initial_state(state: SimState, p: ModelParams) -> None:
    """Check a state entering ``run``: grid shapes, finite values, c1,c2 >= 0, chi,tau > 0."""
    fields = state.fields()
    for name, arr in fields.items():
        if np.shape(arr) != state.grid.shape:
            raise ValueError(f"{name} shape {np.shape(arr)} does not match grid {state.grid.shape}")
    where = _nonfinite(fields)
    if where is not None:
        raise ValueError(f"non-finite initial {where}")
    if np.min(state.c1) < 0 or np.min(state.c2) < 0:
        raise ValueError("initial cell fractions must be nonnegative")
    if np.min(state.chi) <= 0 or np.min(state.tau) <= 0:
        raise ValueError("initial chi and tau must be strictly positive")
    if not p.theta > max(2, state.grid.dim):
        raise ValueError(f"theta must exceed max(2, dim)={max(2, state.grid.dim)}")


def run(
    initial: SimState,
    p: ModelParams,
    alphas: tuple[RateFunction, RateFunction],
    schedule: SupplySchedule,
    ctrl: StepControl,
    record_sink: Optional[Callable[[SimState], None]] = None,
    snapshot_sink: Optional[Callable[[int, SimState], None]] = None,
) -> SimState:
    """Time-march to t_end, emitting the state at t=0 and at every save time.

    ``record_sink`` receives the state snapshot at each save point (the caller
    turns it into a DiagnosticsRecord); ``snapshot_sink`` receives
    (index, state) at the same points. Deterministic given its inputs.
    """
    validate_initial_state(initial, p)
    state = initial if initial.t == 0.0 else initial.replace(t=0.0)

    def emit(index: int) -> None:
        if record_sink is not None:
            record_sink(state)
        if snapshot_sink is not None:
            snapshot_sink(index, state)

    emit(0)
    saves = 0
    for target, is_save in event_timeline(schedule, ctrl.t_end, ctrl.save_every):
        while state.t < target - EVENT_TOL:
            bound = _stability_bound(state, p)
            dt = min(_capped_dt(bound, ctrl), target - state.t)
            state = step(state, p, alphas, schedule, dt, stability_bound=bound)
        state = state.replace(t=target)  # land exactly, no drift
        if is_save:
            saves += 1
            emit(saves)
    return state
