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
from functools import lru_cache
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


FIELDS = ("c1", "c2", "chi", "tau")


@dataclass(frozen=True)
class SimState:
    """The quadruple (c1, c2, chi, tau) on one grid at time t, held as the rows
    of one ``(4, *grid.shape)`` array ``u`` in ``FIELDS`` order.

    ``positivity_debt`` is the cumulative clamped mass (see module docstring).
    Construction does not check ``u``; ``run`` validates its initial state once
    (``validate_initial_state``) and ``step`` keeps it finite. A state owns
    ``u``: nothing writes to it after the state is handed out, so saved states
    stay valid.
    """

    t: float
    u: np.ndarray
    grid: Grid
    positivity_debt: float = 0.0

    c1 = property(lambda self: self.u[0])
    c2 = property(lambda self: self.u[1])
    chi = property(lambda self: self.u[2])
    tau = property(lambda self: self.u[3])

    def replace(self, **kwargs) -> "SimState":
        return dc_replace(self, **kwargs)

    def fields(self) -> dict[str, np.ndarray]:
        return dict(zip(FIELDS, self.u))


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


@lru_cache(maxsize=32)
def _coefficient_columns(p: ModelParams, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only columns over ``dim`` grid axes: diffusivities (a1, a2, d_chi)
    for rows (c1, c2, chi) and taxis coefficients (b_tau, b_chi) for rows (c1, c2)."""
    values = ((p.a1, p.a2, p.d_chi), (p.b_tau, p.b_chi))
    columns = tuple(np.reshape(v, (-1,) + (1,) * dim) for v in values)
    for column in columns:
        column.flags.writeable = False
    return columns


def _stability_bound(state: SimState, p: ModelParams) -> float:
    """Raw explicit-stability bound: min of diffusion, advection, reaction limits."""
    grid = state.grid
    u = state.u
    bound = math.inf

    diff_max = max(p.a1, p.a2, p.d_chi, p.eps)
    if diff_max > 0:
        bound = min(bound, min(grid.spacing) ** 2 / (2.0 * grid.dim * diff_max))

    # Rows (tau, chi) are the signals that c1 and c2 climb.
    taxis_coeffs = _coefficient_columns(p, grid.dim)[1]
    for h, speeds in zip(grid.spacing, max_face_speed(grid, u[3:1:-1], taxis_coeffs)):
        for speed in speeds.tolist():
            if speed > 0:
                bound = min(bound, h / speed)

    # Largest local linearized decay rate over all four equations.
    c1, c2, chi, tau = u
    max_c1, max_c2 = u[:2].reshape(2, -1).max(axis=1)
    rate = max(0.0, float((p.beta * (1.0 + 2.0 * c1 + c2 + tau)).max()))
    if p.eps > 0:
        rate = max(rate, float(p.eps * p.theta * max_c1 ** (p.theta - 1.0)))
        rate = max(rate, float(p.eps * p.theta * max_c2 ** (p.theta - 1.0)))
    rate = max(rate, float(p.a_chi * (c1 + c2).max()))
    rate = max(rate, float(p.delta * max_c1 + p.mu))
    if rate > 0:
        bound = min(bound, 1.0 / rate)
    return bound


def stable_dt(state: SimState, p: ModelParams, ctrl: StepControl) -> float:
    """Largest admissible dt: cfl_safety times the stability bound, capped by dt_max.

    Raises StabilityError when that is not finite and positive."""
    return _capped_dt(_stability_bound(state, p), ctrl, state.t)


def _capped_dt(bound: float, ctrl: StepControl, t: float) -> float:
    dt = ctrl.dt_max if math.isinf(bound) else min(ctrl.cfl_safety * bound, ctrl.dt_max)
    if not 0 < dt < math.inf:
        raise StabilityError(f"no finite positive timestep at t={t:g} "
                             f"(stability bound {bound:g}, dt_max {ctrl.dt_max:g})")
    return dt


def _clamp(arr: np.ndarray, cell_volume: float) -> float:
    """Set the negative cells of ``arr`` to zero in place; return the clamped mass."""
    neg = arr < 0
    if not neg.any():
        return 0.0
    debt = -float(np.sum(arr[neg])) * cell_volume
    arr[neg] = 0.0
    return debt


def _nonfinite(u: np.ndarray) -> Optional[str]:
    """'<name> at cell (i, ...)' for the first non-finite value in u, None if all are finite."""
    for name, arr in zip(FIELDS, u):
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
    u = state.u
    c1, c2, chi, tau = u
    diffusivities, taxis_coeffs = _coefficient_columns(p, grid.dim)

    # c1, c2, chi: forward Euler on diffusion - taxis (c1 up tau, c2 up chi)
    # + reactions, one operator call each for the stacked rows.
    lap = laplacian_neumann(grid, u if p.eps > 0 else u[:3])
    rhs = lap[:3]
    rhs *= diffusivities
    rhs[:2] -= taxis_divergence(grid, u[:2], u[3:1:-1], taxis_coeffs)
    for row, r in zip(rhs, reaction_rhs(c1, c2, chi, tau, p, *alphas)):  # r1, r2, r3
        row += r
    rhs[2] += eval_supply(schedule, state.t, grid.measure)
    new = np.empty_like(u)
    np.multiply(dt, rhs, out=new[:3])
    new[:3] += u[:3]

    # tau: exact exponential factor on the linear sink, explicit production,
    # explicit eps-diffusion (zero when eps=0, the limit model's pointwise ODE).
    np.multiply(tau, np.exp(-(p.mu + p.delta * c1) * dt), out=new[3])
    new[3] += dt * (c2 / (1.0 + c2))
    if p.eps > 0:
        new[3] += (dt * p.eps) * lap[3]

    t_new = state.t + dt
    # The one finiteness check per step, before clamping can hide a -inf.
    if not math.isfinite(new.sum()):
        where = _nonfinite(new)
        raise DivergenceError(
            f"non-finite {where} (t={t_new:g})" if where
            else f"field magnitudes overflow at t={t_new:g}"
        )

    debt = state.positivity_debt
    if new.min() < 0:
        debt = debt + sum(_clamp(row, grid.cell_volume) for row in new)
    out = SimState(t_new, new, grid, debt)
    for _ in jump_doses(schedule, state.t, t_new):
        out = apply_dose(out, schedule)
    return out


def validate_initial_state(state: SimState, p: ModelParams) -> None:
    """Check a state entering ``run``: float64 u of shape (4, *grid.shape), finite,
    c1,c2 >= 0, chi,tau > 0."""
    u, shape = state.u, (4, *state.grid.shape)
    if not (isinstance(u, np.ndarray) and u.dtype == np.float64 and u.shape == shape):
        raise ValueError(f"u must be a float64 array of shape {shape}, "
                         f"not {getattr(u, 'dtype', type(u).__name__)} of shape {np.shape(u)}")
    where = _nonfinite(u)
    if where is not None:
        raise ValueError(f"non-finite initial {where}")
    min_c1, min_c2, min_chi, min_tau = u.reshape(4, -1).min(axis=1)
    if min_c1 < 0 or min_c2 < 0:
        raise ValueError("initial cell fractions must be nonnegative")
    if min_chi <= 0 or min_tau <= 0:
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
            dt = min(_capped_dt(bound, ctrl, state.t), target - state.t)
            state = step(state, p, alphas, schedule, dt, stability_bound=bound)
        state = state.replace(t=target)  # land exactly, no drift
        if is_save:
            saves += 1
            emit(saves)
    return state
