"""Time integration of the coupled system with positivity control.

The cell equations (c1, c2) and the medium (chi) advance by forward Euler on
upwinded taxis + reactions, plus diffusion as below. The matrix equation
(tau) multiplies its local linear sink -(mu + delta*c1)*tau by the exact
exponential factor and treats the production term explicitly; the pure-decay
scenario then reproduces tau0*exp(-mu t) at every step, while the coupled
scheme stays first-order overall.

Diffusion (of c1, c2, chi, and of tau when eps > 0) is exact in time on 1D
grids and explicit on 2D grids. In 1D the step multiplies the interior face
differences of each row by phi1(dt a L_f), where L_f is the Laplacian of the
interior faces (zero end faces) and phi1(z) = expm1(z)/z, and then takes the
same zero-flux divergence as the explicit step: since
Div phi1(dt a L_f) Grad = phi1(dt a L) L, the diffusion part of the update is
exp(dt a L) u. The discrete cosine/sine transforms diagonalise L and L_f, so
the factor is dense but known in closed form. Mass still telescopes, a
uniform row has zero face differences and so stays untouched, and the step
needs no diffusion limit, only the advection and reaction limits. In 2D the
stability bound keeps the diffusion limit h^2 / (2 dim max diffusivity).

Any cell driven below zero by reaction stiffness is clamped to zero and the
clamped magnitude accumulates in a positivity-debt counter carried by the
state, making the approximation auditable.

The driver shortens steps so that save times, jump-dose times, and pulse
edges are hit exactly; sources are therefore never straddled and the dosing
mass budget is exact to rounding.

One step core advances a stack of members, one ``(m, 4, *shape)`` array, by
one shared dt, and one driver marches it: ``run`` is the one-member case, and
a sweep (``regenfv.sweep``) steps all of its members, which differ only in
eps, with one call per operator. eps enters as an ``(m, 1, ...)`` column in
the damping -eps c^theta and the tau eps-diffusion, and in 1D through each
member's own face factors. Each member has its own stability bound (in 2D
its diffusion limit depends on eps) and is checked against dt; the shared dt
is the smallest of the members' capped dts. Where dt_max binds every member,
each member therefore steps exactly as it would alone, bit for bit. Where the
members' limits differ, every member takes the smallest dt, so the sweep's
output differs from separate runs: in 2D the diffusion limit falls as eps
grows past the other diffusivities, and in any dimension the advection and
reaction limits (the damping rate eps theta c^(theta-1) among them) depend
on each member's eps and state. A 2D sweep then makes m times the largest
member's step count instead of the sum of the members' counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DivergenceError, StabilityError
from .grid import Grid, _face_diffs, _flux_divergence, _upwind_flux
from .model import (
    EVENT_TOL,
    ModelParams,
    RateFunction,
    SupplySchedule,
    bind_reactions,
    dose_density,
    eval_supply,
    event_timeline,
    jump_doses,
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
        if not 0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and nonnegative, got {self.t_end}")
        if not self.dt_max > 0:
            raise ValueError("dt_max must be positive")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.save_every is not None and not self.save_every > 0:
            raise ValueError("save_every must be positive")


@dataclass(frozen=True)
class _Batch:
    """What a step needs of one member stack on one grid, built once per run.

    Members differ only in eps; ``p`` is the first member's params. ``axes``
    holds per grid axis (back, h, 1/h, shape of the member-stacked face
    array), ``back`` counting the grid axes after it; ``speed_h`` the h of
    each signal face-speed column (tau, chi per axis). The diffusivity and
    taxis columns and the ``(m, 1, ...)`` eps column (None when eps = 0) are
    read-only. ``rows`` counts the face rows a step diffuses: 5, or 6 with
    tau when eps > 0. Per member: its eps, its diffusion limit (h^2 / (2 dim
    max diffusivity) in 2D, inf in 1D, where diffusion is exact in time) and a
    tag naming it in errors; ``factor_coeffs`` lists the diffusivities of the
    1D face factors member by member, so one ``_diffusion_factors`` call builds
    every member's rows.
    """

    grid: Grid
    p: ModelParams
    axes: tuple
    speed_h: tuple[float, ...]
    grid_axes: tuple[int, ...]
    diffusivities: np.ndarray
    taxis_coeffs: np.ndarray
    eps_column: Optional[np.ndarray]
    rows: int
    eps: tuple[float, ...]
    limits: tuple[float, ...]
    factor_coeffs: tuple[float, ...]
    tags: tuple[str, ...]


@lru_cache(maxsize=32)
def _batch(members: tuple[ModelParams, ...], grid: Grid, named: bool = False) -> _Batch:
    """The ``_Batch`` of ``members`` on ``grid``; ``named`` (sweeps) tags each
    member with its eps, else the tags are empty."""
    p, dim = members[0], grid.dim
    if any(dc_replace(q, eps=p.eps) != p or (q.eps > 0) != (p.eps > 0) for q in members):
        raise ValueError("the members of one batch may differ only in a positive eps")
    eps = tuple(q.eps for q in members)
    columns = [np.reshape(v, (-1,) + (1,) * dim) for v in ((p.a1, p.a2, p.d_chi), (p.b_tau, p.b_chi), eps)]
    for column in columns:
        column.flags.writeable = False
    rows = 6 if p.eps > 0 else 5
    limit = lambda e: min(grid.spacing) ** 2 / (2.0 * dim * max(p.a1, p.a2, p.d_chi, e)) if dim > 1 else math.inf
    return _Batch(
        grid, p,
        axes=tuple((dim - 1 - axis, h, 1.0 / h, (len(eps), 6, *(n + (a == axis) for a, n in enumerate(grid.shape))))
                   for axis, h in enumerate(grid.spacing)),
        speed_h=tuple(h for h in grid.spacing for _ in range(2)),
        grid_axes=tuple(range(-dim, 0)),
        diffusivities=columns[0],
        taxis_coeffs=columns[1],
        eps_column=columns[2] if p.eps > 0 else None,
        rows=rows,
        eps=eps,
        limits=tuple(limit(e) for e in eps),
        factor_coeffs=tuple(c for e in eps for c in (p.a1, p.a2, p.d_chi, e)[:rows - 2]),
        tags=tuple(f" (sweep member eps={e!r})" if named else "" for e in eps),
    )


@lru_cache(maxsize=8)
def _diffusion_factors(n: int, h: float, dt: float, coeffs: tuple[float, ...]) -> np.ndarray:
    """Read-only stack of the face factors phi1(dt a L_f), one per a in ``coeffs``,
    for an axis of n cells of width h. L_f, the Laplacian of the n - 1 interior
    faces with zero end faces, is V diag(lambda) V with
    V_jk = sqrt(2/n) sin(pi j k / n) and lambda_k = -(2 - 2 cos(pi k / n)) / h^2
    (computed as -(2 sin(pi k / 2n) / h)^2, free of cancellation), and
    phi1(z) = expm1(z)/z. Since 2 sin(x) sin(y) = cos(x - y) - cos(x + y), the
    factor is Toeplitz minus Hankel: P_ij = c_|i-j| - c_(i+j) with
    c_d = (1/n) sum_k phi1(z_k) cos(pi k d / n), one real FFT of length 2n.
    That is O(n^2) work per dt, and no BLAS call, so the bits do not depend
    on threading."""
    k = np.arange(1, n)
    z = np.multiply.outer(np.multiply(dt, coeffs), -(2.0 * np.sin((np.pi / (2 * n)) * k) / h) ** 2)
    phi = np.zeros((len(coeffs), n))
    phi[:, 1:] = np.expm1(z) / z
    half = np.fft.rfft(phi, 2 * n).real / n  # c_d for d = 0..n
    c = np.concatenate((half, half[:, -2:1:-1]), axis=1)  # and c_(2n - d) = c_d up to 2n - 2
    windows = lambda v: sliding_window_view(v, n - 1, axis=-1)  # windows(v)[i, j] = v[i + j]
    toeplitz = windows(np.concatenate((c[:, n - 2:0:-1], c[:, :n - 1]), axis=1))[..., ::-1]
    out = toeplitz - windows(c[:, 2:])
    out.flags.writeable = False
    return out


def _transport_faces(u: np.ndarray, batch: _Batch) -> tuple[list, list]:
    """Each face quantity of one step of the member stack u, built once: per
    axis, a face array (zero boundary faces, as in ``grid``) with rows per
    member (taxis flux of c1 up tau, of c2 up chi, face differences of c1, c2,
    chi, tau), and per member the row maxima of |v| for the scaled signal face
    gradient v = (b_tau, b_chi) * grad(tau, chi) that carries those fluxes."""
    faces, speeds = [], []
    for back, _, inv_h, shape in batch.axes:
        f = np.zeros(shape)
        _face_diffs(u, back, inv_h, out=f[:, 2:])
        v = f[:, 5:3:-1] * batch.taxis_coeffs
        _upwind_flux(v, u[:, :2], back, out=f[:, :2])
        faces.append(f)
        speeds.append(np.abs(v, out=v).max(batch.grid_axes))
    return faces, speeds


def _faces_and_bounds(u: np.ndarray, batch: _Batch) -> tuple[list, list[float]]:
    """The transport faces of the member stack u and each member's raw
    stability bound: the min of its diffusion (2D only), advection and
    reaction limits. The per-member scalars come from one ``tolist``."""
    faces, speeds = _transport_faces(u, batch)
    p, grid_axes = batch.p, batch.grid_axes
    c1, c2, _, tau = u.swapaxes(0, 1)
    stats = np.empty((len(u), 4 + 2 * len(speeds)))
    u[:, :2].max(grid_axes, out=stats[:, :2])
    (p.beta * (1.0 + 2.0 * c1 + c2 + tau)).max(grid_axes, out=stats[:, 2])
    (c1 + c2).max(grid_axes, out=stats[:, 3])
    for i, speed in enumerate(speeds):
        stats[:, 4 + 2 * i:6 + 2 * i] = speed
    bounds = []
    for (max_c1, max_c2, growth, uptake, *row_speeds), eps, bound in zip(stats.tolist(), batch.eps, batch.limits):
        # |v| = b * |grad s| face by face, so max|v| is b * max|grad s| exactly.
        for h, speed in zip(batch.speed_h, row_speeds):
            if speed > 0:
                bound = min(bound, h / speed)
        # Largest local linearized decay rate over all four equations.
        rate = max(0.0, growth)
        if eps > 0:  # numpy scalar powers: inf on overflow, as a float power would raise
            rate = max(rate, float(eps * p.theta * np.float64(max_c1) ** (p.theta - 1.0)))
            rate = max(rate, float(eps * p.theta * np.float64(max_c2) ** (p.theta - 1.0)))
        rate = max(rate, p.a_chi * uptake)
        rate = max(rate, p.delta * max_c1 + p.mu)
        bounds.append(min(bound, 1.0 / rate) if rate > 0 else bound)
    return faces, bounds


def _stability_bound(state: SimState, p: ModelParams) -> float:
    """Raw stability bound of one state: min of the diffusion (2D only), advection and reaction limits."""
    return _faces_and_bounds(state.u[None], _batch((p,), state.grid))[1][0]


def stable_dt(state: SimState, p: ModelParams, ctrl: StepControl) -> float:
    """Largest admissible dt: cfl_safety times the stability bound, capped by dt_max.

    Raises StabilityError when that is not finite and positive."""
    return _capped_dt(_stability_bound(state, p), ctrl, state.t)


def _capped_dt(bound: float, ctrl: StepControl, t: float, tag: str = "") -> float:
    dt = ctrl.dt_max if math.isinf(bound) else min(ctrl.cfl_safety * bound, ctrl.dt_max)
    if not 0 < dt < math.inf:
        raise StabilityError(f"no finite positive timestep at t={t:g} "
                             f"(stability bound {bound:g}, dt_max {ctrl.dt_max:g}){tag}")
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


def _advance(t: float, u: np.ndarray, debts: list[float], batch: _Batch,
             reactions: Callable, schedule: SupplySchedule, dt: float,
             faces: list, bounds: list[float]) -> tuple[np.ndarray, list[float]]:
    """The step core: advance the ``(m, 4, *shape)`` member stack u from t by
    the shared dt and return the new stack and the members' positivity debts.

    ``reactions`` gives r1, r2, r3 of the stack (``bind_reactions`` with the
    batch's eps column, bound once per run), ``faces`` are u's transport faces
    (the 1D factor writes into them) and ``bounds`` the members' raw stability
    bounds, each checked against dt.
    Raises StabilityError, and
    DivergenceError naming the field and cell, as ``step`` documents; each
    error names the member by its tag.
    """
    for bound, tag in zip(bounds, batch.tags):
        if dt > bound * (1.0 + 1e-9):
            raise StabilityError(f"dt={dt:g} exceeds stability bound {bound:g}{tag}")
    grid, p, rows = batch.grid, batch.p, batch.rows
    c1, c2, chi, tau = u.swapaxes(0, 1)

    # c1, c2, chi: forward Euler on diffusion - taxis (c1 up tau, c2 up chi)
    # + reactions. One divergence of the stacked face rows gives both taxis
    # terms and the diffusion terms of c1, c2, chi (and tau when eps > 0).
    if grid.dim == 1:
        # exact in time: with the face differences times phi1(dt a L_f), the
        # divergence is phi1(dt a L) L u, so u + dt a div = exp(dt a L) u
        inner = faces[0][:, 2:rows, 1:-1]
        n = grid.cells[0]
        factors = _diffusion_factors(n, grid.spacing[0], dt, batch.factor_coeffs)
        inner[...] = np.matmul(factors.reshape(len(u), rows - 2, n - 1, n - 1), inner[..., None])[..., 0]
    div = _flux_divergence((f[:, :rows], back, inv_h) for f, (back, _, inv_h, _) in zip(faces, batch.axes))
    rhs = div[:, 2:5]
    rhs *= batch.diffusivities
    rhs[:, :2] -= div[:, :2]
    for row, r in zip(rhs.swapaxes(0, 1), reactions(c1, c2, chi, tau)):
        row += r
    rhs[:, 2] += eval_supply(schedule, t, grid.measure)
    # allocated after the temporaries, so it sits above them on the heap:
    # allocated first, on 128^2 grids glibc trims and regrows the heap top
    # every step (12 times the page faults of a 2D run)
    new = np.empty(u.shape)
    np.multiply(dt, rhs, out=new[:, :3])
    new[:, :3] += u[:, :3]

    # tau: exact exponential factor on the linear sink, explicit production,
    # eps-diffusion as for the other rows (zero when eps=0, the limit model's
    # pointwise ODE).
    np.multiply(tau, np.exp(-(p.mu + p.delta * c1) * dt), out=new[:, 3])
    new[:, 3] += dt * (c2 / (1.0 + c2))
    if batch.eps_column is not None:
        new[:, 3] += (dt * batch.eps_column) * div[:, 5]

    t_new = t + dt
    # The one finiteness check per step and member, before clamping can hide a -inf.
    for total, member, tag in zip(new.reshape(len(new), -1).sum(axis=1).tolist(), new, batch.tags):
        if not math.isfinite(total):
            where = _nonfinite(member)
            raise DivergenceError(
                f"non-finite {where} (t={t_new:g}){tag}" if where
                else f"field magnitudes overflow at t={t_new:g}{tag}"
            )

    if new.min() < 0:
        debts = [debt + sum(_clamp(row, grid.cell_volume) for row in member) if member.min() < 0 else debt
                 for debt, member in zip(debts, new)]
    for _ in jump_doses(schedule, t, t_new):
        new[:, 2] += dose_density(schedule, grid.measure)
    return new, debts


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
    ``stability_bound`` replaces the bound computed from the state.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    u, batch = state.u[None], _batch((p,), state.grid)
    faces, bounds = _faces_and_bounds(u, batch)
    if stability_bound is not None:
        bounds = [stability_bound]
    reactions = bind_reactions(batch.p, *alphas, batch.eps_column, arrays=True, matrix=False)
    new, (debt,) = _advance(state.t, u, [state.positivity_debt], batch, reactions, schedule, dt, faces, bounds)
    # a copy, so the state owns its u and its rows are views of it
    return SimState(state.t + dt, new[0].copy(), state.grid, debt)


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


def _march(
    initial: SimState,
    members: tuple[ModelParams, ...],
    alphas: tuple[RateFunction, RateFunction],
    schedule: SupplySchedule,
    ctrl: StepControl,
    emit: Callable[[int, float, np.ndarray, list[float]], None],
    named: bool = False,
) -> tuple[float, np.ndarray, list[float]]:
    """The one driver: march every member from ``initial`` (taken at t = 0) to
    t_end with one shared dt, the smallest of the members' capped dts, landing
    exactly on every event, and return the final (t, member stack, debts).
    ``emit(index, t, u, debts)`` receives the ``(m, 4, *shape)`` member stack
    at t = 0 and at every save; nothing writes to a stack after it is
    emitted. ``named`` makes errors name the member.
    """
    validate_initial_state(initial, members[0])
    batch = _batch(members, initial.grid, named)
    reactions = bind_reactions(batch.p, *alphas, batch.eps_column, arrays=True, matrix=False)
    t, u = 0.0, np.broadcast_to(initial.u, (len(members), *initial.u.shape))  # read-only, no copy
    debts = [initial.positivity_debt] * len(members)
    emit(0, t, u, debts)
    saves = 0
    for target, is_save in event_timeline(schedule, ctrl.t_end, ctrl.save_every):
        while t < target - EVENT_TOL:
            faces, bounds = _faces_and_bounds(u, batch)
            dt = target - t
            for bound, tag in zip(bounds, batch.tags):
                dt = min(_capped_dt(bound, ctrl, t, tag), dt)
            new, debts = _advance(t, u, debts, batch, reactions, schedule, dt, faces, bounds)
            del faces  # freed before the next step builds its own
            t, u = t + dt, new
        t = target  # land exactly, no drift
        if is_save:
            saves += 1
            emit(saves, t, u, debts)
    return t, u, debts


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
    (index, state) at the same points. Deterministic given its inputs. The
    one-member case of the driver that also steps sweeps.
    """
    start = initial if initial.t == 0.0 else initial.replace(t=0.0)

    def emit(index: int, t: float, u: np.ndarray, debts: list[float]) -> None:
        state = SimState(t, u[0], start.grid, debts[0]) if index else start
        if record_sink is not None:
            record_sink(state)
        if snapshot_sink is not None:
            snapshot_sink(index, state)

    t, u, debts = _march(start, (p,), alphas, schedule, ctrl, emit)
    return SimState(t, u[0], start.grid, debts[0]) if t > 0.0 else start
