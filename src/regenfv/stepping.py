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
        if not 0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and nonnegative, got {self.t_end}")
        if not self.dt_max > 0:
            raise ValueError("dt_max must be positive")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.save_every is not None and not self.save_every > 0:
            raise ValueError("save_every must be positive")


@lru_cache(maxsize=32)
def _constants(p: ModelParams, grid: Grid):
    """Per (params, grid): per axis (back, h, 1/h, shape of its face array),
    ``back`` counting the grid axes after it; the grid axes; read-only columns
    of the diffusivities (a1, a2, d_chi) and taxis coefficients (b_tau, b_chi);
    and the diffusion limit: h^2 / (2 dim max diffusivity) in 2D, none (inf)
    in 1D, where ``step`` advances diffusion exactly in time."""
    dim = grid.dim
    axes = tuple((dim - 1 - axis, h, 1.0 / h, (6, *(n + (a == axis) for a, n in enumerate(grid.shape))))
                 for axis, h in enumerate(grid.spacing))
    columns = [np.reshape(v, (-1,) + (1,) * dim) for v in ((p.a1, p.a2, p.d_chi), (p.b_tau, p.b_chi))]
    for column in columns:
        column.flags.writeable = False
    diff_max = max(p.a1, p.a2, p.d_chi, p.eps)
    limit = min(grid.spacing) ** 2 / (2.0 * dim * diff_max) if dim > 1 else math.inf
    return axes, tuple(range(-dim, 0)), *columns, limit


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


def _transport_faces(u: np.ndarray, axes, grid_axes, taxis_coeffs) -> tuple[list, list]:
    """Each face quantity of one step, built once: per axis, a face array
    (zero boundary faces, as in ``grid``) with rows (taxis flux of c1 up tau,
    of c2 up chi, face differences of c1, c2, chi, tau), and the row maxima of
    |v| for the scaled signal face gradient v = (b_tau, b_chi) * grad(tau, chi)
    that carries those fluxes."""
    faces, speeds = [], []
    for back, _, inv_h, shape in axes:
        f = np.zeros(shape)
        _face_diffs(u, back, inv_h, out=f[2:])
        v = f[5:3:-1] * taxis_coeffs
        _upwind_flux(v, u[:2], back, out=f[:2])
        faces.append(f)
        speeds.append(np.abs(v).max(grid_axes).tolist())
    return faces, speeds


class _Bound(float):
    """A stability bound that keeps the transport faces of the state and params
    it was computed from, so the step taken under it does not build them again.
    That step takes the faces over (``faces`` becomes None), since in 1D it
    writes into them."""

    __slots__ = ("u", "p", "faces")


def _stability_bound(state: SimState, p: ModelParams) -> _Bound:
    """Raw stability bound: min of the diffusion (2D only), advection and reaction limits."""
    axes, grid_axes, _, taxis_coeffs, bound = _constants(p, state.grid)
    u = state.u
    faces, speeds = _transport_faces(u, axes, grid_axes, taxis_coeffs)
    # |v| = b * |grad s| face by face, so max|v| is b * max|grad s| exactly.
    for (_, h, _, _), row_speeds in zip(axes, speeds):
        for speed in row_speeds:
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
    out = _Bound(min(bound, 1.0 / rate) if rate > 0 else bound)
    out.u, out.p, out.faces = u, p, faces
    return out


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
    ``stability_bound`` lets the driver reuse its own bound computation (and
    the faces of a ``_Bound`` computed from this state and ``p``, which the
    step takes over, so a second step under the same bound builds its own).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    bound = _stability_bound(state, p) if stability_bound is None else stability_bound
    if dt > bound * (1.0 + 1e-9):
        raise StabilityError(f"dt={dt:g} exceeds stability bound {bound:g}")

    grid = state.grid
    u = state.u
    c1, c2, chi, tau = u
    axes, grid_axes, diffusivities, taxis_coeffs, _ = _constants(p, grid)
    if isinstance(bound, _Bound) and bound.u is u and bound.p is p and bound.faces is not None:
        faces, bound.faces = bound.faces, None  # taken over: the 1D factor writes into them
    else:
        faces = _transport_faces(u, axes, grid_axes, taxis_coeffs)[0]

    # c1, c2, chi: forward Euler on diffusion - taxis (c1 up tau, c2 up chi)
    # + reactions. One divergence of the stacked face rows gives both taxis
    # terms and the diffusion terms of c1, c2, chi (and tau when eps > 0).
    rows = 6 if p.eps > 0 else 5
    if grid.dim == 1:
        # exact in time: with the face differences times phi1(dt a L_f), the
        # divergence is phi1(dt a L) L u, so u + dt a div = exp(dt a L) u
        inner = faces[0][2:rows, 1:-1]
        factors = _diffusion_factors(grid.cells[0], grid.spacing[0], dt,
                                     (p.a1, p.a2, p.d_chi, p.eps)[:rows - 2])
        inner[...] = np.matmul(factors, inner[..., None])[..., 0]
    div = _flux_divergence((f[:rows], back, inv_h) for f, (back, _, inv_h, _) in zip(faces, axes))
    rhs = div[2:5]
    rhs *= diffusivities
    rhs[:2] -= div[:2]
    for row, r in zip(rhs, reaction_rhs(c1, c2, chi, tau, p, *alphas)):  # r1, r2, r3
        row += r
    rhs[2] += eval_supply(schedule, state.t, grid.measure)
    new = np.empty_like(u)
    np.multiply(dt, rhs, out=new[:3])
    new[:3] += u[:3]

    # tau: exact exponential factor on the linear sink, explicit production,
    # eps-diffusion as for the other rows (zero when eps=0, the limit model's
    # pointwise ODE).
    np.multiply(tau, np.exp(-(p.mu + p.delta * c1) * dt), out=new[3])
    new[3] += dt * (c2 / (1.0 + c2))
    if p.eps > 0:
        new[3] += (dt * p.eps) * div[5]

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
            bound = _stability_bound(state, p)  # it carries the faces that step reuses
            dt = min(_capped_dt(bound, ctrl, state.t), target - state.t)
            state = step(state, p, alphas, schedule, dt, stability_bound=bound)
            del bound  # drop the old state's u before the next bound or a save
        state = state.replace(t=target)  # land exactly, no drift
        if is_save:
            saves += 1
            emit(saves)
    return state
