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
exp(dt a L) u. The sine transform (DST-I) V of the n - 1 interior faces
diagonalises L_f: L_f = V diag(lambda) V, so the factor is never formed. The
step applies it as V diag(phi1(dt a lambda)) V, two real FFTs of length 2n
over every diffusing face row of every member at once: O(n log n) per step,
no per-dt state and no BLAS call. Mass still telescopes, a uniform row has
zero face differences and so stays untouched, and the step needs no
diffusion limit, only the advection and reaction limits. In 2D the
stability bound keeps the diffusion limit h^2 / (2 dim max diffusivity).

Any cell driven below zero, mostly by the upwind taxis outflow that the update
charges against the undiffused state, is clamped to zero; the clamped mass
accumulates in a positivity-debt counter carried by the state, for audit.

The driver lands exactly on every event of the model's ``event_timeline``
(save times, jump doses, pulse edges), steps each interval with the supply
density the timeline gives it and adds an event's jump dose on landing, so
sources are never straddled and the dosing mass budget is exact to rounding.
It is the only way a state advances: there is no public single step, whose
dt and supply would come from outside the timeline.

One step core advances a stack of members, one ``(m, 4, N)`` array of the
grid's N cells held flat (see ``_Batch``), by one shared dt, and one driver
marches it: ``run`` is the one-member case, and a sweep (``regenfv.sweep``)
steps all of its members, which differ only in eps, with one call per
operator. eps enters as an ``(m, 1)`` column in the damping -eps c^theta and
the tau eps-diffusion, and in 1D through each member's own face rates. Each
member has its own stability bound (in 2D its diffusion limit depends on eps)
and is checked against dt; the shared dt is the smallest of the members'
capped dts. Where dt_max binds every member, each member therefore steps
exactly as it would alone, bit for bit. Where the members' limits differ,
every member takes the smallest dt, so the sweep's output differs from
separate runs: in 2D the diffusion limit falls as eps grows past a1, a2 and
d_chi, and in any dimension the advection and reaction limits (the
damping rate eps theta c^(theta-1) among them) depend on each member's eps and
state. A 2D sweep then makes m times the largest member's step count instead
of the sum of the members' counts. One collector gathers the saves of a march
into one ``(m, n_t, 4, *shape)`` array for sweeps and for ``trajectory``, the
saves of ``run`` as one Trajectory; its times are ``model.save_times``, the
events the driver lands on to save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import DivergenceError, StabilityError
from .grid import _axes, _cells, _face_diffs, _flat, _flux_divergence, _upwind_flux
from .model import (
    FIELDS,
    ModelParams,
    RateFunction,
    SupplySchedule,
    bind_reactions,
    check_initial,
    event_timeline,
    landing_tol,
    save_times,
)

if TYPE_CHECKING:
    from .config import Grid, StepControl
    from .weakform import Trajectory


@dataclass(frozen=True)
class SimState:
    """The quadruple (c1, c2, chi, tau) on one grid at time t, held as the rows
    of one ``(4, *grid.shape)`` array ``u`` in ``FIELDS`` order.

    ``positivity_debt`` is the cumulative clamped mass (see module docstring).
    Construction does not check ``u``; ``run`` validates its initial state once
    (``validate_initial_state``) and the step core's finiteness check keeps it
    finite. A state owns ``u``: nothing writes to it after the state is handed
    out, so saved states stay valid.
    """

    t: float
    u: np.ndarray
    grid: Grid
    positivity_debt: float = 0.0

    c1 = property(lambda self: self.u[0])
    c2 = property(lambda self: self.u[1])
    chi = property(lambda self: self.u[2])
    tau = property(lambda self: self.u[3])

    def fields(self) -> dict[str, np.ndarray]:
        return dict(zip(FIELDS, self.u))


@dataclass(frozen=True)
class _Batch:
    """What a step needs of one member stack on one grid, built once per run.

    Members differ only in eps; ``p`` is the first member's params. A step
    holds each member's rows flat, ``(m, 4, N)`` for the grid's N cells in C
    order, and builds its faces in the flat layout of ``regenfv.grid``: per
    grid axis, ``axes`` holds (s, cross, 1/h, shape of the member-stacked
    face array). s is the axis's stride in flat cells ((ny, 1) in 2D, (1,)
    in 1D), so a face array holds N + s faces, face k between flat cells
    k - s and k, and each face pass is one contiguous slice of the flat axis.
    ``cross`` is the slice of the faces where that pass runs from the end of
    one grid row to the start of the next (the last axis of a 2D grid; None
    elsewhere): they pair cells that are not neighbours, so the face helpers
    reset them to +0.0 like every boundary face, and a -0.0 density can
    leave no signed zero there. ``taxis_coeffs`` is the read-only
    (b_tau, b_chi) column. ``rows`` counts the face rows a step diffuses: 5,
    or 6 with tau when eps > 0. ``diffusion`` is the run's one table of
    diffusion coefficients, read-only and ``(m, rows - 2, 1)``: per member
    (a1, a2, d_chi), and its eps when eps > 0. Everything else reads it:
    ``eps_column`` is its view ``diffusion[:, 3]`` (None when eps = 0); each
    member's diffusion limit is h^2 / (2 dim a) for the largest a of its row
    in 2D, inf in 1D (exact in time); ``face_rates`` (1D only, else None) is
    the read-only ``(m, rows - 2, n - 1)`` table times lambda_k =
    -(2 sin(pi k / 2n) / h)^2, the eigenvalues of L_f (free of the
    cancellation in -(2 - 2 cos(pi k / n)) / h^2), so that a step's phi1
    takes z = dt a lambda_k. Per member also its eps and a tag naming it in
    errors.
    """

    grid: Grid
    p: ModelParams
    axes: tuple
    diffusion: np.ndarray
    taxis_coeffs: np.ndarray
    eps_column: Optional[np.ndarray]
    rows: int
    eps: tuple[float, ...]
    limits: tuple[float, ...]
    face_rates: Optional[np.ndarray]
    tags: tuple[str, ...]


def _batch(members: tuple[ModelParams, ...], grid: Grid, named: bool = False) -> _Batch:
    """The ``_Batch`` of ``members`` on ``grid``; ``named`` (sweeps) tags each
    member with its eps, else the tags are empty."""
    p, dim = members[0], grid.dim
    if any(dc_replace(q, eps=p.eps) != p or (q.eps > 0) != (p.eps > 0) for q in members):
        raise ValueError("the members of one batch may differ only in a positive eps")
    eps = tuple(q.eps for q in members)
    rows = 6 if p.eps > 0 else 5
    diffusion = np.array([(p.a1, p.a2, p.d_chi, e)[:rows - 2] for e in eps])[..., None]
    taxis_coeffs = np.array([[p.b_tau], [p.b_chi]])
    diffusion.flags.writeable = taxis_coeffs.flags.writeable = False
    face_rates = None
    if dim == 1:
        (n,), (h,) = grid.cells, grid.spacing
        lam = -(2.0 * np.sin((np.pi / (2 * n)) * np.arange(1, n)) / h) ** 2
        face_rates = diffusion * lam
        face_rates.flags.writeable = False
    return _Batch(
        grid, p,
        axes=tuple((s, cross, inv_h, (len(eps), 6, grid.n_cells + s)) for s, cross, inv_h in _axes(grid)),
        diffusion=diffusion,
        taxis_coeffs=taxis_coeffs,
        eps_column=diffusion[:, 3] if p.eps > 0 else None,
        rows=rows,
        eps=eps,
        limits=tuple(min(grid.spacing) ** 2 / (2.0 * dim * a) if dim > 1 else math.inf
                     for a in diffusion.max(axis=(1, 2)).tolist()),
        face_rates=face_rates,
        tags=tuple(f" (sweep member eps={e!r})" if named else "" for e in eps),
    )


def _transport_faces(u: np.ndarray, batch: _Batch) -> tuple[list, list]:
    """Each face quantity of one step of the flat member stack u, built once:
    per axis, a face array (zero boundary faces, as in ``grid``) with rows per
    member (taxis flux of c1 up tau, of c2 up chi, face differences of c1, c2,
    chi, tau), and per member the maximum of |v| over both rows of the scaled
    signal face gradient v = (b_tau, b_chi) * grad(tau, chi) that carries
    those fluxes."""
    faces, speeds = [], []
    for s, cross, inv_h, shape in batch.axes:
        f = np.zeros(shape)
        _face_diffs(u, s, cross, inv_h, out=f[:, 2:])
        v = f[:, 5:3:-1] * batch.taxis_coeffs
        _upwind_flux(v, u[:, :2], s, cross, out=f[:, :2])
        faces.append(f)
        speeds.append(np.abs(v, out=v).max(axis=(-2, -1)))
    return faces, speeds


def _faces_and_bounds(u: np.ndarray, batch: _Batch) -> tuple[list, list[float]]:
    """The transport faces of the flat member stack u and each member's raw
    stability bound: the min of its diffusion (2D only), advection and
    reaction limits. The per-member scalars come from one ``tolist``."""
    faces, speeds = _transport_faces(u, batch)
    p = batch.p
    c1, c2, _, tau = u.swapaxes(0, 1)
    stats = np.empty((len(u), 4 + len(speeds)))
    u[:, :2].max(-1, out=stats[:, :2])
    (p.beta * (1.0 + 2.0 * c1 + c2 + tau)).max(-1, out=stats[:, 2])
    (c1 + c2).max(-1, out=stats[:, 3])
    for i, speed in enumerate(speeds):
        stats[:, 4 + i] = speed
    bounds = []
    for (max_c1, max_c2, growth, uptake, *axis_speeds), eps, bound in zip(stats.tolist(), batch.eps, batch.limits):
        # |v| = b * |grad s| face by face, so max|v| is b * max|grad s| exactly; one
        # limit per axis, h / max(s_tau, s_chi) = min(h / s_tau, h / s_chi) exactly.
        for h, speed in zip(batch.grid.spacing, axis_speeds):
            if speed > 0:
                bound = min(bound, h / speed)
        # Largest local linearized decay rate over all four equations: at least mu > 0.
        rate = growth
        if eps > 0:  # numpy scalar powers: inf on overflow, as a float power would raise
            rate = max(rate, float(eps * p.theta * np.float64(max_c1) ** (p.theta - 1.0)))
            rate = max(rate, float(eps * p.theta * np.float64(max_c2) ** (p.theta - 1.0)))
        rate = max(rate, p.a_chi * uptake)
        rate = max(rate, p.delta * max_c1 + p.mu)
        bounds.append(min(bound, 1.0 / rate))
    return faces, bounds


def _capped_dt(bound: float, ctrl: StepControl, t: float, tag: str = "") -> float:
    dt = min(ctrl.cfl_safety * bound, ctrl.dt_max)
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
             reactions: Callable, supply: float, dt: float,
             faces: list) -> tuple[np.ndarray, list[float]]:
    """The step core: advance the flat ``(m, 4, N)`` member stack u from t by
    the shared dt, with the supply density ``supply``, and return the new
    stack, clamped but not dosed, and the members' positivity debts.

    ``reactions`` gives r1, r2, r3 of the stack and tau's production and sink
    rate (``bind_reactions`` with the batch's eps column and ``matrix=False``,
    bound once per run), ``faces`` are u's transport faces
    (the 1D apply writes into them); dt is within every member's bound.
    Raises DivergenceError naming the field, the cell and the member's tag.
    """
    grid, rows = batch.grid, batch.rows

    # c1, c2, chi: forward Euler on diffusion - taxis (c1 up tau, c2 up chi)
    # + reactions. One divergence of the stacked face rows gives both taxis
    # terms and the diffusion terms of c1, c2, chi (and tau when eps > 0).
    if grid.dim == 1:
        # exact in time: with the face differences times phi1(dt a L_f), the
        # divergence is phi1(dt a L) L u, so u + dt a div = exp(dt a L) u.
        # phi1(dt a L_f) = (2/n) S diag(phi1(z)) S for the DST-I S, applied by
        # two real FFTs: a face row with zero end faces is its own zero-padded
        # odd extension, so rfft(row, 2n).imag[k] is minus its DST-I at k.
        n, diffusing = grid.cells[0], faces[0][:, 2:rows]
        # Each z is negative, or 0 where dt a lambda underflowed: capped at
        # -2^-1074, whose expm1 is itself, phi1 takes its limit 1 there.
        z = np.minimum(dt * batch.face_rates, -math.ulp(0.0))
        w = np.fft.rfft(diffusing, 2 * n).imag[..., :n]  # column k = 0 is 0 and stays so
        w[..., 1:] *= np.expm1(z) / z * (2.0 / n)
        diffusing[..., 1:-1] = np.fft.rfft(w, 2 * n).imag[..., 1:n]
    div = _flux_divergence((f[:, :rows], s, inv_h) for f, (s, _, inv_h, _) in zip(faces, batch.axes))
    rhs = div[:, 2:5]
    rhs *= batch.diffusion[:, :3]
    rhs[:, :2] -= div[:, :2]
    *rates, produce, sink = reactions(*u.swapaxes(0, 1))
    for row, r in zip(rhs.swapaxes(0, 1), rates):
        row += r
    del rates  # freed before `new` exists: kept, they raise a 2D run's page faults sixfold
    rhs[:, 2] += supply
    # allocated after the temporaries, so it sits above them on the heap:
    # allocated first, on 128^2 grids glibc trims and regrows the heap top
    # every step (12 times the page faults of a 2D run)
    new = np.empty(u.shape)
    np.multiply(dt, rhs, out=new[:, :3])
    new[:, :3] += u[:, :3]

    # tau: exact exponential factor on the linear sink, explicit production,
    # eps-diffusion as for the other rows (zero when eps=0, the limit model's
    # pointwise ODE).
    np.multiply(u[:, 3], np.exp(-sink * dt), out=new[:, 3])
    new[:, 3] += dt * produce
    if batch.eps_column is not None:
        new[:, 3] += (dt * batch.eps_column) * div[:, 5]

    t_new = t + dt
    # The one finiteness check per step and member, before clamping can hide a -inf.
    for total, member, tag in zip(new.reshape(len(new), -1).sum(axis=1).tolist(), new, batch.tags):
        if not math.isfinite(total):
            where = _nonfinite(_cells(grid, member))
            raise DivergenceError(
                f"non-finite {where} (t={t_new:g}){tag}" if where
                else f"field magnitudes overflow at t={t_new:g}{tag}"
            )

    if new.min() < 0:
        debts = [debt + sum(_clamp(row, grid.cell_volume) for row in member) if member.min() < 0 else debt
                 for debt, member in zip(debts, new)]
    return new, debts


def validate_initial_state(state: SimState) -> None:
    """Check a state entering ``run``: at t = 0, float64 u of shape (4, *grid.shape),
    finite (naming the cell where not), and obeying ``check_initial``."""
    u, shape = state.u, (4, *state.grid.shape)
    if state.t != 0.0:
        raise ValueError(f"a run starts at t=0 (its dose schedule's origin), not at t={state.t!r}")
    if not (isinstance(u, np.ndarray) and u.dtype == np.float64 and u.shape == shape):
        raise ValueError(f"u must be a float64 array of shape {shape}, "
                         f"not {getattr(u, 'dtype', type(u).__name__)} of shape {np.shape(u)}")
    where = _nonfinite(u)
    if where is not None:
        raise ValueError(f"non-finite initial {where}")
    for row, (name, low) in enumerate(zip(FIELDS, u.reshape(4, -1).min(axis=1))):
        check_initial(row, float(low), f"initial {name}")


def _march(
    initial: SimState,
    members: tuple[ModelParams, ...],
    alphas: tuple[RateFunction, RateFunction],
    schedule: SupplySchedule,
    ctrl: StepControl,
    emit: Callable[[int, float, np.ndarray, list[float]], None],
    named: bool = False,
) -> tuple[float, np.ndarray, list[float]]:
    """The one driver: march every member from ``initial`` (at t = 0) to
    t_end with one shared dt, the smallest of the members' capped dts, landing
    exactly on every event of ``event_timeline``, with its supply and dose,
    and return the final (t, member stack, debts).
    ``emit(index, t, u, debts)`` receives the ``(m, 4, *shape)`` member stack
    at t = 0 and at every save; nothing writes to a stack after it is
    emitted. ``named`` makes errors name the member.
    """
    validate_initial_state(initial)
    grid = initial.grid
    batch = _batch(members, grid, named)
    reactions = bind_reactions(batch.p, *alphas, batch.eps_column, arrays=True, matrix=False)
    # the march holds the cells flat (a view); the stacks it emits have the grid's shape
    flat = _flat(grid, initial.u)
    t, u = 0.0, np.broadcast_to(flat, (len(members), *flat.shape))  # read-only, no copy
    debts = [initial.positivity_debt] * len(members)
    emit(0, t, _cells(grid, u), debts)
    saves, tol = 0, landing_tol(ctrl.t_end)
    for event, is_save, supply, dose in event_timeline(schedule, ctrl.t_end, ctrl.save_every, grid.measure):
        before = u
        while t < event - tol:
            faces, bounds = _faces_and_bounds(u, batch)
            dt = event - t
            for bound, tag in zip(bounds, batch.tags):
                dt = min(_capped_dt(bound, ctrl, t, tag), dt)
            new, debts = _advance(t, u, debts, batch, reactions, supply, dt, faces)
            del faces  # freed before the next step builds its own
            t, u = t + dt, new
        t = event  # land exactly, no drift
        if dose is not None:
            u = u.copy() if u is before else u  # no step here (a dose at t <= tol): u was emitted
            u[:, 2] += dose
        if is_save:
            saves += 1
            emit(saves, t, _cells(grid, u), debts)
    return t, _cells(grid, u), debts


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
    one-member case of the driver that also steps sweeps. ``initial`` must
    be at t = 0: the dose schedule's times count from there.
    """
    def emit(index: int, t: float, u: np.ndarray, debts: list[float]) -> None:
        state = SimState(t, u[0], initial.grid, debts[0]) if index else initial
        if record_sink is not None:
            record_sink(state)
        if snapshot_sink is not None:
            snapshot_sink(index, state)

    t, u, debts = _march(initial, (p,), alphas, schedule, ctrl, emit)
    return SimState(t, u[0], initial.grid, debts[0]) if t > 0.0 else initial


def _trajectories(initial: SimState, members: tuple[ModelParams, ...], alphas: tuple[RateFunction, RateFunction],
                  schedule: SupplySchedule, ctrl: StepControl, named: bool = False) -> tuple[Trajectory, ...]:
    """The one collector of a march's saves: the times are ``save_times``,
    ``_march`` fills one preallocated ``(m, n_t, 4, *shape)`` array of states,
    and each member's ``Trajectory`` is a contiguous slice of it."""
    from .weakform import Trajectory  # loaded only by the commands that read whole trajectories

    times = np.array(save_times(schedule, ctrl.t_end, ctrl.save_every))
    u = np.empty((len(members), len(times), 4, *initial.grid.shape))

    def save(index: int, t: float, stack: np.ndarray, debts: list[float]) -> None:
        u[:, index] = stack

    _march(initial, members, alphas, schedule, ctrl, save, named)
    return tuple(Trajectory(times, member_u, initial.grid, q, alphas, schedule) for member_u, q in zip(u, members))


def trajectory(initial: SimState, p: ModelParams, alphas: tuple[RateFunction, RateFunction],
               schedule: SupplySchedule, ctrl: StepControl) -> Trajectory:
    """The states that ``run`` emits (t=0 and every save) as one ``Trajectory``,
    bit for bit; ``Trajectory`` raises ValueError when t_end leaves no save."""
    return _trajectories(initial, (p,), alphas, schedule, ctrl)[0]
