"""Vanishing-regularization study: run a decreasing eps sequence on one dataset.

Members share the grid, initial data, schedule, and timestep policy; only eps
varies. For consecutive members the report holds space-time distances (L2 for
c1, chi, tau; the L^{5/4}-in-time W^{1,5/4}-in-space norm for c2, matching the
solution classes the limit object lives in) plus the size of the artificial
terms eps*int int c^theta and eps*int int |grad tau|^2/tau per member, which
must shrink as eps does.

``run_sweep`` steps all members together, as one ``(m, 4, *shape)`` member
stack with one shared dt, through the driver that ``run`` uses. Where dt_max
binds every member, as on ``configs/default_1d.cfg``, each member equals its
own run bit for bit. Where the members' limits differ (in 2D the diffusion
limit falls as eps grows; in any dimension the advection and reaction limits
depend on each member's eps and state), all take the smallest member dt, so
each member's trajectory is the run it would make with that dt as its
dt_max. Errors name the member's eps. The members' trajectories come from
the stepper's one collector of a march's saves (``stepping.trajectory`` is
its one-member case): each ``Trajectory`` holds a contiguous slice of one
``(m, n_t, 4, *shape)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from .diagnostics import fisher_integrand
from .grid import gradient_components
from .model import FIELDS, ModelParams, RateFunction, SupplySchedule
from .stepping import SimState, _trajectories
from .weakform import Trajectory

if TYPE_CHECKING:
    from .config import Grid, StepControl


@dataclass(frozen=True)
class SweepConfig:
    """A strictly decreasing eps list over one shared base problem."""

    eps_list: tuple[float, ...]
    params: ModelParams
    alphas: tuple[RateFunction, RateFunction]
    schedule: SupplySchedule
    initial: SimState
    ctrl: StepControl

    def __post_init__(self):
        if not self.eps_list:
            raise ValueError("eps_list must be nonempty")
        if any(not 0 < e < 1 for e in self.eps_list):
            raise ValueError("eps values must lie in (0, 1)")
        # non-strict: repeated values are the determinism check
        if any(b > a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps_list must be decreasing")
        if self.ctrl.t_end == 0:  # the event timeline holds no save; StepControl refuses any other such t_end
            raise ValueError(f"a sweep needs a save after t=0: t_end must exceed 1e-12, got {self.ctrl.t_end!r}")


@dataclass(frozen=True)
class SweepEntry:
    eps: float
    art_c1: float
    art_c2: float
    art_tau: float
    pair_distance: Optional[dict]  # vs the previous (larger-eps) member; None for the first


@dataclass(frozen=True)
class SweepReport:
    entries: tuple[SweepEntry, ...]
    trajectories: tuple[Trajectory, ...]

    def csv_text(self) -> str:
        header = (
            "eps,pair_distance_c1,pair_distance_c2,pair_distance_chi,pair_distance_tau,"
            "art_c1,art_c2,art_tau"
        )
        lines = [header]
        for e in self.entries:
            if e.pair_distance is None:
                dist = ["", "", "", ""]
            else:
                dist = [repr(e.pair_distance[f]) for f in FIELDS]
            lines.append(
                ",".join([repr(e.eps), *dist, repr(e.art_c1), repr(e.art_c2), repr(e.art_tau)])
            )
        return "\n".join(lines) + "\n"


def _check_compatible(a: Trajectory, b: Trajectory) -> None:
    if a.grid != b.grid:
        raise ValueError("trajectories live on different grids")
    if len(a.times) != len(b.times) or not np.allclose(a.times, b.times, rtol=0, atol=1e-12):
        raise ValueError("trajectories were saved at different times")


def _time_integrals(grid: Grid, times: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Per row of an ``(n_t, k, *grid.shape)`` integrand, the trapezoid rule in
    time of its domain integrals.

    Every sum runs over a contiguous last axis, so each row is summed in the
    same order as one snapshot at a time (``integrate``) and then one series.
    """
    n_t, k = f.shape[:2]
    series = np.ascontiguousarray(f.reshape(n_t, k, -1).sum(axis=2).T) * grid.cell_volume
    return np.trapezoid(series, times)


def pair_distances(a: Trajectory, b: Trajectory) -> dict:
    """Space-time distances per field: the L2 norm for c1, chi and tau and the
    L^{5/4}(0,T; W^{1,5/4}) norm for c2 (gradients by face differences)."""
    _check_compatible(a, b)
    grid, q = a.grid, 5.0 / 4.0
    diff = a.u - b.u
    c1, chi, tau = np.sqrt(_time_integrals(grid, a.times, diff[:, [0, 2, 3]] ** 2))
    d2 = diff[:, 1:2]  # the c2 row as an (n_t, 1, *shape) stack
    dens = np.abs(d2) ** q
    for comp in gradient_components(grid, d2):
        dens = dens + np.abs(comp) ** q
    (w,) = _time_integrals(grid, a.times, dens)
    return {"c1": float(c1), "c2": float(w ** (1.0 / q)), "chi": float(chi), "tau": float(tau)}


def artificial_terms(traj: Trajectory) -> tuple[float, float, float]:
    """Per-run sizes eps*int int c1^theta, eps*int int c2^theta, eps*int int |grad tau|^2/tau."""
    p, grid, u = traj.params, traj.grid, traj.u
    if p.eps == 0.0:
        return 0.0, 0.0, 0.0
    s1, s2 = _time_integrals(grid, traj.times, u[:, :2] ** p.theta)
    (s3,) = _time_integrals(grid, traj.times, fisher_integrand(grid, u[:, 3:]))
    return p.eps * float(s1), p.eps * float(s2), p.eps * float(s3)


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Step every member in one batch and assemble distances and artificial-term sizes."""
    members = tuple(dc_replace(cfg.params, eps=eps) for eps in cfg.eps_list)
    trajectories = _trajectories(cfg.initial, members, cfg.alphas, cfg.schedule, cfg.ctrl, named=True)
    entries = []
    for j, (eps, traj) in enumerate(zip(cfg.eps_list, trajectories)):
        art = artificial_terms(traj)
        dist = pair_distances(trajectories[j - 1], traj) if j > 0 else None
        entries.append(SweepEntry(eps, art[0], art[1], art[2], dist))
    return SweepReport(tuple(entries), trajectories)


def compare_to_limit(report: SweepReport, limit: Trajectory) -> list[dict]:
    """Distances of every member to the eps=0 run on the same data."""
    out = []
    for entry, traj in zip(report.entries, report.trajectories):
        d = pair_distances(traj, limit)
        d["eps"] = entry.eps
        out.append(d)
    return out
