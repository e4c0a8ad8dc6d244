"""Vanishing-regularization study: run a decreasing eps sequence on one dataset.

Members share the grid, initial data, schedule, and timestep policy; only eps
varies. For consecutive members the report holds space-time distances (L2 for
c1, chi, tau; the L^{5/4}-in-time W^{1,5/4}-in-space norm for c2, matching the
solution classes the limit object lives in) plus the size of the artificial
terms eps*int int c^theta and eps*int int |grad tau|^2/tau per member, which
must shrink as eps does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Optional

import numpy as np

from .diagnostics import fisher_integrand
from .grid import gradient_components, integrate
from .model import ModelParams, RateFunction, SupplySchedule
from .stepping import FIELDS, SimState, StepControl, run
from .weakform import Trajectory, TrajectoryRecorder


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


def l2_spacetime_distance(a: Trajectory, b: Trajectory, field: str) -> float:
    """Space-time L2 norm of the difference of one field."""
    _check_compatible(a, b)
    grid = a.grid
    series = np.array(
        [
            integrate(grid, (getattr(sa, field) - getattr(sb, field)) ** 2)
            for sa, sb in zip(a.states, b.states)
        ]
    )
    return float(np.sqrt(np.trapezoid(series, a.times)))


def w154_distance(a: Trajectory, b: Trajectory, field: str = "c2") -> float:
    """L^{5/4}(0,T; W^{1,5/4}) norm of the difference (gradients by face differences)."""
    _check_compatible(a, b)
    grid = a.grid
    q = 5.0 / 4.0
    series = []
    for sa, sb in zip(a.states, b.states):
        diff = getattr(sa, field) - getattr(sb, field)
        dens = np.abs(diff) ** q
        for comp in gradient_components(grid, diff):
            dens = dens + np.abs(comp) ** q
        series.append(integrate(grid, dens))
    return float(np.trapezoid(np.asarray(series), a.times) ** (1.0 / q))


def pair_distances(a: Trajectory, b: Trajectory) -> dict:
    return {
        "c1": l2_spacetime_distance(a, b, "c1"),
        "c2": w154_distance(a, b, "c2"),
        "chi": l2_spacetime_distance(a, b, "chi"),
        "tau": l2_spacetime_distance(a, b, "tau"),
    }


def artificial_terms(traj: Trajectory) -> tuple[float, float, float]:
    """Per-run sizes eps*int int c1^theta, eps*int int c2^theta, eps*int int |grad tau|^2/tau."""
    p = traj.params
    grid = traj.grid
    if p.eps == 0.0:
        return 0.0, 0.0, 0.0
    s1 = np.array([integrate(grid, s.c1**p.theta) for s in traj.states])
    s2 = np.array([integrate(grid, s.c2**p.theta) for s in traj.states])
    s3 = np.array([integrate(grid, fisher_integrand(grid, s.tau)) for s in traj.states])
    t = traj.times
    return (
        p.eps * float(np.trapezoid(s1, t)),
        p.eps * float(np.trapezoid(s2, t)),
        p.eps * float(np.trapezoid(s3, t)),
    )


def run_member(cfg: SweepConfig, eps: float) -> Trajectory:
    """One sweep member: the base problem with the given regularization strength."""
    params = dc_replace(cfg.params, eps=eps)
    recorder = TrajectoryRecorder()
    run(
        cfg.initial,
        params,
        cfg.alphas,
        cfg.schedule,
        cfg.ctrl,
        snapshot_sink=recorder,
    )
    return recorder.trajectory(params, cfg.alphas, cfg.schedule)


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Run every member and assemble distances and artificial-term sizes."""
    trajectories = [run_member(cfg, eps) for eps in cfg.eps_list]
    entries = []
    for j, (eps, traj) in enumerate(zip(cfg.eps_list, trajectories)):
        art = artificial_terms(traj)
        dist = pair_distances(trajectories[j - 1], traj) if j > 0 else None
        entries.append(SweepEntry(eps, art[0], art[1], art[2], dist))
    return SweepReport(tuple(entries), tuple(trajectories))


def compare_to_limit(report: SweepReport, limit: Trajectory) -> list[dict]:
    """Distances of every member to the eps=0 run on the same data."""
    out = []
    for entry, traj in zip(report.entries, report.trajectories):
        d = pair_distances(traj, limit)
        d["eps"] = entry.eps
        out.append(d)
    return out
