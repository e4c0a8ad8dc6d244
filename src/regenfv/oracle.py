"""Reference integrator for the spatially homogeneous reduction.

Classical RK4 with a fixed nominal step, shortened locally so that the events
of the model-core timeline (jump doses, pulse edges, save times) land on step
boundaries. Deliberately shares nothing with the PDE stepper beyond the
model core (reaction terms, supply, timeline), so uniform-data PDE runs can
be checked against a genuinely independent path.

Fixed-step RK4 (rather than an adaptive library solver) keeps every reference
value bit-reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StiffnessError
from .model import (
    ModelParams,
    RateFunction,
    SupplySchedule,
    dose_density,
    eval_supply,
    event_timeline,
    jump_doses,
    reaction_rhs,
)


@dataclass(frozen=True)
class HomogeneousState:
    """Uniform-in-space state: time plus the four nonnegative concentrations."""

    t: float
    c1: float
    c2: float
    chi: float
    tau: float

    def __post_init__(self):
        if min(self.c1, self.c2, self.chi, self.tau) < 0:
            raise ValueError("homogeneous state components must be nonnegative")


@dataclass(frozen=True)
class OracleTrajectory:
    """Times and (n, 4) component values in c1, c2, chi, tau order."""

    times: np.ndarray
    values: np.ndarray

    @property
    def final(self) -> HomogeneousState:
        c1, c2, chi, tau = self.values[-1]
        return HomogeneousState(float(self.times[-1]), c1, c2, chi, tau)


def rk4_solve(
    y0: HomogeneousState,
    p: ModelParams,
    alphas: tuple[RateFunction, RateFunction],
    schedule: SupplySchedule,
    dt: float,
    t_end: float,
    domain_measure: float = 1.0,
    save_every: float | None = None,
) -> OracleTrajectory:
    """Integrate the homogeneous system to t_end with fixed-step RK4.

    ``save_every`` selects the output cadence (None keeps only t=0 and t_end);
    saves fall on exact multiples of it. Jump doses are applied between
    steps, before a save at the same instant, so saved rows are right limits.
    A component below -1e-10 after a step raises StiffnessError (advice:
    reduce dt), smaller undershoots are clipped to zero.
    """
    if dt <= 0 or t_end < 0:
        raise ValueError("dt must be positive and t_end nonnegative")

    alpha1, alpha2 = alphas

    supply = 0.0  # the supply density of the current inter-event interval

    def rhs(c1, c2, chi, tau):
        # Stage extrapolations may dip infinitesimally negative; the model is
        # defined on the nonnegative orthant, so clip stage inputs.
        c1 = c1 if c1 > 0 else 0.0
        c2 = c2 if c2 > 0 else 0.0
        chi = chi if chi > 0 else 0.0
        tau = tau if tau > 0 else 0.0
        r1, r2, r3, r4 = reaction_rhs(c1, c2, chi, tau, p, alpha1, alpha2)
        return r1, r2, r3 + supply, r4

    increment = dose_density(schedule, domain_measure)
    tol = 1e-12 * max(1.0, t_end)

    times = [0.0]
    values = [(y0.c1, y0.c2, y0.chi, y0.tau)]

    t, c1, c2, chi, tau = 0.0, y0.c1, y0.c2, y0.chi, y0.tau
    for event, is_save in event_timeline(schedule, t_end, save_every):
        t_prev = t
        # Pulse edges are events, so the supply is constant between two of
        # them: evaluated once, mid-interval, no stage sees the next interval's.
        supply = eval_supply(schedule, 0.5 * (t + event), domain_measure)
        while t < event - tol:
            h = min(dt, event - t)
            k1 = rhs(c1, c2, chi, tau)
            k2 = rhs(c1 + 0.5 * h * k1[0], c2 + 0.5 * h * k1[1],
                     chi + 0.5 * h * k1[2], tau + 0.5 * h * k1[3])
            k3 = rhs(c1 + 0.5 * h * k2[0], c2 + 0.5 * h * k2[1],
                     chi + 0.5 * h * k2[2], tau + 0.5 * h * k2[3])
            k4 = rhs(c1 + h * k3[0], c2 + h * k3[1],
                     chi + h * k3[2], tau + h * k3[3])
            w = h / 6.0
            c1 += w * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
            c2 += w * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
            chi += w * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
            tau += w * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
            t += h

            low = min(c1, c2, chi, tau)
            if low < -1e-10:
                raise StiffnessError(
                    f"component fell to {low:g} at t={t:g}; reduce the oracle dt"
                )
            if low < 0.0:
                c1, c2 = max(c1, 0.0), max(c2, 0.0)
                chi, tau = max(chi, 0.0), max(tau, 0.0)
        t = event
        for _ in jump_doses(schedule, t_prev, event):
            chi += increment
        if is_save:
            times.append(t)
            values.append((c1, c2, chi, tau))
    return OracleTrajectory(np.asarray(times), np.asarray(values))
