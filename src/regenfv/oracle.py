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

import math
from dataclasses import dataclass

import numpy as np

from .errors import StiffnessError
from .model import (
    ModelParams,
    RateFunction,
    SupplySchedule,
    bind_reactions,
    dose_density,
    eval_supply,
    event_timeline,
    jump_doses,
)


@dataclass(frozen=True)
class HomogeneousState:
    """Uniform-in-space state: time plus the four finite nonnegative concentrations."""

    t: float
    c1: float
    c2: float
    chi: float
    tau: float

    def __post_init__(self):
        if not all(0 <= v < math.inf for v in (self.c1, self.c2, self.chi, self.tau)):
            raise ValueError("homogeneous state components must be finite and nonnegative")


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
    reduce dt), smaller undershoots are clipped to zero. A dt, t_end or
    domain_measure that is not finite and in range, or a save_every that is
    not positive, raises ValueError.
    """
    if not (0 < dt < math.inf and 0 <= t_end < math.inf and 0 < domain_measure < math.inf):
        raise ValueError("dt and domain_measure must be finite and positive, t_end finite and nonnegative")
    if save_every is not None and not save_every > 0:
        raise ValueError("save_every must be positive")

    # The stage function, bound once: the reaction terms with every coefficient
    # resolved, one call per RK4 stage. Stage extrapolations may dip
    # infinitesimally negative; the model is defined on the nonnegative
    # orthant, so it clips its inputs. The supply density of the current
    # inter-event interval is added to each stage's chi rate.
    rates = bind_reactions(p, *alphas, p.eps if p.eps > 0.0 else None, clip=True)
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
        end = event - tol
        while t < end:
            h = event - t  # min(dt, event - t), without a call per step
            if not h < dt:
                h = dt
            hh = 0.5 * h  # exact: c + 0.5 * h * k evaluates (0.5 * h) * k
            # stage i gives the rates (ai, bi, xi, yi) of (c1, c2, chi, tau)
            a1, b1, x1, y1 = rates(c1, c2, chi, tau)
            x1 += supply
            a2, b2, x2, y2 = rates(c1 + hh * a1, c2 + hh * b1, chi + hh * x1, tau + hh * y1)
            x2 += supply
            a3, b3, x3, y3 = rates(c1 + hh * a2, c2 + hh * b2, chi + hh * x2, tau + hh * y2)
            x3 += supply
            a4, b4, x4, y4 = rates(c1 + h * a3, c2 + h * b3, chi + h * x3, tau + h * y3)
            x4 += supply
            w = h / 6.0
            c1 += w * (a1 + 2.0 * (a2 + a3) + a4)
            c2 += w * (b1 + 2.0 * (b2 + b3) + b4)
            chi += w * (x1 + 2.0 * (x2 + x3) + x4)
            tau += w * (y1 + 2.0 * (y2 + y3) + y4)
            t += h

            if c1 < 0.0 or c2 < 0.0 or chi < 0.0 or tau < 0.0:  # rare: no min call per step
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
