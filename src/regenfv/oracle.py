"""Reference integrator for the spatially homogeneous reduction.

Classical RK4 with a fixed nominal step, shortened locally so that the events
of the model-core timeline (jump doses, pulse edges, save times) land on step
boundaries, with the supply and doses the timeline gives, as in the PDE
driver. Deliberately shares nothing with the PDE stepper beyond the model
core (reaction terms, timeline), so uniform-data PDE runs can be checked
against a genuinely independent path.

Fixed-step RK4 (rather than an adaptive library solver) keeps every reference
value bit-reproducible across runs and platforms.

The loop is written once, in ``_rk4``, on Python floats, and returns plain
lists. It has two consumers: ``rk4_solve``, the library entry, wraps the lists
in an ``OracleTrajectory`` of numpy arrays; the ``oracle`` command writes its
rows straight from them, so that it never imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import StiffnessError
from .model import (
    ModelParams,
    RateFunction,
    SupplySchedule,
    bind_reactions,
    check_initial,
    event_timeline,
    landing_tol,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class HomogeneousState:
    """Uniform-in-space state: time plus the four concentrations, which obey
    ``check_initial`` (finite, c1, c2 >= 0 and chi, tau > 0)."""

    t: float
    c1: float
    c2: float
    chi: float
    tau: float

    def __post_init__(self):
        for row, name in enumerate(("c1", "c2", "chi", "tau")):
            check_initial(row, getattr(self, name), name)


@dataclass(frozen=True)
class OracleTrajectory:
    """Times and (n, 4) component values in c1, c2, chi, tau order."""

    times: np.ndarray
    values: np.ndarray

    @property
    def final(self) -> HomogeneousState:
        """The last saved row, built without ``check_initial``: it is a value of
        the solution, whose chi or tau is 0 where ``_rk4`` clipped an undershoot."""
        state = object.__new__(HomogeneousState)
        vars(state).update(zip(("t", "c1", "c2", "chi", "tau"), (float(self.times[-1]), *self.values[-1])))
        return state


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
    saves fall on exact multiples of it. Every stage adds the supply density of
    its ``event_timeline`` interval to the chi rate; an event's jump dose is
    added on landing, before its save, so saved rows are right limits.
    A component below -1e-10 after a step raises StiffnessError (advice:
    reduce dt), smaller undershoots are clipped to zero. A dt, t_end or
    domain_measure that is not finite and in range, a save_every that is
    not positive, or a y0 that is not at t = 0 (the dose schedule's origin)
    raises ValueError.
    """
    import numpy as np

    times, values = _rk4(y0, p, alphas, schedule, dt, t_end, domain_measure, save_every)
    return OracleTrajectory(np.asarray(times), np.asarray(values))


def _rk4(y0: HomogeneousState, p: ModelParams, alphas: tuple[RateFunction, RateFunction],
         schedule: SupplySchedule, dt: float, t_end: float, domain_measure: float = 1.0,
         save_every: float | None = None) -> tuple[list[float], list[tuple[float, ...]]]:
    """``rk4_solve`` as Python lists: the save times, and per save the
    (c1, c2, chi, tau) floats."""
    if y0.t != 0.0:
        raise ValueError(f"the oracle starts at t=0 (its dose schedule's origin), not at t={y0.t!r}")
    if not (0 < dt < math.inf and 0 <= t_end < math.inf and 0 < domain_measure < math.inf):
        raise ValueError("dt and domain_measure must be finite and positive, t_end finite and nonnegative")
    if save_every is not None and not save_every > 0:
        raise ValueError("save_every must be positive")

    # The stage function, bound once: the reaction terms with every coefficient
    # resolved, one call per RK4 stage. Stage extrapolations may dip
    # infinitesimally negative; the model is defined on the nonnegative
    # orthant, so the float form clips its inputs.
    rates = bind_reactions(p, *alphas, p.eps if p.eps > 0.0 else None)
    tol = landing_tol(t_end)

    times = [0.0]
    values = [(y0.c1, y0.c2, y0.chi, y0.tau)]

    t, c1, c2, chi, tau = 0.0, y0.c1, y0.c2, y0.chi, y0.tau
    for event, is_save, supply, dose in event_timeline(schedule, t_end, save_every, domain_measure):
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
        if dose is not None:
            chi += dose
        if is_save:
            times.append(t)
            values.append((c1, c2, chi, tau))
    return times, values
