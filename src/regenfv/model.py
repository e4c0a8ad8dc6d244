"""Model coefficients, switching-rate functions, dosing schedule, reaction terms.

Everything here is a pure function of its arguments; both the PDE stepper and
the homogeneous ODE reference build on these and nothing else, so the two
integration paths stay independent above this layer.

State variables: c1 (stem cells), c2 (chondrocytes), chi (differentiation
medium), tau (extracellular matrix). The regularized variant adds -eps*c^theta
damping to both cell equations and eps-diffusion to tau; eps=0 selects the
limit model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Absolute tolerance for "an event lies in (t0, t1]": a dose or edge closer
# than this to a step end counts as landed on.
EVENT_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Scalar coefficients of the reaction-taxis system plus regularization.

    Diffusivities, taxis coefficients, and the matrix decay rates are strictly
    positive; ``beta`` and ``a_chi`` may be zero to switch proliferation or
    medium uptake off. ``eps`` in [0, 1) selects the regularized variant when
    positive; ``theta`` is the damping exponent, required > 2 (and > spatial
    dimension, checked at run setup).
    """

    a1: float
    a2: float
    b_tau: float
    b_chi: float
    d_chi: float
    a_chi: float
    beta: float
    delta: float
    mu: float
    eps: float = 0.0
    theta: float = 4.0

    def __post_init__(self):
        positives = {
            "a1": self.a1, "a2": self.a2, "b_tau": self.b_tau, "b_chi": self.b_chi,
            "d_chi": self.d_chi, "delta": self.delta, "mu": self.mu,
        }
        for name, value in positives.items():
            if not value > 0:
                raise ValueError(f"parameter {name} must be strictly positive, got {value}")
        # beta and a_chi admit 0 so the conservation and dosing-budget checks
        # can switch proliferation and uptake off; the mass bound degenerates
        # gracefully (M1 -> infinity as beta -> 0).
        for name, value in (("beta", self.beta), ("a_chi", self.a_chi)):
            if value < 0:
                raise ValueError(f"parameter {name} must be nonnegative, got {value}")
        if not 0 <= self.eps < 1:
            raise ValueError(f"eps must lie in [0, 1), got {self.eps}")
        if not self.theta > 2:
            raise ValueError(f"theta must exceed 2, got {self.theta}")


@dataclass(frozen=True)
class RateFunction:
    """Bounded positive switching rate: constant or Michaelis-Menten in chi.

    The amplitude is the certified supremum (0 < value <= amplitude for all
    z >= 0). The saturating form is floored at ``floor`` (default
    1e-12*amplitude) so strict positivity survives z=0.
    """

    kind: str
    amplitude: float
    half_saturation: float = 1.0
    floor: float = field(default=-1.0)

    def __post_init__(self):
        if self.kind not in ("constant", "saturating"):
            raise ValueError(f"unknown rate kind {self.kind!r}")
        if self.amplitude < 0:
            raise ValueError("rate amplitude must be nonnegative")
        if self.kind == "saturating" and not self.half_saturation > 0:
            raise ValueError("half-saturation must be positive")
        if self.floor < 0:
            object.__setattr__(self, "floor", 1e-12 * self.amplitude)
        if self.floor > self.amplitude:
            raise ValueError("positivity floor cannot exceed the amplitude")

    @property
    def bound(self) -> float:
        """The certified upper bound M_alpha."""
        return self.amplitude


def eval_rate(f: RateFunction, z):
    """Evaluate a rate function at z >= 0 (scalar or array); result in (0, amplitude]."""
    if f.kind == "constant":
        return f.amplitude
    value = f.amplitude * z / (f.half_saturation + z)
    if isinstance(value, float):
        return max(value, f.floor)
    return np.maximum(value, f.floor)


@dataclass(frozen=True)
class SupplySchedule:
    """Periodic medium dosing: the dose times, the per-event quantity chi0,
    and whether each event is a finite-width pulse or an instantaneous jump.
    """

    dose_times: tuple[float, ...] = ()
    chi0: float = 0.0
    mode: str = "pulse"
    width: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "dose_times", tuple(float(t) for t in self.dose_times))
        if self.mode not in ("pulse", "jump"):
            raise ValueError(f"unknown supply mode {self.mode!r}")
        if self.chi0 < 0:
            raise ValueError("chi0 must be nonnegative")
        if any(t < 0 for t in self.dose_times):
            raise ValueError("dose times must be nonnegative")
        if any(b <= a for a, b in zip(self.dose_times, self.dose_times[1:])):
            raise ValueError("dose times must be strictly increasing")
        if self.mode == "pulse" and not self.width > 0:
            raise ValueError("pulse width must be positive")
        if self.mode == "jump" and 0.0 in self.dose_times:
            raise ValueError(
                "a jump dose at t=0 would never be applied; fold it into the initial "
                "medium (the chi0 section) instead"
            )


def event_timeline(
    s: SupplySchedule, t_end: float, save_every: Optional[float] = None
) -> list[tuple[float, bool]]:
    """Sorted (time, is_save) events in (0, t_end] that an integrator lands on.

    Events are the jump doses in (0, t_end], the pulse edges in (0, t_end),
    the multiples of ``save_every`` below t_end, and t_end itself (a save).
    Events closer than 1e-12*max(1, t_end) merge into the earlier one. States
    saved at an event are right limits: a jump dose there is already applied.
    """
    if t_end <= EVENT_TOL:  # nothing to land on
        return []
    if s.mode == "jump":
        raw = [(td, False) for td in s.dose_times if 0 < td <= t_end]
    else:
        edges = (e for td in s.dose_times for e in (td, td + s.width))
        raw = [(e, False) for e in edges if 0 < e < t_end]
    k = 1
    while save_every is not None and k * save_every < t_end - EVENT_TOL:
        raw.append((k * save_every, True))
        k += 1
    raw.append((t_end, True))
    merged: list[tuple[float, bool]] = []
    for t, is_save in sorted(raw):
        if merged and t - merged[-1][0] <= 1e-12 * max(1.0, t_end):
            merged[-1] = (merged[-1][0], merged[-1][1] or is_save)
        else:
            merged.append((t, is_save))
    return merged


def jump_doses(s: SupplySchedule, t0: float, t1: float) -> list[float]:
    """The jump-dose times an integrator crosses stepping from t0 to t1: (t0, t1] up to EVENT_TOL."""
    if s.mode != "jump":
        return []
    return [td for td in s.dose_times if t0 + EVENT_TOL < td <= t1 + EVENT_TOL]


def dose_density(s: SupplySchedule, domain_measure: float) -> float:
    """chi0/|Omega|: the rise of chi at a jump dose, and the supply density of
    one active pulse, so that each dose adds exactly chi0 of medium mass."""
    return s.chi0 / domain_measure


def eval_supply(s: SupplySchedule, t: float, domain_measure: float) -> float:
    """Instantaneous supply density at time t: chi0/|Omega| per pulse window
    [t_k, t_k + width) containing t, so overlapping pulses add up and each
    pulse delivers chi0 * width.

    Jump-mode doses are measures in time handled by apply_dose, so the density
    is 0 there. The return value is k * chi0/|Omega| with k the number of
    active windows.
    """
    if s.mode != "pulse" or s.chi0 == 0.0:
        return 0.0
    active = 0
    for tk in s.dose_times:
        if tk > t:
            break
        active += t < tk + s.width
    return active * dose_density(s, domain_measure)


def reaction_rhs(c1, c2, chi, tau, p: ModelParams, alpha1: RateFunction, alpha2: RateFunction):
    """Non-transport right-hand sides of the four equations at one state.

    Returns (r1, r2, r3, r4); the medium supply is added separately. The
    alpha-exchange terms in r1 and r2 are exact negatives of each other, so
    phenotype switching conserves total cell mass pointwise. Arguments must
    lie in the nonnegative orthant; callers validate their data at entry.
    """
    r1, r2, r3 = cell_medium_reactions(c1, c2, chi, tau, p, alpha1, alpha2,
                                       p.eps if p.eps > 0.0 else None)
    r4 = -p.delta * c1 * tau - p.mu * tau + c2 / (1.0 + c2)
    return r1, r2, r3, r4


def cell_medium_reactions(c1, c2, chi, tau, p: ModelParams, alpha1: RateFunction,
                          alpha2: RateFunction, eps):
    """r1, r2, r3 of ``reaction_rhs``: the reactions of the two cell equations
    and the medium, which the stepper adds to their transport. ``eps`` is the
    strength of the damping -eps*c^theta, None for the limit model; a column
    such as ``(m, 1, ...)`` damps each leading row of c1 and c2 with its own
    value, so one call serves every member of a sweep. The tau equation's
    reaction is not computed: the stepper treats its sink exactly.
    """
    a1v = eval_rate(alpha1, chi)
    a2v = eval_rate(alpha2, chi)
    switch = a1v * c1 / (1.0 + c1) - a2v * c2 / (1.0 + c2)
    r1 = -switch + p.beta * c1 * (1.0 - c1 - c2 - tau)
    r2 = switch
    if eps is not None:
        r1 = r1 - eps * c1**p.theta
        r2 = r2 - eps * c2**p.theta
    r3 = -p.a_chi * (c1 + c2) * chi
    return r1, r2, r3


def apply_dose(state, s: SupplySchedule):
    """Increment chi uniformly by chi0/|Omega| (jump mode only).

    The total added medium mass is exactly chi0; all other fields untouched.
    Returns a new state.
    """
    if s.mode != "jump":
        raise ValueError("apply_dose is only meaningful in jump mode")
    u = state.u.copy()
    u[2] += dose_density(s, state.grid.measure)
    return state.replace(u=u)
