"""Model coefficients, switching-rate functions, dosing schedule, reaction terms.

Everything here is a pure function of its arguments; both the PDE stepper and
the homogeneous ODE reference build on these and nothing else, so the two
integration paths stay independent above this layer. ``event_timeline`` is the
one rule that turns a schedule's dose times into the supply density of each
interval and the chi increment of each jump dose, for both integrators and
the weak form's supply term; its saves give ``save_times``, the one
statement of when a run saves.

``bind_reactions`` is the one place the reaction kinetics are written: the
stepper, the weak-form residuals and the oracle all evaluate the terms it
returns.

The coefficient classes state the range rule of each of their fields, and
``check_initial`` states the initial-data assumption, each once: parsing a
configuration, building its initial data and starting a run all call them.

State variables, in ``FIELDS`` order (of every state, initial-data section
and output header): c1 (stem cells), c2 (chondrocytes), chi (differentiation
medium), tau (extracellular matrix). The regularized variant adds -eps*c^theta
damping to both cell equations and eps-diffusion to tau; eps=0 selects the
limit model. numpy is imported only for array arguments
(``bind_reactions(..., arrays=True)``): the oracle runs on floats without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import FieldError, require

FIELDS = ("c1", "c2", "chi", "tau")  # the rows of every state, in order


@dataclass(frozen=True)
class ModelParams:
    """Scalar coefficients of the reaction-taxis system plus regularization.

    Diffusivities, taxis coefficients, and the matrix decay rates are strictly
    positive; ``beta`` and ``a_chi`` may be zero to switch proliferation or
    medium uptake off. ``eps`` in [0, 1) selects the regularized variant when
    positive; ``theta`` is the damping exponent, required > 2, which is also
    above the dimension of every grid (1D or 2D).
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
        # beta and a_chi admit 0 so the conservation and dosing-budget checks
        # can switch proliferation and uptake off; the mass bound degenerates
        # gracefully (M1 -> infinity as beta -> 0).
        for name, value in vars(self).items():
            ok, rule = {
                "a_chi": (value >= 0, "be nonnegative"), "beta": (value >= 0, "be nonnegative"),
                "eps": (0 <= value < 1, "lie in [0, 1)"), "theta": (value > 2, "exceed 2"),
            }.get(name, (value > 0, "be strictly positive"))
            require(name, value, ok, rule)


@dataclass(frozen=True)
class RateFunction:
    """Bounded positive switching rate: constant or Michaelis-Menten in chi.

    The amplitude is the certified supremum (0 < value <= amplitude for all
    z >= 0 when the amplitude is positive). The saturating form is floored at
    ``floor``, derived as 1e-12*amplitude, so strict positivity survives z=0.
    """

    kind: str
    amplitude: float
    half_saturation: float = 1.0
    floor: float = field(init=False)

    def __post_init__(self):
        if self.kind not in ("constant", "saturating"):
            raise FieldError("kind", f"must be constant or saturating, got {self.kind!r}")
        require("amplitude", self.amplitude, self.amplitude >= 0, "be nonnegative")
        h = self.half_saturation
        require("half_saturation", h, h > 0 or self.kind == "constant", "be strictly positive")
        object.__setattr__(self, "floor", 1e-12 * self.amplitude)


def _bind_rate(f: RateFunction, maximum: Callable) -> Callable:
    """``f`` as a function of z alone, its constants resolved once; ``maximum``
    floors the saturating form: ``max`` for float z, ``np.maximum`` for arrays."""
    amplitude = f.amplitude
    if f.kind == "constant":
        return lambda z: amplitude
    half_saturation, floor = f.half_saturation, f.floor
    return lambda z: maximum(amplitude * z / (half_saturation + z), floor)


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
        for t in self.dose_times:
            require("dose_times", t, t >= 0, "be nonnegative")
        if any(b <= a for a, b in zip(self.dose_times, self.dose_times[1:])):
            raise FieldError("dose_times", f"must be strictly increasing, got {self.dose_times}")
        require("chi0", self.chi0, self.chi0 >= 0, "be nonnegative")
        if self.mode not in ("pulse", "jump"):
            raise FieldError("mode", f"must be pulse or jump, got {self.mode!r}")
        require("width", self.width, self.width > 0, "be strictly positive")
        if self.mode == "jump" and 0.0 in self.dose_times:
            raise FieldError("dose_times", "must not hold t=0 in jump mode: a jump dose at t=0 would "
                             "never be applied; fold it into the initial medium (the chi0 section) instead")


def check_initial(row: int, low: float, name: str) -> None:
    """The initial-data assumption on row ``row`` (c1, c2, chi, tau) of a
    state, given its lowest value ``low``: finite, c1, c2 >= 0 and chi, tau > 0.
    The FieldError names ``name``."""
    cells = row < 2
    require(name, low, low >= 0 if cells else low > 0, "be nonnegative" if cells else "be strictly positive")


def landing_tol(t_end: float) -> float:
    """The one landing tolerance of a run to t_end, 1e-12*max(1, t_end): a step
    end this close below an event lands on it, and events this close merge."""
    return 1e-12 * max(1.0, t_end)


def event_timeline(
    s: SupplySchedule, t_end: float, save_every: Optional[float] = None, domain_measure: float = 1.0
) -> list[tuple[float, bool, float, Optional[float]]]:
    """Sorted events (time, is_save, supply, dose) in (0, t_end] that an
    integrator lands on: ``supply`` is the pulse supply density on the interval
    ending at the event, ``dose`` the rise of chi by the jump doses landing
    with it (None where none does).

    Events are the jump doses in (0, t_end], the pulse edges in (0, t_end),
    the multiples of ``save_every`` and t_end (a save). Events within tol =
    ``landing_tol(t_end)`` of each other (a dose after t_end too) merge into
    the earlier one, or into t_end; a merged dose or edge counts there. An
    integrator steps to t >= event - tol, lands, adds the dose, then saves.
    """
    tol = landing_tol(t_end)
    if t_end <= tol:  # nothing to land on
        return []
    # (time, is_save, change of the active pulse count at it, doses at it)
    raw, k = [(t_end, True, 0, 0)], 1
    while save_every is not None and k * save_every < t_end - tol:
        raw.append((k * save_every, True, 0, 0))
        k += 1
    if s.mode == "jump":
        raw += [(td, False, 0, 1) for td in s.dose_times if 0 < td <= t_end + tol]
    else:
        edges = ((e, change) for td in s.dose_times for e, change in ((td, 1), (td + s.width, -1)))
        raw += [(e, False, change, 0) for e, change in edges if 0 < e < t_end]
    # merged events hold the active pulse count before them; pulses at t = 0 are on from the start
    merged, active = [], s.dose_times.count(0.0) if s.mode == "pulse" else 0
    for t, is_save, change, doses in sorted(raw):
        if merged and t - merged[-1][0] <= tol:
            t0, save0, before, doses0 = merged[-1]
            merged[-1] = (t if t == t_end else t0, save0 or is_save, before, doses0 + doses)
        else:
            merged.append((t, is_save, active, doses))
        active += change
    # chi0/|Omega|: the rise of chi at a jump dose (chi0 of medium mass) and one active pulse's supply density
    density = s.chi0 / domain_measure
    return [(t, is_save, n * density, doses * density if doses else None) for t, is_save, n, doses in merged]


def save_times(s: SupplySchedule, t_end: float, save_every: Optional[float]) -> list[float]:
    """Where a march to t_end saves: t = 0, then the save events of ``event_timeline``."""
    return [0.0] + [t for t, is_save, _, _ in event_timeline(s, t_end, save_every) if is_save]


def bind_reactions(p: ModelParams, alpha1: RateFunction, alpha2: RateFunction, eps=None,
                   arrays: bool = False, matrix: bool = True) -> Callable:
    """The reaction terms as one function ``reactions(c1, c2, chi, tau)`` of the
    state, with the coefficients of ``p`` and both rates resolved here, once:
    the one place each term is written, for the stepper, the weak form and
    the oracle alike.

    It returns (r1, r2, r3, r4) with r4 = -delta c1 tau - mu tau + c2/(1 + c2).
    When ``matrix`` is False it returns (r1, r2, r3, c2/(1 + c2), mu + delta c1)
    instead: tau's production and the rate of its linear sink, which the
    stepper treats exactly. The medium supply is added separately. The
    alpha-exchange terms in r1 and r2 are exact negatives of
    each other, so phenotype switching conserves total cell mass pointwise.
    ``eps`` is the strength of the damping -eps*c^theta, None for the limit
    model; a column such as ``(m, 1, ...)`` damps each leading row of c1 and c2
    with its own value, so one call serves every member of a sweep.
    ``arrays`` selects array arguments, else floats. The state must lie in the
    nonnegative orthant; a float argument that is not positive reads as 0.0,
    as the oracle's RK4 stage extrapolations may dip infinitesimally below
    zero.
    """
    maximum = max
    if arrays:
        from numpy import maximum
    rate1, rate2 = (_bind_rate(f, maximum) for f in (alpha1, alpha2))
    beta, theta, a_chi, delta, mu = p.beta, p.theta, p.a_chi, p.delta, p.mu

    def reactions(c1, c2, chi, tau):
        if not arrays:
            c1 = c1 if c1 > 0 else 0.0
            c2 = c2 if c2 > 0 else 0.0
            chi = chi if chi > 0 else 0.0
            tau = tau if tau > 0 else 0.0
        switch = rate1(chi) * c1 / (1.0 + c1) - rate2(chi) * c2 / (1.0 + c2)
        r1 = -switch + beta * c1 * (1.0 - c1 - c2 - tau)
        r2 = switch
        if eps is not None:
            r1 = r1 - eps * c1**theta
            r2 = r2 - eps * c2**theta
        r3 = -a_chi * (c1 + c2) * chi
        if not matrix:
            return r1, r2, r3, c2 / (1.0 + c2), mu + delta * c1
        return r1, r2, r3, -delta * c1 * tau - mu * tau + c2 / (1.0 + c2)

    return reactions
