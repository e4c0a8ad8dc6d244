"""Weak-form residuals of a stored trajectory against separable test functions.

Test functions psi(x,t) = prod_i cos(k_i*pi*x_i/L_i) * (1 - t/T)^m satisfy the
zero-normal-derivative condition on every boundary face and vanish at t = T by
construction, and all their derivatives are available in closed form. Because
psi separates into a spatial part S and a temporal part g, each space-time
integral reduces to a trapezoid rule in time over per-snapshot spatial dot
products (midpoint quadrature on the cell centers). The table is evaluated
snapshot by snapshot: the fields that do not depend on psi are built once per
snapshot and weighted by each distinct spatial part.

A solution of the transport system makes all four residuals vanish under
simultaneous grid/time/save refinement; the zero trajectory annihilates them
identically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .grid import Grid, gradient_components, integrate
from .model import ModelParams, RateFunction, SupplySchedule, eval_rate
from .stepping import SimState


@lru_cache(maxsize=64)
def _axis_factors(modes: tuple[int, ...], grid: Grid) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per axis, the read-only 1D factors cos(k*pi*x/L), cos(w*x) and
    -w*sin(w*x), w = k*pi/L, at the cell centers, shaped to broadcast along
    that axis. S uses the first form and grad S the other two; the forms can
    differ in the last bit when L != 1, so both are kept.
    """
    if len(modes) != grid.dim:
        raise ValueError("test-function dimension does not match the grid")
    factors = []
    for axis, (k, L) in enumerate(zip(modes, grid.lengths)):
        x = grid.axis_centers(axis).reshape([-1 if a == axis else 1 for a in range(grid.dim)])
        w = k * np.pi / L
        factors.append((np.cos(k * np.pi * x / L), np.cos(w * x), -w * np.sin(w * x)))
        for f in factors[-1]:
            f.flags.writeable = False
    return tuple(factors)


@dataclass(frozen=True)
class TestFunction:
    """Separable Neumann-compatible space-time test function.

    ``modes`` holds one nonnegative integer per axis; ``power`` is the
    temporal exponent m >= 1; ``horizon`` is the weak-form horizon T;
    ``amplitude`` scales the whole function (residuals are |a|-homogeneous).
    """

    modes: tuple[int, ...]
    power: int
    horizon: float
    amplitude: float = 1.0

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))  # a cache key of the spatial part
        if any(k < 0 for k in self.modes):
            raise ValueError("mode indices must be nonnegative")
        if self.power < 1:
            raise ValueError("temporal exponent must be at least 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    def spatial(self, grid: Grid) -> np.ndarray:
        """S(x) at cell centers: the amplitude times one cosine factor per axis."""
        out = self.amplitude
        for cos_kx, _, _ in _axis_factors(self.modes, grid):
            out = out * cos_kx
        return out

    def spatial_gradient(self, grid: Grid) -> tuple[np.ndarray, ...]:
        """grad S(x) at cell centers, one array per axis."""
        factors = _axis_factors(self.modes, grid)
        comps = []
        for axis in range(grid.dim):
            comp = self.amplitude
            for a, (_, cos_wx, dcos_wx) in enumerate(factors):
                comp = comp * (dcos_wx if a == axis else cos_wx)
            comps.append(comp)
        return tuple(comps)

    def laplace_factor(self, grid: Grid) -> float:
        """Delta S = -factor * S with factor = sum (k_i pi / L_i)^2."""
        return float(sum((k * np.pi / L) ** 2 for k, L in zip(self.modes, grid.lengths)))

    def g(self, t: np.ndarray) -> np.ndarray:
        """Temporal part (1 - t/T)^m."""
        return (1.0 - t / self.horizon) ** self.power

    def g_prime(self, t: np.ndarray) -> np.ndarray:
        m, T = self.power, self.horizon
        return -(m / T) * (1.0 - t / T) ** (m - 1)

    def g_integral(self, a: float, b: float) -> float:
        """Exact integral of g over [a, b] intersected with [0, T]."""
        T, m = self.horizon, self.power
        a, b = max(a, 0.0), min(b, T)
        if b <= a:
            return 0.0
        prim = lambda t: -T / (m + 1) * (1.0 - t / T) ** (m + 1)
        return prim(b) - prim(a)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly saved snapshots of one run plus the generating model data."""

    times: np.ndarray
    states: tuple[SimState, ...]
    params: ModelParams
    alphas: tuple[RateFunction, RateFunction]
    schedule: SupplySchedule

    def __post_init__(self):
        if len(self.states) != len(self.times) or len(self.states) < 2:
            raise ValueError("need at least two snapshots with matching times")
        if self.times[0] != 0.0 or not np.all(np.diff(self.times) > 0):
            raise ValueError("snapshot times must start at 0 and increase strictly")
        grid = self.states[0].grid
        if any(s.grid is not grid and s.grid != grid for s in self.states):
            raise ValueError("all snapshots must share one grid")

    @property
    def grid(self) -> Grid:
        return self.states[0].grid

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


class TrajectoryRecorder:
    """Snapshot sink for stepping.run that assembles a Trajectory."""

    def __init__(self):
        self.times: list[float] = []
        self.states: list[SimState] = []

    def __call__(self, index: int, state: SimState) -> None:
        self.times.append(state.t)
        self.states.append(state)

    def trajectory(
        self,
        params: ModelParams,
        alphas: tuple[RateFunction, RateFunction],
        schedule: SupplySchedule,
    ) -> Trajectory:
        return Trajectory(
            np.asarray(self.times), tuple(self.states), params, alphas, schedule
        )


def _check_horizon(traj: Trajectory, psi: TestFunction) -> None:
    if abs(psi.horizon - traj.horizon) > 1e-12 * max(1.0, traj.horizon):
        raise ValueError(
            f"test-function horizon {psi.horizon} does not match trajectory horizon {traj.horizon}"
        )


def _trapz(traj: Trajectory, series: np.ndarray) -> float:
    return float(np.trapezoid(series, traj.times))


def _spatial_series(traj: Trajectory, psis: Sequence[TestFunction]) -> dict:
    """Per spatial part (modes, amplitude) of ``psis``, the snapshot series of
    every spatial integral the four identities use, keyed by term name.

    Each snapshot is visited once: its psi-independent fields (gradients,
    switching and logistic prefixes, products) are built once, then weighted
    by each part's S and grad S. Every integrand keeps the left-to-right order
    of its identity, e.g. ``(rate * c1 / (1 + c1)) * S``.
    """
    grid, p = traj.grid, traj.params
    alpha1, alpha2 = traj.alphas
    parts = {}
    for psi in psis:
        _check_horizon(traj, psi)
        parts.setdefault((psi.modes, psi.amplitude), psi)
    series = {key: {} for key in parts}
    for s in traj.states:
        c1, c2, chi, tau = s.u
        grads = gradient_components(grid, s.u)  # per axis, rows c1, c2, chi, tau
        weighted = {  # integrand field * S
            "c1": c1, "c2": c2, "chi": chi, "tau": tau,
            "sw_in": eval_rate(alpha1, chi) * c1 / (1.0 + c1),
            "sw_out": eval_rate(alpha2, chi) * c2 / (1.0 + c2),
            "logistic": c1 * (1.0 - c1 - c2 - tau),
            "c2_chi": c2 * chi,
            "c1_chi": c1 * chi,
            "tau_c1": tau * c1,
            "produce": c2 / (1.0 + c2),
        }
        if p.eps > 0:
            weighted.update(damp_c1=c1**p.theta, damp_c2=c2**p.theta)
        for key, psi in parts.items():
            S, gS = psi.spatial(grid), psi.spatial_gradient(grid)
            dots = sum(d * dS for d, dS in zip(grads, gS))  # per row, grad f . grad S
            values = {name: integrate(grid, f * S) for name, f in weighted.items()}
            for name, dot in zip(("grad_c1", "grad_c2", "grad_chi", "grad_tau"), dots):
                values[name] = integrate(grid, dot)
            values["taxis"] = integrate(grid, c1 * dots[3])
            values["chi_grad"] = integrate(grid, chi * dots[1])
            for name, value in values.items():
                series[key].setdefault(name, []).append(value)
    return {key: {name: np.array(v) for name, v in terms.items()} for key, terms in series.items()}


def _rhs_c1(traj: Trajectory, psi: TestFunction, J) -> float:
    """Stem cells: diffusion, haptotaxis up tau, switching, logistic growth."""
    p = traj.params
    rhs = (-p.a1 * J("grad_c1") + p.b_tau * J("taxis") - J("sw_in") + J("sw_out")
           + p.beta * J("logistic"))
    if p.eps > 0:
        rhs -= p.eps * J("damp_c1")
    return rhs


def _rhs_c2(traj: Trajectory, psi: TestFunction, J) -> float:
    """Chondrocytes: the c2*chi term pairs with Delta psi = -kappa_sq * psi."""
    p = traj.params
    rhs = (-p.a2 * J("grad_c2") + p.b_chi * psi.laplace_factor(traj.grid) * J("c2_chi")
           - p.b_chi * J("chi_grad") + J("sw_in") - J("sw_out"))
    if p.eps > 0:
        rhs -= p.eps * J("damp_c2")
    return rhs


def _supply_term(traj: Trajectory, psi: TestFunction) -> float:
    """psi-weighted supply contribution: exact in time for both dose modes."""
    grid, sched = traj.grid, traj.schedule
    if sched.chi0 == 0.0 or not sched.dose_times:
        return 0.0
    s_int = integrate(grid, psi.spatial(grid))
    amplitude, total = sched.chi0 / grid.measure, 0.0
    for td in sched.dose_times:
        if sched.mode == "pulse":
            total += amplitude * s_int * psi.g_integral(td, td + sched.width)
        elif td < traj.horizon:
            total += amplitude * s_int * float(psi.g(td))
    return total


def _rhs_chi(traj: Trajectory, psi: TestFunction, J) -> float:
    """Medium: diffusion, uptake by both cell types, supply."""
    p = traj.params
    return (-p.d_chi * J("grad_chi") - p.a_chi * J("c1_chi") - p.a_chi * J("c2_chi")
            + _supply_term(traj, psi))


def _rhs_tau(traj: Trajectory, psi: TestFunction, J) -> float:
    """Matrix: degradation, decay, production; grad tau enters only when eps > 0."""
    p = traj.params
    rhs = -p.delta * J("tau_c1") - p.mu * J("tau") + J("produce")
    if p.eps > 0:
        rhs -= p.eps * J("grad_tau")
    return rhs


_RHS = {"c1": _rhs_c1, "c2": _rhs_c2, "chi": _rhs_chi, "tau": _rhs_tau}


def _residuals(traj: Trajectory, psis: Sequence[TestFunction], equations=tuple(_RHS)) -> list:
    """(equation, modes, power, |LHS - RHS|) per test function and equation."""
    series = _spatial_series(traj, psis)
    rows = []
    for psi in psis:
        sr = series[(psi.modes, psi.amplitude)]
        g, gp = psi.g(traj.times), psi.g_prime(traj.times)
        J = lambda name: _trapz(traj, sr[name] * g)  # time integral of a series against g
        for eq in equations:
            a = sr[eq]
            lhs = -_trapz(traj, a * gp) - a[0]  # psi(.,0) = S, so the data term is a[0]
            rows.append((eq, psi.modes, psi.power, abs(lhs - _RHS[eq](traj, psi, J))))
    return rows


def residual_c1(traj: Trajectory, psi: TestFunction) -> float:
    """|LHS - RHS| of the stem-cell weak identity for one test function."""
    return _residuals(traj, (psi,), ("c1",))[0][3]


def residual_c2(traj: Trajectory, psi: TestFunction) -> float:
    """|LHS - RHS| of the chondrocyte weak identity (chemotaxis in double-divergence form)."""
    return _residuals(traj, (psi,), ("c2",))[0][3]


def residual_chi(traj: Trajectory, psi: TestFunction) -> float:
    """|LHS - RHS| of the medium weak identity, supply term included."""
    return _residuals(traj, (psi,), ("chi",))[0][3]


def residual_tau(traj: Trajectory, psi: TestFunction) -> float:
    """|LHS - RHS| of the matrix weak identity (gradient-free in the limit model)."""
    return _residuals(traj, (psi,), ("tau",))[0][3]


RESIDUALS = {"c1": residual_c1, "c2": residual_c2, "chi": residual_chi, "tau": residual_tau}


def make_test_functions(grid: Grid, t_end: float, k_max: int = 3, powers: Sequence[int] = (1, 2)):
    """The default generating family: per-axis modes up to k_max, the given powers."""
    mode_tuples = itertools.product(range(k_max + 1), repeat=grid.dim)
    return [TestFunction(modes=modes, power=m, horizon=t_end)
            for modes in mode_tuples for m in powers]


def residual_table(traj: Trajectory, k_max: int = 3, powers: Sequence[int] = (1, 2)):
    """All residuals over the default test set: rows of (equation, modes, power, value)."""
    return _residuals(traj, make_test_functions(traj.grid, traj.horizon, k_max, powers))
