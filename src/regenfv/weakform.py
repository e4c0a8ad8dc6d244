"""Weak-form residuals of a stored trajectory against separable test functions.

Test functions psi(x,t) = prod_i cos(k_i*pi*x_i/L_i) * (1 - t/T)^m satisfy the
zero-normal-derivative condition on every boundary face and vanish at t = T by
construction, and all their derivatives are available in closed form. Because
psi separates into a spatial part S and a temporal part g, each space-time
integral reduces to a trapezoid rule in time over per-snapshot spatial dot
products (midpoint quadrature on the cell centers).

A solution of the transport system makes all four residuals vanish under
simultaneous grid/time/save refinement; the zero trajectory annihilates them
identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Grid, gradient_components, integrate
from .model import ModelParams, RateFunction, SupplySchedule, eval_rate
from .stepping import SimState


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
        if any(k < 0 for k in self.modes):
            raise ValueError("mode indices must be nonnegative")
        if self.power < 1:
            raise ValueError("temporal exponent must be at least 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    def spatial(self, grid: Grid) -> np.ndarray:
        """S(x) at cell centers."""
        if len(self.modes) != grid.dim:
            raise ValueError("test-function dimension does not match the grid")
        out = np.full(grid.shape, self.amplitude)
        coords = grid.coordinate_arrays()
        for k, x, L in zip(self.modes, coords, grid.lengths):
            out = out * np.cos(k * np.pi * x / L)
        return out

    def spatial_gradient(self, grid: Grid) -> tuple[np.ndarray, ...]:
        """grad S(x) at cell centers, one array per axis."""
        coords = grid.coordinate_arrays()
        comps = []
        for axis in range(grid.dim):
            comp = np.full(grid.shape, self.amplitude)
            for a, (k, x, L) in enumerate(zip(self.modes, coords, grid.lengths)):
                w = k * np.pi / L
                comp = comp * (-w * np.sin(w * x) if a == axis else np.cos(w * x))
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


def _grad_dot(grid: Grid, f: np.ndarray, grad_S: tuple[np.ndarray, ...]) -> np.ndarray:
    """Cellwise grad f . grad S."""
    return sum(c * gc for c, gc in zip(gradient_components(grid, f), grad_S))


def _series(traj: Trajectory, integrand) -> np.ndarray:
    grid = traj.grid
    return np.array([integrate(grid, integrand(s)) for s in traj.states])


def _trapz(traj: Trajectory, series: np.ndarray) -> float:
    return float(np.trapezoid(series, traj.times))


def residual_c1(traj: Trajectory, psi: TestFunction) -> float:
    """|LHS - RHS| of the stem-cell weak identity for one test function."""
    _check_horizon(traj, psi)
    grid, p = traj.grid, traj.params
    alpha1, alpha2 = traj.alphas
    S = psi.spatial(grid)
    gS = psi.spatial_gradient(grid)
    t = traj.times
    g, gp = psi.g(t), psi.g_prime(t)

    a = _series(traj, lambda s: s.c1 * S)
    grad_dot = _series(traj, lambda s: _grad_dot(grid, s.c1, gS))
    taxis = _series(traj, lambda s: s.c1 * _grad_dot(grid, s.tau, gS))
    sw_in = _series(traj, lambda s: eval_rate(alpha1, s.chi) * s.c1 / (1.0 + s.c1) * S)
    sw_out = _series(traj, lambda s: eval_rate(alpha2, s.chi) * s.c2 / (1.0 + s.c2) * S)
    logistic = _series(traj, lambda s: s.c1 * (1.0 - s.c1 - s.c2 - s.tau) * S)

    lhs = -_trapz(traj, a * gp) - a[0]  # psi(.,0) = S, so the data term is a[0]
    rhs = (
        -p.a1 * _trapz(traj, grad_dot * g)
        + p.b_tau * _trapz(traj, taxis * g)
        - _trapz(traj, sw_in * g)
        + _trapz(traj, sw_out * g)
        + p.beta * _trapz(traj, logistic * g)
    )
    if p.eps > 0:
        damp = _series(traj, lambda s: s.c1**p.theta * S)
        rhs -= p.eps * _trapz(traj, damp * g)
    return abs(lhs - rhs)


def residual_c2(traj: Trajectory, psi: TestFunction) -> float:
    """|LHS - RHS| of the chondrocyte weak identity (chemotaxis in double-divergence form)."""
    _check_horizon(traj, psi)
    grid, p = traj.grid, traj.params
    alpha1, alpha2 = traj.alphas
    S = psi.spatial(grid)
    gS = psi.spatial_gradient(grid)
    kappa_sq = psi.laplace_factor(grid)
    t = traj.times
    g, gp = psi.g(t), psi.g_prime(t)

    a = _series(traj, lambda s: s.c2 * S)
    grad_dot = _series(traj, lambda s: _grad_dot(grid, s.c2, gS))
    chi_c2 = _series(traj, lambda s: s.c2 * s.chi * S)  # pairs with Delta psi = -kappa_sq * psi
    chi_grad = _series(traj, lambda s: s.chi * _grad_dot(grid, s.c2, gS))
    sw_in = _series(traj, lambda s: eval_rate(alpha1, s.chi) * s.c1 / (1.0 + s.c1) * S)
    sw_out = _series(traj, lambda s: eval_rate(alpha2, s.chi) * s.c2 / (1.0 + s.c2) * S)

    lhs = -_trapz(traj, a * gp) - a[0]
    rhs = (
        -p.a2 * _trapz(traj, grad_dot * g)
        + p.b_chi * kappa_sq * _trapz(traj, chi_c2 * g)
        - p.b_chi * _trapz(traj, chi_grad * g)
        + _trapz(traj, sw_in * g)
        - _trapz(traj, sw_out * g)
    )
    if p.eps > 0:
        damp = _series(traj, lambda s: s.c2**p.theta * S)
        rhs -= p.eps * _trapz(traj, damp * g)
    return abs(lhs - rhs)


def _supply_term(traj: Trajectory, psi: TestFunction) -> float:
    """psi-weighted supply contribution: exact in time for both dose modes."""
    grid = traj.grid
    sched = traj.schedule
    if sched.chi0 == 0.0 or not sched.dose_times:
        return 0.0
    s_int = integrate(grid, psi.spatial(grid))
    if sched.mode == "jump":
        total = 0.0
        for td in sched.dose_times:
            if td < traj.horizon:
                total += sched.chi0 / grid.measure * s_int * float(psi.g(td))
        return total
    amplitude = sched.chi0 / grid.measure
    total = 0.0
    for td in sched.dose_times:
        total += amplitude * s_int * psi.g_integral(td, td + sched.width)
    return total


def residual_chi(traj: Trajectory, psi: TestFunction) -> float:
    """|LHS - RHS| of the medium weak identity, supply term included."""
    _check_horizon(traj, psi)
    grid, p = traj.grid, traj.params
    S = psi.spatial(grid)
    gS = psi.spatial_gradient(grid)
    t = traj.times
    g, gp = psi.g(t), psi.g_prime(t)

    a = _series(traj, lambda s: s.chi * S)
    grad_dot = _series(traj, lambda s: _grad_dot(grid, s.chi, gS))
    uptake1 = _series(traj, lambda s: s.c1 * s.chi * S)
    uptake2 = _series(traj, lambda s: s.c2 * s.chi * S)

    lhs = -_trapz(traj, a * gp) - a[0]
    rhs = (
        -p.d_chi * _trapz(traj, grad_dot * g)
        - p.a_chi * _trapz(traj, uptake1 * g)
        - p.a_chi * _trapz(traj, uptake2 * g)
        + _supply_term(traj, psi)
    )
    return abs(lhs - rhs)


def residual_tau(traj: Trajectory, psi: TestFunction) -> float:
    """|LHS - RHS| of the matrix weak identity (gradient-free in the limit model)."""
    _check_horizon(traj, psi)
    grid, p = traj.grid, traj.params
    S = psi.spatial(grid)
    t = traj.times
    g, gp = psi.g(t), psi.g_prime(t)

    a = _series(traj, lambda s: s.tau * S)
    degrade = _series(traj, lambda s: s.tau * s.c1 * S)
    produce = _series(traj, lambda s: s.c2 / (1.0 + s.c2) * S)

    lhs = -_trapz(traj, a * gp) - a[0]
    rhs = (
        -p.delta * _trapz(traj, degrade * g)
        - p.mu * _trapz(traj, a * g)
        + _trapz(traj, produce * g)
    )
    if p.eps > 0:
        gS = psi.spatial_gradient(grid)
        grad_dot = _series(traj, lambda s: _grad_dot(grid, s.tau, gS))
        rhs -= p.eps * _trapz(traj, grad_dot * g)
    return abs(lhs - rhs)


RESIDUALS = {
    "c1": residual_c1,
    "c2": residual_c2,
    "chi": residual_chi,
    "tau": residual_tau,
}


def make_test_functions(grid: Grid, t_end: float, k_max: int = 3, powers: Sequence[int] = (1, 2)):
    """The default generating family: per-axis modes up to k_max, the given powers."""
    if grid.dim == 1:
        mode_tuples = [(k,) for k in range(k_max + 1)]
    else:
        mode_tuples = [(kx, ky) for kx in range(k_max + 1) for ky in range(k_max + 1)]
    return [
        TestFunction(modes=modes, power=m, horizon=t_end)
        for modes in mode_tuples
        for m in powers
    ]


def residual_table(traj: Trajectory, k_max: int = 3, powers: Sequence[int] = (1, 2)):
    """All residuals over the default test set: rows of (equation, modes, power, value)."""
    rows = []
    for psi in make_test_functions(traj.grid, traj.horizon, k_max, powers):
        for name, fn in RESIDUALS.items():
            rows.append((name, psi.modes, psi.power, fn(traj, psi)))
    return rows
