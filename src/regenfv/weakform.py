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
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grid import gradient_components, integrate
from .model import ModelParams, RateFunction, SupplySchedule, bind_reactions, event_timeline

if TYPE_CHECKING:
    from .config import Grid


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
    temporal exponent m >= 1; ``horizon`` is the weak-form horizon T. The
    spatial part has unit amplitude.
    """

    modes: tuple[int, ...]
    power: int
    horizon: float

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
        """S(x) at cell centers: the product of one cosine factor per axis."""
        return math.prod(cos_kx for cos_kx, _, _ in _axis_factors(self.modes, grid))

    def spatial_gradient(self, grid: Grid) -> tuple[np.ndarray, ...]:
        """grad S(x) at cell centers, one array per axis."""
        factors = _axis_factors(self.modes, grid)
        return tuple(math.prod(dcos if a == axis else cos for a, (_, cos, dcos) in enumerate(factors))
                     for axis in range(grid.dim))

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
    """Uniformly saved snapshots of one run plus the generating model data.

    ``u`` holds the snapshots as one ``(len(times), 4, *grid.shape)`` array,
    rows in ``FIELDS`` order.
    """

    times: np.ndarray
    u: np.ndarray
    grid: Grid
    params: ModelParams
    alphas: tuple[RateFunction, RateFunction]
    schedule: SupplySchedule

    def __post_init__(self):
        if len(self.times) < 2:
            raise ValueError("need at least two snapshots")
        if self.u.shape != (len(self.times), 4, *self.grid.shape):
            raise ValueError(
                f"snapshot array of shape {self.u.shape} does not match "
                f"{len(self.times)} times of 4 fields on grid {self.grid.shape}"
            )
        if self.times[0] != 0.0 or not np.all(np.diff(self.times) > 0):
            raise ValueError("snapshot times must start at 0 and increase strictly")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def _check_horizon(traj: Trajectory, psi: TestFunction) -> None:
    if abs(psi.horizon - traj.horizon) > 1e-12 * max(1.0, traj.horizon):
        raise ValueError(
            f"test-function horizon {psi.horizon} does not match trajectory horizon {traj.horizon}"
        )


def _trapz(traj: Trajectory, series: np.ndarray) -> float:
    return float(np.trapezoid(series, traj.times))


def _spatial_series(traj: Trajectory, psis: Sequence[TestFunction]) -> dict:
    """Per spatial part (``psi.modes``) of ``psis``, the snapshot series of
    every spatial integral the four identities use, keyed by term name.

    Each snapshot is visited once: its psi-independent fields (gradients, the
    reaction terms r1-r4 of ``bind_reactions``, c2 chi) are built once, then
    weighted by each part's S and grad S, e.g. ``r1 * S``.
    """
    grid, p = traj.grid, traj.params
    reactions = bind_reactions(p, *traj.alphas, p.eps if p.eps > 0.0 else None, arrays=True)
    parts = {}
    for psi in psis:
        _check_horizon(traj, psi)
        parts.setdefault(psi.modes, psi)
    series = {key: {} for key in parts}
    for u in traj.u:
        c1, c2, chi, _ = u
        grads = gradient_components(grid, u)  # per axis, rows c1, c2, chi, tau
        weighted = dict(zip(("c1", "c2", "chi", "tau", "r1", "r2", "r3", "r4", "c2_chi"),  # integrand field * S
                            (*u, *reactions(*u), c2 * chi)))
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
    """Stem cells: diffusion, haptotaxis up tau, reactions (switching, logistic growth, damping)."""
    p = traj.params
    return -p.a1 * J("grad_c1") + p.b_tau * J("taxis") + J("r1")


def _rhs_c2(traj: Trajectory, psi: TestFunction, J) -> float:
    """Chondrocytes: diffusion, chemotaxis, reactions (switching, damping).
    The c2*chi term pairs with Delta psi = -kappa_sq * psi."""
    p = traj.params
    return (-p.a2 * J("grad_c2") + p.b_chi * psi.laplace_factor(traj.grid) * J("c2_chi")
            - p.b_chi * J("chi_grad") + J("r2"))


def _supply_term(traj: Trajectory, psi: TestFunction) -> float:
    """psi-weighted supply contribution, exact in time for both dose modes: per
    interval of ``event_timeline`` its pulse supply density times the integral of
    g over it, and per event its jump dose times g there."""
    grid, total, start = traj.grid, 0.0, 0.0
    s_int = integrate(grid, psi.spatial(grid))
    for t, _, supply, dose in event_timeline(traj.schedule, traj.horizon, None, grid.measure):
        total += supply * s_int * psi.g_integral(start, t)
        if dose is not None:
            total += dose * s_int * float(psi.g(t))
        start = t
    return total


def _rhs_chi(traj: Trajectory, psi: TestFunction, J) -> float:
    """Medium: diffusion, reactions (uptake by both cell types), supply."""
    return -traj.params.d_chi * J("grad_chi") + J("r3") + _supply_term(traj, psi)


def _rhs_tau(traj: Trajectory, psi: TestFunction, J) -> float:
    """Matrix: reactions (degradation, decay, production); grad tau enters only when eps > 0."""
    p = traj.params
    return J("r4") - p.eps * J("grad_tau") if p.eps > 0 else J("r4")


_RHS = {"c1": _rhs_c1, "c2": _rhs_c2, "chi": _rhs_chi, "tau": _rhs_tau}


def _residuals(traj: Trajectory, psis: Sequence[TestFunction], equations=tuple(_RHS)) -> list:
    """(equation, modes, power, |LHS - RHS|) per test function and equation."""
    series = _spatial_series(traj, psis)
    rows = []
    for psi in psis:
        sr = series[psi.modes]
        g, gp = psi.g(traj.times), psi.g_prime(traj.times)
        J = lambda name: _trapz(traj, sr[name] * g)  # time integral of a series against g
        for eq in equations:
            a = sr[eq]
            lhs = -_trapz(traj, a * gp) - a[0]  # psi(.,0) = S, so the data term is a[0]
            rows.append((eq, psi.modes, psi.power, abs(lhs - _RHS[eq](traj, psi, J))))
    return rows


def residual(traj: Trajectory, psi: TestFunction, equation: str) -> float:
    """|LHS - RHS| of one weak identity ("c1", "c2", "chi" or "tau") for one test function."""
    return _residuals(traj, (psi,), (equation,))[0][3]


def make_test_functions(grid: Grid, t_end: float, k_max: int = 3, powers: Sequence[int] = (1, 2)):
    """The default generating family: per-axis modes up to k_max, the given powers."""
    mode_tuples = itertools.product(range(k_max + 1), repeat=grid.dim)
    return [TestFunction(modes=modes, power=m, horizon=t_end)
            for modes in mode_tuples for m in powers]


def residual_table(traj: Trajectory, k_max: int = 3, powers: Sequence[int] = (1, 2)):
    """All residuals over the default test set: rows of (equation, modes, power, value)."""
    return _residuals(traj, make_test_functions(traj.grid, traj.horizon, k_max, powers))
