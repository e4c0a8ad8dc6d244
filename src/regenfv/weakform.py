"""Weak-form residuals of a stored trajectory against separable test functions.

Test functions psi(x,t) = prod_i cos(k_i*pi*x_i/L_i) * (1 - t/T)^m satisfy the
zero-normal-derivative condition on every boundary face and vanish at t = T by
construction, and all their derivatives are available in closed form. Because
psi separates into a spatial part S and a temporal part g, each space-time
integral reduces to a trapezoid rule in time over per-snapshot spatial dot
products (midpoint quadrature on the cell centers).

The table is separable too. Per axis, the distinct modes k of the test set
give two factor matrices, one row per k over that axis's cell centers, built
once per table: C = cos(w x) and D = -w sin(w x), w = k pi / L. S is the
product of one C row per axis, and grad S puts D on its own axis. Each
snapshot is visited once. Its integrands that weight S (the four fields, the
reaction terms r1-r4, c2 chi) are stacked and contracted with C on each axis,
first grid axis first; per axis a, the six that weight the a-component of
grad S (the a-derivatives of c1, c2, chi and tau, c1 times that of tau, chi
times that of c2) are contracted with D on axis a and C on the other, and the
axes are summed. Each contraction is one ``np.einsum`` call per grid axis for
every mode at once; einsum calls no BLAS, whose summation order can depend on
the thread count. Only one snapshot's stacks exist at a time. The trapezoid
weights are built once per table, so each time integral is one weighted sum.
The supply term of the chi identity needs the integral of S alone: the
product over the axes of the sum of S's C row, times the cell volume.

A solution of the transport system makes all four residuals vanish under
simultaneous grid/time/save refinement; the zero trajectory annihilates them
identically.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grid import gradient_components
from .model import FIELDS, ModelParams, RateFunction, SupplySchedule, bind_reactions, event_timeline

if TYPE_CHECKING:
    from .config import Grid


def _cosine_factors(k, L: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C = cos(w*x) and D = -w*sin(w*x), w = k*pi/L, at the coordinates x; k
    is a mode or a column of modes."""
    w = k * np.pi / L
    return np.cos(w * x), -w * np.sin(w * x)


@dataclass(frozen=True)
class TestFunction:
    """Separable Neumann-compatible space-time test function.

    ``modes`` holds one nonnegative integer per axis, which gives S a zero
    normal derivative on every boundary face; ``power`` is the temporal
    exponent m >= 1; ``horizon`` is the weak-form horizon T. S has unit
    amplitude.
    """

    modes: tuple[int, ...]
    power: int
    horizon: float

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))  # the table's key of the spatial part
        if not all(isinstance(k, numbers.Integral) and k >= 0 for k in self.modes):
            raise ValueError(f"mode indices must be nonnegative integers, got {self.modes}")
        if self.power < 1:
            raise ValueError("temporal exponent must be at least 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

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


# The spatial integrals of a snapshot: those of the integrands that weight S,
# then those that weight grad S (grad f . grad S; c1 grad tau . grad S and
# chi grad c2 . grad S for the taxis terms).
_S_TERMS = (*FIELDS, "r1", "r2", "r3", "r4", "c2_chi")
_TERMS = (*_S_TERMS, *("grad_" + name for name in FIELDS), "taxis", "chi_grad")


def _contract(stack: np.ndarray, factors) -> np.ndarray:
    """Per row of the ``(r, *grid.shape)`` stack, its sums over the cells
    against the outer products of the rows of ``factors``, one ``(K_a, n_a)``
    matrix per grid axis: an ``(r, K_0, ..., K_(dim-1))`` array. The grid axes
    are contracted one by one, first axis first."""
    for matrix in factors:
        stack = np.einsum("ix...,kx->i...k", stack, matrix)
    return stack


def _spatial_series(traj: Trajectory, psis: Sequence[TestFunction]) -> dict:
    """Per spatial part (``psi.modes``) of ``psis``, the integral of S and the
    snapshot series of every spatial integral the four identities use: an
    ``(n_t, len(_TERMS))`` array, columns in ``_TERMS`` order (see the module
    docstring)."""
    grid, p = traj.grid, traj.params
    reactions = bind_reactions(p, *traj.alphas, p.eps if p.eps > 0.0 else None, arrays=True)
    for psi in psis:
        if abs(psi.horizon - traj.horizon) > 1e-12 * max(1.0, traj.horizon):
            raise ValueError(f"test-function horizon {psi.horizon} does not match "
                             f"trajectory horizon {traj.horizon}")
        if len(psi.modes) != grid.dim:
            raise ValueError("test-function dimension does not match the grid")
    modes = [sorted({psi.modes[axis] for psi in psis}) for axis in range(grid.dim)]
    # per axis, the factor matrices of its distinct modes, built once per table
    cos_wx, dcos_wx = zip(*(_cosine_factors(np.array(ks)[:, None], L, grid.axis_centers(axis))
                            for axis, (ks, L) in enumerate(zip(modes, grid.lengths))))
    series = np.empty((*map(len, modes), len(traj.u), len(_TERMS)))  # per spatial part, a contiguous series
    for index, u in enumerate(traj.u):
        c1, c2, chi, _ = u
        integrals = np.concatenate((
            _contract(np.stack((*u, *reactions(*u), c2 * chi)), cos_wx),
            # grad S = (D_x C_y, C_x D_y): D on the axis of the component, C on the other
            sum(_contract(np.stack((*grad, c1 * grad[3], chi * grad[1])),
                          [dcos_wx[b] if b == axis else cos_wx[b] for b in range(grid.dim)])
                for axis, grad in enumerate(gradient_components(grid, u))),  # per axis, rows c1, c2, chi, tau
        ))
        series[..., index, :] = np.moveaxis(integrals, 0, -1)
    series *= grid.cell_volume
    row_sums = [c.sum(axis=1) for c in cos_wx]  # per axis, the sum of each C row
    out = {}
    for spatial in {psi.modes for psi in psis}:
        at = tuple(ks.index(k) for ks, k in zip(modes, spatial))
        out[spatial] = float(math.prod(s[i] for s, i in zip(row_sums, at)) * grid.cell_volume), series[at]
    return out


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


def _supply_term(traj: Trajectory, psi: TestFunction, s_int: float) -> float:
    """psi-weighted supply contribution, ``s_int`` the integral of S, exact in
    time for both dose modes: per interval of ``event_timeline`` its pulse
    supply density times the integral of g over it, and per event its jump
    dose times g there."""
    total, start = 0.0, 0.0
    for t, _, supply, dose in event_timeline(traj.schedule, traj.horizon, None, traj.grid.measure):
        total += supply * s_int * psi.g_integral(start, t)
        if dose is not None:
            total += dose * s_int * float(psi.g(t))
        start = t
    return total


def _rhs_chi(traj: Trajectory, psi: TestFunction, J) -> float:
    """Medium: diffusion, reactions (uptake by both cell types), supply."""
    return -traj.params.d_chi * J("grad_chi") + J("r3") + J("supply")


def _rhs_tau(traj: Trajectory, psi: TestFunction, J) -> float:
    """Matrix: reactions (degradation, decay, production); grad tau enters only when eps > 0."""
    p = traj.params
    return J("r4") - p.eps * J("grad_tau") if p.eps > 0 else J("r4")


_RHS = (_rhs_c1, _rhs_c2, _rhs_chi, _rhs_tau)  # in FIELDS order


def _residuals(traj: Trajectory, psis: Sequence[TestFunction]) -> list:
    """(equation, modes, power, |LHS - RHS|) per test function and equation.
    Each time integral is the trapezoid rule, one sum of a series against the
    trapezoid weights times g or g'."""
    series = _spatial_series(traj, psis)
    times = traj.times
    weights = np.convolve(np.diff(times), (0.5, 0.5))  # (t_(i+1) - t_(i-1)) / 2, halves at the ends
    rows = []
    for psi in psis:
        s_int, sr = series[psi.modes]
        J = dict(zip(_TERMS, np.einsum("t,tn->n", weights * psi.g(times), sr).tolist()),
                 supply=_supply_term(traj, psi, s_int)).__getitem__
        # psi(., 0) = S, so the data term of each field is its first integral
        lhs = (-np.einsum("t,tn->n", weights * psi.g_prime(times), sr[:, :4]) - sr[0, :4]).tolist()
        for eq, value, rhs in zip(FIELDS, lhs, _RHS):
            rows.append((eq, psi.modes, psi.power, abs(value - rhs(traj, psi, J))))
    return rows


def residual(traj: Trajectory, psi: TestFunction, equation: str) -> float:
    """|LHS - RHS| of one weak identity ("c1", "c2", "chi" or "tau") for one test function."""
    if equation not in FIELDS:
        raise ValueError(f"unknown equation {equation!r}: choose one of {', '.join(FIELDS)}")
    return _residuals(traj, (psi,))[FIELDS.index(equation)][3]


def make_test_functions(grid: Grid, t_end: float, k_max: int = 3, powers: Sequence[int] = (1, 2)):
    """The default generating family: per-axis modes up to k_max, the given powers."""
    mode_tuples = itertools.product(range(k_max + 1), repeat=grid.dim)
    return [TestFunction(modes=modes, power=m, horizon=t_end)
            for modes in mode_tuples for m in powers]


def residual_table(traj: Trajectory, k_max: int = 3, powers: Sequence[int] = (1, 2)):
    """All residuals over the default test set: rows of (equation, modes, power, value)."""
    return _residuals(traj, make_test_functions(traj.grid, traj.horizon, k_max, powers))
