"""Runtime monitors: masses, extrema, entropy/dissipation functionals, certificates.

Each save builds one ``DiagnosticsRecord``: the gradient fields of the state
are built once and shared by the entropy and dissipation functionals, and
the three certificate flags compare the record against the a-priori bounds.

The entropy functional combines the c*ln(c) entropies of both cell species
(shifted by +1/e so each integrand is pointwise nonnegative), the Dirichlet
energy of the medium, and the Fisher information of the matrix field. Its
companion dissipation functional collects the nonnegative terms whose time
integral stays bounded on any horizon.

Singular integrands |grad f|^2 / f are evaluated as 4*|grad sqrt(f)|^2 from
face differences of sqrt(f): finite for every f >= 0 and equal to the analytic
value on smooth positive fields, so no flooring is needed. The convention
0*ln(0) = 0 applies throughout; logs inside the dissipation appear as
ln(2 + c) and are therefore always positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace as dc_replace
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from .grid import gradient_sq, integrate, laplacian_neumann
from .model import ModelParams, RateFunction

if TYPE_CHECKING:
    from .config import Grid
    from .stepping import SimState

TOL_REL = 1e-8  # relative slack of the c1 mass and tau sup certificates
TOL_ABS = 1e-12  # undershoot below zero that the nonnegativity certificate allows


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-save-time scalar diagnostics; one CSV row."""

    t: float
    mass_c1: float
    mass_c2: float
    mass_chi: float
    mass_tau: float
    min_c1: float
    max_c1: float
    min_c2: float
    max_c2: float
    min_chi: float
    max_chi: float
    min_tau: float
    max_tau: float
    entropy_E: float
    dissipation_D: float
    fisher_tau: float
    grad_chi_sq: float
    positivity_debt: float
    cert_c1_mass: bool
    cert_tau_linf: bool
    cert_nonneg: bool

    CSV_COLUMNS: ClassVar[tuple[str, ...]]

    def csv_row(self) -> str:
        parts = []
        for name in self.CSV_COLUMNS:
            value = getattr(self, name)
            parts.append(str(int(value)) if isinstance(value, bool) else repr(float(value)))
        return ",".join(parts)


DiagnosticsRecord.CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def _xlogx(f: np.ndarray) -> np.ndarray:
    """Pointwise f*ln(f) with 0*ln(0) = 0."""
    safe = np.where(f > 0, f, 1.0)
    return np.where(f > 0, f * np.log(safe), 0.0)


def fisher_integrand(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Cellwise |grad f|^2 / f evaluated as 4*|grad sqrt(f)|^2."""
    if np.min(f) < 0:
        raise ValueError("fisher integrand needs a nonnegative field")
    return 4.0 * gradient_sq(grid, np.sqrt(f))


def _functionals(state: SimState, p: ModelParams):
    """(E, D, int |grad tau|^2/tau, int |grad chi|^2) at one state.

    Builds each gradient field once: the Fisher integrands of c1, c2 and tau,
    |grad chi|^2 and the chi Laplacian. D leaves out the 1D Hessian term
    tau*|d^2 ln(tau)/dx^2|^2, which no output reads. The paper's weight zeta
    of the medium terms is 1: its optimal value rests on an interpolation
    constant with no computable value, and the functionals' finiteness does
    not depend on it.
    """
    grid = state.grid
    c1, c2, chi, tau = state.c1, state.c2, state.chi, state.tau
    inv_e = 1.0 / math.e
    fisher_tau = fisher_integrand(grid, tau)
    term_tau = integrate(grid, fisher_tau)
    term_chi = integrate(grid, gradient_sq(grid, chi))
    entropy = (
        p.a2 * p.delta / (4.0 * p.b_tau) * integrate(grid, _xlogx(c1) + inv_e)
        + integrate(grid, _xlogx(c2) + inv_e)
        + p.b_chi**2 / p.d_chi * term_chi
        + p.a2 / 8.0 * term_tau
    )
    dissipation = (
        p.a1 * p.a2 * p.delta / (8.0 * p.b_tau) * integrate(grid, fisher_integrand(grid, c1))
        + p.a2 / 8.0 * integrate(grid, fisher_integrand(grid, c2))
        + p.b_chi**2 / 2.0 * integrate(grid, laplacian_neumann(grid, chi) ** 2)
        + p.a2 * p.delta / 8.0 * integrate(grid, c1 * fisher_tau)
        + p.a2 * p.delta * p.beta / (8.0 * p.b_tau) * integrate(grid, c1**2 * np.log(2.0 + c1))
    )
    if p.eps > 0:
        dissipation += p.a2 * p.delta * p.eps / (8.0 * p.b_tau) * integrate(
            grid, c1**p.theta * np.log(2.0 + c1)
        )
        dissipation += 0.5 * p.eps * integrate(grid, c2**p.theta * np.log(2.0 + c2))
    return entropy, dissipation, term_tau, term_chi


def entropy_E(state: SimState, p: ModelParams) -> float:
    """The combined entropy functional at one state (>= gradient terms >= 0)."""
    return _functionals(state, p)[0]


def dissipation_D(state: SimState, p: ModelParams) -> float:
    """The dissipation functional (all terms except the 1D Hessian term of tau)."""
    return _functionals(state, p)[1]


def c1_mass_bound(
    p: ModelParams, alpha2: RateFunction, initial: SimState
) -> float:
    """The certified c1 mass bound M1 = max{int c1(0), (|Omega|/2)(1+sqrt(4*M_a2/beta))}."""
    if p.beta == 0.0:
        return math.inf  # the logistic comparison argument needs beta > 0
    omega = initial.grid.measure
    return max(
        integrate(initial.grid, initial.c1),
        0.5 * omega * (1.0 + math.sqrt(4.0 * alpha2.amplitude / p.beta)),
    )


def tau_linf_bound(p: ModelParams, initial: SimState) -> float:
    """The certified tau sup bound r*/mu + max tau(0), with r* = 1."""
    return 1.0 / p.mu + float(np.max(initial.tau))


def compute_record(
    state: SimState,
    p: ModelParams,
    alphas: tuple[RateFunction, RateFunction],
    initial: SimState,
) -> DiagnosticsRecord:
    """The full diagnostics record of one state snapshot.

    The bound certificates allow a relative slack of ``TOL_REL`` over the c1
    mass bound M1 and the tau sup bound, both taken from ``initial``; the
    nonnegativity certificate allows fields down to ``-TOL_ABS``. The entropy
    functionals read the fields with negative cells set to zero, all else the raw fields.
    """
    grid = state.grid
    stats = {}
    for name, f in state.fields().items():
        stats[f"mass_{name}"] = integrate(grid, f)
        stats[f"min_{name}"] = float(np.min(f))
        stats[f"max_{name}"] = float(np.max(f))
    clipped = dc_replace(state, u=np.where(state.u < 0, 0.0, state.u))  # keeps -0.0 bit for bit
    entropy, dissipation, fisher_tau, grad_chi_sq = _functionals(clipped, p)
    return DiagnosticsRecord(
        t=state.t,
        **stats,
        entropy_E=entropy,
        dissipation_D=dissipation,
        fisher_tau=fisher_tau,
        grad_chi_sq=grad_chi_sq,
        positivity_debt=state.positivity_debt,
        cert_c1_mass=stats["mass_c1"] <= c1_mass_bound(p, alphas[1], initial) * (1.0 + TOL_REL),
        cert_tau_linf=stats["max_tau"] <= tau_linf_bound(p, initial) * (1.0 + TOL_REL),
        cert_nonneg=min(stats[f"min_{name}"] for name in state.fields()) >= -TOL_ABS,
    )

