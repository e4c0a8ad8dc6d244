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
from dataclasses import MISSING, dataclass, fields, replace as dc_replace
from typing import TYPE_CHECKING, ClassVar, Sequence

import numpy as np

from .grid import gradient_sq, integrate, laplacian_neumann
from .model import ModelParams, RateFunction

if TYPE_CHECKING:
    from .config import EntropyParams, Grid
    from .stepping import SimState

TOL_REL = 1e-8  # relative slack of the c1 mass and tau sup certificates
TOL_ABS = 1e-12  # undershoot below zero that the nonnegativity certificate allows


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-save-time scalar diagnostics; one CSV row (extras stay in memory)."""

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
    # in memory only: the fields with a default are not part of the CSV schema
    mass_c1_sq: float = 0.0

    CSV_COLUMNS: ClassVar[tuple[str, ...]]

    def csv_row(self) -> str:
        parts = []
        for name in self.CSV_COLUMNS:
            value = getattr(self, name)
            parts.append(str(int(value)) if isinstance(value, bool) else repr(float(value)))
        return ",".join(parts)


DiagnosticsRecord.CSV_COLUMNS = tuple(
    f.name for f in fields(DiagnosticsRecord) if f.default is MISSING
)


def _xlogx(f: np.ndarray) -> np.ndarray:
    """Pointwise f*ln(f) with 0*ln(0) = 0."""
    safe = np.where(f > 0, f, 1.0)
    return np.where(f > 0, f * np.log(safe), 0.0)


def fisher_integrand(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Cellwise |grad f|^2 / f evaluated as 4*|grad sqrt(f)|^2."""
    if np.min(f) < 0:
        raise ValueError("fisher integrand needs a nonnegative field")
    return 4.0 * gradient_sq(grid, np.sqrt(f))


def _functionals(state: SimState, p: ModelParams, ep: EntropyParams):
    """(E, D, int |grad tau|^2/tau, int |grad chi|^2) at one state.

    Builds each gradient field once: the Fisher integrands of c1, c2 and tau,
    |grad chi|^2 and the chi Laplacian. D leaves out the 1D Hessian term
    tau*|d^2 ln(tau)/dx^2|^2, which no output reads.
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
        + p.b_chi**2 / (p.d_chi * ep.zeta) * term_chi
        + p.a2 / 8.0 * term_tau
    )
    dissipation = (
        p.a1 * p.a2 * p.delta / (8.0 * p.b_tau) * integrate(grid, fisher_integrand(grid, c1))
        + p.a2 / 8.0 * integrate(grid, fisher_integrand(grid, c2))
        + p.b_chi**2 / (2.0 * ep.zeta) * integrate(grid, laplacian_neumann(grid, chi) ** 2)
        + p.a2 * p.delta / 8.0 * integrate(grid, c1 * fisher_tau)
        + p.a2 * p.delta * p.beta / (8.0 * p.b_tau) * integrate(grid, c1**2 * np.log(2.0 + c1))
    )
    if p.eps > 0:
        dissipation += p.a2 * p.delta * p.eps / (8.0 * p.b_tau) * integrate(
            grid, c1**p.theta * np.log(2.0 + c1)
        )
        dissipation += 0.5 * p.eps * integrate(grid, c2**p.theta * np.log(2.0 + c2))
    return entropy, dissipation, term_tau, term_chi


def entropy_E(state: SimState, p: ModelParams, ep: EntropyParams) -> float:
    """The combined entropy functional at one state (>= gradient terms >= 0)."""
    return _functionals(state, p, ep)[0]


def dissipation_D(state: SimState, p: ModelParams, ep: EntropyParams) -> float:
    """The dissipation functional (all terms except the 1D Hessian term of tau)."""
    return _functionals(state, p, ep)[1]


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
    ep: EntropyParams,
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
    entropy, dissipation, fisher_tau, grad_chi_sq = _functionals(clipped, p, ep)
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
        mass_c1_sq=integrate(grid, state.c1**2),
    )


@dataclass(frozen=True)
class MonitorReport:
    """Entropy-inequality structure report over a record series."""

    max_lhs: float
    max_rhs_proxy: float
    sup_entropy: float
    dissipation_integral: float
    chi_sup: float


def entropy_inequality_monitor(
    records: Sequence[DiagnosticsRecord],
    p: ModelParams,
    ep: EntropyParams,
) -> MonitorReport:
    """Discrete left side E' + varrho*E + D per interior record, plus the
    bounded quantities sup_t E and the time integral of D.

    The right-hand proxy is the run maximum of
    4*b_chi^2*a_chi^2*chi_inf^2/(d_chi^2*zeta) * int c1^2, with chi_inf taken
    as the observed sup of chi over the series. Needs >= 3 uniformly spaced
    records.
    """
    if len(records) < 3:
        raise ValueError("the monitor needs at least 3 records")
    times = np.array([r.t for r in records])
    spacings = np.diff(times)
    if np.max(spacings) - np.min(spacings) > 1e-9 * max(1.0, float(times[-1])):
        raise ValueError("the monitor needs uniformly spaced records")
    dt = float(spacings[0])

    E = np.array([r.entropy_E for r in records])
    D = np.array([r.dissipation_D for r in records])
    dE = (E[2:] - E[:-2]) / (2.0 * dt)
    lhs = dE + ep.varrho * E[1:-1] + D[1:-1]

    chi_sup = max(r.max_chi for r in records)
    const = 4.0 * p.b_chi**2 * p.a_chi**2 * chi_sup**2 / (p.d_chi**2 * ep.zeta)
    rhs_proxy = const * max(r.mass_c1_sq for r in records)

    return MonitorReport(
        max_lhs=float(np.max(lhs)),
        max_rhs_proxy=float(rhs_proxy),
        sup_entropy=float(np.max(E)),
        dissipation_integral=float(np.trapezoid(D, times)),
        chi_sup=float(chi_sup),
    )
