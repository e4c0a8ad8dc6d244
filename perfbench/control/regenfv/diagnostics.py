"""Runtime monitors: masses, extrema, entropy/dissipation functionals, certificates.

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
from dataclasses import dataclass, replace as dc_replace
from typing import Optional, Sequence

import numpy as np

from .grid import Grid, gradient_sq, integrate, laplacian_neumann
from .model import ModelParams, RateFunction
from .stepping import SimState

TOL_REL_DEFAULT = 1e-8
TOL_ABS_DEFAULT = 1e-12


@dataclass(frozen=True)
class EntropyParams:
    """User knobs of the combined functionals.

    ``zeta`` weighs the medium terms; the theoretically optimal choice
    involves an interpolation constant with no computable value, so it stays
    a diagnostic parameter (the functionals' finiteness does not depend on
    it). ``varrho`` is the decay weight used only by the inequality monitor.
    """

    zeta: float = 1.0
    varrho: float = 0.0

    def __post_init__(self):
        if not self.zeta > 0:
            raise ValueError("zeta must be positive")
        if self.varrho < 0:
            raise ValueError("varrho must be nonnegative")


@dataclass(frozen=True)
class BoundCertificates:
    c1_mass_ok: bool
    tau_linf_ok: bool
    nonneg_ok: bool
    m1: float
    tau_star: float


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
    # not part of the CSV schema:
    mass_c1_sq: float = 0.0
    hessian_tau: Optional[float] = None

    CSV_COLUMNS = (
        "t",
        "mass_c1", "mass_c2", "mass_chi", "mass_tau",
        "min_c1", "max_c1", "min_c2", "max_c2",
        "min_chi", "max_chi", "min_tau", "max_tau",
        "entropy_E", "dissipation_D", "fisher_tau", "grad_chi_sq",
        "positivity_debt",
        "cert_c1_mass", "cert_tau_linf", "cert_nonneg",
    )

    def csv_row(self) -> str:
        parts = []
        for name in self.CSV_COLUMNS:
            value = getattr(self, name)
            parts.append(str(int(value)) if isinstance(value, bool) else repr(float(value)))
        return ",".join(parts)


def _xlogx(f: np.ndarray) -> np.ndarray:
    """Pointwise f*ln(f) with 0*ln(0) = 0."""
    safe = np.where(f > 0, f, 1.0)
    return np.where(f > 0, f * np.log(safe), 0.0)


def fisher_integrand(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Cellwise |grad f|^2 / f evaluated as 4*|grad sqrt(f)|^2."""
    if np.min(f) < 0:
        raise ValueError("fisher integrand needs a nonnegative field")
    return 4.0 * gradient_sq(grid, np.sqrt(f))


def entropy_E(state: SimState, p: ModelParams, ep: EntropyParams) -> float:
    """The combined entropy functional at one state (>= gradient terms >= 0)."""
    grid = state.grid
    inv_e = 1.0 / math.e
    term_c1 = integrate(grid, _xlogx(state.c1) + inv_e)
    term_c2 = integrate(grid, _xlogx(state.c2) + inv_e)
    term_chi = integrate(grid, gradient_sq(grid, state.chi))
    term_tau = integrate(grid, fisher_integrand(grid, state.tau))
    return (
        p.a2 * p.delta / (4.0 * p.b_tau) * term_c1
        + term_c2
        + p.b_chi**2 / (p.d_chi * ep.zeta) * term_chi
        + p.a2 / 8.0 * term_tau
    )


def hessian_tau_1d(grid: Grid, tau: np.ndarray, floor: float = 1e-30) -> float:
    """1D-only integral of tau*|d^2 ln(tau)/dx^2|^2 with mirrored ghosts."""
    if grid.dim != 1:
        raise ValueError("the Hessian diagnostic is implemented in 1D only")
    h = grid.spacing[0]
    log_tau = np.log(np.maximum(tau, floor))
    padded = np.concatenate(([log_tau[0]], log_tau, [log_tau[-1]]))
    second = (padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / h**2
    return integrate(grid, tau * second**2)


def dissipation_D(
    state: SimState,
    p: ModelParams,
    ep: EntropyParams,
    laplacian_chi: np.ndarray,
) -> float:
    """The dissipation functional (all terms except the separate 1D Hessian entry)."""
    grid = state.grid
    c1, c2, tau = state.c1, state.c2, state.tau
    term_c1 = integrate(grid, fisher_integrand(grid, c1))
    term_c2 = integrate(grid, fisher_integrand(grid, c2))
    term_lap = integrate(grid, laplacian_chi**2)
    term_tau = integrate(grid, c1 * fisher_integrand(grid, tau))
    term_log = integrate(grid, c1**2 * np.log(2.0 + c1))
    total = (
        p.a1 * p.a2 * p.delta / (8.0 * p.b_tau) * term_c1
        + p.a2 / 8.0 * term_c2
        + p.b_chi**2 / (2.0 * ep.zeta) * term_lap
        + p.a2 * p.delta / 8.0 * term_tau
        + p.a2 * p.delta * p.beta / (8.0 * p.b_tau) * term_log
    )
    if p.eps > 0:
        total += p.a2 * p.delta * p.eps / (8.0 * p.b_tau) * integrate(
            grid, c1**p.theta * np.log(2.0 + c1)
        )
        total += 0.5 * p.eps * integrate(grid, c2**p.theta * np.log(2.0 + c2))
    return total


def c1_mass_bound(
    p: ModelParams, alpha2: RateFunction, initial: SimState
) -> float:
    """The certified c1 mass bound M1 = max{int c1(0), (|Omega|/2)(1+sqrt(4*M_a2/beta))}."""
    if p.beta == 0.0:
        return math.inf  # the logistic comparison argument needs beta > 0
    omega = initial.grid.measure
    return max(
        integrate(initial.grid, initial.c1),
        0.5 * omega * (1.0 + math.sqrt(4.0 * alpha2.bound / p.beta)),
    )


def tau_linf_bound(p: ModelParams, initial: SimState) -> float:
    """The certified tau sup bound r*/mu + max tau(0), with r* = 1."""
    return 1.0 / p.mu + float(np.max(initial.tau))


def certify_bounds(
    rec: DiagnosticsRecord,
    p: ModelParams,
    alphas: tuple[RateFunction, RateFunction],
    initial: SimState,
    tol_rel: float = TOL_REL_DEFAULT,
    tol_abs: float = TOL_ABS_DEFAULT,
    m1_override: Optional[float] = None,
    tau_star_override: Optional[float] = None,
) -> BoundCertificates:
    """Evaluate the certificate flags for one record.

    Monotone in the tolerances: loosening tol never flips a pass to a fail.
    The overrides exist for diagnostic corruption tests only.
    """
    m1 = c1_mass_bound(p, alphas[1], initial) if m1_override is None else m1_override
    tau_star = tau_linf_bound(p, initial) if tau_star_override is None else tau_star_override
    min_all = min(rec.min_c1, rec.min_c2, rec.min_chi, rec.min_tau)
    return BoundCertificates(
        c1_mass_ok=rec.mass_c1 <= m1 * (1.0 + tol_rel),
        tau_linf_ok=rec.max_tau <= tau_star * (1.0 + tol_rel),
        nonneg_ok=min_all >= -tol_abs,
        m1=m1,
        tau_star=tau_star,
    )


def compute_record(
    state: SimState,
    p: ModelParams,
    alphas: tuple[RateFunction, RateFunction],
    initial: SimState,
    ep: EntropyParams,
    tol_rel: float = TOL_REL_DEFAULT,
    tol_abs: float = TOL_ABS_DEFAULT,
    m1_override: Optional[float] = None,
    tau_star_override: Optional[float] = None,
) -> DiagnosticsRecord:
    """Assemble the full diagnostics record for one state snapshot."""
    grid = state.grid
    lap_chi = laplacian_neumann(grid, state.chi)
    partial = DiagnosticsRecord(
        t=state.t,
        mass_c1=integrate(grid, state.c1),
        mass_c2=integrate(grid, state.c2),
        mass_chi=integrate(grid, state.chi),
        mass_tau=integrate(grid, state.tau),
        min_c1=float(np.min(state.c1)), max_c1=float(np.max(state.c1)),
        min_c2=float(np.min(state.c2)), max_c2=float(np.max(state.c2)),
        min_chi=float(np.min(state.chi)), max_chi=float(np.max(state.chi)),
        min_tau=float(np.min(state.tau)), max_tau=float(np.max(state.tau)),
        entropy_E=entropy_E(state, p, ep),
        dissipation_D=dissipation_D(state, p, ep, lap_chi),
        fisher_tau=integrate(grid, fisher_integrand(grid, state.tau)),
        grad_chi_sq=integrate(grid, gradient_sq(grid, state.chi)),
        positivity_debt=state.positivity_debt,
        cert_c1_mass=False, cert_tau_linf=False, cert_nonneg=False,
        mass_c1_sq=integrate(grid, state.c1**2),
        hessian_tau=hessian_tau_1d(grid, state.tau) if grid.dim == 1 else None,
    )
    certs = certify_bounds(
        partial, p, alphas, initial, tol_rel, tol_abs, m1_override, tau_star_override
    )
    return dc_replace(
        partial,
        cert_c1_mass=certs.c1_mass_ok,
        cert_tau_linf=certs.tau_linf_ok,
        cert_nonneg=certs.nonneg_ok,
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
