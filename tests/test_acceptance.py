"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines, or plain ``pytest`` for the usual silent green.
"""

import functools
import math
import time

import numpy as np
import pytest

from regenfv import (
    Grid,
    HomogeneousState,
    ModelParams,
    RateFunction,
    SimState,
    StepControl,
    SupplySchedule,
    SweepConfig,
    TestFunction,
    compute_record,
    entropy_E,
    integrate,
    laplacian_neumann,
    rk4_solve,
    run,
    run_sweep,
    trajectory,
)
from regenfv.diagnostics import c1_mass_bound, tau_linf_bound
from regenfv.stepping import FIELDS
from regenfv.weakform import Trajectory, make_test_functions, residual

ALPHAS = (RateFunction("saturating", 1.2, 0.5), RateFunction("constant", 0.4))
NO_SWITCH = (RateFunction("constant", 0.0), RateFunction("constant", 0.0))


def criterion(number, label):
    """Print the FAIL line when a criterion's assertions trip (PASS lines are
    printed by the tests themselves, with the measured figures)."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL  {label}")
                raise

        return wrapper

    return decorate


def params(**overrides):
    base = dict(a1=0.05, a2=0.05, b_tau=0.5, b_chi=0.5, d_chi=0.1, a_chi=0.6,
                beta=0.8, delta=0.7, mu=0.9)
    base.update(overrides)
    return ModelParams(**base)


def default_scenario_1d(n=64):
    """The default full-coupling scenario used by the sweep criterion."""
    g = Grid((n,), (1.0,))
    x = g.axis_centers(0)
    initial = SimState(
        0.0,
        np.array((g.field(0.5 + 0.2 * np.cos(np.pi * x)),
                  g.field(0.05),
                  g.field(1.0 + 0.2 * np.cos(np.pi * x)),
                  g.field(0.4 + 0.05 * np.cos(np.pi * x)))),
        g,
    )
    schedule = SupplySchedule(dose_times=(0.1,), chi0=0.5, mode="pulse", width=0.05)
    ctrl = StepControl(t_end=0.25, dt_max=1e-4, cfl_safety=1.0, save_every=0.0125)
    return initial, schedule, ctrl


def default_point_2d(p=None, n=64):
    """Criterion 4's default parameter point on the 2D grid."""
    g = Grid((n, n), (1.0, 1.0))
    x, y = g.coordinate_arrays()
    bump = np.cos(np.pi * x) * np.cos(np.pi * y)
    initial = SimState(
        0.0,
        np.array((g.field(0.3 + 0.1 * bump),
                  g.field(0.05),
                  g.field(1.0 + 0.2 * bump),
                  g.field(0.4 + 0.05 * bump))),
        g,
    )
    return initial, p or params(eps=0.25)


@criterion(1, "analytic tau decay")
def test_criterion_1_analytic_tau_decay():
    """c1=c2=0, chi uniform, tau0=0.5, mu=2: tau matches 0.5*exp(-2t) to 1e-6."""
    g = Grid((128,), (1.0,))
    p = params(a1=0.05, a2=0.05, d_chi=0.05, mu=2.0)
    st = SimState(0.0, np.array((g.field(0.0), g.field(0.0), g.field(1.0), g.field(0.5))), g)
    ctrl = StepControl(t_end=1.0, dt_max=1e-4, cfl_safety=1.0, save_every=0.05)
    errors = []

    def sink(state):
        errors.append(float(np.max(np.abs(state.tau - 0.5 * math.exp(-2.0 * state.t)))))

    start = time.monotonic()
    run(st, p, NO_SWITCH, SupplySchedule(), ctrl, record_sink=sink)
    elapsed = time.monotonic() - start

    worst = max(errors)
    assert worst <= 1e-6, f"max tau error {worst:.3e}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    print(f"ACCEPTANCE 1: PASS  analytic tau decay, max error {worst:.2e}, {elapsed:.2f}s")


@criterion(2, "heat eigenmode")
def test_criterion_2_heat_eigenmode():
    """Pure chi diffusion: cosine-mode amplitude decays as exp(-pi^2 t) within 1%."""
    g = Grid((256,), (1.0,))
    x = g.axis_centers(0)
    p = params(d_chi=1.0)
    st = SimState(0.0, np.array((g.field(0.0), g.field(0.0),
                                 g.field(1.0 + 0.5 * np.cos(np.pi * x)), g.field(1.0))), g)
    ctrl = StepControl(t_end=0.2, cfl_safety=0.9, save_every=0.2)
    final = run(st, p, NO_SWITCH, SupplySchedule(), ctrl)

    mode = np.cos(np.pi * x)
    amp0 = 2.0 * integrate(g, st.chi * mode)
    ampT = 2.0 * integrate(g, final.chi * mode)
    target = math.exp(-math.pi**2 * 0.2)
    rel = abs(ampT / amp0 - target) / target
    assert rel <= 0.01, f"amplitude off by {rel:.2%}"
    print(f"ACCEPTANCE 2: PASS  heat eigenmode, amplitude error {rel:.2e}")


@criterion(3, "ode-oracle equivalence")
def test_criterion_3_ode_oracle_equivalence():
    """Uniform full-coupling run matches the fixed-step RK4 reference; the gap
    halves when the PDE step halves (first-order stepper)."""
    p = params(a_chi=0.8, beta=1.0, delta=0.7, mu=0.9)
    y0 = HomogeneousState(0.0, 0.6, 0.1, 1.0, 0.2)
    ref = rk4_solve(y0, p, ALPHAS, SupplySchedule(), dt=1e-6, t_end=1.0).final
    ref_vec = np.array([ref.c1, ref.c2, ref.chi, ref.tau])

    g = Grid((8,), (1.0,))

    def gap(dt_max):
        st = SimState(0.0, np.array((g.field(0.6), g.field(0.1), g.field(1.0), g.field(0.2))), g)
        ctrl = StepControl(t_end=1.0, dt_max=dt_max, cfl_safety=1.0, save_every=1.0)
        final = run(st, p, ALPHAS, SupplySchedule(), ctrl)
        got = np.array([final.c1[0], final.c2[0], final.chi[0], final.tau[0]])
        return float(np.max(np.abs(got - ref_vec) / np.abs(ref_vec)))

    g1 = gap(1e-4)
    g2 = gap(5e-5)
    assert g1 <= 1e-4, f"relative gap {g1:.3e}"
    assert 1.7 <= g1 / g2 <= 2.3, f"gap ratio {g1 / g2:.3f}"
    print(f"ACCEPTANCE 3: PASS  oracle equivalence, gap {g1:.2e}, halving ratio {g1/g2:.2f}")


@criterion(4, "bound certificates 2d")
def test_criterion_4_bound_certificates_2d():
    """>= 20 parameter combinations at 64x64: the c1 mass and tau sup bounds
    certify at every saved time and no field dips below -1e-12."""
    combos = []
    for beta in (0.4, 0.8, 1.6):
        for mu in (0.6, 1.2):
            for amp1 in (0.6, 1.8):
                for b_tau in (0.3, 0.9):
                    combos.append((beta, mu, amp1, b_tau))
    assert len(combos) >= 20

    slowest = 0.0
    for idx, (beta, mu, amp1, b_tau) in enumerate(combos):
        eps = 0.25 if idx % 2 else 0.0
        p = params(beta=beta, mu=mu, b_tau=b_tau, eps=eps)
        alphas = (RateFunction("saturating", amp1, 0.5), RateFunction("constant", 0.4))
        initial, _ = default_point_2d(p)
        m1 = c1_mass_bound(p, alphas[1], initial)
        tau_star = tau_linf_bound(p, initial)
        records = []
        sink = lambda s: records.append(
            compute_record(s, p, alphas, initial)
        )
        start = time.monotonic()
        run(initial, p, alphas, SupplySchedule(),
            StepControl(t_end=0.05, cfl_safety=0.5, save_every=0.0125),
            record_sink=sink)
        elapsed = time.monotonic() - start
        slowest = max(slowest, elapsed)
        assert elapsed <= 30.0, f"combo {idx} took {elapsed:.1f}s"

        for rec in records:
            assert rec.mass_c1 <= m1 * (1.0 + 1e-8), (idx, rec.t)
            assert rec.max_tau <= tau_star * (1.0 + 1e-8), (idx, rec.t)
            low = min(rec.min_c1, rec.min_c2, rec.min_chi, rec.min_tau)
            assert low >= -1e-12, (idx, rec.t)
            assert rec.cert_c1_mass and rec.cert_tau_linf and rec.cert_nonneg
        assert records[-1].positivity_debt <= 1e-10 * records[0].mass_c1
    print(f"ACCEPTANCE 4: PASS  {len(combos)} combos certified, slowest run {slowest:.2f}s")


@criterion(5, "entropy boundedness")
def test_criterion_5_entropy_boundedness():
    """sup_t E and int_0^T D are finite and move <= 2% under dt halving; the
    uniform unit state evaluates to exactly 1.25/e with unit coefficients."""
    unit = ModelParams(a1=1, a2=1, b_tau=1, b_chi=1, d_chi=1, a_chi=1,
                       beta=1, delta=1, mu=1)
    g = Grid((16,), (1.0,))
    st = SimState(0.0, np.array((g.field(1.0), g.field(1.0), g.field(1.0), g.field(1.0))), g)
    value = entropy_E(st, unit)
    assert value == pytest.approx(1.25 / math.e, abs=1e-10)

    initial, p = default_point_2d(n=64)

    def functionals(dt_max):
        records = []
        run(initial, p, ALPHAS, SupplySchedule(),
            StepControl(t_end=0.05, dt_max=dt_max, cfl_safety=1.0, save_every=0.0125),
            record_sink=lambda s: records.append(
                compute_record(s, p, ALPHAS, initial)
            ))
        E = np.array([r.entropy_E for r in records])
        D = np.array([r.dissipation_D for r in records])
        t = np.array([r.t for r in records])
        return float(np.max(E)), float(np.trapezoid(D, t))

    sup_a, int_a = functionals(1e-4)
    sup_b, int_b = functionals(5e-5)
    assert math.isfinite(sup_a) and math.isfinite(int_a)
    d_sup = abs(sup_a - sup_b) / sup_b
    d_int = abs(int_a - int_b) / int_b
    assert d_sup <= 0.02 and d_int <= 0.02, (d_sup, d_int)
    print(f"ACCEPTANCE 5: PASS  sup E {sup_b:.4f} (shift {d_sup:.2e}), "
          f"int D {int_b:.4f} (shift {d_int:.2e})")


@criterion(6, "eps sweep")
def test_criterion_6_eps_sweep():
    """Halving eps: consecutive L2 distances for c1, chi, tau strictly decrease
    and the artificial damping terms shrink with ratio <= 0.75."""
    initial, schedule, ctrl = default_scenario_1d()
    cfg = SweepConfig(eps_list=(0.5, 0.25, 0.125, 0.0625), params=params(),
                      alphas=ALPHAS, schedule=schedule, initial=initial, ctrl=ctrl)
    report = run_sweep(cfg)

    for field in ("c1", "chi", "tau"):
        distances = [e.pair_distance[field] for e in report.entries[1:]]
        assert all(b < a for a, b in zip(distances, distances[1:])), (field, distances)

    for attr in ("art_c1", "art_c2", "art_tau"):
        values = [getattr(e, attr) for e in report.entries]
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert all(r <= 0.75 for r in ratios), (attr, ratios)
    print("ACCEPTANCE 6: PASS  eps sweep distances decrease, artificial ratios <= 0.75")


@criterion(7, "weak-form residuals")
def test_criterion_7_weak_form_residuals():
    """All four residuals decrease under two simultaneous (h, dt, save)
    halvings with least-squares order >= 1; the zero trajectory sits at 1e-14."""
    g0 = Grid((16,), (1.0,))
    times = np.linspace(0.0, 1.0, 5)
    zero_traj = Trajectory(
        times, np.zeros((len(times), 4, *g0.shape)), g0, params(), NO_SWITCH, SupplySchedule(),
    )
    for psi in make_test_functions(g0, 1.0, k_max=3, powers=(1, 2)):
        for eq in FIELDS:
            assert residual(zero_traj, psi, eq) <= 1e-14

    p = params()
    T = 0.4

    def level(n, dt_max, save):
        g = Grid((n,), (1.0,))
        x = g.axis_centers(0)
        st = SimState(0.0, np.array((g.field(0.5 + 0.2 * np.cos(np.pi * x)),
                                     g.field(0.05 + 0.02 * np.cos(np.pi * x)),
                                     g.field(1.0 + 0.2 * np.cos(np.pi * x)),
                                     g.field(0.4 + 0.1 * np.cos(np.pi * x)))), g)
        traj = trajectory(st, p, ALPHAS, SupplySchedule(),
                          StepControl(t_end=T, dt_max=dt_max, cfl_safety=1.0, save_every=save))
        psis = make_test_functions(g, T, k_max=3, powers=(1, 2))
        return {name: max(residual(traj, psi, name) for psi in psis)
                for name in FIELDS}

    levels = [level(32, 2e-4, 0.04), level(64, 1e-4, 0.02), level(128, 5e-5, 0.01)]
    orders = {}
    for name in FIELDS:
        vals = [lv[name] for lv in levels]
        assert vals[0] > vals[1] > vals[2], (name, vals)
        # least-squares slope of log2(residual) against refinement level
        slope = -np.polyfit(range(3), np.log2(vals), 1)[0]
        orders[name] = slope
        assert slope >= 1.0, (name, slope, vals)
    order_text = ", ".join(f"{k}={v:.2f}" for k, v in orders.items())
    print(f"ACCEPTANCE 7: PASS  residual orders {order_text}")


@criterion(8, "switching conservation")
def test_criterion_8_switching_conservation():
    """With beta = 0 and eps = 0 the exchange terms cancel exactly: total cell
    mass is constant to 1e-10 per unit time in both the PDE and the oracle."""
    p = params(beta=0.0, eps=0.0)
    g = Grid((48,), (1.0,))
    x = g.axis_centers(0)
    st = SimState(0.0, np.array((g.field(0.4 + 0.2 * np.cos(np.pi * x)),
                                 g.field(0.1 + 0.05 * np.cos(2 * np.pi * x)),
                                 g.field(1.0 + 0.3 * np.cos(np.pi * x)),
                                 g.field(0.5 + 0.1 * np.cos(np.pi * x)))), g)
    T = 1.0
    mass0 = integrate(g, st.c1 + st.c2)
    final = run(st, p, ALPHAS, SupplySchedule(),
                StepControl(t_end=T, dt_max=1e-3, save_every=0.1))
    pde_drift = abs(integrate(g, final.c1 + final.c2) - mass0) / T
    assert pde_drift <= 1e-10, f"PDE drift {pde_drift:.3e}"

    y0 = HomogeneousState(0.0, 0.4, 0.1, 1.0, 0.5)
    traj = rk4_solve(y0, p, ALPHAS, SupplySchedule(), dt=1e-3, t_end=T)
    f = traj.final
    ode_drift = abs((f.c1 + f.c2) - 0.5) / T
    assert ode_drift <= 1e-10, f"oracle drift {ode_drift:.3e}"
    print(f"ACCEPTANCE 8: PASS  cell-mass drift PDE {pde_drift:.1e}, oracle {ode_drift:.1e}")


@criterion(9, "dosing mass budget")
def test_criterion_9_dosing_mass_budget():
    """Jump mode adds exactly chi0 per dose; pulse mode integrates the source
    to amplitude*width per dose (edges are hit exactly, so to rounding)."""
    p = params(a_chi=0.0, d_chi=0.2)
    g = Grid((32,), (1.0,))
    st = SimState(0.0, np.array((g.field(0.3), g.field(0.1), g.field(0.7), g.field(0.4))), g)
    chi0_mass = integrate(g, st.chi)

    jump = SupplySchedule(dose_times=(0.2, 0.5, 0.8), chi0=1.0, mode="jump")
    final = run(st, p, ALPHAS, jump, StepControl(t_end=1.0, dt_max=2e-3, save_every=0.25))
    jump_err = abs(integrate(g, final.chi) - chi0_mass - 3.0)
    assert jump_err <= 1e-12, f"jump budget error {jump_err:.3e}"

    pulse = SupplySchedule(dose_times=(0.2, 0.5, 0.8), chi0=1.0, mode="pulse", width=0.05)
    final = run(st, p, ALPHAS, pulse, StepControl(t_end=1.0, dt_max=2e-3, save_every=0.25))
    expected = 3 * (1.0 / g.measure) * 0.05 * g.measure
    pulse_err = abs(integrate(g, final.chi) - chi0_mass - expected)
    assert pulse_err <= 1e-12, f"pulse budget error {pulse_err:.3e}"
    print(f"ACCEPTANCE 9: PASS  dosing budget, jump err {jump_err:.1e}, pulse err {pulse_err:.1e}")
