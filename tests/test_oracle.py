import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from regenfv import (
    Grid,
    HomogeneousState,
    ModelParams,
    RateFunction,
    SimState,
    StepControl,
    StiffnessError,
    SupplySchedule,
    integrate,
    rk4_solve,
    run,
)
from regenfv import model
from regenfv.oracle import OracleTrajectory

ALPHAS = (RateFunction("saturating", 1.2, 0.5), RateFunction("constant", 0.4))
NO_SWITCH = (RateFunction("constant", 0.0), RateFunction("constant", 0.0))


def params(**overrides):
    base = dict(a1=1.0, a2=1.0, b_tau=1.0, b_chi=1.0, d_chi=1.0, a_chi=1.0,
                beta=1.0, delta=1.0, mu=1.0)
    base.update(overrides)
    return ModelParams(**base)


class TestRk4:
    def test_matrix_decay_closed_form(self):
        p = params(mu=2.0)
        y0 = HomogeneousState(0.0, 0.0, 0.0, 0.0, 0.5)
        traj = rk4_solve(y0, p, NO_SWITCH, SupplySchedule(), dt=1e-3, t_end=1.0)
        assert traj.final.tau == pytest.approx(0.5 * math.exp(-2.0), abs=1e-10)

    def test_logistic_closed_form(self):
        p = params(beta=1.3)
        c0 = 0.2
        y0 = HomogeneousState(0.0, c0, 0.0, 0.0, 0.0)
        traj = rk4_solve(y0, p, NO_SWITCH, SupplySchedule(), dt=1e-3, t_end=2.0)
        exact = c0 / (c0 + (1.0 - c0) * math.exp(-1.3 * 2.0))
        assert traj.final.c1 == pytest.approx(exact, abs=1e-8)

    def test_fourth_order_dt_halving(self):
        # probe the truncation-dominated regime; below dt ~ 4e-3 the error
        # sits on the accumulated-rounding floor (~3e-12) and ratios flatten
        p = params(a_chi=0.8, beta=1.0, delta=0.7, mu=0.9)
        y0 = HomogeneousState(0.0, 0.6, 0.1, 1.0, 0.2)
        ref = rk4_solve(y0, p, ALPHAS, SupplySchedule(), dt=1e-4, t_end=0.5).final
        errs = []
        for dt in (1.6e-2, 8e-3):
            f = rk4_solve(y0, p, ALPHAS, SupplySchedule(), dt=dt, t_end=0.5).final
            errs.append(
                max(abs(f.c1 - ref.c1), abs(f.c2 - ref.c2),
                    abs(f.chi - ref.chi), abs(f.tau - ref.tau))
            )
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)

    def test_cell_mass_constant_without_growth_or_damping(self):
        p = params(beta=0.0, eps=0.0, a_chi=0.8, delta=0.7, mu=0.9)
        y0 = HomogeneousState(0.0, 0.4, 0.1, 1.0, 0.5)
        traj = rk4_solve(y0, p, ALPHAS, SupplySchedule(), dt=1e-3, t_end=1.0)
        f = traj.final
        assert abs((f.c1 + f.c2) - 0.5) <= 1e-10

    def test_jump_doses_applied_between_steps(self):
        s = SupplySchedule(dose_times=(0.25, 0.75), chi0=1.0, mode="jump")
        p = params(a_chi=0.0, mu=1.0)
        y0 = HomogeneousState(0.0, 0.0, 0.0, 0.2, 0.1)
        traj = rk4_solve(y0, p, NO_SWITCH, s, dt=1e-3, t_end=1.0, domain_measure=2.0)
        # chi is not consumed (a_chi=0, no cells): final = 0.2 + 2 * (1/2)
        assert traj.final.chi == pytest.approx(1.2, abs=1e-12)

    def test_pulse_supply_mass(self):
        s = SupplySchedule(dose_times=(0.25,), chi0=1.0, mode="pulse", width=0.1)
        p = params(a_chi=0.0)
        y0 = HomogeneousState(0.0, 0.0, 0.0, 0.0, 0.1)
        traj = rk4_solve(y0, p, NO_SWITCH, s, dt=1e-3, t_end=1.0)
        # density gain = amplitude * width = (1/|Omega|) * 0.1 on |Omega| = 1
        assert traj.final.chi == pytest.approx(0.1, abs=1e-12)

    def test_supply_starts_exactly_at_the_pulse_edge(self):
        # the supply is constant between events: the substep that lands on
        # the pulse start must not see the pulse (its last RK4 stage did,
        # adding 1.67e-3 to chi by t = 0.25 at dt = 1e-2), and mid-pulse chi
        # has gained exactly chi0 * elapsed (no uptake, no cells)
        s = SupplySchedule(dose_times=(0.25,), chi0=1.0, mode="pulse", width=0.1)
        p = params(a_chi=0.0)
        y0 = HomogeneousState(0.0, 0.0, 0.0, 0.3, 0.1)
        for dt in (1e-2, 1e-3):
            traj = rk4_solve(y0, p, NO_SWITCH, s, dt=dt, t_end=0.4, save_every=0.05)
            none = rk4_solve(y0, p, NO_SWITCH, SupplySchedule(), dt=dt, t_end=0.4, save_every=0.05)
            assert traj.times[5] == 0.25
            assert traj.values[5, 2] == none.values[5, 2] == 0.3
            assert traj.values[6, 2] == pytest.approx(0.3 + 0.05, abs=1e-15)  # t = 0.3

    def test_stiffness_error_advises_smaller_dt(self):
        p = params(beta=10.0)
        y0 = HomogeneousState(0.0, 2.0, 0.0, 0.0, 0.0)
        with pytest.raises(StiffnessError, match="dt"):
            rk4_solve(y0, p, NO_SWITCH, SupplySchedule(), dt=1.0, t_end=2.0)

    def test_save_cadence(self):
        p = params()
        y0 = HomogeneousState(0.0, 0.1, 0.1, 0.1, 0.1)
        traj = rk4_solve(y0, p, ALPHAS, SupplySchedule(), dt=1e-3, t_end=0.1,
                         save_every=0.02)
        assert traj.times[0] == 0.0 and traj.times[-1] == 0.1
        assert np.allclose(np.diff(traj.times), 0.02, atol=1e-9)

    def test_determinism(self):
        p = params(a_chi=0.8, beta=1.0, delta=0.7, mu=0.9)
        y0 = HomogeneousState(0.0, 0.6, 0.1, 1.0, 0.2)
        a = rk4_solve(y0, p, ALPHAS, SupplySchedule(), dt=1e-3, t_end=1.0)
        b = rk4_solve(y0, p, ALPHAS, SupplySchedule(), dt=1e-3, t_end=1.0)
        assert np.array_equal(a.values, b.values)


class TestAgreementWithRun:
    def test_jump_protocol_every_saved_row(self):
        # uniform data: each saved oracle row, dose rows included, must equal
        # the PDE masses / |Omega| at exactly the same time (both are right limits)
        p = params(a1=0.01, a2=0.01, b_tau=0.2, b_chi=0.2, d_chi=0.2, a_chi=0.4,
                   beta=0.3, delta=0.1, mu=0.05)
        alphas = (RateFunction("saturating", 0.8, 0.3), RateFunction("constant", 0.1))
        sched = SupplySchedule(dose_times=(1.0, 2.0, 3.0), chi0=1.0, mode="jump")
        y0 = (0.4, 0.02, 1.0, 0.1)
        g = Grid((4,), (2.0,))
        st = SimState(0.0, np.array([g.field(v) for v in y0]), g)
        rows = []
        run(st, p, alphas, sched, StepControl(t_end=3.5, dt_max=0.005, save_every=0.5),
            record_sink=lambda s: rows.append(
                (s.t, *(integrate(g, f) / g.measure for f in (s.c1, s.c2, s.chi, s.tau)))))
        ref = rk4_solve(HomogeneousState(0.0, *y0), p, alphas, sched, dt=2e-4, t_end=3.5,
                        domain_measure=g.measure, save_every=0.5)

        assert ref.times.tolist() == [row[0] for row in rows]
        assert ref.times.tolist() == [0.5 * k for k in range(8)]
        for (t, *pde), ode in zip(rows, ref.values):
            gap = max(abs(a - b) / abs(b) for a, b in zip(pde, ode))
            assert gap <= 5e-3, (t, pde, ode.tolist())


def reference_rk4(y0, p, alphas, schedule, dt, t_end, domain_measure=1.0, save_every=None):
    """The RK4 loop as it was before the reaction terms were bound once per
    solve: a stage closure that clips its inputs and calls the reaction
    terms, and stages indexed as ``k1[0]``, verbatim. The supply and the
    jump-dose increment come from the timeline's events, as in
    ``rk4_solve``."""
    reactions = model.bind_reactions(p, *alphas, p.eps if p.eps > 0.0 else None)

    supply = 0.0

    def rhs(c1, c2, chi, tau):
        c1 = c1 if c1 > 0 else 0.0
        c2 = c2 if c2 > 0 else 0.0
        chi = chi if chi > 0 else 0.0
        tau = tau if tau > 0 else 0.0
        r1, r2, r3, r4 = reactions(c1, c2, chi, tau)
        return r1, r2, r3 + supply, r4

    tol = 1e-12 * max(1.0, t_end)

    times = [0.0]
    values = [(y0.c1, y0.c2, y0.chi, y0.tau)]

    t, c1, c2, chi, tau = 0.0, y0.c1, y0.c2, y0.chi, y0.tau
    for event, is_save, supply, dose in model.event_timeline(schedule, t_end, save_every, domain_measure):
        while t < event - tol:
            h = min(dt, event - t)
            k1 = rhs(c1, c2, chi, tau)
            k2 = rhs(c1 + 0.5 * h * k1[0], c2 + 0.5 * h * k1[1],
                     chi + 0.5 * h * k1[2], tau + 0.5 * h * k1[3])
            k3 = rhs(c1 + 0.5 * h * k2[0], c2 + 0.5 * h * k2[1],
                     chi + 0.5 * h * k2[2], tau + 0.5 * h * k2[3])
            k4 = rhs(c1 + h * k3[0], c2 + h * k3[1],
                     chi + h * k3[2], tau + h * k3[3])
            w = h / 6.0
            c1 += w * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
            c2 += w * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
            chi += w * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
            tau += w * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
            t += h

            low = min(c1, c2, chi, tau)
            if low < -1e-10:
                raise StiffnessError(
                    f"component fell to {low:g} at t={t:g}; reduce the oracle dt"
                )
            if low < 0.0:
                c1, c2 = max(c1, 0.0), max(c2, 0.0)
                chi, tau = max(chi, 0.0), max(tau, 0.0)
        t = event
        if dose is not None:
            chi += dose
        if is_save:
            times.append(t)
            values.append((c1, c2, chi, tau))
    return OracleTrajectory(np.asarray(times), np.asarray(values))


# components: ordinary values, exact zeros (the saturating rate's floor at
# chi = 0) and subnormals, where (0.5 * h) * k and 0.5 * (h * k) can round apart
components = st.one_of(st.floats(0.0, 2.0), st.just(0.0), st.floats(0.0, 2.2e-308))


@st.composite
def rates(draw):
    amplitude = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    if draw(st.booleans()):
        return RateFunction("constant", amplitude)
    return RateFunction("saturating", amplitude, draw(st.floats(0.01, 2.0)))


@st.composite
def oracle_cases(draw):
    """Random problems for the bound RK4 loop: parameters (eps in (0, 1) with
    theta, or the limit model), both rate kinds, pulse and jump schedules
    (pulses may overlap), save cadences, and decay rates up to 40 against
    steps up to 0.2, so stage extrapolations fall below zero and are clipped."""
    coeff = lambda: draw(st.floats(0.05, 40.0))
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.999)))
    p = ModelParams(a1=1.0, a2=1.0, b_tau=1.0, b_chi=1.0, d_chi=1.0,
                    a_chi=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
                    beta=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
                    delta=coeff(), mu=coeff(), eps=eps, theta=draw(st.floats(2.1, 6.0)))
    t_end = draw(st.floats(0.0, 1.5))
    doses = sorted(set(draw(st.lists(st.floats(0.01, 1.5), max_size=4))))
    if draw(st.booleans()):
        schedule = SupplySchedule(tuple(doses), draw(st.floats(0.0, 3.0)), "jump")
    else:  # widths beyond the dose spacing overlap the pulses
        schedule = SupplySchedule(tuple(doses), draw(st.floats(0.0, 3.0)), "pulse",
                                  draw(st.floats(0.01, 0.8)))
    y0 = HomogeneousState(0.0, *(draw(components) for _ in range(4)))
    save_every = draw(st.one_of(st.none(), st.floats(0.05, 0.5)))
    return dict(y0=y0, p=p, alphas=(draw(rates()), draw(rates())), schedule=schedule,
                dt=draw(st.floats(1e-3, 0.2)), t_end=t_end,
                domain_measure=draw(st.floats(0.5, 2.0)), save_every=save_every)


def outcome(solve, case):
    """The bytes of a solve's times and values (signed zeros count), or its stiffness error."""
    try:
        traj = solve(**case)
    except StiffnessError as exc:
        return f"StiffnessError: {exc}"
    return traj.times.tobytes(), traj.values.tobytes()


class TestBitPinned:
    @settings(max_examples=300, deadline=None)
    @given(oracle_cases())
    @example(dict(  # tau decays at h*mu = 4 per step: stage inputs are clipped
        y0=HomogeneousState(0.0, 0.3, 0.2, 0.0, 0.5),
        p=params(mu=40.0, delta=3.0, eps=0.4, theta=3.5), alphas=ALPHAS,
        schedule=SupplySchedule((0.1, 0.15), 1.0, "pulse", 0.3), dt=0.1, t_end=1.0,
        domain_measure=1.0, save_every=0.25))
    @example(dict(  # subnormal c1: 0.5 * (h * k) in a stage input would change its bits
        y0=HomogeneousState(0.0, 3.3e-311, 0.0, 1.0, 0.0), p=params(beta=0.3), alphas=NO_SWITCH,
        schedule=SupplySchedule(), dt=0.013, t_end=0.1, domain_measure=1.0, save_every=None))
    def test_rk4_solve_equals_the_reference_loop_bitwise(self, case):
        assert outcome(rk4_solve, case) == outcome(reference_rk4, case)


class TestNonFiniteInput:
    y0 = HomogeneousState(0.0, 0.1, 0.1, 0.1, 0.1)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1e-3])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt"):
            rk4_solve(self.y0, params(), ALPHAS, SupplySchedule(), dt=dt, t_end=1.0)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
    def test_rejects_bad_t_end(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            rk4_solve(self.y0, params(), ALPHAS, SupplySchedule(), dt=1e-3, t_end=t_end)

    @pytest.mark.parametrize("measure", [math.nan, math.inf, 0.0])
    def test_rejects_bad_domain_measure(self, measure):
        with pytest.raises(ValueError, match="domain_measure"):
            rk4_solve(self.y0, params(), ALPHAS, SupplySchedule(), dt=1e-3, t_end=1.0,
                      domain_measure=measure)

    @pytest.mark.parametrize("save_every", [math.nan, 0.0, -0.1])
    def test_rejects_bad_save_every(self, save_every):
        with pytest.raises(ValueError, match="save_every"):
            rk4_solve(self.y0, params(), ALPHAS, SupplySchedule(), dt=1e-3, t_end=1.0,
                      save_every=save_every)

    def test_rejects_a_start_past_t0_naming_its_time(self):
        # the dose schedule counts from t = 0, so a later y0 cannot be continued
        y0 = HomogeneousState(0.25, 0.1, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError, match=r"not at t=0\.25"):
            rk4_solve(y0, params(), ALPHAS, SupplySchedule(), dt=1e-3, t_end=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
    def test_state_rejects_bad_components(self, bad):
        for i in range(4):
            values = [0.1] * 4
            values[i] = bad
            with pytest.raises(ValueError, match="finite and nonnegative"):
                HomogeneousState(0.0, *values)
