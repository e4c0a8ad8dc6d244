import math

import numpy as np
import pytest

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
