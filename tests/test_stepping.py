import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from hypothesis.extra.numpy import arrays

from regenfv import (
    DivergenceError,
    Grid,
    HomogeneousState,
    ModelParams,
    RateFunction,
    SimState,
    StabilityError,
    StepControl,
    SupplySchedule,
    TrajectoryRecorder,
    eval_supply,
    integrate,
    laplacian_neumann,
    reaction_rhs,
    rk4_solve,
    run,
    stable_dt,
    step,
    taxis_divergence,
)
from regenfv.grid import max_face_speed

NO_SWITCH = (RateFunction("constant", 0.0), RateFunction("constant", 0.0))
ALPHAS = (RateFunction("saturating", 1.2, 0.5), RateFunction("constant", 0.4))


def params(**overrides):
    base = dict(a1=1.0, a2=1.0, b_tau=1.0, b_chi=1.0, d_chi=1.0, a_chi=1.0,
                beta=1.0, delta=1.0, mu=1.0)
    base.update(overrides)
    return ModelParams(**base)


def uniform_state(grid, c1=0.0, c2=0.0, chi=0.0, tau=0.0, t=0.0):
    return SimState(t, np.array((grid.field(c1), grid.field(c2), grid.field(chi),
                                 grid.field(tau))), grid)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_bound(state, p):
    """The stability bound written field by field with the public operators."""
    grid = state.grid
    bound = math.inf
    diff_max = max(p.a1, p.a2, p.d_chi, p.eps)
    bound = min(bound, min(grid.spacing) ** 2 / (2.0 * grid.dim * diff_max))
    for s_field, coeff in ((state.tau, p.b_tau), (state.chi, p.b_chi)):
        for axis, speed in enumerate(max_face_speed(grid, s_field, coeff)):
            if speed > 0:
                bound = min(bound, grid.spacing[axis] / speed)
    c1, c2, tau = state.c1, state.c2, state.tau
    rate = float(np.max(p.beta * (1.0 + 2.0 * c1 + c2 + tau)))
    if p.eps > 0:
        rate = max(rate, float(p.eps * p.theta * np.max(c1) ** (p.theta - 1.0)))
        rate = max(rate, float(p.eps * p.theta * np.max(c2) ** (p.theta - 1.0)))
    rate = max(rate, float(p.a_chi * np.max(c1 + c2)))
    rate = max(rate, float(p.delta * np.max(c1) + p.mu))
    return min(bound, 1.0 / rate) if rate > 0 else bound


def reference_update(state, p, alphas, schedule, dt):
    """The explicit update written field by field (one operator call per field),
    before clamping and dosing: [c1, c2, chi, tau]."""
    grid = state.grid
    c1, c2, chi, tau = state.c1, state.c2, state.chi, state.tau
    r1, r2, r3, _ = reaction_rhs(c1, c2, chi, tau, p, *alphas)
    new_c1 = c1 + dt * (
        p.a1 * laplacian_neumann(grid, c1) - taxis_divergence(grid, c1, tau, p.b_tau) + r1
    )
    new_c2 = c2 + dt * (
        p.a2 * laplacian_neumann(grid, c2) - taxis_divergence(grid, c2, chi, p.b_chi) + r2
    )
    supply = eval_supply(schedule, state.t, grid.measure)
    new_chi = chi + dt * (p.d_chi * laplacian_neumann(grid, chi) + r3 + supply)
    new_tau = tau * np.exp(-(p.mu + p.delta * c1) * dt) + dt * (c2 / (1.0 + c2))
    if p.eps > 0:
        new_tau = new_tau + dt * p.eps * laplacian_neumann(grid, tau)
    return [new_c1, new_c2, new_chi, new_tau]


def reference_clamp(fields, cell_volume):
    """Zero the negative cells field by field; return the clamped fields and
    the per-field clamped masses in (c1, c2, chi, tau) order."""
    clamped, debts = [], []
    for arr in fields:
        neg = arr < 0
        debts.append(-float(np.sum(arr[neg])) * cell_volume if neg.any() else 0.0)
        clamped.append(np.where(neg, 0.0, arr))
    return clamped, debts


@hst.composite
def rough_step_cases(draw):
    """A rough nonnegative 1D or 2D state (2D grids may be non-square), random
    coefficients with eps = 0 or eps > 0, a pulse or jump schedule whose dose
    may fall inside the step, and a dt at or below the stability bound."""
    cells = tuple(draw(hst.lists(hst.integers(3, 12), min_size=1, max_size=2)))
    grid = Grid(cells, tuple(draw(hst.floats(0.5, 2.0)) for _ in cells))
    rough = lambda lo, hi: draw(arrays(np.float64, cells, elements=hst.floats(lo, hi)))
    t = draw(hst.floats(0.1, 2.0))
    state = SimState(t, np.array((rough(0.0, 2.0), rough(0.0, 2.0), rough(0.01, 3.0),
                                  rough(0.01, 2.0))), grid,
                     positivity_debt=draw(hst.sampled_from([0.0, 0.125])))
    positive = hst.floats(0.01, 2.0)
    p = ModelParams(a1=draw(positive), a2=draw(positive), b_tau=draw(positive),
                    b_chi=draw(positive), d_chi=draw(positive), a_chi=draw(hst.floats(0.0, 2.0)),
                    beta=draw(hst.floats(0.0, 2.0)), delta=draw(positive), mu=draw(positive),
                    eps=draw(hst.sampled_from([0.0, 0.05, 0.4])),
                    theta=draw(hst.floats(2.5, 6.0)))
    alphas = (RateFunction("saturating", draw(hst.floats(0.0, 2.0)), draw(hst.floats(0.1, 1.0))),
              RateFunction("constant", draw(hst.floats(0.0, 2.0))))
    bound = reference_bound(state, p)
    dt = bound * draw(hst.floats(0.05, 1.0))
    dose = t + dt * draw(hst.floats(-1.0, 2.0))  # before, inside or after (t, t + dt]
    if draw(hst.booleans()):
        schedule = SupplySchedule((dose,), chi0=draw(hst.floats(0.0, 3.0)), mode="pulse",
                                  width=draw(hst.floats(0.5, 2.0)) * dt)
    else:
        schedule = SupplySchedule((dose,), chi0=draw(hst.floats(0.0, 3.0)), mode="jump")
    return state, p, alphas, schedule, dt, bound


class TestStableDt:
    def test_pure_diffusion_limit(self):
        # only a1 large: h^2/(2*d*a1) with h=0.1, d=1 -> 0.005
        g = Grid((10,), (1.0,))
        p = params(a1=1.0, a2=1e-12, d_chi=1e-12, beta=1e-12, a_chi=1e-12,
                   delta=1e-12, mu=1e-12, b_tau=1e-12, b_chi=1e-12)
        st = uniform_state(g)
        ctrl = StepControl(t_end=1.0, dt_max=math.inf, cfl_safety=1.0)
        assert stable_dt(st, p, ctrl) == pytest.approx(0.005, rel=1e-9)

    def test_dt_max_binds_on_quiet_state(self):
        g = Grid((10,), (1.0,))
        p = params(a1=1e-3, a2=1e-3, d_chi=1e-3, beta=1e-3, a_chi=1e-3,
                   delta=1e-3, mu=1e-3)
        st = uniform_state(g)
        ctrl = StepControl(t_end=1.0, dt_max=0.01, cfl_safety=1.0)
        assert stable_dt(st, p, ctrl) == 0.01

    def test_advection_limit_with_safety(self):
        # max |grad tau| = 2, b_tau = 1, h = 0.1 -> h/speed * 0.5 = 0.25
        g = Grid((10,), (1.0,))
        h = g.spacing[0]
        tau = np.cumsum(np.full(10, 2.0 * h))  # slope 2 everywhere
        p = params(a1=1e-12, a2=1e-12, d_chi=1e-12, beta=1e-12, a_chi=1e-12,
                   delta=1e-12, mu=1e-12, b_tau=1.0, b_chi=1e-12)
        st = SimState(0.0, np.array((g.field(0.0), g.field(0.0), g.field(0.0), g.field(tau))), g)
        ctrl = StepControl(t_end=1.0, dt_max=math.inf, cfl_safety=0.5)
        assert stable_dt(st, p, ctrl) == pytest.approx(0.025, rel=1e-9)


class TestStep:
    def test_origin_is_equilibrium(self):
        g = Grid((12,), (1.0,))
        st = uniform_state(g)
        out = step(st, params(), NO_SWITCH, SupplySchedule(), dt=1e-3)
        assert out.t == pytest.approx(1e-3)
        for name, arr in out.fields().items():
            assert np.array_equal(arr, np.zeros(12)), name

    def test_matrix_decay_factor_is_exact_exponential(self):
        # with vanishing coupling the tau update multiplies by exp(-mu dt),
        # so k steps reproduce tau0 * exp(-mu t) exactly (not (1 - mu dt)^k)
        g = Grid((8,), (1.0,))
        p = params(mu=2.0)
        st = uniform_state(g, tau=0.7)
        dt = 5e-3
        out = step(st, p, NO_SWITCH, SupplySchedule(), dt=dt)
        assert np.allclose(out.tau, 0.7 * math.exp(-2.0 * dt), rtol=1e-15)
        for _ in range(9):
            out = step(out, p, NO_SWITCH, SupplySchedule(), dt=dt)
        assert np.allclose(out.tau, 0.7 * math.exp(-2.0 * 10 * dt), rtol=1e-13)

    def test_uniform_state_stays_uniform(self):
        rng = np.random.default_rng(5)
        g = Grid((16, 16), (1.0, 1.0))
        p = params(a_chi=0.8, beta=0.9, delta=0.7, mu=0.6, eps=0.3)
        st = uniform_state(g, *rng.uniform(0.1, 1.0, size=4))
        out = step(st, p, ALPHAS, SupplySchedule(), dt=5e-4)
        for name, arr in out.fields().items():
            assert np.ptp(arr) == 0.0, name

    def test_oversized_dt_raises(self):
        g = Grid((10,), (1.0,))
        st = uniform_state(g, chi=1.0, tau=1.0)
        with pytest.raises(StabilityError):
            step(st, params(), NO_SWITCH, SupplySchedule(), dt=1.0)

    def test_divergence_names_field_and_cell(self):
        g = Grid((10,), (1.0,))
        st = uniform_state(g, c1=1e150, chi=1.0, tau=1.0)
        with pytest.raises(DivergenceError, match=r"c1 at cell \(\d+"):
            with np.errstate(over="ignore", invalid="ignore"):
                # bypass the stability check to force an overflow
                step(st, params(beta=1e200), NO_SWITCH, SupplySchedule(), dt=1.0,
                     stability_bound=math.inf)

    def test_jump_dose_fires_when_crossed(self):
        g = Grid((10,), (1.0,))
        sched = SupplySchedule(dose_times=(0.05,), chi0=1.0, mode="jump")
        p = params(a1=1e-3, a2=1e-3, d_chi=1e-3, a_chi=0.0)
        st = uniform_state(g, chi=0.2, tau=0.1, t=0.04)
        out = step(st, p, NO_SWITCH, sched, dt=0.01)
        assert np.allclose(out.chi, 1.2, atol=1e-12)
        again = step(out, p, NO_SWITCH, sched, dt=0.01)  # same dose never refires
        assert np.allclose(again.chi, 1.2, atol=1e-12)

    def test_positivity_clamp_accumulates_debt(self):
        g = Grid((10,), (1.0,))
        p = params(eps=0.5, theta=4.0)
        st = uniform_state(g, c1=3.0, chi=0.5, tau=0.5)
        out = step(st, p, NO_SWITCH, SupplySchedule(), dt=0.9 / (0.5 * 4.0 * 27.0),
                   stability_bound=math.inf)
        assert np.min(out.c1) >= 0.0
        assert out.positivity_debt >= 0.0


class TestStackedStep:
    @settings(max_examples=120, deadline=None)
    @given(rough_step_cases())
    def test_step_equals_per_field_reference_bitwise(self, case):
        st, p, alphas, schedule, dt, bound = case
        ctrl = StepControl(t_end=1.0, cfl_safety=1.0)
        assert stable_dt(st, p, ctrl) == bound
        out = step(st, p, alphas, schedule, dt)
        fields, debts = reference_clamp(reference_update(st, p, alphas, schedule, dt),
                                        st.grid.cell_volume)
        t_new = st.t + dt
        if schedule.mode == "jump" and st.t + 1e-12 < schedule.dose_times[0] <= t_new + 1e-12:
            fields[2] = fields[2] + schedule.chi0 / st.grid.measure
        assert out.t == t_new
        for name, ref in zip(("c1", "c2", "chi", "tau"), fields):
            assert same_bits(getattr(out, name), ref), name
        assert out.positivity_debt == st.positivity_debt + (debts[0] + debts[1] + debts[2] + debts[3])

    def test_new_fields_are_views_of_u(self):
        g = Grid((6, 5), (1.0, 1.0))
        st = uniform_state(g, c1=0.5, c2=0.1, chi=1.0, tau=0.5)
        out = step(st, params(), ALPHAS, SupplySchedule(), dt=1e-4)
        assert out.u.shape == (4, 6, 5) and out.u.dtype == np.float64
        assert not np.shares_memory(out.u, st.u)
        for i, arr in enumerate((out.c1, out.c2, out.chi, out.tau)):
            assert arr.base is out.u and same_bits(arr, out.u[i])
        assert list(out.fields()) == ["c1", "c2", "chi", "tau"]
        assert all(arr.base is out.u for arr in out.fields().values())

    def test_clamp_zeroes_exactly_the_negative_cells(self):
        # reaction-driven undershoot in c1, c2 (eps damping) and chi (uptake),
        # with transport slowed so only the high-density cells overshoot
        g = Grid((9,), (1.0,))
        p = params(a1=1e-3, a2=1e-3, d_chi=1e-3, b_tau=1e-3, b_chi=1e-3,
                   a_chi=5.0, beta=0.1, eps=0.5, theta=4.0)
        st = SimState(0.3, np.array((g.field(np.tile([3.0, 0.2, 0.2], 3)),
                                     g.field(np.tile([0.2, 3.0, 0.2], 3)),
                                     g.field(0.5), g.field(0.5))), g, positivity_debt=0.25)
        dt = 0.1
        raw = reference_update(st, p, NO_SWITCH, SupplySchedule(), dt)
        negative = [arr < 0 for arr in raw]
        assert [neg.any() for neg in negative] == [True, True, True, False]
        assert not all(neg.all() for neg in negative[:3])
        out = step(st, p, NO_SWITCH, SupplySchedule(), dt, stability_bound=math.inf)
        debts = []
        for name, arr, neg in zip(("c1", "c2", "chi", "tau"), raw, negative):
            got = getattr(out, name)
            assert np.all(got[neg] == 0.0), name
            assert same_bits(got[~neg], arr[~neg]), name
            debts.append(-float(np.sum(arr[neg])) * g.cell_volume if neg.any() else 0.0)
        assert out.positivity_debt == 0.25 + (debts[0] + debts[1] + debts[2] + debts[3])


class TestRun:
    def test_zero_horizon_returns_initial_with_one_record(self):
        g = Grid((10,), (1.0,))
        st = uniform_state(g, chi=1.0, tau=0.5)
        seen = []
        out = run(st, params(), NO_SWITCH, SupplySchedule(),
                  StepControl(t_end=0.0), record_sink=seen.append)
        assert out is st if out.t == 0.0 else out.t == 0.0
        assert len(seen) == 1 and seen[0].t == 0.0

    def test_initial_positivity_enforced(self):
        g = Grid((10,), (1.0,))
        st = uniform_state(g)  # chi = tau = 0 violates strict positivity
        with pytest.raises(ValueError, match="strictly positive"):
            run(st, params(), NO_SWITCH, SupplySchedule(), StepControl(t_end=0.1))

    def test_rejects_negative_c1_cell(self):
        g = Grid((10,), (1.0,))
        st = uniform_state(g, c1=0.5, chi=1.0, tau=0.5)
        st.c1[3] = -1e-9
        with pytest.raises(ValueError, match="nonnegative"):
            run(st, params(), NO_SWITCH, SupplySchedule(), StepControl(t_end=0.1))

    def test_rejects_nan_field_naming_it(self):
        g = Grid((6, 5), (1.0, 1.0))
        st = uniform_state(g, c1=0.5, chi=1.0, tau=0.5)
        st.tau[2, 4] = np.nan
        with pytest.raises(ValueError, match=r"non-finite initial tau at cell \(2, 4\)"):
            run(st, params(), NO_SWITCH, SupplySchedule(), StepControl(t_end=0.1))

    def test_rejects_shape_mismatch(self):
        g = Grid((10,), (1.0,))
        st = uniform_state(g, c1=0.5, chi=1.0, tau=0.5)
        bad = {r"float64 of shape \(3, 10\)": st.u[:3],
               r"float64 of shape \(4, 9\)": st.u[:, :9],
               r"int64 of shape \(4, 10\)": np.ones((4, 10), dtype=np.int64)}
        for message, u in bad.items():
            with pytest.raises(ValueError, match=r"shape \(4, 10\), not " + message):
                run(st.replace(u=u), params(), NO_SWITCH, SupplySchedule(), StepControl(t_end=0.1))

    def test_records_at_uniform_save_times(self):
        g = Grid((10,), (1.0,))
        st = uniform_state(g, chi=1.0, tau=0.5)
        times = []
        run(st, params(), NO_SWITCH, SupplySchedule(),
            StepControl(t_end=0.2, dt_max=1e-2, save_every=0.05),
            record_sink=lambda s: times.append(s.t))
        assert times == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2], abs=1e-12)

    def test_saved_states_are_never_written_afterwards(self):
        # jump doses on and between save times; each saved state must still
        # hold, after the run, the values it held when it was handed out
        g = Grid((12,), (1.0,))
        x = g.axis_centers(0)
        st = uniform_state(g, c1=0.5, c2=0.1, chi=1.0, tau=0.5)
        st = st.replace(u=st.u * (1.0 + 0.3 * np.cos(np.pi * x)))
        schedule = SupplySchedule(dose_times=(0.05, 0.07, 0.1, 0.1 + 1e-3), chi0=0.7, mode="jump")
        recorder, copies = TrajectoryRecorder(), []

        def sink(index, state):
            recorder(index, state)
            copies.append(state.u.copy())

        run(st, params(), ALPHAS, schedule, StepControl(t_end=0.2, dt_max=1e-2, save_every=0.05),
            snapshot_sink=sink)
        assert len(recorder.states) == 5
        for state, copy in zip(recorder.states, copies, strict=True):
            assert same_bits(state.u, copy)

    def test_uniform_run_matches_oracle(self):
        p = params(a1=0.05, a2=0.05, d_chi=0.05, a_chi=0.8, beta=1.0,
                   delta=0.7, mu=0.9, b_tau=0.5, b_chi=0.5)
        g = Grid((8,), (1.0,))
        st = uniform_state(g, 0.6, 0.1, 1.0, 0.2)
        final = run(st, p, ALPHAS, SupplySchedule(),
                    StepControl(t_end=0.5, dt_max=1e-3, cfl_safety=1.0))
        ref = rk4_solve(HomogeneousState(0.0, 0.6, 0.1, 1.0, 0.2), p, ALPHAS,
                        SupplySchedule(), dt=1e-4, t_end=0.5).final
        for name, value in (("c1", ref.c1), ("c2", ref.c2), ("chi", ref.chi), ("tau", ref.tau)):
            got = getattr(final, name)[0]
            assert got == pytest.approx(value, rel=5e-3), name

    def test_pulse_edges_hit_exactly_mass_budget(self):
        p = params(a_chi=0.0, d_chi=0.2)
        g = Grid((16,), (1.0,))
        sched = SupplySchedule(dose_times=(0.1,), chi0=1.0, mode="pulse", width=0.03)
        st = uniform_state(g, chi=0.5, tau=0.5)
        final = run(st, p, NO_SWITCH, sched,
                    StepControl(t_end=0.2, dt_max=7e-3, save_every=0.1))
        gain = integrate(g, final.chi) - 0.5
        assert gain == pytest.approx(1.0 * 0.03, abs=1e-14)

    def test_nonnegativity_and_debt_on_taxis_run(self):
        rng = np.random.default_rng(9)
        g = Grid((48,), (1.0,))
        x = g.axis_centers(0)
        p = params(a1=0.02, a2=0.02, d_chi=0.05, b_tau=0.8, b_chi=0.8,
                   a_chi=0.5, beta=0.8, delta=0.6, mu=0.7)
        st = SimState(0.0, np.array((g.field(0.4 + 0.3 * np.cos(np.pi * x)),
                                     g.field(0.1 + 0.05 * np.cos(2 * np.pi * x)),
                                     g.field(1.0 + 0.4 * np.cos(np.pi * x)),
                                     g.field(0.5 + 0.2 * np.cos(np.pi * x)))), g)
        mass0 = integrate(g, st.c1 + st.c2 + st.chi + st.tau)
        mins = []
        final = run(st, p, ALPHAS, SupplySchedule(),
                    StepControl(t_end=0.5, dt_max=5e-3, save_every=0.05),
                    record_sink=lambda s: mins.append(min(np.min(a) for a in s.fields().values())))
        assert min(mins) >= 0.0
        assert final.positivity_debt <= 1e-10 * mass0

    def test_determinism(self):
        p = params(a_chi=0.8, beta=0.9, delta=0.7, mu=0.6)
        g = Grid((24,), (1.0,))
        x = g.axis_centers(0)
        def make():
            return SimState(0.0, np.array((g.field(0.3 + 0.1 * np.cos(np.pi * x)), g.field(0.05),
                                           g.field(1.0 + 0.2 * np.cos(np.pi * x)),
                                           g.field(0.4))), g)
        a = run(make(), p, ALPHAS, SupplySchedule(), StepControl(t_end=0.3, dt_max=2e-3))
        b = run(make(), p, ALPHAS, SupplySchedule(), StepControl(t_end=0.3, dt_max=2e-3))
        for name in ("c1", "c2", "chi", "tau"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_c2_mass_growth_bound(self):
        # the c2 mass can rise at most M_alpha1 * |Omega| per unit time
        p = params(a1=0.03, a2=0.03, d_chi=0.05, a_chi=0.5, beta=0.6,
                   delta=0.7, mu=0.8, b_tau=0.4, b_chi=0.4)
        g = Grid((48,), (1.0,))
        x = g.axis_centers(0)
        st = SimState(0.0, np.array((g.field(0.6 + 0.3 * np.cos(np.pi * x)),
                                     g.field(0.02), g.field(1.0 + 0.3 * np.cos(np.pi * x)),
                                     g.field(0.4))), g)
        mass0 = integrate(g, st.c2)
        bound_rate = ALPHAS[0].bound * g.measure
        masses = []
        run(st, p, ALPHAS, SupplySchedule(),
            StepControl(t_end=1.0, dt_max=2e-3, save_every=0.1),
            record_sink=lambda s: masses.append((s.t, integrate(g, s.c2))))
        for t, mass in masses:
            assert mass <= mass0 + bound_rate * t + 1e-12

    def test_jump_mode_chi_sup_bound(self):
        # uptake only removes medium, diffusion contracts the max: the sup of
        # chi never exceeds max(chi0) plus the doses delivered so far
        p = params(a1=0.03, a2=0.03, d_chi=0.2, a_chi=0.5, beta=0.6,
                   delta=0.7, mu=0.8)
        g = Grid((48,), (1.0,))
        x = g.axis_centers(0)
        sched = SupplySchedule(dose_times=(0.2, 0.6), chi0=0.8, mode="jump")
        st = SimState(0.0, np.array((g.field(0.3 + 0.1 * np.cos(np.pi * x)), g.field(0.1),
                                     g.field(1.0 + 0.4 * np.cos(np.pi * x)), g.field(0.4))), g)
        chi_max0 = float(np.max(st.chi))
        per_dose = sched.chi0 / g.measure
        seen = []
        run(st, p, ALPHAS, sched,
            StepControl(t_end=1.0, dt_max=2e-3, save_every=0.05),
            record_sink=lambda s: seen.append((s.t, float(np.max(s.chi)))))
        for t, chi_max in seen:
            doses = sum(1 for td in sched.dose_times if td <= t + 1e-12)
            assert chi_max <= chi_max0 + doses * per_dose + 1e-12, t
