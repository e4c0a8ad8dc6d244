import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from regenfv import (
    Grid,
    ModelParams,
    RateFunction,
    SimState,
    StepControl,
    SupplySchedule,
    TestFunction,
    Trajectory,
    compute_record,
    integrate,
    residual,
    residual_table,
    trajectory,
)
from regenfv.stepping import FIELDS
from regenfv.weakform import _supply_term

NO_SWITCH = (RateFunction("constant", 0.0), RateFunction("constant", 0.0))
ALPHAS = (RateFunction("saturating", 1.2, 0.5), RateFunction("constant", 0.4))


def params(**overrides):
    base = dict(a1=1.0, a2=1.0, b_tau=1.0, b_chi=1.0, d_chi=1.0, a_chi=1.0,
                beta=1.0, delta=1.0, mu=1.0)
    base.update(overrides)
    return ModelParams(**base)


def zero_trajectory(n_cells=16, n_snaps=6, T=1.0, p=None, schedule=None):
    g = Grid((n_cells,), (1.0,))
    times = np.linspace(0.0, T, n_snaps)
    u = np.zeros((n_snaps, 4, n_cells))
    return Trajectory(times, u, g, p or params(), NO_SWITCH,
                      schedule or SupplySchedule())


def snapshots(traj):
    """The saved states of a trajectory, one SimState per row of ``traj.u``."""
    return [SimState(float(t), u, traj.grid) for t, u in zip(traj.times, traj.u)]


def run_trajectory(state, p, alphas, schedule, t_end, dt_max, save):
    return trajectory(state, p, alphas, schedule,
                      StepControl(t_end=t_end, dt_max=dt_max, cfl_safety=1.0, save_every=save))


class TestZeroTrajectory:
    def test_all_residuals_vanish(self):
        traj = zero_trajectory()
        for k in range(4):
            for m in (1, 2):
                psi = TestFunction((k,), m, traj.horizon)
                for eq in FIELDS:
                    assert residual(traj, psi, eq) <= 1e-14


class TestTrajectory:
    def test_snapshot_array_shape_is_checked(self):
        g = Grid((6,), (1.3,))
        times = np.linspace(0.0, 1.0, 3)
        model = (params(), NO_SWITCH, SupplySchedule())
        Trajectory(times, np.zeros((3, 4, 6)), g, *model)
        for shape in ((3, 3, 6), (3, 4, 5), (3, 4, 6, 1), (2, 4, 6), (4, 4, 6)):
            with pytest.raises(ValueError, match="does not match"):
                Trajectory(times, np.zeros(shape), g, *model)

    @pytest.mark.parametrize("saves", [0, 1])
    def test_needs_two_snapshots(self, saves):
        g = Grid((6,), (1.0,))
        with pytest.raises(ValueError, match="at least two snapshots"):
            Trajectory(np.zeros(saves), np.zeros((saves, 4, 6)), g, params(), NO_SWITCH, SupplySchedule())


class TestTestFunction:
    def test_terminal_condition(self):
        psi = TestFunction((2,), 1, 2.0)
        assert psi.g(2.0) == 0.0

    def test_neumann_compatibility(self):
        # grad S carries sin(k pi x / L), which vanishes on the boundary
        g = Grid((64,), (2.0,))
        psi = TestFunction((3,), 1, 1.0)
        (gx,) = psi.spatial_gradient(g)
        h = g.spacing[0]
        assert abs(gx[0]) <= 3 * np.pi / 2.0 * (np.pi * h)  # O(h) at the wall
        assert abs(gx[-1]) <= 3 * np.pi / 2.0 * (np.pi * h)

    def test_time_integral_closed_form(self):
        psi = TestFunction((0,), 2, 1.0)
        xs = np.linspace(0.2, 0.5, 10001)
        assert psi.g_integral(0.2, 0.5) == pytest.approx(
            np.trapezoid(psi.g(xs), xs), abs=1e-10
        )

    def test_horizon_mismatch_rejected(self):
        traj = zero_trajectory(T=1.0)
        psi = TestFunction((1,), 1, 2.0)
        with pytest.raises(ValueError, match="horizon"):
            residual(traj, psi, "c1")


class TestMassBudgetReduction:
    def test_spatially_constant_psi_reduces_to_mass_balance(self):
        # for k = 0 the gradient terms vanish and the c1 residual is exactly
        # the time-quadrature defect of the mass budget; rebuild it from the
        # diagnostics mass series as an independent accumulator
        p = params(a1=0.05, a2=0.05, d_chi=0.05, a_chi=0.6, beta=0.8,
                   delta=0.7, mu=0.9, b_tau=0.4, b_chi=0.4)
        g = Grid((32,), (1.0,))
        x = g.axis_centers(0)
        st = SimState(0.0, np.array((g.field(0.4 + 0.2 * np.cos(np.pi * x)),
                                     g.field(0.05), g.field(1.0 + 0.2 * np.cos(np.pi * x)),
                                     g.field(0.4))), g)
        traj = trajectory(st, p, ALPHAS, SupplySchedule(),
                          StepControl(t_end=0.2, dt_max=5e-4, cfl_safety=1.0, save_every=0.02))
        records = [compute_record(s, p, ALPHAS, st) for s in snapshots(traj)]
        T = traj.horizon
        psi = TestFunction((0,), 1, T)

        res_c1 = residual(traj, psi, "c1")

        times = np.array([r.t for r in records])
        mass = np.array([r.mass_c1 for r in records])
        g_t, gp_t = psi.g(times), psi.g_prime(times)
        lhs = -np.trapezoid(mass * gp_t, times) - mass[0]
        kernels = []
        for s in snapshots(traj):
            # the rates written out: max(A z/(K + z), 1e-12 A) for the saturating
            # alpha1, the amplitude for the constant alpha2
            alpha1 = np.maximum(1.2 * s.chi / (0.5 + s.chi), 1.2e-12)
            switch = alpha1 * s.c1 / (1 + s.c1) - 0.4 * s.c2 / (1 + s.c2)
            kernels.append(integrate(traj.grid,
                                     -switch + p.beta * s.c1 * (1 - s.c1 - s.c2 - s.tau)))
        rhs = np.trapezoid(np.array(kernels) * g_t, times)
        budget_defect = abs(lhs - rhs)

        assert res_c1 == pytest.approx(budget_defect, rel=1e-9)
        assert res_c1 <= 5e-4  # quadrature + scheme error at this resolution

    def test_jump_supply_term_closed_form(self):
        sched = SupplySchedule(dose_times=(0.25, 0.75), chi0=2.0, mode="jump")
        traj = zero_trajectory(T=1.0, schedule=sched)
        psi = TestFunction((0,), 1, 1.0)
        # chi0 * psi(t_d) per dose: 2*(1-0.25) + 2*(1-0.75) = 2.0 on |Omega|=1
        assert _supply_term(traj, psi) == pytest.approx(2.0, abs=1e-14)
        psi2 = TestFunction((1,), 1, 1.0)  # spatial mean of cos vanishes
        assert _supply_term(traj, psi2) == pytest.approx(0.0, abs=1e-12)

    def test_pulse_supply_term_closed_form(self):
        sched = SupplySchedule(dose_times=(0.2,), chi0=1.0, mode="pulse", width=0.1)
        traj = zero_trajectory(T=1.0, schedule=sched)
        psi = TestFunction((0,), 1, 1.0)
        exact = 1.0 * psi.g_integral(0.2, 0.3)  # amplitude * |Omega| * int g
        assert _supply_term(traj, psi) == pytest.approx(exact, rel=1e-12)


def _per_dose_supply(traj, psi):
    """The supply term dose by dose: each pulse's density chi0/|Omega| times the
    integral of g over [t_d, t_d + width] clipped at the horizon, and each jump
    dose before the horizon times g at its time."""
    grid, sched = traj.grid, traj.schedule
    s_int = integrate(grid, psi.spatial(grid))
    density, total = sched.chi0 / grid.measure, 0.0
    for td in sched.dose_times:
        if sched.mode == "pulse":
            total += density * s_int * psi.g_integral(td, td + sched.width)
        elif td < traj.horizon:
            total += density * s_int * float(psi.g(td))
    return total


@st.composite
def supply_cases(draw):
    """(trajectory, test function): random schedules on a zero 1D trajectory of
    horizon T, doses also past T, every distinct dose time, pulse edge and T
    more than 1e-9 apart (closer ones merge into one event)."""
    T = draw(st.floats(0.1, 5.0))
    mode = draw(st.sampled_from(["pulse", "jump"]))
    low = 0.0 if mode == "pulse" else 1e-6
    times = sorted(draw(st.lists(st.floats(low, 1.5 * T), min_size=1, max_size=6, unique=True)))
    width = draw(st.floats(1e-3, T))
    points = sorted({T, *times, *((t + width for t in times) if mode == "pulse" else ())})
    assume(all(b - a > 1e-9 for a, b in zip(points, points[1:])))
    sched = SupplySchedule(dose_times=tuple(times), chi0=draw(st.floats(0.0, 3.0)), mode=mode, width=width)
    g = Grid((draw(st.integers(3, 12)),), (draw(st.floats(0.3, 3.0)),))
    traj = Trajectory(np.linspace(0.0, T, 3), np.zeros((3, 4, g.cells[0])), g, params(), NO_SWITCH, sched)
    return traj, TestFunction((draw(st.integers(0, 3)),), draw(st.integers(1, 3)), traj.horizon)


class TestSupplyTerm:
    @settings(max_examples=300, deadline=None)
    @given(supply_cases())
    def test_event_timeline_equals_per_dose_closed_form(self, case):
        # bitwise while the pulses are disjoint; overlapping pulses are summed
        # per interval of the timeline instead of per dose, which rounds differently
        traj, psi = case
        got, want = _supply_term(traj, psi), _per_dose_supply(traj, psi)
        sched = traj.schedule
        overlap = sched.mode == "pulse" and any(b < a + sched.width for a, b in
                                                zip(sched.dose_times, sched.dose_times[1:]))
        if overlap:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        else:
            assert got == want


class TestAnalyticTrajectories:
    def test_matrix_decay_residual_tracks_quadrature_error(self):
        # the same residual evaluated on the exactly sampled solution
        # tau(t) = 0.5 exp(-2t) isolates the trapezoid-in-time error; the
        # numerical run may add only scheme error on top of it
        p = params(a1=0.02, a2=0.02, d_chi=0.02, mu=2.0)
        g = Grid((48,), (1.0,))
        st = SimState(0.0, np.array((g.field(0.0), g.field(0.0), g.field(1.0), g.field(0.5))), g)
        traj = run_trajectory(st, p, NO_SWITCH, SupplySchedule(), 0.5, 2e-4, 0.025)
        zero = g.field(0.0)
        exact_u = np.array([(zero, zero, g.field(1.0), g.field(0.5 * math.exp(-2.0 * t)))
                            for t in traj.times])
        exact = Trajectory(traj.times, exact_u, g, p, NO_SWITCH, SupplySchedule())
        for k in (0, 1):
            for m in (1, 2):
                psi = TestFunction((k,), m, 0.5)
                quad_err = residual(exact, psi, "tau")
                assert residual(traj, psi, "tau") <= 2.0 * quad_err + 1e-6

    def test_heat_mode_residual_tracks_quadrature_error(self):
        p = params(a_chi=0.0)
        g = Grid((64,), (1.0,))
        x = g.axis_centers(0)
        st = SimState(0.0, np.array((g.field(0.0), g.field(0.0),
                                     g.field(1.0 + 0.5 * np.cos(np.pi * x)), g.field(1.0))), g)
        traj = run_trajectory(st, p, NO_SWITCH, SupplySchedule(), 0.2, 1e-4, 0.01)
        zero = g.field(0.0)
        exact_u = np.array([
            (zero, zero, g.field(1.0 + 0.5 * np.cos(np.pi * x) * math.exp(-np.pi**2 * t)),
             g.field(1.0))
            for t in traj.times
        ])
        exact = Trajectory(traj.times, exact_u, g, p, NO_SWITCH, SupplySchedule())
        for k in (0, 1, 2):
            for m in (1, 2):
                psi = TestFunction((k,), m, 0.2)
                quad_err = residual(exact, psi, "chi")
                assert residual(traj, psi, "chi") <= 2.0 * quad_err + 1e-5

    def test_uniform_chi_taxis_terms_cancel_by_parts(self):
        # with chi constant, kappa^2*int(c2 chi S) and int(chi grad c2 . grad S)
        # cancel analytically; the discrete mismatch decays at second order
        def mismatch(n):
            g = Grid((n,), (1.0,))
            x = g.axis_centers(0)
            c2 = 0.5 + 0.3 * np.cos(2 * np.pi * x)  # not orthogonal to S
            psi = TestFunction((2,), 1, 1.0)
            S = psi.spatial(g)
            (gS,) = psi.spatial_gradient(g)
            from regenfv.grid import gradient_components
            (gc2,) = gradient_components(g, c2)
            return abs(psi.laplace_factor(g) * integrate(g, c2 * S)
                       - integrate(g, gc2 * gS))

        m1, m2 = mismatch(64), mismatch(128)
        assert math.log2(m1 / m2) >= 1.7

    def test_c1_and_c2_residuals_on_coupled_run(self):
        p = params(a1=0.05, a2=0.05, d_chi=0.1, a_chi=0.6, beta=0.8,
                   delta=0.7, mu=0.9, b_tau=0.5, b_chi=0.5)
        g = Grid((64,), (1.0,))
        x = g.axis_centers(0)
        st = SimState(0.0, np.array((g.field(0.5 + 0.2 * np.cos(np.pi * x)),
                                     g.field(0.05 + 0.02 * np.cos(np.pi * x)),
                                     g.field(1.0 + 0.2 * np.cos(np.pi * x)),
                                     g.field(0.4 + 0.1 * np.cos(np.pi * x)))), g)
        traj = run_trajectory(st, p, ALPHAS, SupplySchedule(), 0.4, 1e-4, 0.02)
        for k in (0, 1, 2, 3):
            for m in (1, 2):
                psi = TestFunction((k,), m, 0.4)
                assert residual(traj, psi, "c1") <= 2e-3
                assert residual(traj, psi, "c2") <= 2e-3

    def test_regularized_terms_enter_when_eps_positive(self):
        # the eps-aware residual on an eps run beats the limit-form residual
        p = params(a1=0.05, a2=0.05, d_chi=0.1, a_chi=0.6, beta=0.8,
                   delta=0.7, mu=0.9, b_tau=0.5, b_chi=0.5, eps=0.4)
        p_limit = ModelParams(**{**p.__dict__, "eps": 0.0})
        g = Grid((48,), (1.0,))
        x = g.axis_centers(0)
        st = SimState(0.0, np.array((g.field(0.6 + 0.2 * np.cos(np.pi * x)), g.field(0.05),
                                     g.field(1.0 + 0.2 * np.cos(np.pi * x)),
                                     g.field(0.4 + 0.1 * np.cos(np.pi * x)))), g)
        traj = run_trajectory(st, p, ALPHAS, SupplySchedule(), 0.3, 1e-4, 0.015)
        wrong = Trajectory(traj.times, traj.u, traj.grid, p_limit, traj.alphas, traj.schedule)
        psi = TestFunction((0,), 1, 0.3)
        assert residual(traj, psi, "c1") < residual(wrong, psi, "c1")
        # the eps grad(tau).grad(psi) term needs a nonconstant spatial mode
        psi1 = TestFunction((1,), 1, 0.3)
        assert residual(traj, psi1, "tau") < residual(wrong, psi1, "tau")


class TestRefinement:
    def test_residuals_decrease_under_simultaneous_refinement(self):
        p = params(a1=0.05, a2=0.05, d_chi=0.1, a_chi=0.6, beta=0.8,
                   delta=0.7, mu=0.9, b_tau=0.5, b_chi=0.5)
        T = 0.3

        def level(n, dtm, save):
            g = Grid((n,), (1.0,))
            x = g.axis_centers(0)
            st = SimState(0.0, np.array((g.field(0.5 + 0.2 * np.cos(np.pi * x)), g.field(0.05),
                                         g.field(1.0 + 0.2 * np.cos(np.pi * x)),
                                         g.field(0.4 + 0.1 * np.cos(np.pi * x)))), g)
            traj = run_trajectory(st, p, ALPHAS, SupplySchedule(), T, dtm, save)
            psi = TestFunction((1,), 1, T)
            return {name: residual(traj, psi, name) for name in FIELDS}

        coarse = level(32, 2e-4, 0.03)
        fine = level(64, 1e-4, 0.015)
        for name in FIELDS:
            assert fine[name] < coarse[name], name


# The per-test-function formulas as they were before the table was evaluated
# snapshot by snapshot: S and grad S from meshgrid coordinates, every series
# rebuilt per test function, the reaction terms those of ``bind_reactions``.
# The evaluation order of each integrand is the reference that the
# snapshot-major table must reproduce bit for bit. TestMassBudgetReduction
# checks the reaction terms themselves against hand-written formulas.
def meshgrid_spatial(psi, grid):
    out = np.ones(grid.shape)
    for k, x, L in zip(psi.modes, grid.coordinate_arrays(), grid.lengths):
        out = out * np.cos(k * np.pi * x / L)
    return out


def meshgrid_spatial_gradient(psi, grid):
    coords = grid.coordinate_arrays()
    comps = []
    for axis in range(grid.dim):
        comp = np.ones(grid.shape)
        for a, (k, x, L) in enumerate(zip(psi.modes, coords, grid.lengths)):
            w = k * np.pi / L
            comp = comp * (-w * np.sin(w * x) if a == axis else np.cos(w * x))
        comps.append(comp)
    return tuple(comps)


def reference_residuals(traj, psi):
    from regenfv.grid import gradient_components
    from regenfv.model import bind_reactions

    grid, p = traj.grid, traj.params
    reactions = bind_reactions(p, *traj.alphas, p.eps if p.eps > 0 else None, arrays=True)
    S, gS = meshgrid_spatial(psi, grid), meshgrid_spatial_gradient(psi, grid)
    t = traj.times
    g, gp = psi.g(t), psi.g_prime(t)

    def series(integrand):
        return np.array([integrate(grid, integrand(s)) for s in snapshots(traj)])

    def grad_dot(f):
        return sum(c * gc for c, gc in zip(gradient_components(grid, f), gS))

    def trapz(values):
        return float(np.trapezoid(values, t))

    def reaction(i):  # the time integral of the reaction term r_(i+1) against psi
        return trapz(series(lambda s: reactions(*s.u)[i] * S) * g)

    out = {}

    a = series(lambda s: s.c1 * S)
    rhs = (
        -p.a1 * trapz(series(lambda s: grad_dot(s.c1)) * g)
        + p.b_tau * trapz(series(lambda s: s.c1 * grad_dot(s.tau)) * g)
        + reaction(0)
    )
    out["c1"] = abs(-trapz(a * gp) - a[0] - rhs)

    a = series(lambda s: s.c2 * S)
    rhs = (
        -p.a2 * trapz(series(lambda s: grad_dot(s.c2)) * g)
        + p.b_chi * psi.laplace_factor(grid) * trapz(series(lambda s: s.c2 * s.chi * S) * g)
        - p.b_chi * trapz(series(lambda s: s.chi * grad_dot(s.c2)) * g)
        + reaction(1)
    )
    out["c2"] = abs(-trapz(a * gp) - a[0] - rhs)

    a = series(lambda s: s.chi * S)
    rhs = (
        -p.d_chi * trapz(series(lambda s: grad_dot(s.chi)) * g)
        + reaction(2)
        + _supply_term(traj, psi)
    )
    out["chi"] = abs(-trapz(a * gp) - a[0] - rhs)

    a = series(lambda s: s.tau * S)
    rhs = reaction(3)
    if p.eps > 0:
        rhs -= p.eps * trapz(series(lambda s: grad_dot(s.tau)) * g)
    out["tau"] = abs(-trapz(a * gp) - a[0] - rhs)
    return out


def not_one(lo, hi):
    return st.floats(lo, hi).filter(lambda v: v != 1.0)


@st.composite
def grids(draw):
    """1D grids and non-square 2D grids, every length != 1."""
    if draw(st.booleans()):
        cells = (draw(st.integers(3, 12)),)
    else:
        cells = draw(st.tuples(st.integers(3, 9), st.integers(3, 9)).filter(lambda c: c[0] != c[1]))
    return Grid(cells, tuple(draw(not_one(0.3, 3.0)) for _ in cells))


@st.composite
def rough_trajectories(draw):
    grid = draw(grids())
    steps = draw(st.lists(st.floats(0.01, 0.2), min_size=1, max_size=3))
    times = np.concatenate(([0.0], np.cumsum(steps)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    us = []
    for t in times:
        u = rng.uniform(0.0, 2.0, (4, *grid.shape)) * (rng.random((4, *grid.shape)) > 0.1)
        us.append(u)
    coefficient = st.floats(0.01, 2.0)
    eps = draw(st.just(0.0) | st.floats(0.05, 0.5))
    p = params(**{name: draw(coefficient) for name in
                  ("a1", "a2", "b_tau", "b_chi", "d_chi", "a_chi", "beta", "delta", "mu")},
               eps=eps, theta=draw(st.floats(2.1, 4.0)))
    alphas = tuple(
        RateFunction("saturating", draw(coefficient), draw(st.floats(0.1, 2.0)))
        if draw(st.booleans()) else RateFunction("constant", draw(coefficient))
        for _ in range(2)
    )
    T = float(times[-1])
    doses = tuple(sorted(draw(st.lists(st.floats(0.05 * T, 1.2 * T), min_size=1, max_size=3, unique=True))))
    schedule = SupplySchedule(dose_times=doses, chi0=draw(st.floats(0.1, 3.0)),
                              mode=draw(st.sampled_from(["pulse", "jump"])),
                              width=draw(st.floats(0.01, 0.5)) * T)
    return Trajectory(times, np.array(us), grid, p, alphas, schedule)


class TestSnapshotMajorTable:
    """The table and every single residual equal the per-test-function formulas bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(rough_trajectories(), st.integers(0, 4),
           st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3, unique=True))
    def test_table_equals_per_test_function_formulas(self, traj, k_max, powers):
        from regenfv.weakform import make_test_functions

        expected = []
        for psi in make_test_functions(traj.grid, traj.horizon, k_max, powers):
            ref = reference_residuals(traj, psi)
            expected.extend((name, psi.modes, psi.power, ref[name]) for name in FIELDS)
        assert residual_table(traj, k_max=k_max, powers=powers) == expected

    @settings(max_examples=40, deadline=None)
    @given(rough_trajectories(), st.data())
    def test_single_residuals_equal_per_test_function_formulas(self, traj, data):
        modes = tuple(data.draw(st.integers(0, 4)) for _ in range(traj.grid.dim))
        psi = TestFunction(modes, data.draw(st.sampled_from([1, 2, 3])), traj.horizon)
        ref = reference_residuals(traj, psi)
        for name in FIELDS:
            assert residual(traj, psi, name) == ref[name], name

    @settings(max_examples=60, deadline=None)
    @given(grids(), st.data())
    def test_separable_factors_equal_meshgrid_formulas(self, grid, data):
        modes = tuple(data.draw(st.integers(0, 5)) for _ in range(grid.dim))
        psi = TestFunction(modes, 1, 1.0)
        S = psi.spatial(grid)
        assert S.shape == grid.shape and np.array_equal(S, meshgrid_spatial(psi, grid))
        for got, want in zip(psi.spatial_gradient(grid), meshgrid_spatial_gradient(psi, grid),
                             strict=True):
            assert got.shape == grid.shape and np.array_equal(got, want)
