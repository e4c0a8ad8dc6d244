import functools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from regenfv.model import FIELDS, event_timeline
from regenfv.weakform import _cosine_factors, _spatial_series, _supply_term, make_test_functions

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

    @pytest.mark.parametrize("times", [(0.0, np.nan, 0.02), (0.0, 0.02, 0.01), (0.0, 0.01, 0.01), (0.01, 0.02, 0.03)],
                             ids=["nan", "decreasing", "repeated", "late-start"])
    def test_times_must_start_at_zero_and_increase(self, times):
        # the times of a library caller's Trajectory; weakcheck's come from save_times
        g = Grid((6,), (1.0,))
        with pytest.raises(ValueError, match="start at 0 and increase strictly"):
            Trajectory(np.array(times), np.zeros((3, 4, 6)), g, params(), NO_SWITCH, SupplySchedule())

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
        _, gx = _cosine_factors(3, 2.0, g.axis_centers(0))
        h = g.spacing[0]
        assert abs(gx[0]) <= 3 * np.pi / 2.0 * (np.pi * h)  # O(h) at the wall
        assert abs(gx[-1]) <= 3 * np.pi / 2.0 * (np.pi * h)

    def test_time_integral_closed_form(self):
        psi = TestFunction((0,), 2, 1.0)
        xs = np.linspace(0.2, 0.5, 10001)
        assert psi.g_integral(0.2, 0.5) == pytest.approx(
            np.trapezoid(psi.g(xs), xs), abs=1e-10
        )

    @pytest.mark.parametrize("modes", [(0.5,), (1.0,), (2, 0.5), (-1,)])
    def test_modes_must_be_nonnegative_integers(self, modes):
        # a fractional mode gives S a nonzero normal derivative on the boundary,
        # which the integrations by parts behind the identities assume away
        with pytest.raises(ValueError, match=re.escape(f"must be nonnegative integers, got {modes}")):
            TestFunction(modes, 1, 1.0)

    def test_unknown_equation_is_named(self):
        traj = zero_trajectory()
        with pytest.raises(ValueError, match=r"^unknown equation 'foo': choose one of c1, c2, chi, tau$"):
            residual(traj, TestFunction((1,), 1, traj.horizon), "foo")

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
        assert _supply_term(traj, psi, meshgrid_integral(psi, traj.grid)) == pytest.approx(2.0, abs=1e-14)
        psi2 = TestFunction((1,), 1, 1.0)  # spatial mean of cos vanishes
        assert _supply_term(traj, psi2, meshgrid_integral(psi2, traj.grid)) == pytest.approx(0.0, abs=1e-12)

    def test_pulse_supply_term_closed_form(self):
        sched = SupplySchedule(dose_times=(0.2,), chi0=1.0, mode="pulse", width=0.1)
        traj = zero_trajectory(T=1.0, schedule=sched)
        psi = TestFunction((0,), 1, 1.0)
        exact = 1.0 * psi.g_integral(0.2, 0.3)  # amplitude * |Omega| * int g
        assert _supply_term(traj, psi, meshgrid_integral(psi, traj.grid)) == pytest.approx(exact, rel=1e-12)


def _per_dose_supply(traj, psi):
    """The supply term dose by dose: each pulse's density chi0/|Omega| times the
    integral of g over [t_d, t_d + width] clipped at the horizon, and each jump
    dose before the horizon times g at its time."""
    grid, sched = traj.grid, traj.schedule
    s_int = meshgrid_integral(psi, grid)
    density, total = sched.chi0 / grid.measure, 0.0
    for td in sched.dose_times:
        if sched.mode == "pulse":
            total += density * s_int * psi.g_integral(td, td + sched.width)
        elif td < traj.horizon:
            total += density * s_int * float(psi.g(td))
    return total


def not_one(lo, hi):
    return st.floats(lo, hi).filter(lambda v: v != 1.0)


@st.composite
def grids_2d(draw):
    """Non-square 2D grids, both lengths != 1."""
    cells = draw(st.tuples(st.integers(3, 9), st.integers(3, 9)).filter(lambda c: c[0] != c[1]))
    return Grid(cells, (draw(not_one(0.3, 3.0)), draw(not_one(0.3, 3.0))))


@st.composite
def grids(draw):
    """1D grids and non-square 2D grids, every length != 1."""
    if draw(st.booleans()):
        return Grid((draw(st.integers(3, 12)),), (draw(not_one(0.3, 3.0)),))
    return draw(grids_2d())


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
    @example((Trajectory(np.linspace(0.0, 3.0, 3), np.zeros((3, 4, 3)), Grid((3,), (1.0,)), params(), NO_SWITCH,
                         SupplySchedule(dose_times=(0.0, 0.5), chi0=1.1125369292536007e-308, mode="pulse",
                                        width=1.0)),
              TestFunction((3,), 1, 3.0)))  # subnormal chi0, overlapping pulses: 5e-324 against 1e-323
    def test_event_timeline_equals_per_dose_closed_form(self, case):
        # bitwise while the pulses are disjoint; overlapping pulses are summed
        # per interval of the timeline instead of per dose, which rounds differently
        traj, psi = case
        got = _supply_term(traj, psi, meshgrid_integral(psi, traj.grid))
        want = _per_dose_supply(traj, psi)
        sched = traj.schedule
        overlap = sched.mode == "pulse" and any(b < a + sched.width for a, b in
                                                zip(sched.dose_times, sched.dose_times[1:]))
        if overlap:
            # Each term of either sum is (x s_int) G, x the supply density (an
            # integer times chi0/|Omega|, exact when that is subnormal) and
            # G = g_integral <= T/2 (m >= 1). Where a product rounds into the
            # subnormal range it errs by up to half of 2^-1074 absolutely,
            # whatever its relative precision (sums there are exact), so no
            # relative bound holds. Two products per term can: the first
            # error is carried on times G, so a term errs by at most
            # (1 + T) 2^-1075 beyond its relative rounding. got has a term
            # per timeline interval, want one per dose. 2^-1075 itself rounds
            # to 0, so the bound counts whole units 2^-1074 = ulp(0).
            T = traj.horizon
            terms = len(event_timeline(sched, T, None, traj.grid.measure)) + len(sched.dose_times)
            tiny = math.ceil(terms * (1.0 + T) / 2) * math.ulp(0.0)
            assert abs(got - want) <= 1e-12 * abs(want) + tiny, (got, want)
        else:
            assert got == want
        # on this zero trajectory the chi row is the supply term alone, and in
        # 1D the table's integral of S (the sum of its C row times h) is the
        # cell sum of S bit for bit
        assert residual(traj, psi, "chi") == abs(got)

    @settings(max_examples=100, deadline=None)
    @given(grids_2d(), st.integers(0, 5))
    def test_table_integral_of_s_equals_cell_sum_in_2d(self, grid, k_max):
        # The table takes the integral of S as (sum_i C_x[i]) (sum_j C_y[j]) h,
        # the reference as (sum_ij C_x[i] C_y[j]) h, from the same factor values
        # (test_separable_factors_equal_meshgrid_formulas). Per product C_x[i]
        # C_y[j], the first makes nx - 1 + ny - 1 roundings in the row sums and two
        # products, the second one product, N - 1 sums and one product (N = nx
        # ny); each rounding errs by at most u = eps/2 relatively, so each side
        # is off by at most gamma_d h sum |S|, d its count, gamma_d = d u/(1 - d u)
        # (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1).
        # The computed h sum |S| is itself at most gamma_(N+1) below the exact one.
        (nx, ny), n = grid.cells, grid.n_cells
        gamma = lambda d: d * (np.finfo(float).eps / 2) / (1 - d * np.finfo(float).eps / 2)
        T = 1.0
        traj = Trajectory(np.array([0.0, T]), np.zeros((2, 4, nx, ny)), grid, params(), NO_SWITCH,
                          SupplySchedule())
        psis = make_test_functions(grid, T, k_max, (1,))
        table = _spatial_series(traj, psis)
        for psi in psis:
            S = meshgrid_spatial(psi, grid)
            bound = (gamma(nx + ny) + gamma(n + 1)) * integrate(grid, np.abs(S)) / (1 - gamma(n + 1))
            assert abs(table[psi.modes][0] - integrate(grid, S)) <= bound, psi.modes


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
            S, gS = _cosine_factors(2, 1.0, x)  # in 1D, S is the C row and grad S the D row
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
# rebuilt per test function, the reaction terms those of ``bind_reactions``,
# each spatial integral a cell sum (the supply term's integral of S too) and
# each time integral ``np.trapezoid``. S is a product of cos(w x), w = k pi / L,
# the one cosine form of the library, so that the two differ by their sums
# only. The table contracts per-axis factor matrices instead and sums in
# another order, so it matches them to a summation bound
# (``TestSnapshotMajorTable``). TestMassBudgetReduction checks the reaction
# terms themselves against hand-written formulas.
def meshgrid_spatial(psi, grid):
    out = np.ones(grid.shape)
    for k, x, L in zip(psi.modes, grid.coordinate_arrays(), grid.lengths):
        out = out * np.cos(k * np.pi / L * x)
    return out


def meshgrid_integral(psi, grid):
    """The integral of S as a cell sum of the meshgrid formula."""
    return integrate(grid, meshgrid_spatial(psi, grid))


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


def reference_residuals(traj, psi, magnitude=False):
    """|LHS - RHS| per equation, from the per-test-function formulas. With
    ``magnitude``, the same formulas on absolute values instead: every
    integrand product, g, g', coefficient and supply term is replaced by its
    absolute value and every difference by a sum, which gives the magnitude
    M that bounds the rounding of either evaluation."""
    from regenfv.grid import gradient_components
    from regenfv.model import bind_reactions

    grid, p = traj.grid, traj.params
    reactions = bind_reactions(p, *traj.alphas, p.eps if p.eps > 0 else None, arrays=True)
    S, gS = meshgrid_spatial(psi, grid), meshgrid_spatial_gradient(psi, grid)
    t = traj.times
    size = np.abs if magnitude else (lambda v: v)
    g, gp = size(psi.g(t)), size(psi.g_prime(t))
    sign = 1.0 if magnitude else -1.0  # of each subtracted term

    def series(integrand):
        return np.array([integrate(grid, size(integrand(s))) for s in snapshots(traj)])

    def grad_dot(f):  # per axis one product, so that each is bounded on its own
        return sum(size(c * gc) for c, gc in zip(gradient_components(grid, f), gS))

    def trapz(values):
        return float(np.trapezoid(values, t))

    def reaction(i):  # the time integral of the reaction term r_(i+1) against psi
        return trapz(series(lambda s: reactions(*s.u)[i] * S) * g)

    def residual(a, rhs):  # psi(., 0) = S, so the data term is a[0]
        return abs(sign * trapz(a * gp) + sign * a[0] + sign * rhs)

    out = {}

    a = series(lambda s: s.c1 * S)
    rhs = (
        sign * p.a1 * trapz(series(lambda s: grad_dot(s.c1)) * g)
        + p.b_tau * trapz(series(lambda s: size(s.c1) * grad_dot(s.tau)) * g)
        + reaction(0)
    )
    out["c1"] = residual(a, rhs)

    a = series(lambda s: s.c2 * S)
    rhs = (
        sign * p.a2 * trapz(series(lambda s: grad_dot(s.c2)) * g)
        + p.b_chi * psi.laplace_factor(grid) * trapz(series(lambda s: s.c2 * s.chi * S) * g)
        + sign * p.b_chi * trapz(series(lambda s: size(s.chi) * grad_dot(s.c2)) * g)
        + reaction(1)
    )
    out["c2"] = residual(a, rhs)

    a = series(lambda s: s.chi * S)
    rhs = (
        sign * p.d_chi * trapz(series(lambda s: grad_dot(s.chi)) * g)
        + reaction(2)
        + size(_supply_term(traj, psi, integrate(grid, size(S))))
    )
    out["chi"] = residual(a, rhs)

    a = series(lambda s: s.tau * S)
    rhs = reaction(3)
    if p.eps > 0:
        rhs += sign * p.eps * trapz(series(lambda s: grad_dot(s.tau)) * g)
    out["tau"] = residual(a, rhs)
    return out


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


# How far the table may sit from ``reference_residuals``, in units of
# eps * M, M the magnitude of the same residual (``magnitude=True``). Both
# evaluate one sum of products; each rounding of a product or partial sum
# errs by at most u = eps/2 times a magnitude that M bounds, so in the worst
# case each evaluation is off by d u M, d its longest chain of roundings (the
# cells of one axis or a cell sum, the saves and a dozen products and terms:
# about 15-30 eps M in all on these grids). The table contracts axis by axis
# (its integral of S is a product of row sums) and weights the time series
# with trapezoid weights, the reference sums cells pairwise and calls
# np.trapezoid, so their roundings are unrelated and seldom aligned: over
# 3 000 cases of ``rough_trajectories`` (k_max 0-4, powers 1 and 2) the
# largest difference was 2.26 eps M. 4 eps M is within the worst case and
# leaves room for that. The bound covers summation only: both sides take
# their factor values from the one cosine form, cos((k pi / L) x).
SUMMATION_BOUND = 4.0 * np.finfo(float).eps


class TestSnapshotMajorTable:
    """The table and every single residual equal the per-test-function
    formulas to the summation bound, and each other bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(rough_trajectories(), st.integers(0, 4),
           st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3, unique=True))
    def test_table_equals_per_test_function_formulas(self, traj, k_max, powers):
        rows = iter(residual_table(traj, k_max=k_max, powers=powers))
        for psi in make_test_functions(traj.grid, traj.horizon, k_max, powers):
            ref, size = reference_residuals(traj, psi), reference_residuals(traj, psi, magnitude=True)
            for name in FIELDS:
                eq, modes, power, value = next(rows)
                assert (eq, modes, power) == (name, psi.modes, psi.power)
                assert abs(value - ref[name]) <= SUMMATION_BOUND * size[name], (name, psi)
        assert next(rows, None) is None

    @settings(max_examples=40, deadline=None)
    @given(rough_trajectories(), st.data())
    def test_single_residuals_equal_per_test_function_formulas(self, traj, data):
        modes = tuple(data.draw(st.integers(0, 4)) for _ in range(traj.grid.dim))
        psi = TestFunction(modes, data.draw(st.sampled_from([1, 2, 3])), traj.horizon)
        ref, size = reference_residuals(traj, psi), reference_residuals(traj, psi, magnitude=True)
        for name in FIELDS:
            assert abs(residual(traj, psi, name) - ref[name]) <= SUMMATION_BOUND * size[name], name

    @settings(max_examples=40, deadline=None)
    @given(rough_trajectories(), st.integers(0, 4),
           st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3, unique=True))
    def test_table_rows_equal_single_residuals(self, traj, k_max, powers):
        # one core: a residual of its own is its row of the table, bit for bit,
        # although its factor matrices hold one mode per axis, not k_max + 1
        for eq, modes, power, value in residual_table(traj, k_max=k_max, powers=powers):
            assert residual(traj, TestFunction(modes, power, traj.horizon), eq) == value, (eq, modes, power)

    @settings(max_examples=60, deadline=None)
    @given(grids(), st.integers(0, 5))
    def test_separable_factors_equal_meshgrid_formulas(self, grid, k_max):
        # the factor matrices as the table builds them, one row per mode of an
        # axis: S is the outer product of one C row per axis, and the a-component
        # of grad S that of D on axis a and C on the others, bit for bit
        ks = np.arange(k_max + 1)
        C, D = zip(*(_cosine_factors(ks[:, None], L, grid.axis_centers(axis))
                     for axis, L in enumerate(grid.lengths)))
        outer = lambda rows: functools.reduce(np.multiply.outer, rows)
        for psi in make_test_functions(grid, 1.0, k_max, (1,)):
            S = outer([c[k] for c, k in zip(C, psi.modes)])
            assert S.shape == grid.shape and np.array_equal(S, meshgrid_spatial(psi, grid))
            for axis, want in enumerate(meshgrid_spatial_gradient(psi, grid)):
                got = outer([(D if a == axis else C)[a][k] for a, k in enumerate(psi.modes)])
                assert got.shape == grid.shape and np.array_equal(got, want), (psi.modes, axis)
