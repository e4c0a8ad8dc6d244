import math
from dataclasses import replace
from pathlib import Path

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
    StepControl,
    SupplySchedule,
    SweepConfig,
    integrate,
    laplacian_neumann,
    parse_config,
    rk4_solve,
    run,
    run_sweep,
    trajectory,
)
from regenfv import stepping
from regenfv.model import bind_reactions
from regenfv.stepping import FIELDS, _diffusion_factors

from references import stability_bound, stable_dt, taxis_divergence

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
    """The stability bound written field by field with the public operators;
    the diffusion limit applies on 2D grids only (1D diffusion is exact)."""
    grid = state.grid
    bound = math.inf
    if grid.dim == 2:
        diff_max = max(p.a1, p.a2, p.d_chi, p.eps)
        bound = min(bound, min(grid.spacing) ** 2 / (2.0 * grid.dim * diff_max))
    for s_field, coeff in ((state.tau, p.b_tau), (state.chi, p.b_chi)):
        for axis, h in enumerate(grid.spacing):
            speed = coeff * np.max(np.abs(np.diff(s_field, axis=axis) * (1.0 / h)))
            if speed > 0:
                bound = min(bound, h / speed)
    c1, c2, tau = state.c1, state.c2, state.tau
    rate = float(np.max(p.beta * (1.0 + 2.0 * c1 + c2 + tau)))
    if p.eps > 0:
        rate = max(rate, float(p.eps * p.theta * np.max(c1) ** (p.theta - 1.0)))
        rate = max(rate, float(p.eps * p.theta * np.max(c2) ** (p.theta - 1.0)))
    rate = max(rate, float(p.a_chi * np.max(c1 + c2)))
    rate = max(rate, float(p.delta * np.max(c1) + p.mu))
    return min(bound, 1.0 / rate) if rate > 0 else bound


def exact_1d_laplacian(grid, f, factor):
    """On a 1D grid, the zero-flux divergence of ``factor`` times the interior
    face differences of f (row by row for stacked rows and factors). With the
    step's face factor phi1(dt a L_f) this is (exp(dt a L) - 1) f / (dt a)."""
    inv_h = 1.0 / grid.spacing[0]
    faces = np.zeros(f.shape[:-1] + (f.shape[-1] + 1,))
    faces[..., 1:-1] = np.matmul(factor, (np.diff(f) * inv_h)[..., None])[..., 0]
    return np.diff(faces) * inv_h


def diffusion_operator(grid, p, dt):
    """The step's diffusion operator of row(s) i (c1, c2, chi, tau) applied to f:
    the public laplacian_neumann on 2D grids; on 1D grids exact_1d_laplacian with
    the step's face factor of that row."""
    if grid.dim == 2:
        return lambda i, f: laplacian_neumann(grid, f)
    coeffs = (p.a1, p.a2, p.d_chi, p.eps)[:4 if p.eps > 0 else 3]
    factors = _diffusion_factors(grid.cells[0], grid.spacing[0], dt, coeffs)
    return lambda i, f: exact_1d_laplacian(grid, f, factors[i])


def reference_update(state, p, alphas, supply, dt):
    """The update with the supply density ``supply`` written field by field
    (one operator call per field), before clamping: [c1, c2, chi, tau]."""
    grid = state.grid
    lap = diffusion_operator(grid, p, dt)
    c1, c2, chi, tau = state.c1, state.c2, state.chi, state.tau
    r1, r2, r3, _ = bind_reactions(p, *alphas, p.eps or None, arrays=True)(c1, c2, chi, tau)
    new_c1 = c1 + dt * (
        p.a1 * lap(0, c1) - taxis_divergence(grid, c1, tau, p.b_tau) + r1
    )
    new_c2 = c2 + dt * (
        p.a2 * lap(1, c2) - taxis_divergence(grid, c2, chi, p.b_chi) + r2
    )
    new_chi = chi + dt * (p.d_chi * lap(2, chi) + r3 + supply)
    new_tau = tau * np.exp(-(p.mu + p.delta * c1) * dt) + dt * (c2 / (1.0 + c2))
    if p.eps > 0:
        new_tau = new_tau + dt * p.eps * lap(3, tau)
    return [new_c1, new_c2, new_chi, new_tau]


def unchecked_step(state, p, alphas, dt, supply=0.0):
    """One step of the driver's step core from ``state`` by dt with the supply
    density ``supply``: no stability check (dt may exceed the bound) and no
    doses."""
    u, batch = state.u[None], stepping._batch((p,), state.grid)
    faces, _ = stepping._faces_and_bounds(u, batch)
    reactions = bind_reactions(p, *alphas, batch.eps_column, arrays=True, matrix=False)
    new, (debt,) = stepping._advance(state.t, u, [state.positivity_debt], batch, reactions, supply, dt, faces)
    return SimState(state.t + dt, new[0], state.grid, debt)


def reference_clamp(fields, cell_volume):
    """Zero the negative cells field by field; return the clamped fields and
    the per-field clamped masses in (c1, c2, chi, tau) order."""
    clamped, debts = [], []
    for arr in fields:
        neg = arr < 0
        debts.append(-float(np.sum(arr[neg])) * cell_volume if neg.any() else 0.0)
        clamped.append(np.where(neg, 0.0, arr))
    return clamped, debts


def stacked_reference_step(state, p, alphas, supply, dt):
    """The step as it was before the fused step, kept here as the reference:
    one operator call per operator on the stacked rows (on 1D grids the
    diffusion operator applies the step's face factors) with the supply
    density ``supply``, then the clamp. Returns (u, positivity_debt)."""
    grid, u = state.grid, state.u
    c1, c2, chi, tau = u
    column = lambda *v: np.reshape(v, (-1,) + (1,) * grid.dim)
    rows = slice(0, 4 if p.eps > 0 else 3)
    lap = diffusion_operator(grid, p, dt)(rows, u[rows])
    rhs = lap[:3]
    rhs *= column(p.a1, p.a2, p.d_chi)
    rhs[:2] -= taxis_divergence(grid, u[:2], u[3:1:-1], column(p.b_tau, p.b_chi))
    for row, r in zip(rhs, bind_reactions(p, *alphas, p.eps or None, arrays=True)(c1, c2, chi, tau)):
        row += r
    rhs[2] += supply
    new = np.empty_like(u)
    np.multiply(dt, rhs, out=new[:3])
    new[:3] += u[:3]
    np.multiply(tau, np.exp(-(p.mu + p.delta * c1) * dt), out=new[3])
    new[3] += dt * (c2 / (1.0 + c2))
    if p.eps > 0:
        new[3] += (dt * p.eps) * lap[3]
    debt = state.positivity_debt
    if new.min() < 0:
        debt = debt + sum(-float(np.sum(row[row < 0])) * grid.cell_volume for row in new)
        new[new < 0] = 0.0
    return new, debt


@hst.composite
def rough_step_cases(draw):
    """A rough nonnegative 1D or 2D state (2D grids may be non-square), random
    coefficients with eps = 0 or eps > 0, a supply density as the event
    timeline gives one (0, 1 or 2 active pulses of chi0/|Omega|), and a dt at
    or below the stability bound."""
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
    supply = draw(hst.sampled_from([0, 1, 2])) * draw(hst.floats(0.0, 3.0)) / grid.measure
    return state, p, alphas, supply, dt, bound


class TestStableDt:
    def test_pure_diffusion_limit(self):
        # 2D keeps explicit diffusion. Only a1 large: h^2/(2*d*a1) with
        # h=0.1, d=2 -> 0.0025
        g = Grid((10, 10), (1.0, 1.0))
        p = params(a1=1.0, a2=1e-12, d_chi=1e-12, beta=1e-12, a_chi=1e-12,
                   delta=1e-12, mu=1e-12, b_tau=1e-12, b_chi=1e-12)
        st = uniform_state(g)
        ctrl = StepControl(t_end=1.0, dt_max=math.inf, cfl_safety=1.0)
        assert stable_dt(st, p, ctrl) == pytest.approx(0.0025, rel=1e-9)

    def test_reaction_limit_binds_in_1d(self):
        # 1D diffusion is exact in time, so no diffusion limit: with a1 large
        # the reaction limit 1/(delta*max c1 + mu) = 1/0.5 binds
        g = Grid((10,), (1.0,))
        p = params(a1=1.0, a2=1e-12, d_chi=1e-12, beta=1e-12, a_chi=1e-12,
                   delta=1e-12, mu=0.5, b_tau=1e-12, b_chi=1e-12)
        st = uniform_state(g)
        ctrl = StepControl(t_end=1.0, dt_max=math.inf, cfl_safety=1.0)
        assert stable_dt(st, p, ctrl) == pytest.approx(2.0, rel=1e-9)

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
        assert 1e-3 <= stability_bound(st, params())
        out = unchecked_step(st, params(), NO_SWITCH, dt=1e-3)
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
        assert dt <= stability_bound(st, p)
        out = unchecked_step(st, p, NO_SWITCH, dt=dt)
        assert np.allclose(out.tau, 0.7 * math.exp(-2.0 * dt), rtol=1e-15)
        for _ in range(9):
            out = unchecked_step(out, p, NO_SWITCH, dt=dt)
        assert np.allclose(out.tau, 0.7 * math.exp(-2.0 * 10 * dt), rtol=1e-13)

    def test_uniform_state_stays_uniform(self):
        rng = np.random.default_rng(5)
        g = Grid((16, 16), (1.0, 1.0))
        p = params(a_chi=0.8, beta=0.9, delta=0.7, mu=0.6, eps=0.3)
        st = uniform_state(g, *rng.uniform(0.1, 1.0, size=4))
        out = run(st, p, ALPHAS, SupplySchedule(), StepControl(t_end=5e-4, dt_max=5e-4))
        assert out.t == 5e-4
        for name, arr in out.fields().items():
            assert np.ptp(arr) == 0.0, name

    def test_divergence_names_field_and_cell(self):
        g = Grid((10,), (1.0,))
        st = uniform_state(g, c1=1e150, chi=1.0, tau=1.0)
        with pytest.raises(DivergenceError, match=r"c1 at cell \(\d+"):
            with np.errstate(over="ignore", invalid="ignore"):
                # bypass the stability check to force an overflow
                unchecked_step(st, params(beta=1e200), NO_SWITCH, dt=1.0)

    def test_positivity_clamp_accumulates_debt(self):
        g = Grid((10,), (1.0,))
        p = params(eps=0.5, theta=4.0)
        st = uniform_state(g, c1=3.0, chi=0.5, tau=0.5)
        out = unchecked_step(st, p, NO_SWITCH, dt=0.9 / (0.5 * 4.0 * 27.0))
        assert np.min(out.c1) >= 0.0
        assert out.positivity_debt >= 0.0


class TestStackedStep:
    @settings(max_examples=120, deadline=None)
    @given(rough_step_cases())
    def test_step_equals_per_field_reference_bitwise(self, case):
        st, p, alphas, supply, dt, bound = case
        ctrl = StepControl(t_end=1.0, cfl_safety=1.0)
        assert stable_dt(st, p, ctrl) == bound
        out = unchecked_step(st, p, alphas, dt, supply)
        fields, debts = reference_clamp(reference_update(st, p, alphas, supply, dt),
                                        st.grid.cell_volume)
        assert out.t == st.t + dt
        for name, ref in zip(("c1", "c2", "chi", "tau"), fields):
            assert same_bits(getattr(out, name), ref), name
        assert out.positivity_debt == st.positivity_debt + (debts[0] + debts[1] + debts[2] + debts[3])

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
        raw = reference_update(st, p, NO_SWITCH, 0.0, dt)
        negative = [arr < 0 for arr in raw]
        assert [neg.any() for neg in negative] == [True, True, True, False]
        assert not all(neg.all() for neg in negative[:3])
        out = unchecked_step(st, p, NO_SWITCH, dt)
        debts = []
        for name, arr, neg in zip(("c1", "c2", "chi", "tau"), raw, negative):
            got = getattr(out, name)
            assert np.all(got[neg] == 0.0), name
            assert same_bits(got[~neg], arr[~neg]), name
            debts.append(-float(np.sum(arr[neg])) * g.cell_volume if neg.any() else 0.0)
        assert out.positivity_debt == 0.25 + (debts[0] + debts[1] + debts[2] + debts[3])


class TestStepControl:
    @pytest.mark.parametrize("t_end, message", [
        (math.nan, "must be finite, got nan"),
        (math.inf, "must be finite, got inf"),
        (-1.0, r"must be nonnegative, got -1\.0"),
        (1e-12, r"must be 0 or exceed the landing tolerance 1e-12, got 1e-12"),
        (5e-324, r"must be 0 or exceed the landing tolerance 1e-12, got 5e-324"),
    ], ids=["nan", "inf", "-1.0", "1e-12", "5e-324"])
    def test_rejects_bad_horizon(self, t_end, message):
        # a nan horizon would save at t = nan; an infinite one makes the save
        # timeline endless; one within the landing tolerance of 0 holds no event
        with pytest.raises(ValueError, match=rf"^t_end {message}$"):
            StepControl(t_end=t_end, save_every=0.1)


class TestFusedStep:
    @settings(max_examples=150, deadline=None)
    @given(rough_step_cases())
    def test_fused_step_equals_stacked_reference_bitwise(self, case):
        # the same bits when one state is stepped twice (the 1D face factor
        # writes into the faces of its own step only)
        st, p, alphas, supply, dt, bound = case
        assert same_bits(stability_bound(st, p), bound)
        ref_u, ref_debt = stacked_reference_step(st, p, alphas, supply, dt)
        for _ in range(2):
            out = unchecked_step(st, p, alphas, dt, supply)
            assert out.t == st.t + dt
            assert same_bits(out.u, ref_u)
            assert same_bits(out.positivity_debt, ref_debt)
            assert not np.shares_memory(out.u, st.u)

    def test_advection_limit_per_axis_and_row(self):
        # 2D, non-square cells: the limit is min over axes and signal rows of
        # h / (b * max|face gradient|)
        g = Grid((6, 4), (1.2, 0.5))
        x, y = g.coordinate_arrays()
        tau, chi = 0.5 + 0.3 * x, 1.0 + 2.0 * y * y
        st = SimState(0.0, np.array((g.field(0.0), g.field(0.0), g.field(chi), g.field(tau))), g)
        p = params(a1=1e-12, a2=1e-12, d_chi=1e-12, beta=1e-12, a_chi=1e-12,
                   delta=1e-12, mu=1e-12, b_tau=0.7, b_chi=0.4)
        speeds = [(h, coeff * np.max(np.abs(np.diff(s_field, axis=axis))) / h)
                  for s_field, coeff in ((tau, p.b_tau), (chi, p.b_chi))
                  for axis, h in enumerate(g.spacing)]
        assert sum(speed == 0 for _, speed in speeds) == 2  # tau is flat in y, chi in x
        limit = min(h / speed for h, speed in speeds if speed > 0)
        assert stability_bound(st, p) == pytest.approx(limit, rel=1e-12)


@hst.composite
def diffusion_cases(draw):
    """A 1D state with O(1) rows, some of them uniform, on 3-257 cells of a
    domain of length other than 1; random diffusivities with eps = 0 or > 0;
    transport and reactions made negligible (tiny taxis coefficients and sink
    rates, no proliferation, switching or uptake); dt log-uniform in
    [1e-13, 10], capped at the stability bound (the eps-damping of the cell
    equations sets it when eps > 0)."""
    n = draw(hst.integers(3, 257))
    grid = Grid((n,), (draw(hst.sampled_from([0.2, 0.75, 1.5, 4.0])),))
    rows = []
    for lo in (0.0, 0.0, 0.01, 0.01):
        if draw(hst.booleans()):
            rows.append(np.full(n, draw(hst.floats(lo, 2.0))))
        else:
            rows.append(np.random.default_rng(draw(hst.integers(0, 2**32 - 1))).uniform(lo, 2.0, n))
    state = SimState(0.0, np.array(rows), grid)
    positive = hst.floats(0.01, 2.0)
    p = ModelParams(a1=draw(positive), a2=draw(positive), b_tau=1e-30, b_chi=1e-30,
                    d_chi=draw(positive), a_chi=0.0, beta=0.0, delta=1e-30, mu=1e-30,
                    eps=draw(hst.sampled_from([0.0, 0.01, 0.3, 0.9])))
    dt = min(10.0 ** draw(hst.floats(-13.0, 1.0)), reference_bound(state, p))
    return state, p, dt


def dense_exp_laplacian(grid, a, dt, f):
    """exp(dt a L) f for the 1D Neumann Laplacian L, assembled column by column
    from laplacian_neumann and exponentiated through np.linalg.eigh. eigh finds
    the zero eigenvalue of L only to about 2^-52 |L|, which exp would turn into
    an error dt a 2^-52 |L| on the mean; L has zero column sums, so the mean is
    carried exactly and only f - mean goes through the eigenbasis."""
    n = grid.cells[0]
    lap = np.stack([laplacian_neumann(grid, e) for e in np.eye(n)], axis=1)
    w, q = np.linalg.eigh(lap)
    mean = np.mean(f)
    return mean + (q * np.exp(dt * a * w)) @ (q.T @ (f - mean))


def face_factor_stiffness(grid, a, dt):
    """z_max phi1(z_1), with z_k = dt a |lambda_k| for the smallest and largest
    face eigenvalues: the ratio by which the flux form amplifies rounding. The
    face product P (Grad u) is exact only to 2^-52 |P| |Grad u|, where |P| ~
    phi1(z_1), and the divergence scales that error by dt a |lambda_max|."""
    n, h = grid.cells[0], grid.spacing[0]
    z_1, z_max = (dt * a * (2.0 * math.sin(math.pi * k / (2 * n)) / h) ** 2 for k in (1, n - 1))
    return z_max * -math.expm1(-z_1) / z_1


class TestExactDiffusion1D:
    @settings(max_examples=60, deadline=None)
    @given(diffusion_cases())
    def test_step_equals_dense_matrix_exponential(self, case):
        st, p, dt = case
        grid, u = st.grid, st.u
        out = unchecked_step(st, p, NO_SWITCH, dt)
        r1, r2, _, _ = bind_reactions(p, *NO_SWITCH, p.eps or None, arrays=True)(*u)  # the eps-damping when eps > 0
        c1, c2, chi, tau = (dense_exp_laplacian(grid, a, dt, row) if a > 0 else row
                            for a, row in zip((p.a1, p.a2, p.d_chi, p.eps), u))
        tau = tau + dt * (u[1] / (1.0 + u[1]))  # production; the sink factor is exp(-1e-29 dt) = 1
        expected = np.maximum(np.array((c1 + dt * r1, c2 + dt * r2, chi, tau)), 0.0)  # clamp
        # Against an exact long-double DCT solution, the step erred by under
        # 1e-15 on O(1) rows of up to 64 cells with dt a |lambda_max| <= 4
        # (four times the explicit limit); stiffer, the flux form loses up to
        # 0.7 * 2^-52 |u| (1 + stiffness), 1.1e-12 at 257 cells. The dense
        # reference itself errs by up to 5e-14 at 257 cells.
        stiffness = max(face_factor_stiffness(grid, a, dt) for a in (p.a1, p.a2, p.d_chi, p.eps) if a > 0)
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(out.u - expected)) <= 2.0**-52 * scale * (256 + 8 * stiffness)

        explicit = stacked_reference_step(st, p, NO_SWITCH, 0.0, dt)[0]
        for name, row, new, ref in zip(FIELDS, u, out.u, explicit):
            if np.ptp(row) == 0.0:  # zero face differences: no diffusion, bit for bit
                assert same_bits(new, ref), name
        pure = [2] + ([0, 1] if p.eps == 0 else [])  # rows whose only term is diffusion
        for i in pure:  # the divergence telescopes: mass moves at rounding only
            drift = abs(np.sum(out.u[i]) - np.sum(u[i]))
            assert drift <= 2.0**-52 * grid.cells[0] * 16 * np.max(u[i]), FIELDS[i]

    def test_factor_is_cached_per_dt_and_read_only(self):
        factors = _diffusion_factors(16, 0.25, 1e-3, (0.1, 0.2, 0.3))
        assert factors.shape == (3, 15, 15) and not factors.flags.writeable
        assert _diffusion_factors(16, 0.25, 1e-3, (0.1, 0.2, 0.3)) is factors


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
        with pytest.raises(ValueError, match=r"^initial chi must be strictly positive, got 0\.0$"):
            run(st, params(), NO_SWITCH, SupplySchedule(), StepControl(t_end=0.1))

    def test_rejects_negative_c1_cell(self):
        g = Grid((10,), (1.0,))
        st = uniform_state(g, c1=0.5, chi=1.0, tau=0.5)
        st.c1[3] = -1e-9
        with pytest.raises(ValueError, match=r"^initial c1 must be nonnegative, got -1e-09$"):
            run(st, params(), NO_SWITCH, SupplySchedule(), StepControl(t_end=0.1))

    def test_rejects_nan_field_naming_it(self):
        g = Grid((6, 5), (1.0, 1.0))
        st = uniform_state(g, c1=0.5, chi=1.0, tau=0.5)
        st.tau[2, 4] = np.nan
        with pytest.raises(ValueError, match=r"non-finite initial tau at cell \(2, 4\)"):
            run(st, params(), NO_SWITCH, SupplySchedule(), StepControl(t_end=0.1))

    def test_rejects_a_state_past_t0_naming_its_time(self):
        # the dose schedule counts from t = 0: continuing from a final state
        # would replay it, so run refuses instead of resetting the time
        g = Grid((10,), (1.0,))
        st = uniform_state(g, c1=0.5, chi=1.0, tau=0.5, t=0.25)
        schedule = SupplySchedule(dose_times=(0.1,), chi0=0.5, mode="jump")
        with pytest.raises(ValueError, match=r"not at t=0\.25"):
            run(st, params(), NO_SWITCH, schedule, StepControl(t_end=0.5))

    def test_rejects_shape_mismatch(self):
        g = Grid((10,), (1.0,))
        st = uniform_state(g, c1=0.5, chi=1.0, tau=0.5)
        bad = {r"float64 of shape \(3, 10\)": st.u[:3],
               r"float64 of shape \(4, 9\)": st.u[:, :9],
               r"int64 of shape \(4, 10\)": np.ones((4, 10), dtype=np.int64)}
        for message, u in bad.items():
            with pytest.raises(ValueError, match=r"shape \(4, 10\), not " + message):
                run(replace(st, u=u), params(), NO_SWITCH, SupplySchedule(), StepControl(t_end=0.1))

    def test_records_at_uniform_save_times(self):
        g = Grid((10,), (1.0,))
        st = uniform_state(g, chi=1.0, tau=0.5)
        times = []
        run(st, params(), NO_SWITCH, SupplySchedule(),
            StepControl(t_end=0.2, dt_max=1e-2, save_every=0.05),
            record_sink=lambda s: times.append(s.t))
        assert times == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2], abs=1e-12)

    def test_saved_states_are_never_written_afterwards(self):
        # jump doses on and between save times, in 1D with eps = 0 and on a
        # non-square 2D grid with eps > 0; each saved state must still hold,
        # after the run, the values it held when it was handed out, and no
        # two saved states may share memory
        schedule = SupplySchedule(dose_times=(0.05, 0.07, 0.1, 0.1 + 1e-3), chi0=0.7, mode="jump")
        for g, p in ((Grid((12,), (1.0,)), params()),
                     (Grid((7, 5), (1.3, 0.7)), params(eps=0.3))):
            x = g.coordinate_arrays()[0]
            st = uniform_state(g, c1=0.5, c2=0.1, chi=1.0, tau=0.5)
            st = replace(st, u=st.u * (1.0 + 0.3 * np.cos(np.pi * x)))
            states, copies = [], []

            def sink(index, state):
                states.append(state)
                copies.append(state.u.copy())

            ctrl = StepControl(t_end=0.2, dt_max=1e-2, save_every=0.05)
            run(st, p, ALPHAS, schedule, ctrl, snapshot_sink=sink)
            assert len(states) == 5
            for state, copy in zip(states, copies, strict=True):
                assert same_bits(state.u, copy)
            saved = [state.u for state in states]
            # the sweep (eps > 0; dt_max, or in 2D the diffusion limit of the
            # a's, binds every member alike): each member's trajectory holds
            # what that member's run handed out, and no two share memory
            eps_list = (0.4, 0.2)
            sweep = run_sweep(SweepConfig(eps_list, p, ALPHAS, schedule, st, ctrl))
            for eps, traj in zip(eps_list, sweep.trajectories):
                copies.clear()
                run(st, replace(p, eps=eps), ALPHAS, schedule, ctrl, snapshot_sink=sink)
                assert same_bits(traj.u, np.array(copies))
                saved.append(traj.u)
            for i, a in enumerate(saved):
                for b in saved[i + 1:]:
                    assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_trajectory_is_what_run_hands_its_sinks(self, dim):
        # jump doses on a save and between saves; 1D with eps = 0, a
        # non-square 2D grid with eps > 0
        g, p = (Grid((12,), (1.0,)), params()) if dim == 1 else (Grid((7, 5), (1.3, 0.7)), params(eps=0.3))
        schedule = SupplySchedule(dose_times=(0.05, 0.07), chi0=0.7, mode="jump")
        x = g.coordinate_arrays()[0]
        st = uniform_state(g, c1=0.5, c2=0.1, chi=1.0, tau=0.5)
        st = replace(st, u=st.u * (1.0 + 0.3 * np.cos(np.pi * x)))
        ctrl = StepControl(t_end=0.2, dt_max=1e-2, save_every=0.05)
        states = []
        run(st, p, ALPHAS, schedule, ctrl, snapshot_sink=lambda index, state: states.append(state))
        traj = trajectory(st, p, ALPHAS, schedule, ctrl)
        assert same_bits(traj.times, [state.t for state in states])
        assert same_bits(traj.u, [state.u for state in states])
        assert (traj.grid, traj.params, traj.alphas, traj.schedule) == (g, p, ALPHAS, schedule)

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

    def test_overlapping_pulses_add_their_doses(self):
        # criterion 9's budget with pulse windows [0.2, 0.25) and [0.22, 0.27)
        # overlapping: each pulse delivers chi0 * width, so the medium gains
        # 2 * 0.05 (one density for both windows would give 0.07), in the PDE
        # run and in the oracle alike
        p = params(a_chi=0.0, d_chi=0.2)
        g = Grid((32,), (1.0,))
        sched = SupplySchedule(dose_times=(0.2, 0.22), chi0=1.0, mode="pulse", width=0.05)
        st = uniform_state(g, c1=0.3, c2=0.1, chi=0.7, tau=0.4)
        final = run(st, p, ALPHAS, sched, StepControl(t_end=1.0, dt_max=2e-3, save_every=0.25))
        gain = integrate(g, final.chi) - integrate(g, st.chi)
        assert abs(gain - 2 * 0.05) <= 1e-12
        oracle = rk4_solve(HomogeneousState(0.0, 0.3, 0.1, 0.7, 0.4), p, ALPHAS, sched,
                           dt=1e-3, t_end=1.0).final
        assert abs(oracle.chi - 0.7 - 2 * 0.05) <= 1e-12

    def test_threeweek_protocol_takes_800_steps_over_4_days(self, monkeypatch):
        # 32 cells, dt_max = 0.005: with exact 1D diffusion dt_max binds, so
        # 4 days take 800 steps (3 280 under the explicit diffusion limit)
        cfg = parse_config((Path(__file__).resolve().parents[1] / "configs/threeweek_dosing.cfg").read_text())
        calls = []
        advance = stepping._advance

        def counted(*args, **kwargs):
            calls.append(args[6])  # dt
            return advance(*args, **kwargs)

        monkeypatch.setattr(stepping, "_advance", counted)
        final = run(cfg.build_initial(), cfg.params, cfg.alphas, cfg.schedule,
                    replace(cfg.ctrl, t_end=4.0))
        assert final.t == 4.0 and len(calls) == 800 and max(calls) == 0.005
        assert final.positivity_debt == 0.0

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
        bound_rate = ALPHAS[0].amplitude * g.measure
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
