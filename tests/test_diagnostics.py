import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from hypothesis.extra.numpy import arrays

from regenfv import (
    Grid,
    ModelParams,
    RateFunction,
    SimState,
    StepControl,
    SupplySchedule,
    compute_record,
    dissipation_D,
    entropy_E,
    integrate,
    laplacian_neumann,
    run,
)
from regenfv import diagnostics
from regenfv.stepping import FIELDS
from regenfv.diagnostics import (
    DiagnosticsRecord,
    c1_mass_bound,
    fisher_integrand,
    gradient_sq,
    tau_linf_bound,
)

NO_SWITCH = (RateFunction("constant", 0.0), RateFunction("constant", 0.0))


def params(**overrides):
    base = dict(a1=1.0, a2=1.0, b_tau=1.0, b_chi=1.0, d_chi=1.0, a_chi=1.0,
                beta=1.0, delta=1.0, mu=1.0)
    base.update(overrides)
    return ModelParams(**base)


def uniform_state(grid, c1=0.0, c2=0.0, chi=0.0, tau=0.0):
    return SimState(0.0, np.array((grid.field(c1), grid.field(c2), grid.field(chi),
                                   grid.field(tau))), grid)


class TestEntropy:
    def test_uniform_unit_state(self):
        # ln 1 = 0 and all gradients vanish: (1/4 + 1)/e on the unit interval
        g = Grid((16,), (1.0,))
        st = uniform_state(g, 1.0, 1.0, 1.0, 1.0)
        value = entropy_E(st, params())
        assert value == pytest.approx(1.25 / math.e, abs=1e-15)

    def test_entropy_minimizer(self):
        # s ln s + 1/e vanishes at s = 1/e
        g = Grid((16,), (1.0,))
        st = uniform_state(g, 1 / math.e, 1 / math.e, 1.0, 1.0)
        assert entropy_E(st, params()) == pytest.approx(0.0, abs=1e-15)

    def test_medium_gradient_term(self):
        g = Grid((256,), (1.0,))
        x = g.axis_centers(0)
        st = SimState(0.0, np.array((g.field(1.0), g.field(1.0), g.field(np.cos(np.pi * x) + 2.0),
                                     g.field(1.0))), g)
        base = entropy_E(uniform_state(g, 1.0, 1.0, 2.0, 1.0), params())
        value = entropy_E(st, params())
        assert value - base == pytest.approx(np.pi**2 / 2, abs=1e-3)

    def test_nonnegative_and_dominates_gradient_terms(self):
        rng = np.random.default_rng(21)
        g = Grid((32,), (1.0,))
        p = params()
        for _ in range(50):
            st = SimState(0.0, np.array((g.field(rng.uniform(0, 2, 32)),
                                         g.field(rng.uniform(0, 2, 32)),
                                         g.field(rng.uniform(0.1, 2, 32)),
                                         g.field(rng.uniform(0.1, 2, 32)))), g)
            grad_part = (
                p.b_chi**2 / p.d_chi * integrate(g, gradient_sq(g, st.chi))
                + p.a2 / 8.0 * integrate(g, fisher_integrand(g, st.tau))
            )
            value = entropy_E(st, p)
            assert value >= grad_part - 1e-12 >= -1e-12


class TestDissipation:
    def test_uniform_state_only_logistic_term(self):
        # c1 = c2 = 1 uniform, eps = 0: only (beta a2 delta / 8 b_tau) c1^2 ln(2+c1)
        g = Grid((16,), (1.0,))
        st = uniform_state(g, 1.0, 1.0, 1.0, 1.0)
        value = dissipation_D(st, params())
        assert value == pytest.approx(math.log(3.0) / 8.0, abs=1e-15)

    def test_zero_cells_uniform_media(self):
        g = Grid((16,), (1.0,))
        st = uniform_state(g, 0.0, 0.0, 1.0, 1.0)
        value = dissipation_D(st, params())
        assert value == 0.0

    def test_damping_terms_enter_with_eps(self):
        # adds (a2 delta eps / 8 b_tau) c1^theta ln 3 and (eps/2) c2^theta ln 3
        g = Grid((16,), (1.0,))
        st = uniform_state(g, 1.0, 1.0, 1.0, 1.0)
        p = params(eps=0.5)
        value = dissipation_D(st, p)
        expected = math.log(3.0) / 8.0 + 0.5 * math.log(3.0) / 8.0 + 0.25 * math.log(3.0)
        assert value == pytest.approx(expected, abs=1e-15)

    def test_termwise_nonnegative(self):
        rng = np.random.default_rng(8)
        g = Grid((32,), (1.0,))
        for _ in range(50):
            st = SimState(0.0, np.array((g.field(rng.uniform(0, 2, 32)),
                                         g.field(rng.uniform(0, 2, 32)),
                                         g.field(rng.uniform(0.1, 2, 32)),
                                         g.field(rng.uniform(0.1, 2, 32)))), g)
            p = params(eps=rng.uniform(0, 0.9))
            value = dissipation_D(st, p)
            assert value >= 0.0

    def test_fisher_matches_analytic_on_smooth_field(self):
        # |grad f|^2 / f for f = 2 + cos(pi x): int = pi^2 int sin^2/(2+cos)
        g = Grid((512,), (1.0,))
        x = g.axis_centers(0)
        f = 2.0 + np.cos(np.pi * x)
        got = integrate(g, fisher_integrand(g, f))
        xs = np.linspace(0, 1, 20001)
        integrand = np.pi**2 * np.sin(np.pi * xs) ** 2 / (2.0 + np.cos(np.pi * xs))
        exact = np.trapezoid(integrand, xs)
        assert got == pytest.approx(exact, rel=1e-3)


class TestCertificates:
    ALPHAS = (NO_SWITCH[0], RateFunction("constant", 1.0))

    def record(self, state):
        # M1 = max(int c1(0), 1.5) = 1.5 and tau* = 1/mu + max tau(0) = 1.5
        initial = uniform_state(state.grid, 0.2, 0.0, 1.0, 0.5)
        return compute_record(state, params(), self.ALPHAS, initial)

    def test_mass_bound_arithmetic(self):
        # int c1(0) = 0.2, beta = 1, M_a2 = 1, |Omega| = 1 -> max(0.2, 1.5)
        g = Grid((10,), (1.0,))
        initial = uniform_state(g, 0.2, 0.0, 1.0, 0.5)
        m1 = c1_mass_bound(params(beta=1.0), RateFunction("constant", 1.0), initial)
        assert m1 == pytest.approx(1.5, abs=1e-15)

    def test_tau_bound_arithmetic(self):
        # mu = 2, max tau0 = 0.5 -> 1/2 + 0.5 = 1.0
        g = Grid((10,), (1.0,))
        initial = uniform_state(g, 0.0, 0.0, 1.0, 0.5)
        assert tau_linf_bound(params(mu=2.0), initial) == pytest.approx(1.0, abs=1e-15)

    def test_nonneg_tolerance(self):
        st = uniform_state(Grid((10,), (1.0,)), 0.2, 0.0, 1.0, 0.5)
        st.chi[3] = -1e-15
        assert self.record(st).cert_nonneg is True

    def test_undershoot_beyond_tolerance_fails_nonneg(self):
        st = uniform_state(Grid((10,), (1.0,)), 0.2, 0.0, 1.0, 0.5)
        st.chi[3] = -1e-11
        assert self.record(st).cert_nonneg is False

    @pytest.mark.parametrize("row", [0, 1, 3])  # c1, c2, tau: the fields with a Fisher term
    def test_undershoot_in_fisher_field_reaches_cert_nonneg(self, row):
        g = Grid((10,), (1.0,))
        zeroed = uniform_state(g, 0.2, 0.1, 1.0, 0.5)
        zeroed.u[row, 3] = 0.0
        ref = self.record(zeroed)
        name = FIELDS[row]
        for value, certified in ((-1e-15, True), (-1e-11, False)):
            st = replace(zeroed, u=zeroed.u.copy())
            st.u[row, 3] = value
            rec = self.record(st)
            assert rec.cert_nonneg is certified
            # extrema and masses read the raw field, E and D the field with the cell at 0
            assert getattr(rec, f"min_{name}") == value
            assert getattr(rec, f"mass_{name}") == integrate(g, st.u[row])
            assert (rec.entropy_E, rec.dissipation_D, rec.fisher_tau, rec.grad_chi_sq) == (
                ref.entropy_E, ref.dissipation_D, ref.fisher_tau, ref.grad_chi_sq)

    def test_mass_just_above_bound_fails(self):
        g = Grid((10,), (1.0,))
        assert self.record(uniform_state(g, 1.5, 0.0, 1.0, 0.5)).cert_c1_mass is True
        assert self.record(uniform_state(g, 1.5 * (1 + 1e-7), 0.0, 1.0, 0.5)).cert_c1_mass is False

    def test_tau_just_above_bound_fails(self):
        g = Grid((10,), (1.0,))
        assert self.record(uniform_state(g, 0.2, 0.0, 1.0, 1.5)).cert_tau_linf is True
        assert self.record(uniform_state(g, 0.2, 0.0, 1.0, 1.5 * (1 + 1e-7))).cert_tau_linf is False

    def test_beta_zero_degenerates_gracefully(self):
        g = Grid((10,), (1.0,))
        initial = uniform_state(g, 0.2, 0.0, 1.0, 0.5)
        m1 = c1_mass_bound(params(beta=0.0), RateFunction("constant", 1.0), initial)
        assert math.isinf(m1)


class TestMonitor:
    def run_records(self, state, p, t_end=0.5, save=0.05, alphas=NO_SWITCH):
        records = []
        run(state, p, alphas, SupplySchedule(),
            StepControl(t_end=t_end, dt_max=1e-3, save_every=save),
            record_sink=lambda s: records.append(
                compute_record(s, p, alphas, state)
            ))
        return records

    def test_matrix_relaxation_decreases_entropy(self):
        # only the Fisher term is active; tau relaxes and E falls monotonically
        g = Grid((64,), (1.0,))
        x = g.axis_centers(0)
        st = SimState(0.0, np.array((g.field(0.0), g.field(0.0), g.field(1.0),
                                     g.field(0.5 + 0.2 * np.cos(np.pi * x)))), g)
        p = params(mu=1.0)
        records = self.run_records(st, p)
        E = [r.entropy_E for r in records]
        assert all(b < a for a, b in zip(E, E[1:]))

    def test_heat_flow_energy_decay(self):
        # pure chi diffusion: int |grad chi|^2 nonincreasing step by step
        g = Grid((64,), (1.0,))
        x = g.axis_centers(0)
        st = SimState(0.0, np.array((g.field(0.0), g.field(0.0),
                                     g.field(1.0 + 0.5 * np.cos(np.pi * x)), g.field(1.0))), g)
        records = self.run_records(st, params(), t_end=0.1, save=0.005)
        values = [r.grad_chi_sq for r in records]
        assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))


class TestRecord:
    def test_csv_row_layout(self):
        g = Grid((8,), (1.0,))
        st = uniform_state(g, 1.0, 1.0, 1.0, 1.0)
        p = params()
        rec = compute_record(st, p, NO_SWITCH, st)
        row = rec.csv_row().split(",")
        assert len(row) == len(DiagnosticsRecord.CSV_COLUMNS) == 21
        assert row[0] == "0.0"
        assert row[-3:] == ["1", "1", "1"]  # certificates serialize as 0/1


def _parent_row(state, p, alphas, initial):
    """The CSV row as the earlier assembly wrote it: seven gradient_sq calls per
    record, certificates with slack 1e-8 (relative) and 1e-12 (absolute), and
    the medium terms at the weight zeta = 1."""
    g = state.grid
    c1, c2, chi, tau = state.c1, state.c2, state.chi, state.tau
    inv_e = 1.0 / math.e

    def xlogx(f):
        return np.where(f > 0, f * np.log(np.where(f > 0, f, 1.0)), 0.0)

    def fisher(f):
        return 4.0 * gradient_sq(g, np.sqrt(f))

    entropy = (
        p.a2 * p.delta / (4.0 * p.b_tau) * integrate(g, xlogx(c1) + inv_e)
        + integrate(g, xlogx(c2) + inv_e)
        + p.b_chi**2 / p.d_chi * integrate(g, gradient_sq(g, chi))
        + p.a2 / 8.0 * integrate(g, fisher(tau))
    )
    dissipation = (
        p.a1 * p.a2 * p.delta / (8.0 * p.b_tau) * integrate(g, fisher(c1))
        + p.a2 / 8.0 * integrate(g, fisher(c2))
        + p.b_chi**2 / 2.0 * integrate(g, laplacian_neumann(g, chi) ** 2)
        + p.a2 * p.delta / 8.0 * integrate(g, c1 * fisher(tau))
        + p.a2 * p.delta * p.beta / (8.0 * p.b_tau) * integrate(g, c1**2 * np.log(2.0 + c1))
    )
    if p.eps > 0:
        dissipation += p.a2 * p.delta * p.eps / (8.0 * p.b_tau) * integrate(
            g, c1**p.theta * np.log(2.0 + c1))
        dissipation += 0.5 * p.eps * integrate(g, c2**p.theta * np.log(2.0 + c2))
    fields = (c1, c2, chi, tau)
    values = [state.t, *(integrate(g, f) for f in fields)]
    for f in fields:
        values += [float(np.min(f)), float(np.max(f))]
    values += [entropy, dissipation, integrate(g, fisher(tau)),
               integrate(g, gradient_sq(g, chi)), state.positivity_debt]
    certs = (
        integrate(g, c1) <= c1_mass_bound(p, alphas[1], initial) * (1.0 + 1e-8),
        float(np.max(tau)) <= tau_linf_bound(p, initial) * (1.0 + 1e-8),
        min(float(np.min(f)) for f in fields) >= -1e-12,
    )
    return ",".join([repr(float(v)) for v in values] + [str(int(c)) for c in certs])


@hst.composite
def rough_records(draw):
    """(state, params, alphas, initial state): rough nonnegative
    1D or non-square 2D fields with exact zeros, lengths other than 1."""
    n = draw(hst.integers(3, 9))
    cells = draw(hst.sampled_from([(n,), (n, draw(hst.integers(3, 9).filter(lambda m: m != n)))]))
    grid = Grid(cells, tuple(draw(hst.floats(0.3, 3.0).filter(lambda L: L != 1.0)) for _ in cells))
    value = hst.one_of(hst.just(0.0), hst.floats(0.0, 3.0))

    def state(t, debt):
        rows = [draw(arrays(np.float64, cells, elements=value)) for _ in range(4)]
        return SimState(t, np.array(rows), grid, debt)

    positive = hst.floats(0.01, 2.0)
    p = ModelParams(a1=draw(positive), a2=draw(positive), b_tau=draw(positive),
                    b_chi=draw(positive), d_chi=draw(positive), a_chi=draw(hst.floats(0.0, 2.0)),
                    beta=draw(hst.floats(0.0, 2.0)), delta=draw(positive), mu=draw(positive),
                    eps=draw(hst.sampled_from([0.0, 0.05, 0.4])), theta=draw(hst.floats(3.0, 6.0)))
    alphas = (RateFunction("constant", draw(hst.floats(0.0, 2.0))),
              RateFunction("constant", draw(hst.floats(0.0, 2.0))))
    current = state(draw(hst.floats(0.0, 5.0)), draw(hst.sampled_from([0.0, 0.125])))
    return current, p, alphas, state(0.0, 0.0)


class TestRecordAssembly:
    @settings(max_examples=150, deadline=None)
    @given(rough_records())
    def test_serialized_fields_equal_parent_formulas_bitwise(self, case):
        assert compute_record(*case).csv_row() == _parent_row(*case)

    @pytest.mark.parametrize("cells, lengths", [((12,), (1.7,)), ((6, 5), (1.3, 0.7))])
    def test_four_gradient_sq_calls_per_record(self, monkeypatch, cells, lengths):
        calls = []

        def counting(grid, f):
            calls.append(f.shape)
            return gradient_sq(grid, f)

        monkeypatch.setattr(diagnostics, "gradient_sq", counting)
        g = Grid(cells, lengths)
        st = uniform_state(g, 0.5, 0.5, 1.0, 1.0)
        compute_record(st, params(eps=0.2), NO_SWITCH, st)
        assert calls == [cells] * 4
