import numpy as np
import pytest

from regenfv import (
    Grid,
    ModelParams,
    RateFunction,
    SimState,
    SupplySchedule,
    apply_dose,
    eval_rate,
    eval_supply,
    event_timeline,
    reaction_rhs,
)
from regenfv.model import bind_reactions


def default_params(**overrides):
    base = dict(a1=1.0, a2=1.0, b_tau=1.0, b_chi=1.0, d_chi=1.0, a_chi=1.0,
                beta=1.0, delta=1.0, mu=1.0)
    base.update(overrides)
    return ModelParams(**base)


class TestModelParams:
    def test_rejects_nonpositive_core_coefficients(self):
        for name in ("a1", "a2", "b_tau", "b_chi", "d_chi", "delta", "mu"):
            with pytest.raises(ValueError):
                default_params(**{name: 0.0})

    def test_beta_and_uptake_admit_zero_but_not_negative(self):
        default_params(beta=0.0, a_chi=0.0)
        with pytest.raises(ValueError):
            default_params(beta=-0.1)
        with pytest.raises(ValueError):
            default_params(a_chi=-0.1)

    def test_eps_range_and_theta(self):
        default_params(eps=0.0)
        default_params(eps=0.999)
        with pytest.raises(ValueError):
            default_params(eps=1.0)
        with pytest.raises(ValueError):
            default_params(eps=-0.1)
        with pytest.raises(ValueError):
            default_params(theta=2.0)


class TestEvalRate:
    def test_constant_returns_amplitude(self):
        f = RateFunction("constant", 0.7)
        assert eval_rate(f, 3.0) == 0.7

    def test_half_saturation_point(self):
        f = RateFunction("saturating", 1.0, half_saturation=1.0)
        assert eval_rate(f, 1.0) == pytest.approx(0.5, abs=0.0)

    def test_bounded_by_amplitude_over_ten_decades(self):
        # monotone limit of A*z/(K+z) checked by sampling z over 1e-6..1e6
        f = RateFunction("saturating", 2.0, half_saturation=0.5)
        zs = np.logspace(-6, 6, 200)
        values = eval_rate(f, zs)
        assert np.all(values <= 2.0)
        assert np.all(np.diff(values) >= 0)
        assert eval_rate(f, 1e6) <= 2.0

    def test_strictly_positive_even_at_zero(self):
        f = RateFunction("saturating", 2.0, half_saturation=0.5)
        assert 0 < eval_rate(f, 0.0) <= 2.0

    def test_output_in_unit_interval_of_amplitude(self):
        rng = np.random.default_rng(7)
        for kind in ("constant", "saturating"):
            f = RateFunction(kind, 1.3, half_saturation=0.2)
            z = rng.uniform(0, 50, size=500)
            vals = np.broadcast_to(eval_rate(f, z), z.shape)
            assert np.all(vals > 0) and np.all(vals <= 1.3)


class TestEvalSupply:
    def test_inside_pulse_window(self):
        s = SupplySchedule(dose_times=(3.0,), chi0=1.0, mode="pulse", width=0.1)
        assert eval_supply(s, 3.05, 1.0) == 1.0

    def test_outside_pulse_window(self):
        s = SupplySchedule(dose_times=(3.0,), chi0=1.0, mode="pulse", width=0.1)
        assert eval_supply(s, 2.9, 1.0) == 0.0

    def test_amplitude_formula(self):
        s = SupplySchedule(dose_times=(3.0, 6.0), chi0=2.0, mode="pulse", width=0.5)
        assert eval_supply(s, 6.25, 4.0) == 0.5

    def test_never_exceeds_density_bound(self):
        s = SupplySchedule(dose_times=(0.5, 2.0, 4.5), chi0=3.0, mode="pulse", width=0.25)
        ts = np.linspace(0.0, 5.0, 1000)
        vals = [eval_supply(s, float(t), 2.0) for t in ts]
        assert all(0.0 <= v <= 3.0 / 2.0 for v in vals)

    def test_overlapping_windows_add(self):
        s = SupplySchedule(dose_times=(1.0, 1.2, 1.4), chi0=3.0, mode="pulse", width=0.5)
        assert [eval_supply(s, t, 2.0) for t in (0.9, 1.1, 1.3, 1.45, 1.5, 1.7, 1.9)] == \
            [0.0, 1.5, 3.0, 4.5, 3.0, 1.5, 0.0]

    def test_jump_mode_has_zero_density(self):
        s = SupplySchedule(dose_times=(1.0,), chi0=1.0, mode="jump")
        assert eval_supply(s, 1.0, 1.0) == 0.0

    def test_dose_times_must_increase(self):
        with pytest.raises(ValueError):
            SupplySchedule(dose_times=(2.0, 1.0), chi0=1.0)

    def test_jump_dose_at_zero_rejected(self):
        # run and the oracle would drop it while the weak form counts it
        with pytest.raises(ValueError, match="fold it into the initial medium"):
            SupplySchedule(dose_times=(0.0, 1.0), chi0=1.0, mode="jump")
        SupplySchedule(dose_times=(0.0, 1.0), chi0=1.0, mode="pulse", width=0.1)


class TestEventTimeline:
    def test_jump_doses_and_saves_merge(self):
        s = SupplySchedule(dose_times=(0.5, 1.2), chi0=1.0, mode="jump")
        events = event_timeline(s, 1.5, save_every=0.5)
        assert events == [(0.5, True), (1.0, True), (1.2, False), (1.5, True)]

    def test_pulse_edges_inside_horizon_only(self):
        s = SupplySchedule(dose_times=(0.0, 0.9), chi0=1.0, mode="pulse", width=0.2)
        assert event_timeline(s, 1.0) == [(0.2, False), (0.9, False), (1.0, True)]

    def test_saves_are_exact_multiples(self):
        events = event_timeline(SupplySchedule(), 3.0, save_every=0.1)
        assert [t for t, _ in events] == [k * 0.1 for k in range(1, 30)] + [3.0]
        assert all(is_save for _, is_save in events)

    def test_zero_horizon_has_no_events(self):
        assert event_timeline(SupplySchedule(), 0.0, save_every=0.1) == []


class TestReactionRhs:
    alphas = (RateFunction("constant", 0.7), RateFunction("constant", 0.3))

    def test_origin_is_equilibrium(self):
        p = default_params()
        assert reaction_rhs(0.0, 0.0, 0.0, 0.0, p, *self.alphas) == (0.0, 0.0, 0.0, -0.0)

    def test_logistic_fixed_point(self):
        p = default_params(beta=1.0)
        a_off = (RateFunction("constant", 0.0), RateFunction("constant", 0.0))
        r1, r2, r3, r4 = reaction_rhs(1.0, 0.0, 0.0, 0.0, p, *a_off)
        assert (r1, r2, r3, r4) == (0.0, 0.0, 0.0, 0.0)

    def test_hand_evaluated_uptake_and_matrix_lines(self):
        # c1=1, c2=1, chi=1, tau=0.5, a_chi=delta=mu=1:
        #   r4 = -1*0.5 - 1*0.5 + 1/(1+1) = -0.5,  r3 = -(1+1)*1 = -2
        p = default_params()
        _, _, r3, r4 = reaction_rhs(1.0, 1.0, 1.0, 0.5, p, *self.alphas)
        assert r4 == pytest.approx(-0.5, abs=1e-15)
        assert r3 == pytest.approx(-2.0, abs=1e-15)

    def test_full_coupling_hand_evaluation(self):
        # state (c1, c2, chi, tau) = (0.6, 0.1, 1.0, 0.2); coefficients below.
        p = default_params(a_chi=0.8, beta=1.0, delta=0.7, mu=0.9)
        alphas = (RateFunction("saturating", 1.2, 0.5), RateFunction("constant", 0.4))
        a1v = eval_rate(alphas[0], 1.0)  # 1.2 * 1 / 1.5 = 0.8
        assert a1v == pytest.approx(0.8, rel=1e-15)
        switch = a1v * 0.6 / 1.6 - 0.4 * 0.1 / 1.1
        r1_hand = -switch + 1.0 * 0.6 * (1.0 - 0.6 - 0.1 - 0.2)
        r2_hand = switch
        r3_hand = -0.8 * (0.6 + 0.1) * 1.0
        r4_hand = -0.7 * 0.6 * 0.2 - 0.9 * 0.2 + 0.1 / 1.1
        r1, r2, r3, r4 = reaction_rhs(0.6, 0.1, 1.0, 0.2, p, *alphas)
        assert r1 == pytest.approx(r1_hand, rel=1e-15)
        assert r2 == pytest.approx(r2_hand, rel=1e-15)
        assert r3 == pytest.approx(r3_hand, rel=1e-15)
        assert r4 == pytest.approx(r4_hand, rel=1e-15)

    def test_switch_terms_are_exact_negatives(self):
        p = default_params(beta=0.0)
        rng = np.random.default_rng(11)
        for _ in range(100):
            c1, c2, chi, tau = rng.uniform(0, 3, size=4)
            r1, r2, _, _ = reaction_rhs(c1, c2, chi, tau, p, *self.alphas)
            assert r1 + r2 == pytest.approx(0.0, abs=1e-15)

    def test_switch_conserves_with_damping_off(self):
        p = default_params(beta=0.0, eps=0.0)
        r1, r2, _, _ = reaction_rhs(0.3, 1.7, 2.0, 0.1, p, *self.alphas)
        assert r1 + r2 == 0.0

    def test_damping_term_enters_with_eps(self):
        p0 = default_params(eps=0.0)
        p5 = default_params(eps=0.5, theta=4.0)
        r1_0, r2_0, _, _ = reaction_rhs(1.5, 0.5, 0.0, 0.0, p0, *self.alphas)
        r1_5, r2_5, _, _ = reaction_rhs(1.5, 0.5, 0.0, 0.0, p5, *self.alphas)
        assert r1_5 - r1_0 == pytest.approx(-0.5 * 1.5**4, rel=1e-14)
        assert r2_5 - r2_0 == pytest.approx(-0.5 * 0.5**4, rel=1e-14)

    def test_vectorized_matches_scalar(self):
        p = default_params(eps=0.2)
        rng = np.random.default_rng(3)
        c1, c2, chi, tau = (rng.uniform(0, 2, size=8) for _ in range(4))
        vec = reaction_rhs(c1, c2, chi, tau, p, *self.alphas)
        for i in range(8):
            scal = reaction_rhs(c1[i], c2[i], chi[i], tau[i], p, *self.alphas)
            for v, s in zip(vec, scal):
                assert v[i] == pytest.approx(s, rel=1e-15)

    def test_eps_column_damps_each_member_bitwise(self):
        # one call with an (m, 1) eps column gives, row by row, the r1..r3 of
        # reaction_rhs at each member's eps
        alphas = (RateFunction("saturating", 1.2, 0.5), RateFunction("constant", 0.4))
        rng = np.random.default_rng(8)
        c1, c2, chi, tau = rng.uniform(0, 2, size=(4, 3, 17))
        eps = (0.5, 0.25, 0.0625)
        p = default_params(eps=eps[0], theta=3.3)
        stacked = bind_reactions(p, *alphas, np.reshape(eps, (3, 1)), arrays=True, matrix=False)(c1, c2, chi, tau)
        for j, e in enumerate(eps):
            member = reaction_rhs(c1[j], c2[j], chi[j], tau[j], default_params(eps=e, theta=3.3), *alphas)
            for got, want in zip(stacked, member[:3], strict=True):
                assert np.array_equal(got[j], want)
        limit = bind_reactions(p, *alphas, None, arrays=True, matrix=False)(c1, c2, chi, tau)
        for got, want in zip(limit, reaction_rhs(c1, c2, chi, tau, default_params(), *alphas)):
            assert np.array_equal(got, want)


class TestApplyDose:
    def make_state(self, grid, chi_value):
        zero = grid.field(0.0)
        return SimState(0.0, np.array((zero, zero, grid.field(chi_value), grid.field(0.1))), grid)

    def test_uniform_increment_on_unit_domain(self):
        g = Grid((10,), (1.0,))
        s = SupplySchedule(dose_times=(1.0,), chi0=1.0, mode="jump")
        dosed = apply_dose(self.make_state(g, 0.2), s)
        assert np.allclose(dosed.chi, 1.2, rtol=0, atol=1e-15)

    def test_zero_dose_is_identity(self):
        g = Grid((10,), (1.0,))
        s = SupplySchedule(dose_times=(1.0,), chi0=0.0, mode="jump")
        state = self.make_state(g, 0.2)
        dosed = apply_dose(state, s)
        assert np.array_equal(dosed.chi, state.chi)

    def test_mass_bookkeeping_two_doses(self):
        from regenfv import integrate

        g = Grid((8,), (2.0,))  # |Omega| = 2
        s = SupplySchedule(dose_times=(1.0, 2.0), chi0=0.5, mode="jump")
        state = self.make_state(g, 0.3)
        before = integrate(g, state.chi)
        state = apply_dose(state, s)
        mid = integrate(g, state.chi)
        state = apply_dose(state, s)
        after = integrate(g, state.chi)
        assert mid - before == pytest.approx(0.5, abs=1e-14)
        assert after - before == pytest.approx(1.0, abs=1e-14)

    def test_adds_to_a_copy_of_chi_only(self):
        g = Grid((6, 5), (1.3, 0.7))
        rng = np.random.default_rng(5)
        state = SimState(0.0, rng.uniform(0.0, 2.0, (4, 6, 5)), g)
        before = state.u.copy()
        s = SupplySchedule(dose_times=(1.0,), chi0=0.45, mode="jump")
        dosed = apply_dose(state, s)
        assert np.array_equal(state.u, before)  # the input state is not written
        assert not np.shares_memory(dosed.u, state.u)
        for row in (0, 1, 3):
            assert dosed.u[row].tobytes() == before[row].tobytes()
        assert dosed.u[2].tobytes() == (before[2] + 0.45 / g.measure).tobytes()

    def test_pulse_mode_is_a_usage_error(self):
        g = Grid((8,), (1.0,))
        s = SupplySchedule(dose_times=(1.0,), chi0=1.0, mode="pulse", width=0.1)
        with pytest.raises(ValueError):
            apply_dose(self.make_state(g, 0.2), s)
