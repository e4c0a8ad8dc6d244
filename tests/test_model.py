import math

import numpy as np
import pytest

from regenfv import (
    EntropyParams,
    Grid,
    ModelParams,
    RateFunction,
    SupplySchedule,
    event_timeline,
)
from regenfv.model import _bind_rate, bind_reactions


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


def rate(f, z):
    """The rate function f at z >= 0 as the reaction terms bind it, for float or array z."""
    return _bind_rate(f, np.maximum if isinstance(z, np.ndarray) else max)(z)


class TestEvalRate:
    def test_constant_returns_amplitude(self):
        f = RateFunction("constant", 0.7)
        assert rate(f, 3.0) == 0.7

    def test_half_saturation_point(self):
        f = RateFunction("saturating", 1.0, half_saturation=1.0)
        assert rate(f, 1.0) == pytest.approx(0.5, abs=0.0)

    def test_bounded_by_amplitude_over_ten_decades(self):
        # monotone limit of A*z/(K+z) checked by sampling z over 1e-6..1e6
        f = RateFunction("saturating", 2.0, half_saturation=0.5)
        zs = np.logspace(-6, 6, 200)
        values = rate(f, zs)
        assert np.all(values <= 2.0)
        assert np.all(np.diff(values) >= 0)
        assert rate(f, 1e6) <= 2.0

    def test_strictly_positive_even_at_zero(self):
        f = RateFunction("saturating", 2.0, half_saturation=0.5)
        assert 0 < rate(f, 0.0) <= 2.0

    def test_floor_is_derived_from_the_amplitude(self):
        # a caller-chosen floor of 0 would make the saturating rate vanish at z = 0
        assert RateFunction("saturating", 2.0).floor == 2e-12
        with pytest.raises(TypeError, match="floor"):
            RateFunction("saturating", 1.0, floor=0.0)

    def test_output_in_unit_interval_of_amplitude(self):
        rng = np.random.default_rng(7)
        for kind in ("constant", "saturating"):
            f = RateFunction(kind, 1.3, half_saturation=0.2)
            z = rng.uniform(0, 50, size=500)
            vals = np.broadcast_to(rate(f, z), z.shape)
            assert np.all(vals > 0) and np.all(vals <= 1.3)


def supply_at(s, t, domain_measure, t_end):
    """Supply density at a time t strictly inside an event interval."""
    return next(supply for te, _, supply, _ in event_timeline(s, t_end, domain_measure=domain_measure)
                if te > t)


class TestEvalSupply:
    def test_inside_pulse_window(self):
        s = SupplySchedule(dose_times=(3.0,), chi0=1.0, mode="pulse", width=0.1)
        assert supply_at(s, 3.05, 1.0, t_end=4.0) == 1.0

    def test_outside_pulse_window(self):
        s = SupplySchedule(dose_times=(3.0,), chi0=1.0, mode="pulse", width=0.1)
        assert supply_at(s, 2.9, 1.0, t_end=4.0) == 0.0

    def test_amplitude_formula(self):
        s = SupplySchedule(dose_times=(3.0, 6.0), chi0=2.0, mode="pulse", width=0.5)
        assert supply_at(s, 6.25, 4.0, t_end=7.0) == 0.5

    def test_never_exceeds_density_bound(self):
        s = SupplySchedule(dose_times=(0.5, 2.0, 4.5), chi0=3.0, mode="pulse", width=0.25)
        ts = np.linspace(0.0, 5.0, 1000)
        vals = [supply_at(s, float(t), 2.0, t_end=6.0) for t in ts]
        assert all(0.0 <= v <= 3.0 / 2.0 for v in vals)


class TestSupplySchedule:
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
        # each event: (time, is_save, supply density before it, dose increment)
        s = SupplySchedule(dose_times=(0.5, 1.2), chi0=1.0, mode="jump")
        events = event_timeline(s, 1.5, save_every=0.5, domain_measure=2.0)
        assert events == [(0.5, True, 0.0, 0.5), (1.0, True, 0.0, None),
                          (1.2, False, 0.0, 0.5), (1.5, True, 0.0, None)]

    def test_pulse_edges_inside_horizon_only(self):
        # the pulse at 0 is on from the start; the one at 0.9 ends after t_end
        s = SupplySchedule(dose_times=(0.0, 0.9), chi0=1.0, mode="pulse", width=0.2)
        assert event_timeline(s, 1.0) == [(0.2, False, 1.0, None), (0.9, False, 0.0, None),
                                          (1.0, True, 1.0, None)]

    def test_saves_are_exact_multiples(self):
        events = event_timeline(SupplySchedule(), 3.0, save_every=0.1)
        assert [t for t, *_ in events] == [k * 0.1 for k in range(1, 30)] + [3.0]
        assert all(event[1:] == (True, 0.0, None) for event in events)

    def test_zero_horizon_has_no_events(self):
        assert event_timeline(SupplySchedule(), 0.0, save_every=0.1) == []

    @pytest.mark.parametrize("schedule, t_end, supplies", [
        # each window adds chi0/|Omega| = 1.5 while it is open, so overlaps add up
        (SupplySchedule((1.0, 1.2, 1.4), chi0=3.0, mode="pulse", width=0.5), 2.0,
         [0.0, 1.5, 3.0, 4.5, 3.0, 1.5, 0.0]),
        # disjoint windows: 1.5 inside each, 0 outside, never more
        (SupplySchedule((0.5, 2.0, 4.5), chi0=3.0, mode="pulse", width=0.25), 5.0,
         [0.0, 1.5, 0.0, 1.5, 0.0, 1.5, 0.0]),
        # jump doses are measures in time: no supply density on any interval
        (SupplySchedule((1.0, 1.5), chi0=3.0, mode="jump"), 2.0, [0.0, 0.0, 0.0]),
    ], ids=["overlapping", "separate", "jump"])
    def test_supply_on_each_interval(self, schedule, t_end, supplies):
        # (time, supply density on the interval ending there) on |Omega| = 2
        events = event_timeline(schedule, t_end, domain_measure=2.0)
        if schedule.mode == "pulse":
            edges = sorted(e for td in schedule.dose_times for e in (td, td + schedule.width) if e < t_end)
            doses = [None] * len(supplies)
        else:
            edges, doses = list(schedule.dose_times), [1.5, 1.5, None]
        assert events == [(t, t == t_end, supply, dose)
                          for t, supply, dose in zip(edges + [t_end], supplies, doses, strict=True)]


class TestReactionRhs:
    alphas = (RateFunction("constant", 0.7), RateFunction("constant", 0.3))

    def test_origin_is_equilibrium(self):
        p = default_params()
        assert bind_reactions(p, *self.alphas)(0.0, 0.0, 0.0, 0.0) == (0.0, 0.0, 0.0, -0.0)

    def test_logistic_fixed_point(self):
        p = default_params(beta=1.0)
        a_off = (RateFunction("constant", 0.0), RateFunction("constant", 0.0))
        r1, r2, r3, r4 = bind_reactions(p, *a_off)(1.0, 0.0, 0.0, 0.0)
        assert (r1, r2, r3, r4) == (0.0, 0.0, 0.0, 0.0)

    def test_hand_evaluated_uptake_and_matrix_lines(self):
        # c1=1, c2=1, chi=1, tau=0.5, a_chi=delta=mu=1:
        #   r4 = -1*0.5 - 1*0.5 + 1/(1+1) = -0.5,  r3 = -(1+1)*1 = -2
        p = default_params()
        _, _, r3, r4 = bind_reactions(p, *self.alphas)(1.0, 1.0, 1.0, 0.5)
        assert r4 == pytest.approx(-0.5, abs=1e-15)
        assert r3 == pytest.approx(-2.0, abs=1e-15)

    def test_full_coupling_hand_evaluation(self):
        # state (c1, c2, chi, tau) = (0.6, 0.1, 1.0, 0.2); coefficients below.
        p = default_params(a_chi=0.8, beta=1.0, delta=0.7, mu=0.9)
        alphas = (RateFunction("saturating", 1.2, 0.5), RateFunction("constant", 0.4))
        a1v = max(1.2 * 1.0 / (0.5 + 1.0), 1e-12 * 1.2)  # max(A z/(K + z), 1e-12 A) = 0.8
        assert a1v == pytest.approx(0.8, rel=1e-15)
        switch = a1v * 0.6 / 1.6 - 0.4 * 0.1 / 1.1
        r1_hand = -switch + 1.0 * 0.6 * (1.0 - 0.6 - 0.1 - 0.2)
        r2_hand = switch
        r3_hand = -0.8 * (0.6 + 0.1) * 1.0
        r4_hand = -0.7 * 0.6 * 0.2 - 0.9 * 0.2 + 0.1 / 1.1
        r1, r2, r3, r4 = bind_reactions(p, *alphas)(0.6, 0.1, 1.0, 0.2)
        assert r1 == pytest.approx(r1_hand, rel=1e-15)
        assert r2 == pytest.approx(r2_hand, rel=1e-15)
        assert r3 == pytest.approx(r3_hand, rel=1e-15)
        assert r4 == pytest.approx(r4_hand, rel=1e-15)

    def test_switch_terms_are_exact_negatives(self):
        p = default_params(beta=0.0)
        rng = np.random.default_rng(11)
        reactions = bind_reactions(p, *self.alphas)
        for _ in range(100):
            c1, c2, chi, tau = rng.uniform(0, 3, size=4)
            r1, r2, _, _ = reactions(c1, c2, chi, tau)
            assert r1 + r2 == pytest.approx(0.0, abs=1e-15)

    def test_switch_conserves_with_damping_off(self):
        p = default_params(beta=0.0, eps=0.0)
        r1, r2, _, _ = bind_reactions(p, *self.alphas)(0.3, 1.7, 2.0, 0.1)
        assert r1 + r2 == 0.0

    def test_damping_term_enters_with_eps(self):
        p0 = default_params(eps=0.0)
        p5 = default_params(eps=0.5, theta=4.0)
        r1_0, r2_0, _, _ = bind_reactions(p0, *self.alphas)(1.5, 0.5, 0.0, 0.0)
        r1_5, r2_5, _, _ = bind_reactions(p5, *self.alphas, p5.eps)(1.5, 0.5, 0.0, 0.0)
        assert r1_5 - r1_0 == pytest.approx(-0.5 * 1.5**4, rel=1e-14)
        assert r2_5 - r2_0 == pytest.approx(-0.5 * 0.5**4, rel=1e-14)

    def test_float_form_reads_a_tiny_negative_as_zero(self):
        # the oracle's RK4 stage extrapolations may dip just below zero; each
        # component reads as 0.0 (a negative float to the power 4.5 is complex)
        p = default_params(eps=0.3, theta=4.5)
        reactions = bind_reactions(p, RateFunction("saturating", 1.2, 0.5), RateFunction("constant", 0.4), p.eps)
        state = (0.6, 0.1, 1.0, 0.2)
        for i in range(4):
            dipped, zeroed = list(state), list(state)
            dipped[i], zeroed[i] = -1e-12, 0.0
            assert reactions(*dipped) == reactions(*zeroed), i

    def test_vectorized_matches_scalar(self):
        p = default_params(eps=0.2)
        rng = np.random.default_rng(3)
        c1, c2, chi, tau = (rng.uniform(0, 2, size=8) for _ in range(4))
        vec = bind_reactions(p, *self.alphas, p.eps, arrays=True)(c1, c2, chi, tau)
        for i in range(8):
            scal = bind_reactions(p, *self.alphas, p.eps)(c1[i], c2[i], chi[i], tau[i])
            for v, s in zip(vec, scal):
                assert v[i] == pytest.approx(s, rel=1e-15)

    def test_eps_column_damps_each_member_bitwise(self):
        # one call with an (m, 1) eps column gives, row by row, the r1..r3 of
        # the terms bound at each member's eps, then tau's production and sink rate
        alphas = (RateFunction("saturating", 1.2, 0.5), RateFunction("constant", 0.4))
        rng = np.random.default_rng(8)
        c1, c2, chi, tau = rng.uniform(0, 2, size=(4, 3, 17))
        eps = (0.5, 0.25, 0.0625)
        p = default_params(eps=eps[0], theta=3.3)
        stacked = bind_reactions(p, *alphas, np.reshape(eps, (3, 1)), arrays=True, matrix=False)(c1, c2, chi, tau)
        for j, e in enumerate(eps):
            reactions = bind_reactions(default_params(eps=e, theta=3.3), *alphas, e, arrays=True)
            member = reactions(c1[j], c2[j], chi[j], tau[j])
            for got, want in zip(stacked[:3], member[:3], strict=True):
                assert np.array_equal(got[j], want)
        limit = bind_reactions(p, *alphas, None, arrays=True, matrix=False)(c1, c2, chi, tau)
        alone = bind_reactions(default_params(), *alphas, arrays=True)(c1, c2, chi, tau)
        for got, want in zip(limit[:3], alone[:3], strict=True):
            assert np.array_equal(got, want)
        for tau_terms in (stacked[3:], limit[3:]):
            produce, sink = tau_terms
            assert np.array_equal(produce, c2 / (1.0 + c2))
            assert np.array_equal(sink, p.mu + p.delta * c1)



class TestNonFiniteInput:
    @pytest.mark.parametrize("make, name", [
        (lambda: default_params(beta=math.nan), "beta"),
        (lambda: default_params(a_chi=math.nan), "a_chi"),
        (lambda: default_params(a1=math.inf), "a1"),
        (lambda: default_params(mu=math.inf), "mu"),
        (lambda: default_params(theta=math.inf), "theta"),
        (lambda: RateFunction("constant", math.nan), "amplitude"),
        (lambda: RateFunction("saturating", math.inf), "amplitude"),
        (lambda: RateFunction("saturating", 1.0, half_saturation=math.inf), "half_saturation"),
        (lambda: Grid((8,), (math.nan,)), "lengths"),
        (lambda: Grid((8, 8), (1.0, math.inf)), "lengths"),
        (lambda: Grid((3.5,), (1.0,)), "cells"),
        (lambda: EntropyParams(zeta=math.inf), "zeta"),
        (lambda: EntropyParams(varrho=math.nan), "varrho"),
    ], ids=["beta-nan", "a_chi-nan", "a1-inf", "mu-inf", "theta-inf", "amplitude-nan",
            "amplitude-inf", "half_saturation-inf", "lengths-nan", "lengths-inf",
            "cells-3.5", "zeta-inf", "varrho-nan"])
    def test_rejected_naming_the_field(self, make, name):
        # a NaN or infinite coefficient would surface later as a numerical
        # failure (beta = nan: "non-finite c1") instead of a bad input
        with pytest.raises(ValueError, match=name):
            make()
