import math

import numpy as np
import pytest

from regenfv import (
    Grid,
    ModelParams,
    RateFunction,
    SimState,
    StepControl,
    SupplySchedule,
    SweepConfig,
    compare_to_limit,
    integrate,
    laplacian_neumann,
    run,
    run_sweep,
)
from regenfv.sweep import l2_spacetime_distance, pair_distances, w154_distance
from regenfv.weakform import TrajectoryRecorder

ALPHAS = (RateFunction("saturating", 1.2, 0.5), RateFunction("constant", 0.4))
NO_SWITCH = (RateFunction("constant", 0.0), RateFunction("constant", 0.0))


def params(**overrides):
    base = dict(a1=0.05, a2=0.05, b_tau=0.5, b_chi=0.5, d_chi=0.1, a_chi=0.6,
                beta=0.8, delta=0.7, mu=0.9)
    base.update(overrides)
    return ModelParams(**base)


def default_initial(g):
    x = g.axis_centers(0)
    return SimState(0.0, np.array((g.field(0.5 + 0.2 * np.cos(np.pi * x)), g.field(0.05),
                                   g.field(1.0 + 0.2 * np.cos(np.pi * x)),
                                   g.field(0.4 + 0.05 * np.cos(np.pi * x)))), g)


def make_config(eps_list, t_end=0.2, n=48):
    g = Grid((n,), (1.0,))
    return SweepConfig(
        eps_list=eps_list,
        params=params(),
        alphas=ALPHAS,
        schedule=SupplySchedule(),
        initial=default_initial(g),
        ctrl=StepControl(t_end=t_end, dt_max=1e-4, cfl_safety=1.0, save_every=t_end / 10),
    )


class TestSweepConfig:
    def test_rejects_increasing_and_out_of_range(self):
        g = Grid((8,), (1.0,))
        base = dict(params=params(), alphas=ALPHAS, schedule=SupplySchedule(),
                    initial=default_initial(g),
                    ctrl=StepControl(t_end=0.1, dt_max=1e-3))
        with pytest.raises(ValueError):
            SweepConfig(eps_list=(), **base)
        with pytest.raises(ValueError):
            SweepConfig(eps_list=(0.25, 0.5), **base)
        with pytest.raises(ValueError):
            SweepConfig(eps_list=(1.0,), **base)


class TestRunSweep:
    def test_single_entry_has_no_pair_distances(self):
        rep = run_sweep(make_config((0.5,), t_end=0.05, n=24))
        assert len(rep.entries) == 1
        assert rep.entries[0].pair_distance is None
        assert rep.entries[0].art_c1 > 0

    def test_repeated_eps_gives_zero_distance(self):
        rep = run_sweep(make_config((0.25, 0.25), t_end=0.05, n=24))
        d = rep.entries[1].pair_distance
        assert all(d[f] == 0.0 for f in ("c1", "c2", "chi", "tau"))

    def test_artificial_terms_shrink(self):
        rep = run_sweep(make_config((0.5, 0.25, 0.125), t_end=0.1, n=32))
        for attr in ("art_c1", "art_c2"):
            values = [getattr(e, attr) for e in rep.entries]
            ratios = [b / a for a, b in zip(values, values[1:])]
            assert all(r <= 0.75 for r in ratios), (attr, ratios)
        taus = [e.art_tau for e in rep.entries]
        assert all(b < a for a, b in zip(taus, taus[1:]))

    def test_csv_layout(self):
        rep = run_sweep(make_config((0.5, 0.25), t_end=0.05, n=24))
        lines = rep.csv_text().strip().split("\n")
        assert lines[0] == ("eps,pair_distance_c1,pair_distance_c2,pair_distance_chi,"
                            "pair_distance_tau,art_c1,art_c2,art_tau")
        first = lines[1].split(",")
        assert first[0] == "0.5" and first[1] == ""  # no pair distance on row 0
        assert len(lines) == 3

    def test_grid_mismatch_rejected(self):
        cfg_a = make_config((0.5,), t_end=0.05, n=24)
        cfg_b = make_config((0.25,), t_end=0.05, n=32)
        ra, rb = run_sweep(cfg_a), run_sweep(cfg_b)
        with pytest.raises(ValueError):
            pair_distances(ra.trajectories[0], rb.trajectories[0])


class TestNorms:
    def make_pair(self):
        g = Grid((24,), (1.0,))
        x = g.axis_centers(0)
        times = np.linspace(0.0, 1.0, 5)
        def mk(scale):
            states = tuple(
                SimState(float(t), np.array((g.field(scale * (1 + 0.5 * np.cos(np.pi * x))),
                                             g.field(scale * 0.5), g.field(1.0), g.field(1.0))), g)
                for t in times
            )
            from regenfv.weakform import Trajectory
            return Trajectory(times, states, params(), ALPHAS, SupplySchedule())
        return mk(1.0), mk(0.0)

    def test_l2_distance_of_known_field(self):
        a, b = self.make_pair()
        # ||1 + 0.5 cos(pi x)||_{L2(Q)}^2 = T * (1 + 0.125)
        got = l2_spacetime_distance(a, b, "c1")
        assert got == pytest.approx(math.sqrt(1.125), rel=1e-3)

    def test_w154_distance_of_constant_field(self):
        a, b = self.make_pair()
        # constant difference 0.5: W^{1,5/4} integrand is |0.5|^{5/4}
        got = w154_distance(a, b, "c2")
        assert got == pytest.approx((0.5**1.25) ** 0.8, rel=1e-12)

    def test_distance_to_self_is_zero(self):
        a, _ = self.make_pair()
        assert all(v == 0.0 for v in pair_distances(a, a).values())


class TestCompareToLimit:
    def run_limit(self, cfg):
        rec = TrajectoryRecorder()
        run(cfg.initial, cfg.params, cfg.alphas, cfg.schedule, cfg.ctrl,
            snapshot_sink=rec)
        return rec.trajectory(cfg.params, cfg.alphas, cfg.schedule)

    def test_distances_decrease_toward_limit(self):
        cfg = make_config((0.4, 0.2, 0.1), t_end=0.15, n=32)
        rep = run_sweep(cfg)
        limit = self.run_limit(cfg)
        rows = compare_to_limit(rep, limit)
        for field in ("c1", "c2", "chi", "tau"):
            values = [r[field] for r in rows]
            assert all(b < a for a, b in zip(values, values[1:])), field

    def test_matrix_only_distance_bounded_by_duhamel(self):
        # tau-only dynamics: ||tau_eps - tau_0||_inf <= eps * t * max|lap tau0|,
        # so the space-time L2 distance obeys the integrated version
        g = Grid((48,), (1.0,))
        x = g.axis_centers(0)
        initial = SimState(0.0, np.array((g.field(0.0), g.field(0.0), g.field(1.0),
                                          g.field(0.5 + 0.2 * np.cos(np.pi * x)))), g)
        ctrl = StepControl(t_end=0.2, dt_max=1e-4, cfl_safety=1.0, save_every=0.02)
        cfg = SweepConfig(eps_list=(0.4, 0.2, 0.1), params=params(), alphas=NO_SWITCH,
                          schedule=SupplySchedule(), initial=initial, ctrl=ctrl)
        rep = run_sweep(cfg)
        limit = self.run_limit(cfg)
        rows = compare_to_limit(rep, limit)
        lap0 = np.max(np.abs(laplacian_neumann(g, initial.tau)))
        T = ctrl.t_end
        for row, eps in zip(rows, cfg.eps_list):
            bound = eps * T * lap0 * math.sqrt(T * g.measure)
            assert row["tau"] <= bound
        taus = [r["tau"] for r in rows]
        assert all(b < a for a, b in zip(taus, taus[1:]))

    def test_determinism_bitwise(self):
        cfg = make_config((0.3, 0.15), t_end=0.05, n=24)
        a, b = run_sweep(cfg), run_sweep(cfg)
        assert a.csv_text() == b.csv_text()
        for ta, tb in zip(a.trajectories, b.trajectories):
            for sa, sb in zip(ta.states, tb.states):
                assert np.array_equal(sa.c1, sb.c1)
                assert np.array_equal(sa.tau, sb.tau)
