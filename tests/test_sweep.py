import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regenfv import (
    DivergenceError,
    Grid,
    ModelParams,
    RateFunction,
    SimState,
    StabilityError,
    StepControl,
    SupplySchedule,
    SweepConfig,
    compare_to_limit,
    integrate,
    laplacian_neumann,
    parse_config,
    run_sweep,
    trajectory,
)
from regenfv import stepping
from regenfv.diagnostics import fisher_integrand
from regenfv.grid import gradient_components
from regenfv.model import FIELDS
from regenfv.sweep import artificial_terms, pair_distances
from regenfv.weakform import Trajectory

from references import stable_dt

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

    @pytest.mark.parametrize("t_end, message", [
        (0.0, r"^a sweep needs a save after t=0: "),
        (1e-13, r"^t_end must be 0 or exceed the landing tolerance 1e-12, got 1e-13$"),
        (1e-12, r"^t_end must be 0 or exceed the landing tolerance 1e-12, got 1e-12$"),
    ], ids=["0.0", "1e-13", "1e-12"])
    def test_rejects_a_horizon_without_a_save(self, t_end, message):
        # no save in the event timeline: the members would have no trajectory to
        # compare; StepControl itself refuses a horizon within the landing tolerance of 0
        g = Grid((8,), (1.0,))
        with pytest.raises(ValueError, match=message):
            SweepConfig((0.5, 0.25), params(), ALPHAS, SupplySchedule(), default_initial(g),
                        StepControl(t_end=t_end, save_every=0.1))


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
            u = np.array([(g.field(scale * (1 + 0.5 * np.cos(np.pi * x))),
                           g.field(scale * 0.5), g.field(1.0), g.field(1.0))
                          for t in times])
            return Trajectory(times, u, g, params(), ALPHAS, SupplySchedule())
        return mk(1.0), mk(0.0)

    def test_l2_distance_of_known_field(self):
        a, b = self.make_pair()
        # ||1 + 0.5 cos(pi x)||_{L2(Q)}^2 = T * (1 + 0.125)
        got = pair_distances(a, b)["c1"]
        assert got == pytest.approx(math.sqrt(1.125), rel=1e-3)

    def test_w154_distance_of_constant_field(self):
        a, b = self.make_pair()
        # constant difference 0.5: W^{1,5/4} integrand is |0.5|^{5/4}
        got = pair_distances(a, b)["c2"]
        assert got == pytest.approx((0.5**1.25) ** 0.8, rel=1e-12)

    def test_distance_to_self_is_zero(self):
        a, _ = self.make_pair()
        assert all(v == 0.0 for v in pair_distances(a, a).values())


class TestCompareToLimit:
    def run_limit(self, cfg):
        return trajectory(cfg.initial, cfg.params, cfg.alphas, cfg.schedule, cfg.ctrl)

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
        for ta, tb in zip(a.trajectories, b.trajectories, strict=True):
            assert np.array_equal(ta.times, tb.times)
            assert np.array_equal(ta.u, tb.u)


# The distances and artificial terms as they were computed before trajectories
# were stacked: one ``integrate`` call per snapshot and field, then one
# trapezoid rule per 1D series. The stacked contractions must match them bit
# for bit, which pins the summation order (pairwise over each contiguous axis).
def per_snapshot_distances(a, b):
    grid, q = a.grid, 5.0 / 4.0
    out = {}
    for i, name in enumerate(FIELDS):
        if name == "c2":
            series = []
            for sa, sb in zip(a.u, b.u):
                diff = sa[i] - sb[i]
                dens = np.abs(diff) ** q
                for comp in gradient_components(grid, diff):
                    dens = dens + np.abs(comp) ** q
                series.append(integrate(grid, dens))
            out[name] = float(np.trapezoid(np.asarray(series), a.times) ** (1.0 / q))
        else:
            series = np.array([integrate(grid, (sa[i] - sb[i]) ** 2) for sa, sb in zip(a.u, b.u)])
            out[name] = float(np.sqrt(np.trapezoid(series, a.times)))
    return out


def per_snapshot_artificial_terms(traj):
    p, grid, t = traj.params, traj.grid, traj.times
    s1 = np.array([integrate(grid, s[0] ** p.theta) for s in traj.u])
    s2 = np.array([integrate(grid, s[1] ** p.theta) for s in traj.u])
    s3 = np.array([integrate(grid, fisher_integrand(grid, s[3])) for s in traj.u])
    return tuple(p.eps * float(np.trapezoid(series, t)) for series in (s1, s2, s3))


@st.composite
def trajectory_pairs(draw):
    """Two rough trajectories on one 1D or non-square 2D grid (lengths != 1),
    eps > 0, and 2 to 40 snapshots at uneven times."""
    if draw(st.booleans()):
        cells = (draw(st.integers(3, 200)),)
    else:
        cells = draw(st.tuples(st.integers(3, 12), st.integers(3, 12)).filter(lambda c: c[0] != c[1]))
    lengths = tuple(draw(st.floats(0.3, 3.0).filter(lambda v: v != 1.0)) for _ in cells)
    grid = Grid(cells, lengths)
    n_t = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.2, n_t - 1))))
    p = params(eps=draw(st.floats(0.01, 0.99)), theta=draw(st.floats(2.1, 4.0)))

    def rough():
        u = rng.uniform(0.0, 2.0, (n_t, 4, *cells)) * (rng.random((n_t, 4, *cells)) > 0.1)
        return Trajectory(times, u, grid, p, ALPHAS, SupplySchedule())

    return rough(), rough()


class TestStackedContractions:
    @settings(max_examples=80, deadline=None)
    @given(trajectory_pairs())
    def test_equal_per_snapshot_formulas_bit_for_bit(self, pair):
        a, b = pair
        assert pair_distances(a, b) == per_snapshot_distances(a, b)
        assert artificial_terms(a) == per_snapshot_artificial_terms(a)
        assert artificial_terms(b) == per_snapshot_artificial_terms(b)


@st.composite
def batched_sweeps(draw):
    """A sweep of 1 to 5 members (decreasing eps, repeats allowed) on 3 to 80
    cells of rough data, with one pulse or jump dose inside the horizon.
    Taxis and reactions are mild enough that dt_max binds every step of every
    member: with data in [0, 1] each advection limit is at least
    h^2 / max(b) >= 1.5e-3 and each reaction limit at least 0.1, against
    dt_max = 5e-4 over 0.01 time units."""
    n = draw(st.integers(3, 80))
    g = Grid((n,), (1.0,))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniform(0.0, 1.0, (4, n)) * (rng.random((4, n)) > 0.3)
    u[2:] += 0.01  # chi, tau > 0
    eps_list = tuple(sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5)), reverse=True))
    p = params(b_tau=draw(st.floats(0.01, 0.1)), b_chi=draw(st.floats(0.01, 0.1)),
               theta=draw(st.floats(2.5, 4.0)))
    dose = draw(st.floats(0.001, 0.009))
    if draw(st.booleans()):
        schedule = SupplySchedule((dose,), chi0=draw(st.floats(0.0, 2.0)), mode="pulse",
                                  width=draw(st.floats(1e-4, 0.02)))
    else:
        schedule = SupplySchedule((dose,), chi0=draw(st.floats(0.0, 2.0)), mode="jump")
    ctrl = StepControl(t_end=0.01, dt_max=5e-4, cfl_safety=1.0, save_every=draw(st.sampled_from([None, 0.0025])))
    return SweepConfig(eps_list, p, ALPHAS, schedule, SimState(0.0, u, g), ctrl)


class TestBatchedSweep:
    @settings(max_examples=40, deadline=None)
    @given(batched_sweeps())
    def test_each_member_equals_its_one_member_sweep_bitwise(self, cfg):
        batched = run_sweep(cfg)
        for eps, traj in zip(cfg.eps_list, batched.trajectories, strict=True):
            (alone,) = run_sweep(replace(cfg, eps_list=(eps,))).trajectories
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj.u, alone.u)
            assert traj.u.flags.c_contiguous

    def test_2d_members_share_the_smallest_dt(self):
        # in 2D the diffusion limit h^2 / (2 dim max(a1, a2, d_chi, eps)) falls
        # as eps grows past the other diffusivities, and it binds here (taxis
        # and reactions are slow): every member steps with the largest-eps
        # member's capped dt, so each equals its own run under that dt_max
        g = Grid((6, 5), (1.2, 0.8))
        x, y = g.coordinate_arrays()
        wave = np.cos(np.pi * x / 1.2) * np.cos(np.pi * y / 0.8)
        u = np.array((0.3 + 0.1 * wave, 0.05 + 0.02 * wave, 1.0 + 0.1 * wave, 0.4 + 0.05 * wave))
        p = params(a1=0.01, a2=0.01, d_chi=0.01, b_tau=0.01, b_chi=0.01)
        initial = SimState(0.0, u, g)
        ctrl = StepControl(t_end=0.05, dt_max=1.0, cfl_safety=0.5, save_every=0.01)
        eps_list = (0.5, 0.3, 0.1)
        capped = [stable_dt(initial, replace(p, eps=eps), ctrl) for eps in eps_list]
        assert capped[0] == pytest.approx(0.5 * (0.16**2) / (2 * 2 * 0.5), rel=1e-12)  # h_y = 0.16
        assert capped[0] < capped[1] < capped[2]
        batched = run_sweep(SweepConfig(eps_list, p, ALPHAS, SupplySchedule(), initial, ctrl))
        shared = replace(ctrl, dt_max=capped[0])
        for eps, traj in zip(eps_list, batched.trajectories, strict=True):
            alone = trajectory(initial, replace(p, eps=eps), ALPHAS, SupplySchedule(), shared)
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj.u, alone.u)
        # alone under its own dt_max, the smallest-eps member takes longer steps
        alone = trajectory(initial, replace(p, eps=eps_list[-1]), ALPHAS, SupplySchedule(), ctrl)
        assert not np.array_equal(alone.u, batched.trajectories[-1].u)

    def test_eps_sweep_shape_takes_750_core_calls(self, monkeypatch):
        # the default 1D problem on 64 cells to t_end 0.075 (pulse at 0.05):
        # dt_max = 1e-4 binds, so the 4 members take 750 shared steps (3 000
        # steps when each member ran alone)
        cfg = parse_config((Path(__file__).resolve().parents[1] / "configs/default_1d.cfg").read_text())
        calls = []
        advance = stepping._advance

        def counted(*args, **kwargs):
            calls.append((args[1].shape, args[6]))  # (member stack shape, dt)
            return advance(*args, **kwargs)

        monkeypatch.setattr(stepping, "_advance", counted)
        report = run_sweep(SweepConfig(
            (0.5, 0.25, 0.125, 0.0625), cfg.params, cfg.alphas,
            replace(cfg.schedule, dose_times=(0.05,), width=0.025), cfg.build_initial(),
            replace(cfg.ctrl, t_end=0.075)))
        assert len(calls) == 750
        assert {shape for shape, _ in calls} == {(4, 4, 64)}
        assert max(dt for _, dt in calls) == 1e-4
        assert [traj.times[-1] for traj in report.trajectories] == [0.075] * 4

    def test_errors_name_the_member(self):
        # c1 ~ 1e250 with theta = 2.1: the damping rate eps*theta*c1^1.1 is
        # finite, so the step is taken, but eps*c1^2.1 overflows
        cfg = make_config((0.5, 0.25), t_end=0.05, n=24)
        u = cfg.initial.u.copy()
        u[0] *= 1e250
        with pytest.raises(DivergenceError, match=r"non-finite c1 at cell \(\d+,\) \(t=[^)]*\) \(sweep member eps=0\.5\)$"):
            with np.errstate(over="ignore", invalid="ignore"):
                run_sweep(replace(cfg, params=params(theta=2.1), initial=replace(cfg.initial, u=u)))
        # c1 ~ 1e120 with theta = 4: the damping rate overflows, so no dt is left
        u[0] *= 1e-130
        with pytest.raises(StabilityError, match=r"^no finite positive timestep .*\(sweep member eps=0\.5\)$"):
            with np.errstate(over="ignore"):
                run_sweep(replace(cfg, initial=replace(cfg.initial, u=u)))
