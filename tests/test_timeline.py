"""The event timeline as both integrators read it: doses and pulse edges that
fall within the landing tolerance of a save, of each other, of 0 or of t_end
land where ``event_timeline`` puts them, in ``run`` and in ``rk4_solve`` alike,
so the dosing budget is exact to rounding."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regenfv import (
    Grid,
    HomogeneousState,
    ModelParams,
    RateFunction,
    RunConfig,
    SimState,
    StepControl,
    SupplySchedule,
    echo_text,
    event_timeline,
    integrate,
    rk4_solve,
    run,
    trajectory,
)
from regenfv.cli import main
from regenfv.config import InitializerSpec
from regenfv.model import FIELDS, save_times

NO_SWITCH = (RateFunction("constant", 0.0), RateFunction("constant", 0.0))
# no uptake, no growth, no switching: chi changes by the supply and the doses only
INERT = ModelParams(a1=1.0, a2=1.0, b_tau=1.0, b_chi=1.0, d_chi=1.0, a_chi=0.0,
                    beta=0.0, delta=1.0, mu=1.0)
GRID = Grid((4,), (1.0,))


def uniform(c1, c2, chi, tau):
    return SimState(0.0, np.array([GRID.field(v) for v in (c1, c2, chi, tau)]), GRID)


def pde_rows(schedule, ctrl, p=INERT):
    """(t, chi mass) of every state ``run`` hands out, from uniform data with chi = 1."""
    rows = []
    run(uniform(0.3, 0.1, 1.0, 0.5), p, NO_SWITCH, schedule, ctrl,
        record_sink=lambda s: rows.append((s.t, integrate(GRID, s.chi))))
    return rows


def oracle_rows(schedule, t_end, dt, save_every=None, p=INERT):
    """(t, chi mass) of every row of ``rk4_solve`` on the same data."""
    traj = rk4_solve(HomogeneousState(0.0, 0.3, 0.1, 1.0, 0.5), p, NO_SWITCH, schedule,
                     dt=dt, t_end=t_end, domain_measure=GRID.measure, save_every=save_every)
    return [(t, chi * GRID.measure) for t, chi in zip(traj.times.tolist(), traj.values[:, 2].tolist())]


class TestTimelineRegressions:
    def test_jump_dose_within_tolerance_of_zero_is_applied(self):
        # a dose at 5e-13 is an event no step reaches: it is added on landing
        s = SupplySchedule(dose_times=(5e-13,), chi0=1.0, mode="jump")
        pde = pde_rows(s, StepControl(t_end=0.1, dt_max=0.01))
        oracle = oracle_rows(s, 0.1, dt=0.01)
        assert pde[-1] == (0.1, 2.0) and oracle[-1] == (0.1, 2.0)
        assert pde[0] == oracle[0] == (0.0, 1.0)  # the initial state is not written

    def test_jump_dose_just_after_a_save_lands_with_it(self):
        # the dose 5e-9 after the save at 5000 merges into it (tolerance 1e-8
        # at t_end 1e4): the row at 5000 is a right limit in both integrators
        s = SupplySchedule(dose_times=(5000.0 + 5e-9,), chi0=1.0, mode="jump")
        p = ModelParams(a1=1.0, a2=1.0, b_tau=1.0, b_chi=1.0, d_chi=1.0, a_chi=0.0,
                        beta=0.0, delta=1e-4, mu=1e-4)
        pde = pde_rows(s, StepControl(t_end=1e4, dt_max=500.0, save_every=1000.0), p)
        oracle = oracle_rows(s, 1e4, dt=500.0, save_every=1000.0, p=p)
        expected = [(1000.0 * k, 1.0 if k < 5 else 2.0) for k in range(11)]
        assert pde == oracle == expected

    @pytest.mark.parametrize("start", [1.0 + 5e-13, 0.9 + 5e-13], ids=["start", "end"])
    def test_pulse_edge_just_after_a_save_delivers_one_width(self, start):
        # a pulse edge 5e-13 after the save at 1.0 merges into it; the supply
        # switches there, so the pulse delivers chi0 * width, not a step more or less
        s = SupplySchedule(dose_times=(start,), chi0=1.0, mode="pulse", width=0.1)
        ctrl = StepControl(t_end=2.0, dt_max=0.01, save_every=0.5)
        pde, oracle = pde_rows(s, ctrl), oracle_rows(s, 2.0, dt=0.01, save_every=0.5)
        for rows in (pde, oracle):
            assert [t for t, _ in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]
            assert abs(rows[-1][1] - 1.1) <= 1e-12

    def test_save_within_tolerance_below_t_end_merges_into_it(self):
        # the second save, 5e-9 below t_end 1e4 (tolerance 1e-8), is t_end's:
        # both integrators end at t_end, not short of it
        save_every = (1e4 - 5e-9) / 2
        p = ModelParams(a1=1.0, a2=1.0, b_tau=1.0, b_chi=1.0, d_chi=1.0, a_chi=0.0,
                        beta=0.0, delta=1e-4, mu=1e-4)
        pde = pde_rows(SupplySchedule(), StepControl(t_end=1e4, dt_max=500.0, save_every=save_every), p)
        oracle = oracle_rows(SupplySchedule(), 1e4, dt=500.0, save_every=save_every, p=p)
        assert [t for t, _ in pde] == [t for t, _ in oracle] == [0.0, save_every, 1e4]
        assert event_timeline(SupplySchedule(), 1e4, save_every) == [
            (save_every, True, 0.0, None), (1e4, True, 0.0, None)]


@st.composite
def budget_cases(draw):
    """A schedule whose doses or pulse edges fall within the landing tolerance
    of a save, of each other, of 0 and of t_end, or anywhere, with the save
    cadence (one may fall within the tolerance below t_end) and the steps."""
    t_end = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    tol = 1e-12 * max(1.0, t_end)  # the landing tolerance
    save_every = draw(st.sampled_from([None, 0.25, t_end / 3, (t_end - 0.5 * tol) / 2]))
    anchors = [0.0, t_end] + [k * save_every for k in range(1, 12)
                              if save_every is not None and k * save_every < t_end]
    near = lambda: draw(st.sampled_from(anchors)) + draw(st.floats(-2.0 * tol, 2.0 * tol))
    jump = draw(st.booleans())
    width = draw(st.one_of(st.floats(0.01, 0.6), st.sampled_from([0.25, t_end / 3])))
    times = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["start", "end", "pair", "any"]))
        if kind == "start":
            times.append(near())
        elif kind == "end" and not jump:  # the pulse ends near an anchor
            times.append(near() - width)
        elif kind == "pair" and times:  # within the tolerance of the previous dose
            times.append(times[-1] + draw(st.floats(0.0, 2.0 * tol)))
        else:
            times.append(draw(st.floats(0.0, t_end)))
    lowest = 0.0 if not jump else 1e-300  # a jump dose at 0 is rejected
    times = sorted({t for t in times if lowest <= t <= t_end})
    schedule = SupplySchedule(tuple(times), draw(st.floats(0.0, 2.0)), "jump" if jump else "pulse", width)
    return schedule, t_end, save_every, draw(st.sampled_from([0.01, 0.05, 0.3]))


class TestDosingBudget:
    @settings(max_examples=150, deadline=None)
    @given(budget_cases())
    def test_each_integrator_delivers_the_scheduled_dose(self, case):
        # with uptake, growth and switching off, the medium mass gains exactly
        # the scheduled dose: chi0 per jump dose, chi0 * (the part of each
        # pulse window inside [0, t_end]); merging moves an edge by at most
        # the tolerance (3e-12 here), so 8 edges of density 2 err by < 5e-11
        schedule, t_end, save_every, dt = case
        if schedule.mode == "jump":
            expected = schedule.chi0 * len(schedule.dose_times)
        else:
            expected = schedule.chi0 * sum(max(0.0, min(td + schedule.width, t_end) - td)
                                           for td in schedule.dose_times)
        pde = pde_rows(schedule, StepControl(t_end=t_end, dt_max=dt, save_every=save_every))
        oracle = oracle_rows(schedule, t_end, dt=dt, save_every=save_every)
        for rows in (pde, oracle):
            assert rows[-1][0] == t_end
            assert abs(rows[-1][1] - 1.0 - expected) <= 1e-10
        assert [t for t, _ in pde] == [t for t, _ in oracle]


@st.composite
def save_cases(draw):
    """A horizon (0 included), a save cadence (one whose last multiple may fall
    within the landing tolerance of t_end, or past it) and a schedule in either
    dose mode whose doses fall on a save, within the tolerance of one, between
    saves or past t_end."""
    t_end = draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0)))
    fraction = st.one_of(st.integers(1, 12).map(lambda n: 1.0 / n), st.floats(0.06, 1.5))
    save_every = draw(fraction) * t_end if t_end > 0 else draw(st.floats(0.1, 1.0))
    tol = 1e-12 * max(1.0, t_end)  # the landing tolerance
    anchors = [k * save_every for k in range(1, 30) if k * save_every < t_end + tol] or [0.0]
    times = []
    for _ in range(draw(st.integers(0, 4))):
        save, kind = draw(st.sampled_from(anchors)), draw(st.sampled_from(["on", "near", "between", "past"]))
        if kind == "on":
            times.append(save)
        elif kind == "near":
            times.append(save + draw(st.floats(-tol, tol)))
        elif kind == "between":
            times.append(save - draw(st.floats(0.1, 0.9)) * save_every)
        else:
            times.append(t_end + draw(st.one_of(st.floats(0.0, tol), st.floats(0.01, 1.0))))
    jump = draw(st.booleans())
    times = sorted({t for t in times if (t > 0.0 if jump else t >= 0.0)})  # a jump dose at 0 is rejected
    schedule = SupplySchedule(tuple(times), draw(st.floats(0.0, 1.0)), "jump" if jump else "pulse",
                              draw(st.floats(0.01, 0.5)))
    return schedule, t_end, save_every


class TestSaveTimes:
    @settings(max_examples=40, deadline=None)
    @given(save_cases())
    def test_save_times_are_the_times_of_every_record_of_a_run(self, case):
        # bit for bit: the states run hands its sinks, trajectory's times, the
        # t column of diagnostics.csv, and the length of trajectory.npy
        schedule, t_end, save_every = case
        times = np.array(save_times(schedule, t_end, save_every))
        ctrl = StepControl(t_end=t_end, dt_max=0.05, save_every=save_every)
        initial = {name + "0": InitializerSpec("uniform", uniform=v) for name, v in zip(FIELDS, (0.3, 0.1, 1.0, 0.5))}
        cfg = RunConfig(GRID, INERT, *NO_SWITCH, schedule, ctrl, initial, snapshots=True)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            (out / "run.cfg").write_text(echo_text(cfg))
            assert main(["run", "--config", str(out / "run.cfg"), "--out", tmp]) == 0
            written = [float(line.split(",")[0]) for line in (out / "diagnostics.csv").read_text().splitlines()[1:]]
            n_states = len(np.load(out / "trajectory.npy"))
        assert np.array(written).tobytes() == times.tobytes()
        assert n_states == len(times)
        assert np.array([t for t, _ in pde_rows(schedule, ctrl)]).tobytes() == times.tobytes()
        if t_end > 0:  # a Trajectory needs a save after t = 0
            traj = trajectory(cfg.build_initial(), INERT, NO_SWITCH, schedule, ctrl)
            assert traj.times.tobytes() == times.tobytes()


class TestScheduleValidation:
    @pytest.mark.parametrize("bad", [
        dict(dose_times=(1.0, math.nan)),
        dict(dose_times=(math.inf,)),
        dict(chi0=math.nan),
        dict(chi0=math.inf),
        dict(width=math.inf),
        dict(width=math.nan),
    ])
    def test_non_finite_input_is_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            SupplySchedule(**{"dose_times": (1.0,), "chi0": 1.0, "mode": "pulse", **bad})
