"""The process entry and the premise of its collector policy.

``cli.entrypoint`` runs a command with the cyclic garbage collector off and
freezes the heap before the interpreter exits. That is safe while a command
makes no reference cycles that grow with its steps: each call below must
leave the collector no more cyclic garbage at twice the horizon than at the
horizon, so a cycle made per step or per save fails here instead of growing
the memory of a long command.
"""

import gc
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import regenfv
from regenfv import (HomogeneousState, SweepConfig, compute_record, parse_config, residual_table, rk4_solve,
                     run, run_sweep)
from regenfv.cli import load_trajectory, main

CONFIG_1D = """
grid.dim = 1
grid.nx = 16
grid.lx = 1.0
params.a1 = 0.05
params.a2 = 0.05
params.b_tau = 0.5
params.b_chi = 0.5
params.d_chi = 0.1
params.a_chi = 0.6
params.beta = 0.8
params.delta = 0.7
params.mu = 0.9
rates.alpha1.kind = saturating
rates.alpha1.amplitude = 1.2
rates.alpha1.k_half = 0.5
schedule.dose_times = 0.01 0.03
schedule.chi0 = 0.5
schedule.mode = pulse
schedule.width = 0.005
c10.uniform = 0.5
c20.uniform = 0.05
chi0.uniform = 1.0
tau0.uniform = 0.4
control.t_end = 0.05
control.dt_max = 1e-3
control.save_every = 0.005
output.snapshots = 1
"""
CONFIG_2D = CONFIG_1D.replace("grid.dim = 1\ngrid.nx = 16\n",
                              "grid.dim = 2\ngrid.nx = 8\ngrid.ny = 6\ngrid.ly = 0.8\n").replace(
                              "c10.uniform = 0.5", "c10.cosine = 0.5 0.2 1 1")


def config(text, t_end):
    """The config of ``text`` with its horizon set to ``t_end``: twice the
    horizon, twice the steps and twice the saves."""
    cfg = parse_config(text)
    return replace(cfg, ctrl=replace(cfg.ctrl, t_end=t_end))


def found_after(call):
    """What ``gc.collect()`` finds after ``call()`` made with the collector off."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def march(text):
    def case(t_end, tmp_path):
        cfg = config(text, t_end)
        initial = cfg.build_initial()
        return lambda: run(initial, cfg.params, cfg.alphas, cfg.schedule, cfg.ctrl)
    return case


def sweep(t_end, tmp_path):
    cfg = config(CONFIG_1D, t_end)
    sweep_cfg = SweepConfig((0.5, 0.25), cfg.params, cfg.alphas, cfg.schedule, cfg.build_initial(), cfg.ctrl)
    return lambda: run_sweep(sweep_cfg)


def oracle(t_end, tmp_path):
    cfg = config(CONFIG_1D, t_end)
    y0 = HomogeneousState(0.0, 0.5, 0.05, 1.0, 0.4)
    return lambda: rk4_solve(y0, cfg.params, cfg.alphas, cfg.schedule, dt=1e-4, t_end=t_end,
                             save_every=cfg.ctrl.save_every)


def records(t_end, tmp_path):
    cfg = config(CONFIG_1D, t_end)
    initial = cfg.build_initial()

    def record_sink(state):
        compute_record(state, cfg.params, cfg.alphas, initial)

    return lambda: run(initial, cfg.params, cfg.alphas, cfg.schedule, cfg.ctrl, record_sink=record_sink)


def weakcheck(t_end, tmp_path):
    out = tmp_path / f"run-{t_end}"
    path = tmp_path / f"run-{t_end}.cfg"
    path.write_text(CONFIG_1D.replace("control.t_end = 0.05", f"control.t_end = {t_end}"))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    cfg = parse_config(path.read_text())
    return lambda: residual_table(load_trajectory(cfg, out), k_max=1)


@pytest.mark.parametrize("case", [march(CONFIG_1D), march(CONFIG_2D), sweep, oracle, records, weakcheck],
                         ids=["run-1d", "run-2d", "run_sweep", "rk4_solve", "compute_record",
                              "load_trajectory-residual_table"])
def test_cyclic_garbage_does_not_grow_with_the_horizon(case, tmp_path):
    found_after(case(0.05, tmp_path))  # first calls: lazy imports and caches
    once, twice = (found_after(case(t_end, tmp_path)) for t_end in (0.05, 0.1))
    assert twice <= once, (once, twice)


def test_a_cycle_made_per_save_is_seen(tmp_path):
    # the check above sees what it guards against
    def leaky(t_end):
        cfg = config(CONFIG_1D, t_end)
        initial = cfg.build_initial()

        def record_sink(state):
            cycle = []
            cycle.append(cycle)

        return lambda: run(initial, cfg.params, cfg.alphas, cfg.schedule, cfg.ctrl, record_sink=record_sink)

    assert found_after(leaky(0.1)) > found_after(leaky(0.05)) > 0


def command_argv(command, cfg, out):
    return [command, "--config", str(cfg), "--out", str(out)]


# registered before the command runs, so that it runs after it, at exit
HOOK = ("import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('collector', gc.isenabled(), gc.get_freeze_count()))\n"
        "sys.argv = ['regenfv', *sys.argv[1:]]\n"
        "runpy.run_module('regenfv.cli', run_name='__main__', alter_sys=True)\n")


class TestEntryPoint:
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_runs_with_the_collector_off_and_exits_frozen(self, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_1D)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(Path(regenfv.__file__).parents[1]), os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", HOOK, *command_argv(command, cfg, tmp_path / "entry")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        word, enabled, frozen = proc.stdout.split()
        assert (word, enabled) == ("collector", "False")
        assert int(frozen) > 0

        assert main(command_argv(command, cfg, tmp_path / "main")) == 0
        names = sorted(path.name for path in (tmp_path / "main").iterdir())
        assert sorted(path.name for path in (tmp_path / "entry").iterdir()) == names
        for name in names:
            assert (tmp_path / "entry" / name).read_bytes() == (tmp_path / "main" / name).read_bytes(), name

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, command, enabled):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_1D)
        frozen = gc.get_freeze_count()
        if not enabled:
            gc.disable()
        try:
            assert main(command_argv(command, cfg, tmp_path / "out")) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        finally:
            gc.enable()
