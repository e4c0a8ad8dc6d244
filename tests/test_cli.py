import os
import re
import signal
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from hypothesis.extra.numpy import arrays

from regenfv import (Grid, HomogeneousState, SimState, diagnostics, parse_config, rk4_solve, run,
                     trajectory)
from regenfv import cli
from regenfv.cli import load_trajectory, main
from regenfv.errors import DivergenceError

from references import snapshot_state

BASE = """
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
c10.uniform = 0.5
c20.uniform = 0.05
chi0.uniform = 1.0
tau0.uniform = 0.4
control.t_end = 1.0
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRunCommand:
    def test_zero_horizon_writes_header_plus_one_row(self, tmp_path):
        cfg = write_config(tmp_path, BASE.replace("control.t_end = 1.0",
                                                  "control.t_end = 0.0"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "diagnostics.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("t,mass_c1,mass_c2,mass_chi,mass_tau,min_c1,max_c1")
        assert (out / "config_echo.txt").exists()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"config error: {tmp_path / 'nope.cfg'}: No such file or directory\n"

    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"grid.dim = 1\xff\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {cfg} is not UTF-8 text:")

    def test_bad_value_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, BASE.replace("params.mu = 0.9", "params.mu = -1"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_no_admissible_step_is_numerical_failure(self, tmp_path, capsys):
        # finite beta whose reaction rate overflows: the stability bound is 0
        cfg = write_config(tmp_path, BASE.replace("params.beta = 0.8", "params.beta = 1e308"))
        with np.errstate(over="ignore"):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            "numerical failure: no finite positive timestep at t=0")

    def test_strict_with_corrupted_bound_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(diagnostics, "c1_mass_bound", lambda p, alpha2, initial: 1e-6)
        cfg = write_config(tmp_path, BASE.replace("control.t_end = 1.0", "control.t_end = 0.05"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 3
        assert capsys.readouterr().err == "certificate failure at t=0\n"

    def test_strict_on_healthy_run_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path, BASE.replace("control.t_end = 1.0",
                                                  "control.t_end = 0.05"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 0

    @pytest.mark.parametrize("command, extra", [("run", []), ("sweep", ["--eps-list", "0.5,0.25"])])
    def test_cosine_dipping_nonpositive_is_config_error(self, tmp_path, capsys, command, extra):
        # cosine data are checked on the cells they build, before the output directory is made
        cfg = write_config(tmp_path, BASE.replace("chi0.uniform = 1.0", "chi0.cosine = 0.5 0.6 1"))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 1
        assert re.fullmatch(r"config error: chi0 must be strictly positive, got -0\.09[0-9]*\n",
                            capsys.readouterr().err)
        assert not out.exists()

    def test_subnormal_horizon_without_save_every_is_config_error(self, tmp_path, capsys):
        # t_end/100 underflows to 0 there; the error names t_end, the key the file holds
        cfg = write_config(tmp_path, BASE.replace("control.t_end = 1.0", "control.t_end = 1e-322"))
        out = tmp_path / "out"
        assert main(["run", "--strict", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: line 18: control.t_end must be 0 or exceed the landing tolerance 1e-12, got 1e-322\n")
        assert not out.exists()

    @pytest.mark.parametrize("t_end", ["1e-13", "1e-12"])
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_horizon_within_landing_tolerance_is_config_error(self, tmp_path, capsys, command, t_end):
        # no event lands on such a horizon: every command refuses it at parse time,
        # as sweep does, instead of writing only the t = 0 row
        cfg = write_config(tmp_path, BASE.replace("control.t_end = 1.0", f"control.t_end = {t_end}"))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: line 18: control.t_end must be 0 or exceed the landing tolerance 1e-12, got {t_end}\n")
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE.replace("control.t_end = 1.0",
                                                  "control.t_end = 0.1"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "diagnostics.csv").read_bytes() == (out_b / "diagnostics.csv").read_bytes()

    def test_snapshots_written_at_save_points(self, tmp_path):
        text = BASE.replace("control.t_end = 1.0", "control.t_end = 0.1") + \
            "control.save_every = 0.05\noutput.snapshots = 1\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for idx in (0, 1, 2):
            snap = out / f"snap_{idx}.csv"
            assert snap.exists()
            header = snap.read_text().split("\n", 1)[0]
            assert header == "x,c1,c2,chi,tau"


def row_wise_snapshot_text(state):
    """The row-by-row ``repr(float(v))`` snapshot writer that the block writer
    replaced, kept as the reference for its bytes."""
    grid = state.grid
    coords = [c.ravel() for c in grid.coordinate_arrays()]
    header = ("x,y," if grid.dim == 2 else "x,") + "c1,c2,chi,tau"
    columns = coords + [row.ravel() for row in state.u]
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def check_trajectory_file(out, text):
    """``trajectory.npy`` holds the states of ``trajectory`` bit for bit, and
    each ``snap_<index>.csv`` holds the values of its row."""
    rc = parse_config(text)
    want = trajectory(rc.build_initial(), rc.params, rc.alphas, rc.schedule, rc.ctrl)
    got = np.load(out / "trajectory.npy")
    assert got.dtype.str == "<f8" and got.shape == want.u.shape
    assert got.tobytes() == want.u.tobytes()
    for index, state in enumerate(got):
        assert snapshot_state(out / f"snap_{index}.csv", rc.grid).tobytes() == state.tobytes()


# subnormals, the switches to exponent form (1e-5, 1e16), integers and -0.0
SNAPSHOT_VALUES = hst.one_of(
    hst.sampled_from([0.0, -0.0, 5e-324, 1.5e-310, 1e-5, 9.99e-5, 1e16, 9.99e15, 3.0, -7.0, 1e300]),
    hst.integers(-10**6, 10**6).map(float),
    hst.floats(allow_nan=False, allow_infinity=False),
)


class TestSnapshotWriter:
    @settings(max_examples=60, deadline=None)
    @given(hst.data())
    def test_blocks_equal_row_wise_repr(self, data):
        cells = tuple(data.draw(hst.lists(hst.integers(3, 9), min_size=1, max_size=2)))
        grid = Grid(cells, tuple(data.draw(hst.sampled_from([0.3, 1.0, 1.7])) for _ in cells))
        u = data.draw(arrays(np.float64, (4, *cells), elements=SNAPSHOT_VALUES))
        state = SimState(0.0, u, grid)
        expected = row_wise_snapshot_text(state)
        assert "".join(cli._snapshot_blocks(grid, u)) == expected
        # pieces that end inside the grid, on its last cell and past it
        with patch.object(cli, "_SNAPSHOT_BLOCK", data.draw(hst.integers(1, grid.n_cells + 1))):
            assert "".join(cli._snapshot_blocks(grid, u)) == expected


SNAPSHOT_RUN = BASE.replace("control.t_end = 1.0", "control.t_end = 0.03").replace(
    "c10.uniform = 0.5", "c10.cosine = 0.5 0.2 1").replace(
    "tau0.uniform = 0.4", "tau0.cosine = 0.4 0.1 2") + \
    "control.save_every = 0.005\noutput.snapshots = 1\ncontrol.dt_max = 2e-4\n"
SNAPSHOT_RUN_2D = SNAPSHOT_RUN.replace("grid.dim = 1", "grid.dim = 2").replace(
    "grid.nx = 16", "grid.nx = 7\ngrid.ny = 5\ngrid.ly = 0.7").replace(
    "cosine = 0.5 0.2 1", "cosine = 0.5 0.2 1 2").replace("cosine = 0.4 0.1 2", "cosine = 0.4 0.1 2 1")


class TestSnapshotWriterLanes:
    """Snapshots written by one forked child per save: the in-process bytes,
    at most LANES children alive at once, and no child left behind (nor a
    hung run) on any exit path."""

    LANES = 3  # fewer than the seven saves of SNAPSHOT_RUN, and not a divisor of them

    @pytest.fixture(autouse=True)
    def forks(self, monkeypatch):
        # every snapshot is above the gate, on any machine
        monkeypatch.setattr(cli, "_SNAPSHOT_BLOCK", 1)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: self.LANES)
        pids, alive, most = [], set(), 0
        real_fork, real_waitpid = os.fork, os.waitpid

        def fork():
            nonlocal most
            pid = real_fork()
            if pid:
                pids.append(pid)
                alive.add(pid)
                most = max(most, len(alive))
            return pid

        def waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            alive.discard(reaped[0])
            return reaped

        def hung(signum, frame):
            signal.alarm(1)  # again, should the clean-up wait as well
            raise TimeoutError("the run did not finish within 60 s")

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "waitpid", waitpid)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            yield pids
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert not alive and 0 < most <= self.LANES
        with pytest.raises(ChildProcessError):
            real_waitpid(-1, os.WNOHANG)

    def recorded_states(self, text):
        rc = parse_config(text)
        states = []
        with np.errstate(over="ignore"):
            try:
                run(rc.build_initial(), rc.params, rc.alphas, rc.schedule, rc.ctrl,
                    snapshot_sink=lambda index, state: states.append(state))
            except DivergenceError:
                pass
        return states

    @pytest.mark.parametrize("text", [SNAPSHOT_RUN, SNAPSHOT_RUN_2D], ids=["1d", "2d"])
    def test_bytes_equal_row_wise_repr(self, tmp_path, text, forks):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        states = self.recorded_states(text)
        assert len(states) == len(forks) == 7
        assert sorted(p.name for p in out.glob("snap_*.csv")) == sorted(f"snap_{i}.csv" for i in range(7))
        for index, state in enumerate(states):
            assert (out / f"snap_{index}.csv").read_text() == row_wise_snapshot_text(state)
        check_trajectory_file(out, text)

    # a huge jump dose at t = 0.0225 overflows the medium: exit 2 after five saves
    DIVERGING = SNAPSHOT_RUN + "schedule.mode = jump\nschedule.dose_times = 0.0225\nschedule.chi0 = 1e308\n"

    def test_diverging_run_keeps_its_snapshots(self, tmp_path, capsys, forks):
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            assert main(["run", "--config", str(write_config(tmp_path, self.DIVERGING)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.endswith("; last save t=0.02\n")
        states = self.recorded_states(self.DIVERGING)
        assert len(states) == len(forks) == 5
        assert len(list(out.glob("snap_*.csv"))) == 5
        for index, state in enumerate(states):
            assert (out / f"snap_{index}.csv").read_text() == row_wise_snapshot_text(state)
        # and its diagnostics up to the last save, one row per snapshot
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == ",".join(diagnostics.DiagnosticsRecord.CSV_COLUMNS)
        assert [float(line.split(",")[0]) for line in lines[1:]] == [state.t for state in states]
        assert (out / "config_echo.txt").exists()
        # trajectory.npy: a header that plans all seven saves, then the five made, and weakcheck refuses it
        with (out / "trajectory.npy").open("rb") as fh:
            assert np.lib.format.read_magic(fh) == (1, 0)
            assert np.lib.format.read_array_header_1_0(fh) == ((7, 4, 16), False, np.dtype("<f8"))
            assert fh.read() == b"".join(state.u.tobytes() for state in states)
        cfg = tmp_path / "run.cfg"
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: malformed {out / 'trajectory.npy'}: ")

    def test_run_error_comes_before_a_failed_write(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "snap_1.csv").mkdir(parents=True)
        with np.errstate(over="ignore"):
            assert main(["run", "--config", str(write_config(tmp_path, self.DIVERGING)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("numerical failure:")

    def test_strict_failure(self, tmp_path, capsys, monkeypatch, forks):
        monkeypatch.setattr(diagnostics, "c1_mass_bound", lambda p, alpha2, initial: 1e-6)
        out = tmp_path / "out"
        args = ["run", "--config", str(write_config(tmp_path, SNAPSHOT_RUN)), "--out", str(out), "--strict"]
        assert main(args) == 3
        assert capsys.readouterr().err == "certificate failure at t=0\n"
        assert len(list(out.glob("snap_*.csv"))) == len(forks) == 7

    def test_failed_write_is_config_error(self, tmp_path, capsys, forks):
        check_failed_write(tmp_path, capsys)
        assert len(forks) == 7  # every save is tried after a reaped one has failed

    def test_many_failed_writes_report_the_first(self, tmp_path, capsys, forks):
        # 31 saves, each onto a folder: every save forks its writer, and the lowest index is reported
        text = SNAPSHOT_RUN.replace("control.save_every = 0.005", "control.save_every = 0.001")
        out = tmp_path / "out"
        for index in range(31):
            (out / f"snap_{index}.csv").mkdir(parents=True)
        assert main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: cannot write snapshot {out / 'snap_0.csv'}: Is a directory\n")
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 1 + 31
        assert len(forks) == 31

    def test_writer_failing_without_an_errno(self, tmp_path, capsys, monkeypatch, forks):
        def broken(grid, u):
            raise RuntimeError("not an OSError")

        monkeypatch.setattr(cli, "_snapshot_blocks", broken)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, SNAPSHOT_RUN)), "--out", str(out)]) == 1
        assert re.fullmatch(r"config error: a snapshot writer failed \(wait status \d+\); "
                            rf"the snap_\*\.csv files in {re.escape(str(out))} may be incomplete\n",
                            capsys.readouterr().err)
        assert len(forks) == 7


def check_failed_write(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "snap_1.csv").mkdir(parents=True)
    assert main(["run", "--config", str(write_config(tmp_path, SNAPSHOT_RUN)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: cannot write snapshot {out / 'snap_1.csv'}: Is a directory\n")
    # the run went on to its end: every other snapshot, every row and every state
    assert sorted(p.name for p in out.glob("snap_*.csv") if p.is_file()) == [
        f"snap_{index}.csv" for index in (0, 2, 3, 4, 5, 6)]
    assert len((out / "diagnostics.csv").read_text().splitlines()) == 1 + 7
    assert np.load(out / "trajectory.npy").shape == (7, 4, 16)


def test_failed_write_in_process_is_config_error(tmp_path, capsys):
    check_failed_write(tmp_path, capsys)


class TestOutputLocation:
    """An --out that cannot be a folder is a config error before any work."""

    COMMANDS = [("run", []), ("sweep", ["--eps-list", "0.5,0.25"]), ("weakcheck", []), ("oracle", [])]

    @pytest.mark.parametrize("command, extra", COMMANDS)
    @pytest.mark.parametrize("out, message", [
        (None, "the following arguments are required: --out"), ("", "--out needs a directory name"),
    ], ids=["absent", "empty"])
    def test_every_command_needs_an_out_folder(self, tmp_path, capsys, monkeypatch, command, extra, out, message):
        # no config key names the output folder: without one on --out a command writes nothing
        cfg = write_config(tmp_path, BASE + "output.snapshots = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", str(cfg), *extra, *([] if out is None else ["--out", out])]) == 1
        assert capsys.readouterr().err.endswith(f"config error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command, extra", COMMANDS)
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_existing_file_is_config_error(self, tmp_path, capsys, monkeypatch, command, extra, below):
        def no_work(*args, **kwargs):
            raise AssertionError("the command started its work")

        # the oracle command calls the loop behind rk4_solve, so both are patched
        for module, name in (("regenfv.stepping", "run"), ("regenfv.sweep", "run_sweep"),
                             ("regenfv.oracle", "rk4_solve"), ("regenfv.oracle", "_rk4"),
                             ("regenfv.cli", "load_trajectory")):
            monkeypatch.setattr(f"{module}.{name}", no_work)
        cfg = write_config(tmp_path, BASE + "output.snapshots = 1\n")
        blocker = tmp_path / "taken"
        blocker.write_text("not a folder\n")
        out = blocker / "sub" if below else blocker
        assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 1
        assert capsys.readouterr().err == (
            f"config error: output directory {out}: {blocker} exists and is not a directory\n")
        assert blocker.read_text() == "not a folder\n"


@pytest.mark.parametrize("command, name", [
    ("run", "diagnostics.csv"), ("run", "config_echo.txt"), ("run", "trajectory.npy"), ("sweep", "sweep.csv"),
    ("oracle", "oracle.csv"), ("weakcheck", "weakform.csv"), ("weakcheck", "diagnostics.csv"),
    ("weakcheck", "trajectory.npy"), ("weakcheck", "config_echo.txt"),
])
def test_file_that_is_a_folder_is_config_error(tmp_path, capsys, command, name):
    # weakcheck reads the folder of a finished run, with that one file made a folder
    text = BASE.replace("control.t_end = 1.0", "control.t_end = 0.02") + \
        "control.save_every = 0.005\noutput.snapshots = 1\n"
    cfg, out = write_config(tmp_path, text), tmp_path / "out"
    if command == "weakcheck":
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        (out / name).unlink(missing_ok=True)
    (out / name).mkdir(parents=True)
    extra = ["--eps-list", "0.5,0.25"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 1
    assert capsys.readouterr().err == f"config error: {out / name}: Is a directory\n"


class TestBadInputFiles:
    """Malformed outside files are config errors (exit 1), not tracebacks."""

    def run_with_c10_file(self, tmp_path, capsys, content):
        (tmp_path / "c10.txt").write_text(content)
        text = BASE.replace("c10.uniform = 0.5", f"c10.file = {tmp_path / 'c10.txt'}")
        cfg = write_config(tmp_path, text)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    def test_missing_initializer_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("c10.uniform = 0.5",
                                                  f"c10.file = {tmp_path / 'absent.txt'}"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: c10: cannot read") and "absent.txt" in err
        assert not (tmp_path / "o").exists()  # validated before the output directory is made

    def test_initializer_file_with_wrong_value_count(self, tmp_path, capsys):
        code, err = self.run_with_c10_file(tmp_path, capsys, "0.5\n" * 15)
        assert code == 1
        assert err.startswith("config error: c10:") and "15 values, the grid has 16" in err

    def test_initializer_file_with_nan(self, tmp_path, capsys):
        code, err = self.run_with_c10_file(tmp_path, capsys, "0.5\n" * 7 + "nan\n" + "0.5\n" * 8)
        assert code == 1
        assert err.startswith("config error: c10:") and "non-finite" in err

    @pytest.mark.filterwarnings("error")  # one config error line, no numpy warning before it
    @pytest.mark.parametrize("spec", ["inf -inf 1", "1e308 1e308 0", "nan 0.2 1"])
    def test_cosine_with_non_finite_cells(self, tmp_path, capsys, spec):
        cfg = write_config(tmp_path, BASE.replace("c10.uniform = 0.5", f"c10.cosine = {spec}"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "config error: c10: field contains non-finite values\n"
        assert not (tmp_path / "o").exists()

    def snapshot_run(self, tmp_path):
        text = BASE.replace("control.t_end = 1.0", "control.t_end = 0.02") + \
            "control.save_every = 0.01\noutput.snapshots = 1\ncontrol.dt_max = 2e-4\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        return cfg, out

    def test_truncated_snapshot(self, tmp_path, capsys):
        cfg, out = self.snapshot_run(tmp_path)
        npy = out / "trajectory.npy"
        npy.write_bytes(npy.read_bytes()[:-40])
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: malformed {npy}: ")

    def test_snapshot_with_nan(self, tmp_path, capsys):
        cfg, out = self.snapshot_run(tmp_path)
        npy = out / "trajectory.npy"
        u = np.load(npy)
        u[2, 3, 5] = np.nan
        np.save(npy, u)
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {npy} holds non-finite values in save 2\n"

    @pytest.mark.parametrize("keep", [2, 4], ids=["fewer-times", "more-times"])
    def test_states_of_another_shape(self, tmp_path, capsys, keep):
        # diagnostics.csv gives the times: one row less, or one more, than trajectory.npy's three states
        cfg, out = self.snapshot_run(tmp_path)
        diag = out / "diagnostics.csv"
        lines = diag.read_text().splitlines()
        diag.write_text("\n".join((lines + [lines[-1].replace("0.02,", "0.03,", 1)])[:1 + keep]) + "\n")
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"config error: {out / 'trajectory.npy'} holds <f8 states of shape "
                                           f"(3, 4, 16), expected <f8 states of shape ({keep}, 4, 16)\n")

    def test_states_of_another_dtype(self, tmp_path, capsys):
        cfg, out = self.snapshot_run(tmp_path)
        npy = out / "trajectory.npy"
        np.save(npy, np.load(npy).astype(np.float32))
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"config error: {npy} holds <f4 states of shape (3, 4, 16), "
                                           f"expected <f8 states of shape (3, 4, 16)\n")

    def test_malformed_diagnostics(self, tmp_path, capsys):
        cfg, out = self.snapshot_run(tmp_path)
        diag = out / "diagnostics.csv"
        diag.write_text(diag.read_text() + "oops,1\n")
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: malformed")

    def test_nan_time_in_diagnostics(self, tmp_path, capsys):
        cfg, out = self.snapshot_run(tmp_path)
        diag = out / "diagnostics.csv"
        lines = diag.read_text().split("\n")
        lines[2] = "nan" + lines[2][lines[2].index(","):]
        diag.write_text("\n".join(lines))
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1
        assert "increase strictly" in capsys.readouterr().err

    def test_snapshots_from_longer_domain(self, tmp_path, capsys):
        cfg, out = self.snapshot_run(tmp_path)
        other = write_config(tmp_path, cfg.read_text().replace("grid.lx = 1.0", "grid.lx = 3"),
                             name="long.cfg")
        assert main(["weakcheck", "--config", str(other), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {out / 'config_echo.txt'}: the run's grid (grid.dim = 1, grid.nx = 16, grid.lx = 1.0) "
            "is not the configured grid (grid.dim = 1, grid.nx = 16, grid.lx = 3.0)\n")
        assert not (out / "weakform.csv").exists()

    def test_snapshots_from_other_grid_shape(self, tmp_path, capsys):
        # 8x6 and 12x4 hold the same number of cells
        text = BASE.replace("grid.dim = 1", "grid.dim = 2").replace(
            "grid.lx = 1.0", "grid.lx = 1.0\ngrid.ny = 6\ngrid.ly = 1.0").replace(
            "grid.nx = 16", "grid.nx = 8").replace("control.t_end = 1.0", "control.t_end = 0.02") + \
            "control.save_every = 0.01\noutput.snapshots = 1\ncontrol.dt_max = 2e-4\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        other = write_config(tmp_path, text.replace("grid.nx = 8", "grid.nx = 12")
                             .replace("grid.ny = 6", "grid.ny = 4"), name="other.cfg")
        assert main(["weakcheck", "--config", str(other), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {out / 'config_echo.txt'}: the run's grid (grid.dim = 2, grid.nx = 8, grid.lx = 1.0, "
            "grid.ny = 6, grid.ly = 1.0) is not the configured grid (grid.dim = 2, grid.nx = 12, grid.lx = 1.0, "
            "grid.ny = 4, grid.ly = 1.0)\n")
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 0

    def test_single_snapshot_is_config_error(self, tmp_path, capsys):
        text = BASE.replace("control.t_end = 1.0", "control.t_end = 0.0") + "output.snapshots = 1\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1
        assert "at least two snapshots" in capsys.readouterr().err


class TestOracleCommand:
    def test_oracle_agrees_with_run_on_uniform_data(self, tmp_path):
        text = BASE.replace("c10.uniform = 0.5", "c10.uniform = 0.6") \
                   .replace("c20.uniform = 0.05", "c20.uniform = 0.1") \
                   .replace("tau0.uniform = 0.4", "tau0.uniform = 0.2") \
                   .replace("control.t_end = 1.0", "control.t_end = 0.2") + \
            "control.dt_max = 1e-4\ncontrol.cfl_safety = 1.0\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(cfg), "--out", str(out),
                     "--dt", "1e-5"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

        oracle_lines = (out / "oracle.csv").read_text().strip().split("\n")
        assert oracle_lines[0] == "t,c1,c2,chi,tau"
        o_final = [float(v) for v in oracle_lines[-1].split(",")]
        diag_lines = (out / "diagnostics.csv").read_text().strip().split("\n")
        header = diag_lines[0].split(",")
        final = dict(zip(header, (float(v) for v in diag_lines[-1].split(","))))
        # uniform run: mass over |Omega|=1 equals the pointwise value
        for i, name in enumerate(("mass_c1", "mass_c2", "mass_chi", "mass_tau"), start=1):
            assert abs(final[name] - o_final[i]) <= 1e-4 * max(abs(o_final[i]), 1e-30)

    @pytest.mark.parametrize("dt", ["nan", "inf", "-inf", "0", "-1"])
    def test_bad_dt_is_config_error(self, tmp_path, capsys, dt):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["oracle", "--config", str(cfg), "--out", str(out), f"--dt={dt}"]) == 1
        assert capsys.readouterr().err.startswith("config error: --dt must be finite and positive")
        assert not out.exists()

    def test_default_dt_is_a_thousandth_of_t_end(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["oracle", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["oracle", "--config", str(cfg), "--out", str(b), "--dt", "0.001"]) == 0
        assert (a / "oracle.csv").read_bytes() == (b / "oracle.csv").read_bytes()

    def test_nonuniform_initial_is_config_error(self, tmp_path):
        text = BASE.replace("chi0.uniform = 1.0", "chi0.cosine = 1.0 0.2 1")
        cfg = write_config(tmp_path, text)
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("schedule", [
        "schedule.mode = jump\nschedule.dose_times = 0.05, 0.11\nschedule.chi0 = 0.5\n",
        "schedule.mode = pulse\nschedule.width = 0.03\nschedule.dose_times = 0.0, 0.05\nschedule.chi0 = 0.5\n",
    ], ids=["jump", "pulse"])
    def test_oracle_csv_is_rk4_solve_bit_for_bit(self, tmp_path, schedule):
        # the command writes the rows of the loop behind rk4_solve: the same numbers, bit for bit
        text = BASE.replace("control.t_end = 1.0", "control.t_end = 0.2") + \
            "control.save_every = 0.025\n" + schedule
        cfg_path, out = write_config(tmp_path, text), tmp_path / "out"
        assert main(["oracle", "--config", str(cfg_path), "--out", str(out), "--dt", "3e-3"]) == 0
        lines = (out / "oracle.csv").read_text().splitlines()
        assert lines[0] == "t,c1,c2,chi,tau"
        written = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

        cfg = parse_config(text)
        y0 = HomogeneousState(0.0, *(cfg.initial[s].uniform for s in ("c10", "c20", "chi0", "tau0")))
        traj = rk4_solve(y0, cfg.params, cfg.alphas, cfg.schedule, dt=3e-3, t_end=cfg.ctrl.t_end,
                         domain_measure=cfg.grid.measure, save_every=cfg.ctrl.save_every)
        expected = np.column_stack((traj.times, traj.values))
        assert written.shape == expected.shape == (9, 5)
        assert written.tobytes() == expected.tobytes()

    def test_stiff_oracle_exits_two(self, tmp_path):
        # save_every must not cap the step below the stiff dt
        text = BASE.replace("params.beta = 0.8", "params.beta = 10.0") \
                   .replace("c10.uniform = 0.5", "c10.uniform = 2.0") + \
            "control.save_every = 1.0\n"
        cfg = write_config(tmp_path, text)
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--dt", "1.0"]) == 2


class TestSweepCommand:
    def test_sweep_writes_report(self, tmp_path):
        text = BASE.replace("control.t_end = 1.0", "control.t_end = 0.05") + \
            "control.dt_max = 2e-4\ncontrol.save_every = 0.01\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--eps-list", "0.5,0.25"]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0].startswith("eps,pair_distance_c1")
        assert len(lines) == 3

    def test_sweep_without_eps_list_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("eps_list", ["0.1,abc", "0.1,0.5"])
    def test_bad_eps_list_is_config_error(self, tmp_path, eps_list):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--eps-list", eps_list]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("t_end, message", [
        ("0.0", "a sweep needs a save after t=0: t_end must exceed 1e-12, got 0.0"),
        ("1e-13", "line 18: control.t_end must be 0 or exceed the landing tolerance 1e-12, got 1e-13"),
    ], ids=["0.0", "1e-13"])
    def test_horizon_without_a_save_is_config_error(self, tmp_path, capsys, t_end, message):
        # at t_end <= 1e-12 the event timeline holds no save: rejected before any step,
        # by the parser where t_end > 0 and by the sweep at t_end = 0
        cfg = write_config(tmp_path, BASE.replace("control.t_end = 1.0", f"control.t_end = {t_end}"))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--eps-list", "0.5,0.25"]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestWeakcheckCommand:
    def test_weakcheck_on_stored_snapshots(self, tmp_path):
        text = BASE.replace("control.t_end = 1.0", "control.t_end = 0.1") + \
            "control.save_every = 0.01\noutput.snapshots = 1\ncontrol.dt_max = 2e-4\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "weakform.csv").read_text().strip().split("\n")
        assert lines[0] == "equation,k,m,residual,level"
        # 4 equations x 4 modes (k <= 3) x 2 powers (1 and 2)
        assert len(lines) == 1 + 4 * 4 * 2
        values = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(v < 0.05 for v in values)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_reader_returns_the_recorded_trajectory(self, tmp_path, dim):
        # the states written in process read back bit for bit as the in-memory recording
        text = BASE.replace("control.t_end = 1.0", "control.t_end = 0.03").replace(
            "c10.uniform = 0.5", "c10.cosine = 0.5 0.2 1 " + "2" * (dim - 1)).replace(
            "tau0.uniform = 0.4", "tau0.cosine = 0.4 0.1 2 " + "1" * (dim - 1)) + \
            "control.save_every = 0.01\noutput.snapshots = 1\ncontrol.dt_max = 2e-4\n"
        if dim == 2:
            text = text.replace("grid.dim = 1", "grid.dim = 2").replace(
                "grid.lx = 1.0", "grid.lx = 1.3\ngrid.ny = 5\ngrid.ly = 0.7").replace(
                "grid.nx = 16", "grid.nx = 7")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rc = parse_config(text)
        want = trajectory(rc.build_initial(), rc.params, rc.alphas, rc.schedule, rc.ctrl)
        got = load_trajectory(rc, out)
        assert got.u.shape == (4, 4, *rc.grid.shape)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.u.tobytes() == want.u.tobytes()
        check_trajectory_file(out, text)

    def test_weakcheck_without_snapshots_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "output.snapshots = 1\n")
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1

    def test_weakcheck_on_absent_folder_creates_none(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE + "output.snapshots = 1\n")
        out = tmp_path / "absent"
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: no diagnostics.csv in {out}")
        assert not out.exists()

    def test_weakcheck_names_snapshots_turned_off(self, tmp_path, capsys):
        # the run's files are all there; the config is what has no snapshots
        cfg = write_config(tmp_path, BASE.replace("control.t_end = 1.0", "control.t_end = 0.02"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1
        assert "config sets output.snapshots = 0\n" in capsys.readouterr().err
        assert not (out / "weakform.csv").exists()


class TestUsageErrors:
    """Bad or missing flags are configuration errors (exit 1): exit 2 means numerical failure."""

    @pytest.mark.parametrize("argv, message", [
        # weakcheck has no test-set flags: it always uses k <= 3 per axis and powers 1 and 2
        pytest.param(["weakcheck", "--config", "{cfg}", "--out", "o", "--psi-kmax", "abc"],
                     "unrecognized arguments: --psi-kmax abc", id="removed --psi-kmax abc"),
        (["oracle", "--config", "{cfg}", "--out", "o", "--dt", "x"], "argument --dt: invalid float value: 'x'"),
        (["run", "--out", "o"], "the following arguments are required: --config"),
        # only run has certificates for --strict to check
        (["sweep", "--config", "{cfg}", "--out", "o", "--eps-list", "0.5", "--strict"],
         "unrecognized arguments: --strict"),
        (["weakcheck", "--config", "{cfg}", "--out", "o", "--strict"], "unrecognized arguments: --strict"),
        (["oracle", "--config", "{cfg}", "--out", "o", "--strict"], "unrecognized arguments: --strict"),
        *(pytest.param(["weakcheck", "--config", "{cfg}", "--out", "o", flag, value],
                       f"unrecognized arguments: {flag} {value}", id=f"removed {flag} {value or 'empty'}")
          for flag, value in [("--psi-m", "abc"), ("--psi-m", "0"), ("--psi-m", ""), ("--psi-kmax", "-1")]),
    ])
    def test_usage_error_exits_one(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path, BASE)
        assert main([arg.format(cfg=cfg) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: regenfv ")
        assert f"config error: {message}\n" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["run", "--help"])
        assert stop.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_top_level_help_is_plain_text_naming_the_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse rewraps the epilog
        assert "``" not in text
        assert ("exit codes: 0 success, 1 configuration or usage error, 2 numerical failure, "
                "3 certificate failure under run --strict") in text
