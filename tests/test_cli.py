import numpy as np
import pytest

from regenfv import diagnostics
from regenfv.cli import main

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

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 1

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

    def test_initializer_file_with_wrong_value_count(self, tmp_path, capsys):
        code, err = self.run_with_c10_file(tmp_path, capsys, "0.5\n" * 15)
        assert code == 1
        assert err.startswith("config error: c10:") and "15 values, the grid has 16" in err

    def test_initializer_file_with_nan(self, tmp_path, capsys):
        code, err = self.run_with_c10_file(tmp_path, capsys, "0.5\n" * 7 + "nan\n" + "0.5\n" * 8)
        assert code == 1
        assert err.startswith("config error: c10:") and "non-finite" in err

    def snapshot_run(self, tmp_path):
        text = BASE.replace("control.t_end = 1.0", "control.t_end = 0.02") + \
            "control.save_every = 0.01\noutput.snapshots = 1\ncontrol.dt_max = 2e-4\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        return cfg, out

    def test_truncated_snapshot(self, tmp_path, capsys):
        cfg, out = self.snapshot_run(tmp_path)
        snap = out / "snap_1.csv"
        snap.write_text(snap.read_text()[:-40])
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "snap_1.csv" in err

    def test_snapshot_with_nan(self, tmp_path, capsys):
        cfg, out = self.snapshot_run(tmp_path)
        snap = out / "snap_2.csv"
        lines = snap.read_text().split("\n")
        lines[3] = ",".join(lines[3].split(",")[:-1] + ["nan"])
        snap.write_text("\n".join(lines))
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "snap_2.csv holds non-finite" in err

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
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "snap_0.csv has cell centers" in err
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
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "snap_0.csv has cell centers" in err
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
        assert not (out / "oracle.csv").exists()

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


class TestWeakcheckCommand:
    def test_weakcheck_on_stored_snapshots(self, tmp_path):
        text = BASE.replace("control.t_end = 1.0", "control.t_end = 0.1") + \
            "control.save_every = 0.01\noutput.snapshots = 1\ncontrol.dt_max = 2e-4\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out),
                     "--psi-kmax", "2", "--psi-m", "1,2"]) == 0
        lines = (out / "weakform.csv").read_text().strip().split("\n")
        assert lines[0] == "equation,k,m,residual,level"
        # 4 equations x 3 modes x 2 powers
        assert len(lines) == 1 + 4 * 3 * 2
        values = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(v < 0.05 for v in values)

    def test_weakcheck_without_snapshots_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out)]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--psi-m", "abc"], "malformed --psi-m 'abc'"),
        (["--psi-m", "0"], "--psi-m needs temporal exponents of at least 1"),
        (["--psi-m", ""], "--psi-m needs temporal exponents of at least 1"),
        (["--psi-kmax", "-1"], "--psi-kmax must be nonnegative"),
    ])
    def test_bad_test_function_flags_are_config_errors(self, tmp_path, capsys, flags, message):
        text = BASE.replace("control.t_end = 1.0", "control.t_end = 0.02") + \
            "control.save_every = 0.01\noutput.snapshots = 1\ncontrol.dt_max = 2e-4\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["weakcheck", "--config", str(cfg), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (out / "weakform.csv").exists()


class TestUsageErrors:
    """Bad or missing flags are configuration errors (exit 1): exit 2 means numerical failure."""

    @pytest.mark.parametrize("argv, message", [
        (["weakcheck", "--config", "{cfg}", "--psi-kmax", "abc"],
         "argument --psi-kmax: invalid int value: 'abc'"),
        (["oracle", "--config", "{cfg}", "--dt", "x"], "argument --dt: invalid float value: 'x'"),
        (["run", "--out", "o"], "the following arguments are required: --config"),
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
