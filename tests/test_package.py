"""The package namespace: what ``from regenfv import *`` binds, what each public
name is, and which modules each command loads."""

import os
import subprocess
import sys
import typing
from pathlib import Path
from types import ModuleType
from typing import Optional

import pytest

import regenfv
from regenfv.config import StepControl


def test_star_import_binds_the_api_and_no_submodule():
    namespace = {}
    exec("from regenfv import *", namespace)
    assert [name for name, value in namespace.items() if isinstance(value, ModuleType)] == []
    assert {"run", "Grid", "rk4_solve", "residual_table", "ConfigError"} <= namespace.keys()
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(regenfv.__all__)


class TestLazyNamespace:
    def test_public_names_are_pinned(self):
        assert regenfv.__all__ == [
            "RunConfig", "echo_text", "parse_config", "EntropyParams", "Grid", "StepControl",
            "DiagnosticsRecord", "MonitorReport", "compute_record", "dissipation_D", "entropy_E",
            "entropy_inequality_monitor",
            "ConfigError", "DivergenceError", "StabilityError", "StiffnessError",
            "gradient_components", "gradient_sq", "integrate", "laplacian_neumann",
            "ModelParams", "RateFunction", "SupplySchedule", "event_timeline",
            "HomogeneousState", "OracleTrajectory", "rk4_solve",
            "SimState", "run", "trajectory",
            "SweepConfig", "SweepReport", "compare_to_limit", "run_sweep",
            "TestFunction", "Trajectory", "residual", "residual_table",
        ]

    @pytest.mark.parametrize("name", ["eval_rate", "reaction_rhs", "taxis_divergence", "stable_dt",
                                      "TrajectoryRecorder"])
    def test_removed_names_raise_attribute_error(self, name):
        with pytest.raises(AttributeError, match=repr(name)):
            getattr(regenfv, name)

    def test_dir_lists_every_public_name(self):
        assert set(regenfv.__all__) <= set(dir(regenfv))

    def test_each_name_is_the_object_of_its_defining_module(self):
        for name in regenfv.__all__:
            value = getattr(regenfv, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert regenfv.run is regenfv.stepping.run
        assert regenfv.StepControl is StepControl

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            regenfv.no_such_name

    def test_config_resolves_the_hints_of_the_sections_it_parses(self):
        assert typing.get_type_hints(StepControl)["save_every"] == Optional[float]


CONFIG = """
grid.dim = 1
grid.nx = 8
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
control.t_end = 0.01
control.save_every = 0.005
output.snapshots = 1
"""
# the regenfv modules loaded, and numpy if it is
REPORT = ("; print(' '.join(sorted(m for m in sys.modules "
          "if m.startswith('regenfv') or m == 'numpy')))")
PARSE = {"regenfv", "regenfv.config", "regenfv.errors", "regenfv.model"}
SETUP = PARSE | {"regenfv.grid", "regenfv.stepping", "numpy"}
CLI_CORE = PARSE | {"regenfv.cli"}


class TestModulesPerCommand:
    """Each command imports only the modules it runs: a new top-level import
    that pulls in another command's modules, or numpy where no array is
    built, fails here."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("modules")
        (path / "run.cfg").write_text(CONFIG)
        return path

    def loaded(self, workdir, code):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(Path(regenfv.__file__).parents[1]), os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", "import sys" + code + REPORT], cwd=workdir,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def check(self, workdir, code, expected):
        loaded = self.loaded(workdir, code)
        assert loaded == expected, (f"unexpected: {sorted(loaded - expected)}, "
                                    f"missing: {sorted(expected - loaded)}")

    def command(self, name, *extra):
        argv = [name, "--config", "run.cfg", "--out", "out", *extra]
        return f"; from regenfv.cli import main; assert main({argv!r}) == 0"

    def test_import_loads_no_submodule(self, workdir):
        self.check(workdir, "; import regenfv", {"regenfv"})

    def test_parse_config_loads_no_numpy(self, workdir):
        self.check(workdir, "; import regenfv; regenfv.parse_config(open('run.cfg').read())", PARSE)

    def test_help_and_usage_error_load_no_numpy(self, workdir):
        self.check(workdir, "; import contextlib, io; from regenfv.cli import main\n"
                   "try:\n    with contextlib.redirect_stdout(io.StringIO()): main(['--help'])\n"
                   "except SystemExit as exc: assert exc.code == 0", CLI_CORE)
        self.check(workdir, "; from regenfv.cli import main; assert main(['run']) == 1", CLI_CORE)

    def test_setup(self, workdir):
        self.check(workdir, "; import regenfv; "
                   "regenfv.parse_config(open('run.cfg').read()).build_initial()", SETUP)

    def test_run_then_weakcheck(self, workdir):
        self.check(workdir, self.command("run"), SETUP | {"regenfv.cli", "regenfv.diagnostics"})
        self.check(workdir, self.command("weakcheck", "--psi-kmax", "1"),
                   CLI_CORE | {"regenfv.grid", "regenfv.weakform", "numpy"})

    def test_oracle(self, workdir):
        self.check(workdir, self.command("oracle"), CLI_CORE | {"regenfv.oracle"})

    def test_sweep(self, workdir):
        self.check(workdir, self.command("sweep", "--eps-list", "0.5,0.25"),
                   SETUP | {"regenfv.cli", "regenfv.diagnostics", "regenfv.sweep",
                            "regenfv.weakform"})
