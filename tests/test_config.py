import math

import numpy as np
import pytest

from regenfv import ConfigError, parse_config
from regenfv.config import echo_text

MINIMAL = """
# smallest complete configuration
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


class TestParsing:
    def test_minimal_defaults_made_explicit(self):
        cfg = parse_config(MINIMAL)
        assert cfg.params.theta == 4.0
        assert cfg.entropy.zeta == 1.0
        assert cfg.ctrl.cfl_safety == 0.5
        echoed = echo_text(cfg)
        assert "params.theta = 4.0" in echoed
        assert "entropy.zeta = 1.0" in echoed
        assert "control.cfl_safety = 0.5" in echoed

    def test_negative_beta_names_line_and_rule(self):
        text = MINIMAL.replace("params.beta = 0.8", "params.beta = -1")
        with pytest.raises(ConfigError, match=r"line \d+: params.beta must be nonnegative"):
            parse_config(text)

    def test_zero_tau0_cites_positivity_assumption(self):
        text = MINIMAL.replace("tau0.uniform = 0.4", "tau0.uniform = 0")
        with pytest.raises(ConfigError, match="tau0 must be strictly positive"):
            parse_config(text)

    def test_unknown_key_rejected_with_line(self):
        text = MINIMAL + "params.gamma = 1.0\n"
        with pytest.raises(ConfigError, match=r"line \d+: unknown key 'params.gamma'"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = MINIMAL + "params.mu = 0.5\n"
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(text)

    def test_missing_required_key(self):
        text = MINIMAL.replace("control.t_end = 1.0", "")
        with pytest.raises(ConfigError, match="missing required key control.t_end"):
            parse_config(text)

    def test_malformed_number_names_line(self):
        text = MINIMAL.replace("params.mu = 0.9", "params.mu = fast")
        with pytest.raises(ConfigError, match=r"line \d+: malformed number"):
            parse_config(text)

    def test_negative_c10_rejected(self):
        text = MINIMAL.replace("c10.uniform = 0.5", "c10.uniform = -0.5")
        with pytest.raises(ConfigError, match="c10 must be nonnegative"):
            parse_config(text)

    def test_cosine_dipping_nonpositive_rejected_for_chi(self):
        text = MINIMAL.replace("chi0.uniform = 1.0", "chi0.cosine = 0.5 0.6 1")
        with pytest.raises(ConfigError, match="chi0 must be strictly positive"):
            parse_config(text)

    def test_two_initializers_in_one_section_rejected(self):
        text = MINIMAL + "c10.cosine = 1.0 0.1 1\n"
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(text)

    def test_dose_times_list_and_modes(self):
        text = MINIMAL + (
            "schedule.dose_times = 3 6 9\nschedule.chi0 = 1.0\n"
            "schedule.mode = jump\n"
        )
        cfg = parse_config(text)
        assert cfg.schedule.dose_times == (3.0, 6.0, 9.0)
        assert cfg.schedule.mode == "jump"

    def test_jump_dose_at_zero_is_config_error(self):
        text = MINIMAL + "schedule.dose_times = 0 1\nschedule.chi0 = 1.0\nschedule.mode = jump\n"
        with pytest.raises(ConfigError, match="t=0.*chi0"):
            parse_config(text)
        parse_config(text.replace("schedule.mode = jump", "schedule.mode = pulse"))

    def test_nonfinite_uniform_rejected(self):
        for value in ("nan", "inf"):
            text = MINIMAL.replace("c20.uniform = 0.05", f"c20.uniform = {value}")
            with pytest.raises(ConfigError, match=r"line \d+: c20 must be finite"):
                parse_config(text)

    def test_saturating_rate_requires_khalf_only_there(self):
        ok = MINIMAL + (
            "rates.alpha1.kind = saturating\nrates.alpha1.amplitude = 1.2\n"
            "rates.alpha1.k_half = 0.5\n"
        )
        cfg = parse_config(ok)
        assert cfg.alpha1.kind == "saturating"
        assert cfg.alpha1.half_saturation == 0.5
        bad = MINIMAL + "rates.alpha2.k_half = 0.5\n"
        with pytest.raises(ConfigError, match="saturating kind only"):
            parse_config(bad)


class TestRoundTrip:
    def test_parse_echo_parse_is_identity(self):
        rich = (MINIMAL + (
            "params.eps = 0.25\nschedule.dose_times = 0.3 0.6\nschedule.chi0 = 0.5\n"
            "schedule.mode = pulse\nschedule.width = 0.05\n"
            "rates.alpha1.kind = saturating\nrates.alpha1.amplitude = 1.2\n"
            "rates.alpha1.k_half = 0.5\ncontrol.dt_max = 1e-4\n"
            "chi0.cosine = 1.0 0.2 1\noutput.snapshots = 1\n"
        )).replace("chi0.uniform = 1.0", "")
        cfg = parse_config(rich)
        again = parse_config(echo_text(cfg))
        assert again == cfg
        assert echo_text(again) == echo_text(cfg)

    def test_infinite_dt_max_round_trips(self):
        cfg = parse_config(MINIMAL)
        assert math.isinf(cfg.ctrl.dt_max)
        assert parse_config(echo_text(cfg)) == cfg


class TestInitialBuilders:
    def test_uniform_and_cosine(self):
        text = MINIMAL.replace("chi0.uniform = 1.0", "chi0.cosine = 1.0 0.5 1")
        cfg = parse_config(text)
        state = cfg.build_initial()
        x = cfg.grid.axis_centers(0)
        assert np.allclose(state.chi, 1.0 + 0.5 * np.cos(np.pi * x), atol=1e-15)
        assert np.allclose(state.c1, 0.5)

    def test_file_initializer(self, tmp_path):
        values = np.linspace(0.1, 0.9, 16)
        path = tmp_path / "tau.txt"
        np.savetxt(path, values)
        text = MINIMAL.replace("tau0.uniform = 0.4", f"tau0.file = {path}")
        cfg = parse_config(text)
        state = cfg.build_initial()
        assert np.allclose(state.tau, values)

    def test_file_with_nonpositive_values_rejected_at_build(self, tmp_path):
        values = np.zeros(16)
        path = tmp_path / "tau.txt"
        np.savetxt(path, values)
        text = MINIMAL.replace("tau0.uniform = 0.4", f"tau0.file = {path}")
        cfg = parse_config(text)
        with pytest.raises(ConfigError, match="strictly positive"):
            cfg.build_initial()

    def test_2d_grid_and_cosine(self):
        text = MINIMAL.replace("grid.dim = 1", "grid.dim = 2").replace(
            "chi0.uniform = 1.0", "chi0.cosine = 1.0 0.2 1 1"
        ) + "grid.ny = 12\ngrid.ly = 2.0\n"
        cfg = parse_config(text)
        assert cfg.grid.shape == (16, 12)
        state = cfg.build_initial()
        x, y = cfg.grid.coordinate_arrays()
        expect = 1.0 + 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y / 2.0)
        assert np.allclose(state.chi, expect, atol=1e-15)
