import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regenfv import ConfigError, parse_config
from regenfv.config import echo_text

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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

# echo_text of MINIMAL and of the shipped configs, pinned so that any change
# to the canonical form (key order, number format, defaults, which keys are
# written) fails a test.
GOLDEN_MINIMAL = """\
# canonical configuration (all defaults explicit)
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
params.eps = 0.0
params.theta = 4.0
rates.alpha1.kind = constant
rates.alpha1.amplitude = 1.0
rates.alpha2.kind = constant
rates.alpha2.amplitude = 1.0
schedule.chi0 = 0.0
schedule.mode = pulse
schedule.width = 0.1
c10.uniform = 0.5
c20.uniform = 0.05
chi0.uniform = 1.0
tau0.uniform = 0.4
control.t_end = 1.0
control.dt_max = inf
control.cfl_safety = 0.5
control.save_every = 0.01
entropy.zeta = 1.0
entropy.varrho = 0.0
output.snapshots = 0
"""

GOLDEN_DEFAULT_1D = """\
# canonical configuration (all defaults explicit)
grid.dim = 1
grid.nx = 64
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
params.eps = 0.0
params.theta = 4.0
rates.alpha1.kind = saturating
rates.alpha1.amplitude = 1.2
rates.alpha1.k_half = 0.5
rates.alpha2.kind = constant
rates.alpha2.amplitude = 0.4
schedule.dose_times = 0.1
schedule.chi0 = 0.5
schedule.mode = pulse
schedule.width = 0.05
c10.cosine = 0.5 0.2 1
c20.uniform = 0.05
chi0.cosine = 1.0 0.2 1
tau0.cosine = 0.4 0.05 1
control.t_end = 0.25
control.dt_max = 0.0001
control.cfl_safety = 1.0
control.save_every = 0.0125
entropy.zeta = 1.0
entropy.varrho = 0.0
output.snapshots = 1
"""

GOLDEN_THREEWEEK_DOSING = """\
# canonical configuration (all defaults explicit)
grid.dim = 1
grid.nx = 32
grid.lx = 1.0
params.a1 = 0.01
params.a2 = 0.01
params.b_tau = 0.2
params.b_chi = 0.2
params.d_chi = 0.2
params.a_chi = 0.4
params.beta = 0.3
params.delta = 0.1
params.mu = 0.05
params.eps = 0.0
params.theta = 4.0
rates.alpha1.kind = saturating
rates.alpha1.amplitude = 0.8
rates.alpha1.k_half = 0.3
rates.alpha2.kind = constant
rates.alpha2.amplitude = 0.1
schedule.dose_times = 3.0 6.0 9.0 12.0 15.0 18.0
schedule.chi0 = 1.0
schedule.mode = jump
schedule.width = 0.1
c10.cosine = 0.4 0.1 1
c20.uniform = 0.02
chi0.uniform = 1.0
tau0.uniform = 0.1
control.t_end = 21.0
control.dt_max = 0.005
control.cfl_safety = 0.5
control.save_every = 0.5
entropy.zeta = 1.0
entropy.varrho = 0.0
output.snapshots = 0
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

    @pytest.mark.parametrize("key", ["bounds.m1_override", "bounds.tau_star_override"])
    def test_bounds_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=rf"line \d+: unknown key '{key}'"):
            parse_config(MINIMAL + f"{key} = 1e-6\n")

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


class TestNonFiniteNumbers:
    """Every number must be finite; only control.dt_max may be inf, its default."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("line", [
        "control.t_end = {}",
        "params.beta = {}",
        "params.a_chi = {}",
        "schedule.chi0 = {}",
        "entropy.varrho = {}",
        "schedule.dose_times = 1 {}",
        "rates.alpha1.amplitude = {}",
        "grid.nx = {}",
        "grid.dim = {}",
        "output.snapshots = {}",
    ])
    def test_rejected_at_parse_naming_line(self, line, value):
        key = line.split(" = ")[0]
        lines = [ln for ln in MINIMAL.splitlines() if not ln.startswith(key + " ")]
        text = "\n".join(lines) + "\n" + line.format(value) + "\n"
        with pytest.raises(ConfigError, match=rf"^line \d+: {key} must be finite, got {value}$"):
            parse_config(text)

    def test_dt_max_may_be_inf_but_not_nan(self):
        assert math.isinf(parse_config(MINIMAL + "control.dt_max = inf\n").ctrl.dt_max)
        with pytest.raises(ConfigError, match=r"line \d+: control.dt_max must be finite, got nan"):
            parse_config(MINIMAL + "control.dt_max = nan\n")

    def test_negative_t_end_names_line(self):
        text = MINIMAL.replace("control.t_end = 1.0", "control.t_end = -1")
        with pytest.raises(ConfigError, match=r"line \d+: control.t_end must be nonnegative"):
            parse_config(text)

    def test_negative_rate_amplitude_is_config_error(self):
        text = MINIMAL + "rates.alpha1.amplitude = -1\n"
        line = len(text.splitlines())
        message = rf"^line {line}: rates\.alpha1\.amplitude must be nonnegative, got -1\.0$"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)


class TestRangeErrorsNameTheirLine:
    """A value that breaks its field's range rule is a ConfigError naming the key
    and its line, whichever class holds the rule."""

    @pytest.mark.parametrize("line", [
        "params.theta = 2",
        "params.eps = 1",
        "control.cfl_safety = 2",
        "control.dt_max = 0",
        "schedule.chi0 = -1",
        "schedule.dose_times = 2 1",
        "schedule.width = 0",
        "schedule.mode = foo",
        "rates.alpha1.amplitude = -1",
        "entropy.zeta = 0",
        "grid.nx = 2",
        "grid.dim = 3",
        "output.snapshots = 2",
    ])
    def test_rejected_value_names_key_and_line(self, line):
        key = line.split(" = ")[0]
        lines = [ln for ln in MINIMAL.splitlines() if not ln.startswith(key + " ")] + [line]
        with pytest.raises(ConfigError, match=rf"^line {len(lines)}: {re.escape(key)} "):
            parse_config("\n".join(lines) + "\n")

    def test_jump_mode_rejects_a_negative_width(self):
        # jump doses do not read width, but it is a pulse length all the same
        text = MINIMAL + "schedule.dose_times = 1\nschedule.chi0 = 1.0\nschedule.mode = jump\nschedule.width = -1\n"
        line = len(text.splitlines())
        message = rf"^line {line}: schedule\.width must be strictly positive, got -1\.0$"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)


def _number(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def config_texts(draw):
    """(text, text with every optional key that was written at its default left out)."""
    dim = draw(st.sampled_from([1, 2]))
    required = [f"grid.dim = {dim}"]
    for axis in "xy"[:dim]:
        required += [f"grid.n{axis} = {draw(st.integers(3, 40))}",
                     f"grid.l{axis} = {draw(_number(0.1, 10.0))}"]
    for key in ("a1", "a2", "b_tau", "b_chi", "d_chi", "delta", "mu"):
        required.append(f"params.{key} = {draw(_number(1e-3, 5.0))}")
    for key in ("a_chi", "beta"):
        required.append(f"params.{key} = {draw(st.one_of(st.just('0'), _number(0.0, 5.0)))}")
    for section, low in (("c10", 0.0), ("c20", 0.0), ("chi0", 0.01), ("tau0", 0.01)):
        base = draw(st.floats(low + 0.5, 3.0))
        if draw(st.booleans()):
            required.append(f"{section}.uniform = {base!r}")
        else:
            amplitude = draw(st.floats(-0.5, 0.5))
            modes = " ".join(str(draw(st.integers(0, 4))) for _ in range(dim))
            required.append(f"{section}.cosine = {base!r} {amplitude!r} {modes}")
    t_end = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    required.append(f"control.t_end = {t_end!r}")

    # optional key -> (its default as text, a strategy for other values)
    optional = {
        "params.eps": ("0.0", _number(0.0, 0.99)),
        "params.theta": ("4.0", _number(max(2, dim) + 0.01, 8.0)),
        "schedule.chi0": ("0.0", _number(0.0, 3.0)),
        "schedule.width": ("0.1", _number(1e-3, 1.0)),
        "control.dt_max": ("inf", _number(1e-6, 1.0)),
        "control.cfl_safety": ("0.5", _number(0.01, 1.0)),
        "control.save_every": (repr(t_end / 100.0 if t_end > 0 else 1.0), _number(1e-3, 5.0)),
        "entropy.zeta": ("1.0", _number(1e-3, 5.0)),
        "entropy.varrho": ("0.0", _number(0.0, 5.0)),
        "output.snapshots": ("0", st.just("1")),
        "output.dir": (None, st.sampled_from(["out", "runs/a"])),
        "schedule.mode": ("pulse", st.just("jump")),
        "schedule.dose_times": ("", st.lists(st.floats(0.01, 20.0), min_size=1, max_size=4, unique=True)
                                .map(lambda ts: " ".join(repr(t) for t in sorted(ts)))),
    }
    for label in ("alpha1", "alpha2"):
        optional[f"rates.{label}.amplitude"] = ("1.0", _number(0.0, 3.0))
        kind = draw(st.sampled_from([None, "constant", "saturating"]))
        if kind is not None:
            required.append(f"rates.{label}.kind = {kind}")
        if kind == "saturating":
            optional[f"rates.{label}.k_half"] = ("1.0", _number(1e-3, 3.0))

    written, explicit = [], []
    for key, (default, other) in optional.items():
        choice = draw(st.sampled_from(["omit", "default", "other"] if default is not None
                                      else ["omit", "other"]))
        if choice == "default":
            written.append(f"{key} = {default}")
        elif choice == "other":
            explicit.append(f"{key} = {draw(other)}")
    lines = draw(st.permutations(required + explicit + written))
    return "\n".join(lines) + "\n", "\n".join(l for l in lines if l not in written) + "\n"


class TestRoundTrip:
    @pytest.mark.parametrize("name, golden", [
        ("MINIMAL", GOLDEN_MINIMAL),
        ("default_1d.cfg", GOLDEN_DEFAULT_1D),
        ("threeweek_dosing.cfg", GOLDEN_THREEWEEK_DOSING),
    ])
    def test_echo_matches_golden_text(self, name, golden):
        cfg = parse_config(MINIMAL if name == "MINIMAL" else (CONFIGS / name).read_text())
        assert echo_text(cfg) == golden
        assert parse_config(golden) == cfg

    @settings(max_examples=150, deadline=None)
    @given(config_texts())
    def test_parse_echo_round_trip_property(self, texts):
        text, without_defaults = texts
        cfg = parse_config(text)
        assert parse_config(without_defaults) == cfg
        echoed = echo_text(cfg)
        assert parse_config(echoed) == cfg
        assert echo_text(parse_config(echoed)) == echoed

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

    def test_file_with_one_negative_value_rejected_at_build_naming_section(self, tmp_path):
        values = np.full(16, 0.05)
        values[5] = -0.01
        path = tmp_path / "c2.txt"
        np.savetxt(path, values)
        cfg = parse_config(MINIMAL.replace("c20.uniform = 0.05", f"c20.file = {path}"))
        with pytest.raises(ConfigError, match=r"^c20 must be nonnegative, got -0\.01$"):
            cfg.build_initial()

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
