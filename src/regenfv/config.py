"""Run configuration: plain-text parsing, validation, defaulting, and echo.

Format: one ``section.key = value`` per line, ``#`` starts a comment, numbers
are decimal with optional exponent and finite (only ``control.dt_max`` may be
``inf``). Unknown keys are errors, not warnings. Parsing makes every default
explicit, and ``echo_text`` emits the canonical form so that
parse(echo(parse(text))) == parse(text). The fields of ``ModelParams``,
``SupplySchedule``, ``StepControl`` and ``EntropyParams`` are the keys of the
params, schedule, control and entropy sections, with their order and defaults.

The four initial-data sections are named after the fields they seed (c10,
c20, chi0, tau0); each takes exactly one of the initializers

    c10.uniform = 0.6
    chi0.cosine = 1.0 0.5 1        # base amplitude kx [ky]
    tau0.file   = path/to/values.txt

Initial data must be finite and satisfy c10, c20 >= 0 and chi0, tau0 > 0;
violations are rejected while parsing (file initializers when the file is
read, in ``build_initial``). Every such error is a ConfigError naming the
section; nothing downstream re-checks the fields.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from functools import cache

import numpy as np

from .diagnostics import EntropyParams
from .errors import ConfigError
from .grid import Grid
from .model import ModelParams, RateFunction, SupplySchedule
from .stepping import SimState, StepControl

_INITIAL_SECTIONS = ("c10", "c20", "chi0", "tau0")
# Sign rules, checked where the key is read so that the error names its line.
_SIGN_RULES = {
    **dict.fromkeys(("grid.lx", "grid.ly", "params.a1", "params.a2", "params.b_tau", "params.b_chi",
                     "params.d_chi", "params.delta", "params.mu", "rates.alpha1.k_half",
                     "rates.alpha2.k_half", "control.save_every"), "strictly positive"),
    **dict.fromkeys(("params.a_chi", "params.beta", "control.t_end"), "nonnegative"),
}
_MAY_BE_INFINITE = "control.dt_max"  # its default, inf, is echoed and must parse back


@dataclass(frozen=True)
class InitializerSpec:
    """One field's initial data: uniform value, cosine bump, or file of values."""

    kind: str  # uniform | cosine | file
    uniform: float = 0.0
    base: float = 0.0
    amplitude: float = 0.0
    modes: tuple[int, ...] = ()
    path: str = ""

    def build(self, grid: Grid) -> np.ndarray:
        if self.kind == "uniform":
            return grid.field(self.uniform)
        if self.kind == "cosine":
            modes = self.modes
            if len(modes) != grid.dim:
                raise ConfigError(
                    f"cosine initializer has {len(modes)} mode indices for a {grid.dim}D grid"
                )
            values = np.full(grid.shape, self.base)
            bump = np.ones(grid.shape)
            for k, x, L in zip(modes, grid.coordinate_arrays(), grid.lengths):
                bump = bump * np.cos(k * np.pi * x / L)
            return grid.field(values + self.amplitude * bump)
        try:
            data = np.loadtxt(self.path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {self.path}: {exc}") from None
        if data.size != grid.n_cells:
            raise ConfigError(f"{self.path} holds {data.size} values, the grid has {grid.n_cells} cells")
        return grid.field(data.reshape(grid.shape))


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration of one simulation."""

    grid: Grid
    params: ModelParams
    alpha1: RateFunction
    alpha2: RateFunction
    schedule: SupplySchedule
    ctrl: StepControl
    entropy: EntropyParams
    initial: dict = field(default_factory=dict)  # section name -> InitializerSpec
    snapshots: bool = False
    out_dir: str = ""

    @property
    def alphas(self) -> tuple[RateFunction, RateFunction]:
        return (self.alpha1, self.alpha2)

    def build_initial(self) -> SimState:
        arrays = {}
        for section, spec in self.initial.items():
            try:
                arrays[section] = spec.build(self.grid)
            except ValueError as exc:  # ConfigError included
                raise ConfigError(f"{section}: {exc}") from None
            _check_initial_sign(section, float(np.min(arrays[section])))
        return SimState(0.0, np.array([arrays[s] for s in _INITIAL_SECTIONS]), self.grid)


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} lacks a section prefix")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)
    return entries


class _Entries:
    """Typed reads with line-numbered errors; a key whose default is MISSING is required."""

    def __init__(self, entries: dict[str, tuple[str, int]]):
        self.entries = entries
        self.used: set[str] = set()

    def lineno(self, key: str):
        return self.entries[key][1] if key in self.entries else "?"

    def word(self, key: str, default=MISSING):
        """The key's text, marked as used, or ``default`` if the key is absent."""
        if key in self.entries:
            self.used.add(key)
            return self.entries[key][0]
        if default is MISSING:
            raise ConfigError(f"missing required key {key}")
        return default

    def raw_number(self, key: str) -> float:
        """The key's text as a float, NaN and inf included."""
        text = self.word(key)
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"line {self.lineno(key)}: malformed number {text!r} for {key}") from None

    def number(self, key: str, default=MISSING):
        """A finite number (only control.dt_max may be inf) obeying the key's sign rule."""
        if key in self.entries:
            value = self.raw_number(key)
            self._check_finite(key, value)
        else:
            value = self.word(key, default)
        rule = _SIGN_RULES.get(key)
        if rule and not (value > 0 if rule == "strictly positive" else value >= 0):
            raise ConfigError(f"line {self.lineno(key)}: {key} must be {rule}, got {value:g}")
        return value

    def integer(self, key: str, default=MISSING) -> int:
        value = self.number(key, default)
        if value != int(value):
            raise ConfigError(f"line {self.lineno(key)}: {key} must be an integer")
        return int(value)

    def numbers(self, key: str, default=MISSING) -> tuple[float, ...]:
        if key not in self.entries:
            return self.word(key, default)
        try:
            values = tuple(float(tok) for tok in self.word(key).replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"line {self.lineno(key)}: malformed number list for {key}") from None
        self._check_finite(key, *values)
        return values

    def _check_finite(self, key: str, *values: float) -> None:
        for value in values:
            if not (math.isfinite(value) or (key == _MAY_BE_INFINITE and math.isinf(value))):
                raise ConfigError(f"line {self.lineno(key)}: {key} must be finite, got {value}")

    def reject_unknown(self) -> None:
        unknown = sorted(set(self.entries) - self.used)
        if unknown:
            raise ConfigError(f"line {self.lineno(unknown[0])}: unknown key {unknown[0]!r}")


def _build(cls, **values):
    """``cls(**values)``, its ValueError turned into a ConfigError."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _fmt(x: float) -> str:
    return repr(float(x))


_ECHO = {"word": str, "number": _fmt, "numbers": lambda values: " ".join(map(_fmt, values))}


@cache
def _section_keys(cls) -> tuple[tuple[str, str, object], ...]:
    """(name, reader, default) per field of the dataclass ``cls``, in order: a str field
    is a word, a tuple field a number list, any other a number; MISSING is required."""
    hints = typing.get_type_hints(cls)
    readers = {str: "word", tuple: "numbers"}
    return tuple((f.name, readers.get(typing.get_origin(hints[f.name]) or hints[f.name], "number"),
                  f.default) for f in fields(cls))


def _parse_section(e: _Entries, section: str, cls, **defaults):
    """The dataclass ``cls`` read from the keys ``section.<field>``;
    ``defaults`` replaces dataclass defaults that depend on other keys."""
    return _build(cls, **{
        name: getattr(e, reader)(f"{section}.{name}", defaults.get(name, default))
        for name, reader, default in _section_keys(cls)
    })


def _echo_section(section: str, obj) -> list[str]:
    return [f"{section}.{name} = {_ECHO[reader](getattr(obj, name))}"
            for name, reader, _ in _section_keys(type(obj))
            if reader != "numbers" or getattr(obj, name)]  # an empty list is the absent key


def _parse_rate(e: _Entries, prefix: str) -> RateFunction:
    kind = e.word(f"{prefix}.kind", "constant")
    amplitude = e.number(f"{prefix}.amplitude", 1.0)
    if kind == "constant":
        if f"{prefix}.k_half" in e.entries:
            raise ConfigError(f"line {e.lineno(f'{prefix}.k_half')}: "
                              f"{prefix}.k_half applies to the saturating kind only")
        return _build(RateFunction, kind=kind, amplitude=amplitude)
    if kind == "saturating":
        return _build(RateFunction, kind=kind, amplitude=amplitude,
                      half_saturation=e.number(f"{prefix}.k_half", 1.0))
    raise ConfigError(f"line {e.lineno(f'{prefix}.kind')}: {prefix}.kind must be constant or saturating")


def _parse_initializer(e: _Entries, section: str) -> InitializerSpec:
    kinds = [k for k in ("uniform", "cosine", "file") if f"{section}.{k}" in e.entries]
    if len(kinds) != 1:
        raise ConfigError(
            f"section {section} needs exactly one of uniform/cosine/file, found {len(kinds)}"
        )
    kind, key = kinds[0], f"{section}.{kinds[0]}"
    where = f"line {e.lineno(key)}: "
    if kind == "file":
        return InitializerSpec(kind="file", path=e.word(key))
    if kind == "uniform":
        value = e.raw_number(key)
        _check_initial_sign(section, value, where)
        return InitializerSpec(kind="uniform", uniform=value)
    toks = e.word(key).replace(",", " ").split()
    if len(toks) < 3:
        raise ConfigError(f"{where}cosine needs 'base amplitude kx [ky]'")
    try:
        base, amplitude = float(toks[0]), float(toks[1])
        modes = tuple(int(t) for t in toks[2:])
    except ValueError:
        raise ConfigError(f"{where}malformed cosine spec for {section}") from None
    _check_initial_sign(section, base - abs(amplitude), where)
    return InitializerSpec(kind="cosine", base=base, amplitude=amplitude, modes=modes)


def _check_initial_sign(section: str, low: float, where: str = "") -> None:
    """Reject a lowest initial value that is non-finite or breaks the section's sign rule."""
    if not math.isfinite(low):
        raise ConfigError(f"{where}{section} must be finite")
    if section in ("c10", "c20") and low < 0:
        raise ConfigError(f"{where}{section} must be nonnegative")
    if section in ("chi0", "tau0") and low <= 0:
        raise ConfigError(f"{where}{section} must be strictly positive "
                          "(initial-data assumption chi0, tau0 > 0)")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; every default becomes explicit."""
    e = _Entries(_parse_lines(text))

    dim = e.integer("grid.dim")
    if dim not in (1, 2):
        raise ConfigError("grid.dim must be 1 or 2")
    cells, lengths = zip(*((e.integer(f"grid.n{a}"), e.number(f"grid.l{a}")) for a in "xy"[:dim]))
    grid = _build(Grid, cells=cells, lengths=lengths)

    params = _parse_section(e, "params", ModelParams)
    if not params.theta > max(2, dim):
        raise ConfigError(f"params.theta must exceed max(2, dim)={max(2, dim)}")
    alpha1 = _parse_rate(e, "rates.alpha1")
    alpha2 = _parse_rate(e, "rates.alpha2")
    schedule = _parse_section(e, "schedule", SupplySchedule)
    t_end = e.number("control.t_end")
    ctrl = _parse_section(e, "control", StepControl, save_every=t_end / 100.0 if t_end > 0 else 1.0)
    entropy = _parse_section(e, "entropy", EntropyParams)
    initial = {section: _parse_initializer(e, section) for section in _INITIAL_SECTIONS}

    snapshots = e.integer("output.snapshots", 0)
    if snapshots not in (0, 1):
        raise ConfigError("output.snapshots must be 0 or 1")
    out_dir = e.word("output.dir", "")

    e.reject_unknown()
    return RunConfig(
        grid=grid, params=params, alpha1=alpha1, alpha2=alpha2, schedule=schedule, ctrl=ctrl,
        entropy=entropy, initial=initial, snapshots=bool(snapshots), out_dir=out_dir,
    )


def echo_text(cfg: RunConfig) -> str:
    """Canonical configuration text with every default explicit."""
    lines = ["# canonical configuration (all defaults explicit)", f"grid.dim = {cfg.grid.dim}"]
    for a, n, length in zip("xy", cfg.grid.cells, cfg.grid.lengths):
        lines += [f"grid.n{a} = {n}", f"grid.l{a} = {_fmt(length)}"]
    lines += _echo_section("params", cfg.params)
    for label, rate in (("alpha1", cfg.alpha1), ("alpha2", cfg.alpha2)):
        lines.append(f"rates.{label}.kind = {rate.kind}")
        lines.append(f"rates.{label}.amplitude = {_fmt(rate.amplitude)}")
        if rate.kind == "saturating":
            lines.append(f"rates.{label}.k_half = {_fmt(rate.half_saturation)}")
    lines += _echo_section("schedule", cfg.schedule)
    for section, spec in cfg.initial.items():
        if spec.kind == "uniform":
            lines.append(f"{section}.uniform = {_fmt(spec.uniform)}")
        elif spec.kind == "cosine":
            modes = " ".join(str(k) for k in spec.modes)
            lines.append(f"{section}.cosine = {_fmt(spec.base)} {_fmt(spec.amplitude)} {modes}")
        else:
            lines.append(f"{section}.file = {spec.path}")
    lines += _echo_section("control", cfg.ctrl)
    lines += _echo_section("entropy", cfg.entropy)
    lines.append(f"output.snapshots = {int(cfg.snapshots)}")
    if cfg.out_dir:
        lines.append(f"output.dir = {cfg.out_dir}")
    return "\n".join(lines) + "\n"
