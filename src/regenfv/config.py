"""Run configuration: plain-text parsing, validation, defaulting, and echo.

Format: one ``section.key = value`` per line, ``#`` starts a comment, numbers
are decimal with optional exponent. Unknown keys are errors, not warnings.
Parsing makes every default explicit, and ``echo_text`` emits the canonical
form so that parse(echo(parse(text))) == parse(text).

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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .diagnostics import EntropyParams
from .errors import ConfigError
from .grid import Grid
from .model import ModelParams, RateFunction, SupplySchedule
from .stepping import SimState, StepControl

_INITIAL_SECTIONS = ("c10", "c20", "chi0", "tau0")
_FIELD_OF_SECTION = {"c10": "c1", "c20": "c2", "chi0": "chi", "tau0": "tau"}


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
    m1_override: Optional[float] = None
    tau_star_override: Optional[float] = None

    @property
    def alphas(self) -> tuple[RateFunction, RateFunction]:
        return (self.alpha1, self.alpha2)

    def build_initial(self) -> SimState:
        fields = {}
        for section, spec in self.initial.items():
            try:
                arr = spec.build(self.grid)
            except ValueError as exc:  # ConfigError included
                raise ConfigError(f"{section}: {exc}") from None
            name = _FIELD_OF_SECTION[section]
            if section in ("c10", "c20") and np.min(arr) < 0:
                raise ConfigError(f"{section} must be nonnegative")
            if section in ("chi0", "tau0") and np.min(arr) <= 0:
                raise ConfigError(
                    f"{section} must be strictly positive (initial-data assumption chi0, tau0 > 0)"
                )
            fields[name] = arr
        return SimState.from_stack(
            0.0, np.array([fields[name] for name in _FIELD_OF_SECTION.values()]), self.grid
        )


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
    """Typed extraction with line-numbered errors and unknown-key detection."""

    def __init__(self, entries: dict[str, tuple[str, int]]):
        self.entries = entries
        self.used: set[str] = set()

    def has(self, key: str) -> bool:
        return key in self.entries

    def raw(self, key: str) -> tuple[str, int]:
        self.used.add(key)
        return self.entries[key]

    def number(self, key: str, default: Optional[float] = None) -> float:
        if key not in self.entries:
            if default is None:
                raise ConfigError(f"missing required key {key}")
            return default
        value, lineno = self.raw(key)
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: malformed number {value!r} for {key}") from None

    def positive(self, key: str, default: Optional[float] = None) -> float:
        value = self.number(key, default)
        if not value > 0:
            lineno = self.entries[key][1] if key in self.entries else "?"
            raise ConfigError(f"line {lineno}: {key} must be strictly positive, got {value:g}")
        return value

    def nonneg(self, key: str, default: Optional[float] = None) -> float:
        value = self.number(key, default)
        if value < 0:
            lineno = self.entries[key][1] if key in self.entries else "?"
            raise ConfigError(f"line {lineno}: {key} must be nonnegative, got {value:g}")
        return value

    def integer(self, key: str, default: Optional[int] = None) -> int:
        value = self.number(key, None if default is None else float(default))
        if value != int(value):
            lineno = self.entries[key][1] if key in self.entries else "?"
            raise ConfigError(f"line {lineno}: {key} must be an integer")
        return int(value)

    def word(self, key: str, default: Optional[str] = None) -> str:
        if key not in self.entries:
            if default is None:
                raise ConfigError(f"missing required key {key}")
            return default
        return self.raw(key)[0]

    def numbers(self, key: str, default: tuple = ()) -> tuple[float, ...]:
        if key not in self.entries:
            return default
        value, lineno = self.raw(key)
        if not value:
            return ()
        try:
            return tuple(float(tok) for tok in value.replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"line {lineno}: malformed number list for {key}") from None

    def reject_unknown(self) -> None:
        unknown = sorted(set(self.entries) - self.used)
        if unknown:
            key = unknown[0]
            lineno = self.entries[key][1]
            raise ConfigError(f"line {lineno}: unknown key {key!r}")


def _parse_rate(e: _Entries, prefix: str) -> RateFunction:
    kind = e.word(f"{prefix}.kind", "constant")
    amplitude = e.number(f"{prefix}.amplitude", 1.0)
    if kind == "constant":
        if e.has(f"{prefix}.k_half"):
            _, lineno = e.entries[f"{prefix}.k_half"]
            raise ConfigError(f"line {lineno}: {prefix}.k_half applies to the saturating kind only")
        return RateFunction(kind="constant", amplitude=amplitude)
    if kind == "saturating":
        return RateFunction(
            kind="saturating",
            amplitude=amplitude,
            half_saturation=e.positive(f"{prefix}.k_half", 1.0),
        )
    _, lineno = e.entries[f"{prefix}.kind"]
    raise ConfigError(f"line {lineno}: {prefix}.kind must be constant or saturating")


def _parse_initializer(e: _Entries, section: str) -> InitializerSpec:
    kinds = [k for k in ("uniform", "cosine", "file") if e.has(f"{section}.{k}")]
    if len(kinds) != 1:
        raise ConfigError(
            f"section {section} needs exactly one of uniform/cosine/file, found {len(kinds)}"
        )
    kind = kinds[0]
    if kind == "uniform":
        value = e.number(f"{section}.uniform")
        _check_initial_sign(section, value, e.entries[f"{section}.uniform"][1])
        return InitializerSpec(kind="uniform", uniform=value)
    if kind == "cosine":
        raw, lineno = e.raw(f"{section}.cosine")
        toks = raw.replace(",", " ").split()
        if len(toks) < 3:
            raise ConfigError(f"line {lineno}: cosine needs 'base amplitude kx [ky]'")
        try:
            base, amplitude = float(toks[0]), float(toks[1])
            modes = tuple(int(t) for t in toks[2:])
        except ValueError:
            raise ConfigError(f"line {lineno}: malformed cosine spec for {section}") from None
        _check_initial_sign(section, base - abs(amplitude), lineno)
        return InitializerSpec(kind="cosine", base=base, amplitude=amplitude, modes=modes)
    path, _ = e.raw(f"{section}.file")
    return InitializerSpec(kind="file", path=path)


def _check_initial_sign(section: str, low: float, lineno: int) -> None:
    if not math.isfinite(low):
        raise ConfigError(f"line {lineno}: {section} must be finite")
    if section in ("c10", "c20") and low < 0:
        raise ConfigError(f"line {lineno}: {section} must be nonnegative")
    if section in ("chi0", "tau0") and low <= 0:
        raise ConfigError(
            f"line {lineno}: {section} must be strictly positive "
            "(initial-data assumption chi0, tau0 > 0)"
        )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; every default becomes explicit."""
    e = _Entries(_parse_lines(text))

    dim = e.integer("grid.dim")
    if dim not in (1, 2):
        raise ConfigError("grid.dim must be 1 or 2")
    cells = [e.integer("grid.nx")]
    lengths = [e.positive("grid.lx")]
    if dim == 2:
        cells.append(e.integer("grid.ny"))
        lengths.append(e.positive("grid.ly"))
    try:
        grid = Grid(cells=tuple(cells), lengths=tuple(lengths))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    try:
        params = ModelParams(
            a1=e.positive("params.a1"),
            a2=e.positive("params.a2"),
            b_tau=e.positive("params.b_tau"),
            b_chi=e.positive("params.b_chi"),
            d_chi=e.positive("params.d_chi"),
            a_chi=e.nonneg("params.a_chi"),
            beta=e.nonneg("params.beta"),
            delta=e.positive("params.delta"),
            mu=e.positive("params.mu"),
            eps=e.number("params.eps", 0.0),
            theta=e.number("params.theta", 4.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not params.theta > max(2, dim):
        raise ConfigError(f"params.theta must exceed max(2, dim)={max(2, dim)}")

    alpha1 = _parse_rate(e, "rates.alpha1")
    alpha2 = _parse_rate(e, "rates.alpha2")

    try:
        schedule = SupplySchedule(
            dose_times=e.numbers("schedule.dose_times"),
            chi0=e.number("schedule.chi0", 0.0),
            mode=e.word("schedule.mode", "pulse"),
            width=e.number("schedule.width", 0.1),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    t_end = e.number("control.t_end")
    if t_end < 0:
        raise ConfigError("control.t_end must be nonnegative")
    default_save = t_end / 100.0 if t_end > 0 else 1.0
    try:
        ctrl = StepControl(
            t_end=t_end,
            dt_max=e.number("control.dt_max", math.inf),
            cfl_safety=e.number("control.cfl_safety", 0.5),
            save_every=e.positive("control.save_every", default_save),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    try:
        entropy = EntropyParams(
            zeta=e.number("entropy.zeta", 1.0),
            varrho=e.number("entropy.varrho", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    initial = {section: _parse_initializer(e, section) for section in _INITIAL_SECTIONS}

    snapshots = e.integer("output.snapshots", 0)
    if snapshots not in (0, 1):
        raise ConfigError("output.snapshots must be 0 or 1")
    out_dir = e.word("output.dir", "")

    m1_override = e.number("bounds.m1_override", math.nan)
    tau_star_override = e.number("bounds.tau_star_override", math.nan)

    e.reject_unknown()
    return RunConfig(
        grid=grid,
        params=params,
        alpha1=alpha1,
        alpha2=alpha2,
        schedule=schedule,
        ctrl=ctrl,
        entropy=entropy,
        initial=initial,
        snapshots=bool(snapshots),
        out_dir=out_dir,
        m1_override=None if math.isnan(m1_override) else m1_override,
        tau_star_override=None if math.isnan(tau_star_override) else tau_star_override,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def echo_text(cfg: RunConfig) -> str:
    """Canonical configuration text with every default explicit."""
    lines = ["# canonical configuration (all defaults explicit)"]
    lines.append(f"grid.dim = {cfg.grid.dim}")
    lines.append(f"grid.nx = {cfg.grid.cells[0]}")
    lines.append(f"grid.lx = {_fmt(cfg.grid.lengths[0])}")
    if cfg.grid.dim == 2:
        lines.append(f"grid.ny = {cfg.grid.cells[1]}")
        lines.append(f"grid.ly = {_fmt(cfg.grid.lengths[1])}")
    p = cfg.params
    for name in ("a1", "a2", "b_tau", "b_chi", "d_chi", "a_chi", "beta", "delta", "mu", "eps", "theta"):
        lines.append(f"params.{name} = {_fmt(getattr(p, name))}")
    for label, rate in (("alpha1", cfg.alpha1), ("alpha2", cfg.alpha2)):
        lines.append(f"rates.{label}.kind = {rate.kind}")
        lines.append(f"rates.{label}.amplitude = {_fmt(rate.amplitude)}")
        if rate.kind == "saturating":
            lines.append(f"rates.{label}.k_half = {_fmt(rate.half_saturation)}")
    s = cfg.schedule
    if s.dose_times:
        lines.append("schedule.dose_times = " + " ".join(_fmt(t) for t in s.dose_times))
    lines.append(f"schedule.chi0 = {_fmt(s.chi0)}")
    lines.append(f"schedule.mode = {s.mode}")
    lines.append(f"schedule.width = {_fmt(s.width)}")
    for section, spec in cfg.initial.items():
        if spec.kind == "uniform":
            lines.append(f"{section}.uniform = {_fmt(spec.uniform)}")
        elif spec.kind == "cosine":
            modes = " ".join(str(k) for k in spec.modes)
            lines.append(f"{section}.cosine = {_fmt(spec.base)} {_fmt(spec.amplitude)} {modes}")
        else:
            lines.append(f"{section}.file = {spec.path}")
    c = cfg.ctrl
    lines.append(f"control.t_end = {_fmt(c.t_end)}")
    lines.append(f"control.dt_max = {_fmt(c.dt_max)}")
    lines.append(f"control.cfl_safety = {_fmt(c.cfl_safety)}")
    lines.append(f"control.save_every = {_fmt(c.save_every)}")
    lines.append(f"entropy.zeta = {_fmt(cfg.entropy.zeta)}")
    lines.append(f"entropy.varrho = {_fmt(cfg.entropy.varrho)}")
    lines.append(f"output.snapshots = {int(cfg.snapshots)}")
    if cfg.out_dir:
        lines.append(f"output.dir = {cfg.out_dir}")
    if cfg.m1_override is not None:
        lines.append(f"bounds.m1_override = {_fmt(cfg.m1_override)}")
    if cfg.tau_star_override is not None:
        lines.append(f"bounds.tau_star_override = {_fmt(cfg.tau_star_override)}")
    return "\n".join(lines) + "\n"
