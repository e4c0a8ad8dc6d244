"""Run configuration: plain-text parsing, validation, defaulting, and echo.

Format: one ``section.key = value`` per line, ``#`` starts a comment, numbers
are decimal with optional exponent and finite (only ``control.dt_max`` may be
``inf``). Unknown keys are errors, not warnings. Parsing makes every default
explicit, and ``echo_text`` emits the canonical form so that
parse(echo(parse(text))) == parse(text). Each range rule is stated once, by
the class that holds the field, whose FieldError the parser turns into
"line N: section.key must ...". The fields of ``ModelParams``,
``SupplySchedule`` and ``StepControl`` are the keys of the params, schedule
and control sections, with their order and defaults. The first two live in
``regenfv.model``; the mesh ``Grid`` and the step policy ``StepControl`` live
here, so that parsing a configuration imports none of the stepper, the
operators and the diagnostics. Nothing here imports numpy at module level:
only the code that builds arrays (``Grid``'s coordinate and field methods,
``InitializerSpec.build`` and ``RunConfig.build_initial``) imports it, in its
body, so that ``parse_config`` and the ``oracle`` command run without it.

The four initial-data sections are named after the fields they seed (c10,
c20, chi0, tau0); each takes exactly one of the initializers

    c10.uniform = 0.6
    chi0.cosine = 1.0 0.5 1        # base amplitude kx [ky]
    tau0.file   = path/to/values.txt

Initial data must be finite and satisfy c10, c20 >= 0 and chi0, tau0 > 0,
the rule ``model.check_initial`` states. Uniform data are checked while
parsing, and the ConfigError names the line; cosine and file data are checked
on the cells they build, in ``build_initial``, and the ConfigError names the
section.
``run`` checks the state it starts from once more, with the same rule
(``stepping.validate_initial_state``), as it checks every state handed to it.
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from typing import TYPE_CHECKING, Callable, Optional

from .errors import ConfigError, FieldError, require
from .model import FIELDS, ModelParams, RateFunction, SupplySchedule, check_initial, landing_tol

if TYPE_CHECKING:
    import numpy as np

    from .stepping import SimState

_INITIAL_SECTIONS = tuple(name + "0" for name in FIELDS)  # c10, c20, chi0, tau0


@dataclass(frozen=True)
class Grid:
    """Uniform 1D/2D cell-centered mesh with zero-flux faces.

    ``cells`` and ``lengths`` are per-axis tuples; at least 3 cells per axis.
    """

    cells: tuple[int, ...]
    lengths: tuple[float, ...]
    spacing: tuple[float, ...] = field(init=False)
    n_cells: int = field(init=False, repr=False)
    cell_volume: float = field(init=False, repr=False)
    measure: float = field(init=False, repr=False)  # domain measure |Omega|

    def __post_init__(self):
        if len(self.cells) not in (1, 2):
            raise FieldError("cells", f"must have 1 or 2 axes, got {len(self.cells)}")
        if len(self.lengths) != len(self.cells):
            raise FieldError("lengths", f"must have one entry per axis of cells, got {len(self.lengths)}")
        for axis, (n, length) in enumerate(zip(self.cells, self.lengths)):
            if not (isinstance(n, numbers.Integral) and n >= 3):
                raise FieldError("cells", f"must be an integer of at least 3, got {n}", axis)
            require("lengths", length, length > 0, "be strictly positive", axis)
        spacing = tuple(L / n for L, n in zip(self.lengths, self.cells))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "n_cells", math.prod(self.cells))
        object.__setattr__(self, "cell_volume", math.prod(spacing))
        object.__setattr__(self, "measure", math.prod(self.lengths))

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        import numpy as np

        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays broadcast to the grid shape."""
        import numpy as np

        axes = [self.axis_centers(a) for a in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def field(self, values) -> np.ndarray:
        """Build a cell field from a scalar or array; rejects non-finite data."""
        import numpy as np

        arr = np.asarray(values, dtype=float)
        if arr.ndim == 0:
            arr = np.full(self.shape, float(arr))
        if arr.shape != self.shape:
            raise ValueError(f"field shape {arr.shape} does not match grid {self.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field contains non-finite values")
        return arr.copy()


@dataclass(frozen=True)
class StepControl:
    """Timestep policy: hard cap, CFL safety factor, horizon, save cadence."""

    t_end: float
    dt_max: float = math.inf
    cfl_safety: float = 0.5
    save_every: Optional[float] = None

    def __post_init__(self):
        require("t_end", self.t_end, self.t_end >= 0, "be nonnegative")
        # a horizon within the landing tolerance of 0 holds no event: nothing would land on it
        require("t_end", self.t_end, self.t_end == 0 or self.t_end > landing_tol(self.t_end),
                "be 0 or exceed the landing tolerance 1e-12")
        if self.dt_max != math.inf:  # inf, the default, sets no cap
            require("dt_max", self.dt_max, self.dt_max > 0, "be strictly positive")
        require("cfl_safety", self.cfl_safety, 0 < self.cfl_safety <= 1, "lie in (0, 1]")
        if self.save_every is not None:
            require("save_every", self.save_every, self.save_every > 0, "be strictly positive")


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
        import numpy as np

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
            with np.errstate(over="ignore", invalid="ignore"):  # grid.field rejects what is not finite
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
    initial: dict = field(default_factory=dict)  # section name -> InitializerSpec
    snapshots: bool = False

    @property
    def alphas(self) -> tuple[RateFunction, RateFunction]:
        return (self.alpha1, self.alpha2)

    def build_initial(self) -> SimState:
        import numpy as np

        from .stepping import SimState

        rows = []
        for row, section in enumerate(_INITIAL_SECTIONS):
            try:
                rows.append(self.initial[section].build(self.grid))
            except ValueError as exc:  # ConfigError included
                raise ConfigError(f"{section}: {exc}") from None
            _check_initial(row, float(np.min(rows[-1])), section)
        return SimState(0.0, np.array(rows), self.grid)


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

    def lineno(self, key: str) -> int:
        return self.entries[key][1]

    def error(self, key: str, rule: str) -> ConfigError:
        """The ConfigError "line N: <key> <rule>", without the line for a key left at its default."""
        where = f"line {self.lineno(key)}: " if key in self.entries else ""
        return ConfigError(f"{where}{key} {rule}")

    def word(self, key: str, default=MISSING):
        """The key's text, marked as used, or ``default`` if the key is absent."""
        if key in self.entries:
            self.used.add(key)
            return self.entries[key][0]
        if default is MISSING:
            raise ConfigError(f"missing required key {key}")
        return default

    def number(self, key: str, default=MISSING):
        """The key's text as a float, NaN and inf included (the field's class rules on it)."""
        if key not in self.entries:
            return self.word(key, default)
        text = self.word(key)
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"line {self.lineno(key)}: malformed number {text!r} for {key}") from None

    def integer(self, key: str, default=MISSING) -> int:
        value = self.number(key, default)
        if not math.isfinite(value):  # int() takes neither NaN nor inf
            raise self.error(key, f"must be finite, got {value}")
        if value != int(value):
            raise self.error(key, "must be an integer")
        return int(value)

    def numbers(self, key: str, default=MISSING) -> tuple[float, ...]:
        if key not in self.entries:
            return self.word(key, default)
        try:
            values = tuple(float(tok) for tok in self.word(key).replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"line {self.lineno(key)}: malformed number list for {key}") from None
        return values

    def reject_unknown(self) -> None:
        unknown = sorted(set(self.entries) - self.used)
        if unknown:
            raise ConfigError(f"line {self.lineno(unknown[0])}: unknown key {unknown[0]!r}")


def _build(e: _Entries, key: Callable[[FieldError], str], cls, **values):
    """``cls(**values)``, its FieldError a ConfigError naming the key ``key(error)`` and its line."""
    try:
        return cls(**values)
    except FieldError as exc:
        raise e.error(key(exc), exc.rule) from None


def _grid_key(exc: FieldError) -> str:
    """grid.nx/ny for an axis of cells, grid.lx/ly of lengths, grid.dim for the axis count."""
    if exc.axis is None:
        return "grid.dim"
    return {"cells": "grid.n", "lengths": "grid.l"}[exc.field] + "xy"[exc.axis]


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
    return _build(e, lambda exc: f"{section}.{exc.field}", cls, **{
        name: getattr(e, reader)(f"{section}.{name}", defaults.get(name, default))
        for name, reader, default in _section_keys(cls)
    })


def _echo_section(section: str, obj) -> list[str]:
    return [f"{section}.{name} = {_ECHO[reader](getattr(obj, name))}"
            for name, reader, _ in _section_keys(type(obj))
            if reader != "numbers" or getattr(obj, name)]  # an empty list is the absent key


def _parse_rate(e: _Entries, prefix: str) -> RateFunction:
    kind, k_half = e.word(f"{prefix}.kind", "constant"), f"{prefix}.k_half"
    saturating = {"half_saturation": e.number(k_half, 1.0)} if kind == "saturating" else {}
    rate = _build(e, lambda exc: f"{prefix}.{'k_half' if exc.field == 'half_saturation' else exc.field}",
                  RateFunction, kind=kind, amplitude=e.number(f"{prefix}.amplitude", 1.0), **saturating)
    if not saturating and k_half in e.entries:
        raise e.error(k_half, "applies to the saturating kind only")
    return rate


def _parse_initializer(e: _Entries, row: int, section: str) -> InitializerSpec:
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
        spec = InitializerSpec(kind="uniform", uniform=e.number(key))
        _check_initial(row, spec.uniform, section, where)
        return spec
    toks = e.word(key).replace(",", " ").split()
    if len(toks) < 3:
        raise ConfigError(f"{where}cosine needs 'base amplitude kx [ky]'")
    try:
        base, amplitude = float(toks[0]), float(toks[1])
        modes = tuple(int(t) for t in toks[2:])
    except ValueError:
        raise ConfigError(f"{where}malformed cosine spec for {section}") from None
    return InitializerSpec(kind="cosine", base=base, amplitude=amplitude, modes=modes)


def _check_initial(row: int, low: float, section: str, where: str = "") -> None:
    """``check_initial`` on a section's lowest value, its FieldError a ConfigError after ``where``."""
    try:
        check_initial(row, low, section)
    except FieldError as exc:
        raise ConfigError(f"{where}{exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; every default becomes explicit."""
    e = _Entries(_parse_lines(text))

    dim = e.integer("grid.dim")
    if dim not in (1, 2):
        raise e.error("grid.dim", f"must be 1 or 2, got {dim}")
    cells, lengths = zip(*((e.integer(f"grid.n{a}"), e.number(f"grid.l{a}")) for a in "xy"[:dim]))
    grid = _build(e, _grid_key, Grid, cells=cells, lengths=lengths)

    params = _parse_section(e, "params", ModelParams)
    alpha1 = _parse_rate(e, "rates.alpha1")
    alpha2 = _parse_rate(e, "rates.alpha2")
    schedule = _parse_section(e, "schedule", SupplySchedule)
    t_end = e.number("control.t_end")
    ctrl = _parse_section(e, "control", StepControl, save_every=t_end / 100.0 or 1.0)  # 1 at t_end = 0
    initial = {section: _parse_initializer(e, row, section) for row, section in enumerate(_INITIAL_SECTIONS)}

    snapshots = e.integer("output.snapshots", 0)
    if snapshots not in (0, 1):
        raise e.error("output.snapshots", f"must be 0 or 1, got {snapshots}")

    e.reject_unknown()
    return RunConfig(
        grid=grid, params=params, alpha1=alpha1, alpha2=alpha2, schedule=schedule, ctrl=ctrl,
        initial=initial, snapshots=bool(snapshots),
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
    lines.append(f"output.snapshots = {int(cfg.snapshots)}")
    return "\n".join(lines) + "\n"
