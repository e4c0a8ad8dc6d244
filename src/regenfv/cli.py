"""Command-line surface: run / sweep / weakcheck / oracle.

All file output lives here; the modules that compute return numbers only.
Each table (the per-run diagnostics.csv in ``DiagnosticsRecord`` field order,
sweep.csv, weakform.csv and oracle.csv) is written one ``_line`` at a time:
strings as they are, booleans as 0/1, integers as integers and every other
number as its shortest round-trip decimal (``config._fmt``, which the config
echo uses too). The optional per-save snapshots, snap_<index>.csv with
columns x[,y] and ``FIELDS``, take ``repr`` of the floats of ``tolist()``,
the same decimals without a call per value (``_snapshot_blocks``); every
save's state also goes to one binary trajectory.npy. ``weakcheck`` reads the
states of a run from its trajectory.npy and their times from the config
(``save_times``), which its config_echo.txt must show to be the run's;
diagnostics.csv is an output only, and the snapshot text is not read back
either.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 certificate failure under --strict.

``entrypoint`` is the process entry (the ``regenfv`` script and ``python -m
regenfv.cli``): it runs ``main`` with the cyclic garbage collector off and
freezes the heap before the interpreter exits, since a command makes no
reference cycles that grow with its steps and keeps what it allocates until
exit. ``main`` itself leaves the collector as it finds it, so library callers
and in-process tests keep theirs.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import os
import sys
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING

from .config import Grid, RunConfig, _fmt, echo_text, parse_config
from .errors import ConfigError, DivergenceError, StabilityError, StiffnessError
from .model import FIELDS, save_times

# Each command imports the modules it runs inside its function, so that no
# command loads the code of another, and numpy only where it builds or reads
# arrays, so that the oracle, --help and usage errors run without it; these
# names serve annotations only.
if TYPE_CHECKING:
    import numpy as np

    from .stepping import SimState
    from .weakform import Trajectory


_SNAPSHOT_BLOCK = 4096  # cells per piece of snapshot text; also the fewest cells for a forked writer


def _line(values) -> str:
    """One line of a table: each str as it is, each bool or int as an
    integer, any other number by ``_fmt``."""
    return ",".join(v if isinstance(v, str) else str(int(v)) if isinstance(v, int) else _fmt(v)
                    for v in values) + "\n"


def _snapshot_blocks(grid: Grid, u: np.ndarray):
    """The snapshot CSV text of the ``(4, *grid.shape)`` fields ``u`` in
    pieces of ``_SNAPSHOT_BLOCK`` cells, so that only one piece's Python
    lists and strings are alive at a time. A block joins its cells'
    coordinates ('x' or 'x,y') from the reprs of the x centers its own cells
    use, a slice of the leading axis, and of the y centers (2D), which are
    built once per call; no call keeps any."""
    x, *inner = (grid.axis_centers(a) for a in range(grid.dim))
    inner = [list(map(repr, y.tolist())) for y in inner]
    stride, u = grid.n_cells // len(x), u.reshape(4, -1)  # cells per x center
    yield _line(("x", "y")[:grid.dim] + FIELDS)
    for start in range(0, grid.n_cells, _SNAPSHOT_BLOCK):
        stop = min(start + _SNAPSHOT_BLOCK, grid.n_cells)
        lead = map(repr, x[start // stride:(stop - 1) // stride + 1].tolist())
        coords = itertools.islice(itertools.product(lead, *inner), start % stride, None)
        values = u[:, start:stop].tolist()
        rows = zip(map(",".join, coords), *(map(repr, row) for row in values))
        yield "\n".join(map(",".join, rows)) + "\n"


def _write_snapshot(path: Path, grid: Grid, u: np.ndarray) -> int:
    """Write one snapshot file; return 0, or the errno of the write that
    failed (255 when it names none)."""
    try:
        with path.open("w") as fh:
            fh.writelines(_snapshot_blocks(grid, u))
    except OSError as exc:
        return exc.errno or 255
    return 0


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


class _Snapshots:
    """The snapshot sink of ``run``: each save appends its state to
    ``trajectory.npy`` and writes ``snap_<index>.csv``.

    ``trajectory.npy`` is one ``.npy`` file (``np.lib.format`` version 1.0),
    opened by the first save, whose header declares the planned
    ``(n_t, 4, *grid.shape)`` ``<f8`` array, rows in ``FIELDS`` order. The
    parent appends each save's bytes and flushes them before any child
    forks, so the file always holds the saves so far: a run that stops early
    leaves it short of its header.

    A snapshot text of at least ``_SNAPSHOT_BLOCK`` cells, on a host with
    more than one usable CPU, is written by a forked child, so that
    formatting it (``repr`` of every value) runs on an idle CPU while the run
    steps on: the child writes the state as it stands at the fork
    (copy-on-write) and exits with ``_write_snapshot``'s status, from which
    the parent rebuilds the in-process message (a status of 255, or a signal,
    leaves no errno to name). At most one child per usable CPU is alive: a
    save first reaps the oldest when all are busy. POSIX only (``os.fork``);
    the children call no BLAS. Smaller snapshots, and every snapshot on one
    usable CPU, are written in process. A failed text write stops nothing, on
    either path: every save is tried, and the first failure, the lowest index
    (children are reaped oldest first), is raised on exit.
    """

    def __init__(self, out: Path, grid: Grid, n_t: int):
        self.out, self.failure, self.shape = out, "", (n_t, 4, *grid.shape)
        self.slots = _usable_cpus() if grid.n_cells >= _SNAPSHOT_BLOCK else 1  # 1: write in process
        self.children: deque[tuple[int, Path]] = deque()  # (pid, its file), oldest first
        self.states = None  # trajectory.npy, opened by the first save

    def __enter__(self) -> _Snapshots:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            while self.children:
                self._reap()
        finally:
            if self.states is not None:
                self.states.close()
        # an error of the run itself (or an interrupt) comes before a failed write
        if exc_type is None and self.failure:
            raise ConfigError(self.failure)

    def send(self, index: int, state: SimState) -> None:
        import numpy as np

        if index == 0:
            self.states = (self.out / "trajectory.npy").open("wb")
            np.lib.format.write_array_header_1_0(
                self.states, {"descr": "<f8", "fortran_order": False, "shape": self.shape})
        self.states.write(np.ascontiguousarray(state.u, "<f8").data)
        self.states.flush()  # no pending bytes for a child to inherit, and a failed run keeps its saves
        path = self.out / f"snap_{index}.csv"
        if self.slots == 1:
            errno = _write_snapshot(path, state.grid, state.u)
            if errno and not self.failure:
                self.failure = f"cannot write snapshot {path}: {os.strerror(errno)}"
            return
        if len(self.children) == self.slots:
            self._reap()
        pid = os.fork()
        if pid == 0:
            status = 255  # also when the write raises something other than OSError
            try:
                status = _write_snapshot(path, state.grid, state.u)
            finally:
                os._exit(status)
        self.children.append((pid, path))

    def _reap(self) -> None:
        """Wait for the oldest child; keep the first failure."""
        pid, path = self.children.popleft()
        status = os.waitpid(pid, 0)[1]
        if status and not self.failure:
            errno = os.waitstatus_to_exitcode(status)
            self.failure = (f"cannot write snapshot {path}: {os.strerror(errno)}" if 0 < errno < 255 else
                            f"a snapshot writer failed (wait status {status}); "
                            f"the snap_*.csv files in {self.out} may be incomplete")


def load_trajectory(cfg: RunConfig, out_dir: Path) -> Trajectory:
    """Rebuild a Trajectory from a run's trajectory.npy (the states) and
    ``save_times`` of ``cfg`` (the times).

    The times and the weak form's doses come from ``cfg``, so the lines that
    place the cells, saves and doses (``grid.*``, ``schedule.*``,
    ``control.t_end``, ``control.save_every``) of the run's config_echo.txt
    must be those of ``cfg``'s echo; ``params.*`` and ``rates.*`` may differ,
    for residuals under other coefficients. The files are outside input, each
    refused with a ConfigError naming it: an absent one, the first such line
    that differs (with both values), and states that are malformed, short (a
    run that stopped early), not ``<f8`` of shape ``(len(times), 4, *grid.shape)``
    or non-finite.
    """
    import numpy as np

    from .weakform import Trajectory

    echo_path, npy_path = out_dir / "config_echo.txt", out_dir / "trajectory.npy"
    for path in (echo_path, npy_path):
        if not path.exists():
            raise ConfigError(f"no {path.name} in {out_dir}; run with output.snapshots = 1 first")
    ran, configured = ({line.partition(" = ")[0]: line for line in text.splitlines()}
                       for text in (echo_path.read_text(errors="replace"), echo_text(cfg)))
    for key in dict.fromkeys([*configured, *ran]):
        pinned = key.startswith(("grid.", "schedule.")) or key in ("control.t_end", "control.save_every")
        if pinned and ran.get(key) != configured.get(key):
            raise ConfigError(f"{echo_path}: the run has {ran.get(key, 'no ' + key)}, the config "
                              f"{configured.get(key, 'no ' + key)}; weakcheck takes the cells, saves and doses from the config")
    times = save_times(cfg.schedule, cfg.ctrl.t_end, cfg.ctrl.save_every)
    try:
        with npy_path.open("rb") as fh:
            u = np.load(fh)
    except (ValueError, EOFError) as exc:
        raise ConfigError(f"malformed {npy_path}: {exc}") from None
    expected = (len(times), 4, *cfg.grid.shape)
    if not isinstance(u, np.ndarray) or u.dtype != np.dtype("<f8") or u.shape != expected:
        found = f"{u.dtype.str} states of shape {u.shape}" if isinstance(u, np.ndarray) else "no array"
        raise ConfigError(f"{npy_path} holds {found}, expected <f8 states of shape {expected}")
    finite = np.isfinite(u).reshape(len(u), -1).all(axis=1)
    if not finite.all():
        raise ConfigError(f"{npy_path} holds non-finite values in save {finite.argmin()}")
    try:
        return Trajectory(np.array(times), u, cfg.grid, cfg.params, cfg.alphas, cfg.schedule)
    except ValueError as exc:
        raise ConfigError(f"{out_dir}: {exc}") from None


def _out_dir(args) -> Path:
    """The output directory, not yet created: a command creates it only once
    its inputs are validated, so a rejected command leaves nothing behind."""
    if not args.out:
        raise ConfigError("--out needs a directory name")
    out = Path(args.out)
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"output directory {out}: {path} exists and is not a directory")
    return out


def _cmd_run(cfg: RunConfig, args) -> int:
    from .diagnostics import DiagnosticsRecord, compute_record
    from .stepping import run

    out = _out_dir(args)
    initial = cfg.build_initial()
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.txt").write_text(echo_text(cfg))
    last_t, failed_t = None, None  # the last save, and the first whose certificates fail

    # one flushed row per save, so that a run that fails keeps its history
    n_t = len(save_times(cfg.schedule, cfg.ctrl.t_end, cfg.ctrl.save_every))
    with _Snapshots(out, initial.grid, n_t) as snapshots, \
            (out / "diagnostics.csv").open("w") as diag:
        diag.write(_line(DiagnosticsRecord.CSV_COLUMNS))

        def record_sink(state: SimState) -> None:
            nonlocal last_t, failed_t
            rec = compute_record(state, cfg.params, cfg.alphas, initial)
            diag.write(_line(getattr(rec, name) for name in rec.CSV_COLUMNS))
            diag.flush()
            last_t = rec.t
            if failed_t is None and not (rec.cert_c1_mass and rec.cert_tau_linf and rec.cert_nonneg):
                failed_t = rec.t

        try:
            run(initial, cfg.params, cfg.alphas, cfg.schedule, cfg.ctrl,
                record_sink=record_sink, snapshot_sink=snapshots.send if cfg.snapshots else None)
        except (StabilityError, DivergenceError) as exc:
            raise type(exc)(f"{exc}; last save t={last_t:g}") from None

    if args.strict and failed_t is not None:
        print(f"certificate failure at t={failed_t:g}", file=sys.stderr)
        return 3
    return 0


def _cmd_sweep(cfg: RunConfig, args) -> int:
    from .sweep import SweepConfig, run_sweep

    out = _out_dir(args)
    if not args.eps_list:
        raise ConfigError("sweep needs --eps-list, e.g. --eps-list 0.5,0.25,0.125")
    try:
        eps_list = tuple(float(tok) for tok in args.eps_list.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"malformed --eps-list {args.eps_list!r}") from None
    try:
        sweep_cfg = SweepConfig(
            eps_list=eps_list,
            params=cfg.params,
            alphas=cfg.alphas,
            schedule=cfg.schedule,
            initial=cfg.build_initial(),
            ctrl=cfg.ctrl,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = run_sweep(sweep_cfg)
    out.mkdir(parents=True, exist_ok=True)
    lines = [_line(("eps", *(f"pair_distance_{f}" for f in FIELDS), "art_c1", "art_c2", "art_tau"))]
    for e in report.entries:
        dist = ("",) * 4 if e.pair_distance is None else (e.pair_distance[f] for f in FIELDS)
        lines.append(_line((e.eps, *dist, e.art_c1, e.art_c2, e.art_tau)))
    (out / "sweep.csv").write_text("".join(lines))
    return 0


def _cmd_weakcheck(cfg: RunConfig, args) -> int:
    from .weakform import residual_table

    if not cfg.snapshots:
        raise ConfigError("weakcheck reads the snapshots of a run, and this config sets output.snapshots = 0")
    out = _out_dir(args)
    lines = [_line(("equation", "k", "m", "residual", "level"))]
    for name, modes, power, value in residual_table(load_trajectory(cfg, out)):
        lines.append(_line((name, "x".join(map(str, modes)), power, value, 0)))
    (out / "weakform.csv").write_text("".join(lines))
    return 0


def _cmd_oracle(cfg: RunConfig, args) -> int:
    from .oracle import HomogeneousState, _rk4

    out = _out_dir(args)
    t_end = cfg.ctrl.t_end
    dt = args.dt if args.dt is not None else (t_end / 1000.0 if t_end > 0 else 1e-3)
    if not 0.0 < dt < math.inf:
        raise ConfigError(f"--dt must be finite and positive, got {dt}")
    if any(spec.kind != "uniform" for spec in cfg.initial.values()):
        raise ConfigError("the oracle needs uniform initial data in every section")
    y0 = HomogeneousState(0.0, *(spec.uniform for spec in cfg.initial.values()))  # sections in FIELDS order
    times, values = _rk4(
        y0, cfg.params, cfg.alphas, cfg.schedule, dt=dt, t_end=t_end,
        domain_measure=cfg.grid.measure, save_every=cfg.ctrl.save_every,
    )
    out.mkdir(parents=True, exist_ok=True)
    lines = [_line(("t", *FIELDS))]
    lines += (_line((t, *row)) for t, row in zip(times, values))
    (out / "oracle.csv").write_text("".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1); exit 2 means numerical failure."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regenfv", description="Simulate the tissue-regeneration model and check its runs.",
                     epilog="exit codes: 0 success, 1 configuration or usage error, 2 numerical failure, "
                            "3 certificate failure under run --strict")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run one simulation and write diagnostics"),
        ("sweep", "run a decreasing-eps convergence sweep"),
        ("weakcheck", "evaluate weak-form residuals on stored snapshots"),
        ("oracle", "integrate the homogeneous reference trajectory"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the run configuration")
        cmd.add_argument("--out", required=True, help="output directory")
        if name == "run":
            cmd.add_argument("--strict", action="store_true", help="exit 3 when a bound certificate fails")
        if name == "sweep":
            cmd.add_argument("--eps-list", default="", help="comma-separated decreasing eps values")
        if name == "oracle":
            cmd.add_argument("--dt", type=float, default=None, help="oracle step (default t_end/1000)")
    return parser


_COMMANDS = {"run": _cmd_run, "sweep": _cmd_sweep, "weakcheck": _cmd_weakcheck, "oracle": _cmd_oracle}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config} is not UTF-8 text: {exc}") from None
        return _COMMANDS[args.command](parse_config(text), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (StabilityError, DivergenceError, StiffnessError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file of the config, the input or the output that cannot be read or written
        print(f"config error: {exc.filename}: {exc.strerror}" if exc.filename else f"config error: {exc}",
              file=sys.stderr)
        return 1


def entrypoint() -> None:
    # forked snapshot writers inherit the collector-off state; the interpreter's
    # shutdown collections skip the permanent generation that freezing fills
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
