"""Command-line surface: run / sweep / weakcheck / oracle.

All file output lives here: the per-run diagnostics CSV (fixed column order,
booleans as 0/1, shortest round-trip decimals), optional per-save snapshot
CSVs (snap_<index>.csv with columns x[,y],c1,c2,chi,tau), the canonical
config echo, the sweep report CSV, and the weak-form residual report CSV.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 certificate failure under --strict.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, echo_text, parse_config
from .diagnostics import DiagnosticsRecord, compute_record
from .errors import ConfigError, DivergenceError, StabilityError, StiffnessError
from .oracle import HomogeneousState, rk4_solve
from .stepping import SimState, run
from .sweep import SweepConfig, run_sweep
from .weakform import Trajectory, residual_table


def _write_diagnostics_csv(path: Path, records: list[DiagnosticsRecord]) -> None:
    lines = [",".join(DiagnosticsRecord.CSV_COLUMNS)]
    lines.extend(rec.csv_row() for rec in records)
    path.write_text("\n".join(lines) + "\n")


def _snapshot_text(state: SimState) -> str:
    grid = state.grid
    coords = [c.ravel() for c in grid.coordinate_arrays()]
    header = ("x,y," if grid.dim == 2 else "x,") + "c1,c2,chi,tau"
    columns = coords + [row.ravel() for row in state.u]
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def load_trajectory(cfg: RunConfig, out_dir: Path) -> Trajectory:
    """Rebuild a Trajectory from diagnostics.csv and the snap_<index>.csv files.

    The files are outside input: a malformed one, or one whose cell centers
    are not those of the configured grid, is a ConfigError naming it.
    """
    diag_path = out_dir / "diagnostics.csv"
    if not diag_path.exists():
        raise ConfigError(f"no diagnostics.csv in {out_dir}; run with output.snapshots = 1 first")
    try:
        with diag_path.open() as fh:
            header = fh.readline().strip().split(",")
            t_col = header.index("t")
            times = [float(line.split(",")[t_col]) for line in fh if line.strip()]
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"malformed {diag_path}: {exc}") from None
    grid = cfg.grid
    centers = np.column_stack([c.ravel() for c in grid.coordinate_arrays()])
    states = []
    for idx, t in enumerate(times):
        snap = out_dir / f"snap_{idx}.csv"
        if not snap.exists():
            raise ConfigError(f"missing snapshot {snap}")
        try:
            data = np.atleast_2d(np.loadtxt(snap, delimiter=",", skiprows=1))
        except ValueError as exc:
            raise ConfigError(f"malformed snapshot {snap}: {exc}") from None
        if data.shape != (grid.n_cells, grid.dim + 4):
            raise ConfigError(
                f"snapshot {snap} holds {data.shape[0]}x{data.shape[1]} values, "
                f"expected {grid.n_cells}x{grid.dim + 4}"
            )
        if not np.isfinite(data).all():
            raise ConfigError(f"snapshot {snap} holds non-finite values")
        # written with repr, so the centers of the configured grid round-trip exactly
        if not np.array_equal(data[:, : grid.dim], centers):
            raise ConfigError(
                f"snapshot {snap} has cell centers that differ from the configured grid"
            )
        u = np.ascontiguousarray(data[:, grid.dim:].T).reshape((4, *grid.shape))
        states.append(SimState(t, u, grid))
    try:
        return Trajectory(np.asarray(times), tuple(states), cfg.params, cfg.alphas, cfg.schedule)
    except ValueError as exc:
        raise ConfigError(f"{out_dir}: {exc}") from None


def _resolve_out(cfg: RunConfig, args) -> Path:
    out = args.out or cfg.out_dir
    if not out:
        raise ConfigError("no output directory: pass --out or set output.dir")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_run(cfg: RunConfig, args) -> int:
    out = _resolve_out(cfg, args)
    initial = cfg.build_initial()
    records: list[DiagnosticsRecord] = []

    def record_sink(state: SimState) -> None:
        records.append(compute_record(state, cfg.params, cfg.alphas, initial, cfg.entropy))

    snapshot_sink = None
    if cfg.snapshots:
        def snapshot_sink(index: int, state: SimState) -> None:
            (out / f"snap_{index}.csv").write_text(_snapshot_text(state))

    run(initial, cfg.params, cfg.alphas, cfg.schedule, cfg.ctrl,
        record_sink=record_sink, snapshot_sink=snapshot_sink)

    (out / "config_echo.txt").write_text(echo_text(cfg))
    _write_diagnostics_csv(out / "diagnostics.csv", records)

    if args.strict:
        for rec in records:
            if not (rec.cert_c1_mass and rec.cert_tau_linf and rec.cert_nonneg):
                print(f"certificate failure at t={rec.t:g}", file=sys.stderr)
                return 3
    return 0


def _cmd_sweep(cfg: RunConfig, args) -> int:
    out = _resolve_out(cfg, args)
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
    (out / "sweep.csv").write_text(report.csv_text())
    return 0


def _cmd_weakcheck(cfg: RunConfig, args) -> int:
    try:
        powers = tuple(int(tok) for tok in args.psi_m.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"malformed --psi-m {args.psi_m!r}") from None
    if not powers or min(powers) < 1:
        raise ConfigError(f"--psi-m needs temporal exponents of at least 1, got {args.psi_m!r}")
    if args.psi_kmax < 0:
        raise ConfigError(f"--psi-kmax must be nonnegative, got {args.psi_kmax}")
    out = _resolve_out(cfg, args)
    traj = load_trajectory(cfg, out)
    rows = residual_table(traj, k_max=args.psi_kmax, powers=powers)
    lines = ["equation,k,m,residual,level"]
    for name, modes, power, value in rows:
        k_label = "x".join(str(k) for k in modes)
        lines.append(f"{name},{k_label},{power},{repr(float(value))},0")
    (out / "weakform.csv").write_text("\n".join(lines) + "\n")
    return 0


def _cmd_oracle(cfg: RunConfig, args) -> int:
    t_end = cfg.ctrl.t_end
    dt = args.dt if args.dt is not None else (t_end / 1000.0 if t_end > 0 else 1e-3)
    if not 0.0 < dt < math.inf:
        raise ConfigError(f"--dt must be finite and positive, got {dt}")
    out = _resolve_out(cfg, args)
    uniform = {}
    for section, spec in cfg.initial.items():
        if spec.kind != "uniform":
            raise ConfigError("the oracle needs uniform initial data in every section")
        uniform[section] = spec.uniform
    y0 = HomogeneousState(
        t=0.0, c1=uniform["c10"], c2=uniform["c20"],
        chi=uniform["chi0"], tau=uniform["tau0"],
    )
    traj = rk4_solve(
        y0, cfg.params, cfg.alphas, cfg.schedule, dt=dt, t_end=t_end,
        domain_measure=cfg.grid.measure, save_every=cfg.ctrl.save_every,
    )
    lines = ["t,c1,c2,chi,tau"]
    for t, row in zip(traj.times, traj.values):
        lines.append(",".join(repr(float(v)) for v in (t, *row)))
    (out / "oracle.csv").write_text("\n".join(lines) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1); exit 2 means numerical failure."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regenfv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run one simulation and write diagnostics"),
        ("sweep", "run a decreasing-eps convergence sweep"),
        ("weakcheck", "evaluate weak-form residuals on stored snapshots"),
        ("oracle", "integrate the homogeneous reference trajectory"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the run configuration")
        cmd.add_argument("--out", default="", help="output directory (overrides output.dir)")
        cmd.add_argument("--strict", action="store_true",
                         help="exit 3 when a bound certificate fails")
        if name == "sweep":
            cmd.add_argument("--eps-list", default="", help="comma-separated decreasing eps values")
        if name == "weakcheck":
            cmd.add_argument("--psi-kmax", type=int, default=3, help="largest per-axis mode index")
            cmd.add_argument("--psi-m", default="1,2", help="temporal exponents, comma-separated")
        if name == "oracle":
            cmd.add_argument("--dt", type=float, default=None, help="oracle step (default t_end/1000)")
    return parser


_COMMANDS = {"run": _cmd_run, "sweep": _cmd_sweep, "weakcheck": _cmd_weakcheck, "oracle": _cmd_oracle}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(str(exc)) from None
        return _COMMANDS[args.command](parse_config(text), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (StabilityError, DivergenceError, StiffnessError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
