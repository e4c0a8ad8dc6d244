"""The four benchmark workloads: seeded inputs, CLI commands and output checks.

Each workload is generated from a seed and handed to the program only as a
config file plus the per-cell ``file =`` initial data it names. The model
parameters are fixed copies of the shipped protocols, so a later change to
``configs/`` does not move the benchmark.

Roughness is multiplicative, ``value * (1 + ROUGHNESS * u)`` with ``u`` in
[-1, 1), so every positive profile stays positive and the parser's sign rules
(c >= 0, chi and tau > 0) hold for every seed. The amplitudes are small
enough that the same stability limit binds for every seed, so a workload
takes the same number of steps whatever the seed.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROUGHNESS = 0.05          # per-cell relative roughness of the initial data
UNIFORM_SPREAD = 0.10     # relative spread of the oracle workload's uniform data
ORACLE_DT = 2e-4
ORACLE_FINAL_TOL = 1e-2   # stated accuracy of the PDE path against RK4 at t_end
EPS_LIST = "0.5,0.25,0.125,0.0625"

WHY = {
    "dosing_1d": "many tiny steps on 32 cells: numpy dispatch and the step driver dominate, so per-step overhead cuts show here",
    "field_2d": "same kernels on 128x128 arrays, with snapshot writes read back by weakcheck and the 128-row residual table",
    "eps_sweep_1d": "the eps>0 branches, four run_member calls and the sweep distance contractions, the target of batched ensembles",
    "oracle_0d": "the pure-Python RK4 oracle against the PDE run on uniform data; the only workload that runs the oracle",
}

# Nominal (set-up, iteration) seconds of the control program in perfbench/control
# on each workload: medians measured on a shared 2-vCPU Xeon VM (Python 3.11,
# numpy 2.4). run.py reports a time as its median ratio to the control times these.
NOMINAL = {
    "dosing_1d": (0.30, 1.42),
    "field_2d": (0.30, 2.43),
    "eps_sweep_1d": (0.28, 1.52),
    "oracle_0d": (0.26, 1.19),
}

# Three-week culture protocol (jump dosing every third day, time in days).
_THREEWEEK = """\
params.a1 = 0.01
params.a2 = 0.01
params.b_tau = 0.2
params.b_chi = 0.2
params.d_chi = 0.2
params.a_chi = 0.4
params.beta = 0.3
params.delta = 0.1
params.mu = 0.05
rates.alpha1.kind = saturating
rates.alpha1.amplitude = 0.8
rates.alpha1.k_half = 0.3
rates.alpha2.kind = constant
rates.alpha2.amplitude = 0.1
schedule.dose_times = 3 6 9 12 15 18
schedule.chi0 = 1.0
schedule.mode = jump
control.dt_max = 0.005
"""

# Default coupling: full model, pulse dosing, dt_max binding in 1D.
_DEFAULT = """\
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
rates.alpha1.kind = saturating
rates.alpha1.amplitude = 1.2
rates.alpha1.k_half = 0.5
rates.alpha2.kind = constant
rates.alpha2.amplitude = 0.4
schedule.chi0 = 0.5
schedule.mode = pulse
"""


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``regenfv <name> --config ... --out ... <extra>``."""

    name: str
    extra: tuple[str, ...] = ()


@dataclass(frozen=True)
class Plan:
    """A generated workload: where its inputs are and what its outputs must be."""

    workload: str
    seed: int
    config: Path
    commands: tuple[Command, ...]
    cells: int
    saves: int            # rows of diagnostics.csv and oracle.csv
    measure: float        # |Omega|
    snapshots: bool
    weak_rows: int = 0
    sweep_rows: int = 0


def _rough(rng: random.Random, value: float) -> float:
    return value * (1.0 + ROUGHNESS * (2.0 * rng.random() - 1.0))


def _cosine_profile(grid: tuple[int, ...], base: float, amplitude: float) -> list[float]:
    """base + amplitude * prod cos(pi x_i) at the cell centers, row-major."""
    axes = [[math.cos(math.pi * (i + 0.5) / n) for i in range(n)] for n in grid]
    if len(grid) == 1:
        return [base + amplitude * cx for cx in axes[0]]
    return [base + amplitude * cx * cy for cx in axes[0] for cy in axes[1]]


def _write_fields(rng: random.Random, folder: Path, grid: tuple[int, ...], profiles: dict) -> str:
    """Write one rough profile per initial-data section; return the config lines."""
    lines = []
    for section, (base, amplitude) in profiles.items():
        values = [_rough(rng, v) for v in _cosine_profile(grid, base, amplitude)]
        name = f"{section}.txt"
        (folder / name).write_text("\n".join(repr(v) for v in values) + "\n")
        lines.append(f"{section}.file = {name}")
    return "\n".join(lines) + "\n"


def _saves(t_end: float, save_every: float) -> int:
    return round(t_end / save_every) + 1


def prepare(workload: str, seed: int, folder: Path, tiny: bool = False) -> Plan:
    """Write the workload's config and initial data into ``folder``.

    The same (workload, seed) always writes the same bytes. ``tiny`` shrinks
    horizons and grids so the whole benchmark runs in seconds (self-test).
    """
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WHY)}")
    folder.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    config = folder / "workload.cfg"

    if workload in ("dosing_1d", "oracle_0d"):
        nx = 32 if workload == "dosing_1d" else 8
        t_end, save_every = (3.5, 0.5) if tiny else (4.0, 0.5)
        head = f"grid.dim = 1\ngrid.nx = {nx}\ngrid.lx = 1.0\n" + _THREEWEEK
        head += f"control.t_end = {t_end!r}\ncontrol.save_every = {save_every!r}\n"
        head += "output.snapshots = 0\n"
        if workload == "dosing_1d":
            body = _write_fields(rng, folder, (nx,), {
                "c10": (0.4, 0.1), "c20": (0.02, 0.0), "chi0": (1.0, 0.0), "tau0": (0.1, 0.0),
            })
            commands = (Command("run"),)
        else:
            body = "".join(
                f"{section}.uniform = {v * (1.0 + UNIFORM_SPREAD * (2.0 * rng.random() - 1.0))!r}\n"
                for section, v in (("c10", 0.4), ("c20", 0.02), ("chi0", 1.0), ("tau0", 0.1))
            )
            dt = 1e-3 if tiny else ORACLE_DT
            commands = (Command("run"), Command("oracle", ("--dt", repr(dt))))
        config.write_text(head + body)
        return Plan(workload, seed, config, commands, nx, _saves(t_end, save_every), 1.0, False)

    if workload == "field_2d":
        n = 16 if tiny else 128
        t_end, save_every = 0.006, 0.002
        head = f"grid.dim = 2\ngrid.nx = {n}\ngrid.lx = 1.0\ngrid.ny = {n}\ngrid.ly = 1.0\n" + _DEFAULT
        head += "schedule.dose_times = 0.003\nschedule.width = 0.003\n"
        head += f"control.t_end = {t_end!r}\ncontrol.dt_max = 1e-4\ncontrol.cfl_safety = 0.5\n"
        head += f"control.save_every = {save_every!r}\noutput.snapshots = 1\n"
        body = _write_fields(rng, folder, (n, n), {
            "c10": (0.5, 0.2), "c20": (0.05, 0.0), "chi0": (1.0, 0.2), "tau0": (0.4, 0.05),
        })
        config.write_text(head + body)
        # weakcheck defaults: modes 0..3 per axis, powers 1 and 2, four equations
        return Plan(workload, seed, config, (Command("run"), Command("weakcheck")),
                    n * n, _saves(t_end, save_every), 1.0, True, weak_rows=4 * 16 * 2)

    # eps_sweep_1d: the default 1D problem, dt_max binding for every member
    t_end = 0.025 if tiny else 0.075
    head = "grid.dim = 1\ngrid.nx = 64\ngrid.lx = 1.0\n" + _DEFAULT
    head += "schedule.dose_times = 0.05\nschedule.width = 0.025\n"
    head += f"control.t_end = {t_end!r}\ncontrol.dt_max = 1e-4\ncontrol.cfl_safety = 1.0\n"
    head += "control.save_every = 0.0125\noutput.snapshots = 0\n"
    body = _write_fields(rng, folder, (64,), {
        "c10": (0.5, 0.2), "c20": (0.05, 0.0), "chi0": (1.0, 0.2), "tau0": (0.4, 0.05),
    })
    config.write_text(head + body)
    return Plan(workload, seed, config, (Command("sweep", ("--eps-list", EPS_LIST)),),
                64, _saves(t_end, 0.0125), 1.0, False, sweep_rows=len(EPS_LIST.split(",")))


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _numbers(path: Path, rows: list[list[str]], skip_empty: bool = False) -> list[list[float]]:
    """Parse every cell as a float and require it to be finite."""
    out = []
    for row in rows:
        values = []
        for cell in row:
            if skip_empty and cell == "":
                continue
            value = float(cell)
            if not math.isfinite(value):
                raise ValueError(f"{path.name} holds a non-finite value {cell!r}")
            values.append(value)
        out.append(values)
    return out


def oracle_gaps(out: Path, measure: float) -> tuple[float, float]:
    """Max relative gap between run masses/|Omega| and oracle.csv: over all rows, and at t_end.

    Rows are matched by index; their times must agree to 1e-9. Dose rows are
    included, so the pre/post-dose save-convention mismatch shows in the first value.
    """
    head, diag = _read_rows(out / "diagnostics.csv")
    _, orac = _read_rows(out / "oracle.csv")
    if len(diag) != len(orac):
        raise ValueError(f"diagnostics.csv has {len(diag)} rows, oracle.csv {len(orac)}")
    cols = [head.index(c) for c in ("t", "mass_c1", "mass_c2", "mass_chi", "mass_tau")]
    gaps = []
    for d_row, o_row in zip(diag, orac):
        pde = [float(d_row[c]) for c in cols]
        ode = [float(v) for v in o_row]
        if abs(pde[0] - ode[0]) > 1e-9:
            raise ValueError(f"save times differ: run {pde[0]!r}, oracle {ode[0]!r}")
        gaps.append(max(abs(p / measure - o) / abs(o) for p, o in zip(pde[1:], ode[1:])))
    return max(gaps), gaps[-1]


def check(plan: Plan, command: str, out: Path) -> list[str]:
    """Problems with one command's outputs; an empty list means they are correct."""
    try:
        if command == "run":
            head, rows = _read_rows(out / "diagnostics.csv")
            if len(rows) != plan.saves:
                return [f"diagnostics.csv has {len(rows)} rows, expected {plan.saves}"]
            values = _numbers(out / "diagnostics.csv", rows)
            certs = [i for i, name in enumerate(head) if name.startswith("cert_")]
            failed = [head[i] for row in values for i in certs if row[i] != 1.0]
            if len(certs) != 3 or failed:
                return [f"certificate columns not all 1: {sorted(set(failed)) or head}"]
            if plan.snapshots:
                snaps = len(list(out.glob("snap_*.csv")))
                if snaps != plan.saves:
                    return [f"{snaps} snapshots written, expected {plan.saves}"]
            if not (out / "config_echo.txt").is_file():
                return ["config_echo.txt missing"]
        elif command == "weakcheck":
            _, rows = _read_rows(out / "weakform.csv")
            if len(rows) != plan.weak_rows:
                return [f"weakform.csv has {len(rows)} rows, expected {plan.weak_rows}"]
            _numbers(out / "weakform.csv", [row[3:] for row in rows])
        elif command == "sweep":
            _, rows = _read_rows(out / "sweep.csv")
            if len(rows) != plan.sweep_rows:
                return [f"sweep.csv has {len(rows)} rows, expected {plan.sweep_rows}"]
            _numbers(out / "sweep.csv", rows, skip_empty=True)
            if any(cell == "" for row in rows[1:] for cell in row):
                return ["sweep.csv lacks a pair distance after the first member"]
        elif command == "oracle":
            _, rows = _read_rows(out / "oracle.csv")
            if len(rows) != plan.saves:
                return [f"oracle.csv has {len(rows)} rows, expected {plan.saves}"]
            _numbers(out / "oracle.csv", rows)
            _, final = oracle_gaps(out, plan.measure)
            if not final <= ORACLE_FINAL_TOL:
                return [f"run and oracle differ by {final:.3g} at t_end (limit {ORACLE_FINAL_TOL:g})"]
        else:
            return [f"no check for command {command!r}"]
    except (OSError, ValueError, IndexError) as exc:
        return [f"{command}: {exc}"]
    return []
