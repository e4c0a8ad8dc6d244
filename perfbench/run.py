"""regenfv benchmark: run one seeded workload through the CLI and report its metrics.

    python3 perfbench/run.py --workload dosing_1d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/regenfv`` must exist; nothing
is installed). Each CLI command is a fresh ``python -m regenfv.cli``
subprocess, issued one after another by this single process: a closed loop
with one client. ``--trace 0`` measures the end-to-end metrics with no
tracing; ``--trace 1`` alternates untraced and traced iterations of the same
commands and reports the per-layer metrics.

The host is shared and its speed drifts by a third or more within minutes,
so ``--trace 0`` times every iteration and set-up against a control: the same
commands run by the frozen copy of the program in ``perfbench/control``,
alternating which goes first. A time is reported as the median ratio of
program to control, times the control's nominal time for the workload
(``workloads.NOMINAL``). The last line of standard output
is one JSON object: correct, attempted, failed, metrics. A full record of the
run (problem size, machine, versions, output hashes, raw timings) is written
to ``.perfbench_work/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import workloads  # noqa: E402

CONTROL = Path(__file__).resolve().parent / "control"  # frozen copy of the program

END_TO_END = (("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 6       # program/control set-up pairs per --trace 0 run
MIN_ITERATIONS = 3      # program/control pairs per --trace 0 run, even past --seconds
HARD_CAP_S = 120.0      # never start an iteration expected to end after this
SETUP_CODE = "import sys, regenfv; regenfv.parse_config(open(sys.argv[1]).read()).build_initial()"


class Bench:
    """One benchmark run: a generated workload, its scratch folders and its child processes."""

    def __init__(self, root: Path, plan: workloads.Plan, work: Path):
        self.plan = plan
        self.work = work
        self.inputs = plan.config.parent
        self.out = work / "out"
        self.control_out = work / "control_out"
        self.spans = work / "spans"
        self.env = _env(root / "src")
        self.control_env = _env(CONTROL)

    def spawn(self, argv: list[str], env: dict | None = None) -> tuple[float, int, int, str]:
        """Run one child to completion: wall seconds, peak RSS (KiB), exit code, stderr tail."""
        err_path = self.work / "stderr.txt"
        with err_path.open("wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.inputs, env=env or self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss, proc.returncode, err_path.read_text(errors="replace")[-400:]

    def time_setup(self, control: bool = False) -> float:
        wall, _, code, err = self.spawn([sys.executable, "-c", SETUP_CODE, self.plan.config.name],
                                        self.control_env if control else None)
        if code != 0:
            raise RuntimeError(f"set-up failed with exit code {code}: {err}")
        return wall

    def control_iteration(self) -> float:
        """Run every command of the workload with the control program; total wall seconds."""
        shutil.rmtree(self.control_out, ignore_errors=True)
        self.control_out.mkdir(parents=True)
        total = 0.0
        for cmd in self.plan.commands:
            wall, _, code, err = self.spawn(
                [sys.executable, "-m", "regenfv.cli", cmd.name, "--config", str(self.plan.config),
                 "--out", str(self.control_out), *cmd.extra], self.control_env)
            if code != 0:
                raise RuntimeError(f"control {cmd.name} failed with exit code {code}: {err}")
            total += wall
        return total

    def iteration(self, traced: bool, index: int) -> dict:
        """Run every command of the workload once, fresh output folder, and check the outputs."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        result = {"traced": traced, "walls": {}, "rss_kib": {}, "problems": [], "span_files": [],
                  "bytes_written": 0}
        for cmd in self.plan.commands:
            cli = [cmd.name, "--config", str(self.plan.config), "--out", str(self.out), *cmd.extra]
            if traced:
                self.spans.mkdir(exist_ok=True)
                span_file = self.spans / f"{index}-{cmd.name}.npz"
                argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                        "--spans", str(span_file),
                        "--label", f"{self.plan.workload}/{self.plan.seed}", "--", *cli]
                result["span_files"].append(span_file)
            else:
                argv = [sys.executable, "-m", "regenfv.cli", *cli]
            before = _listing(self.out)
            wall, rss, code, err = self.spawn(argv)
            after = _listing(self.out)
            result["walls"][cmd.name] = wall
            result["rss_kib"][cmd.name] = rss
            result["bytes_written"] += sum(size for name, (size, _) in after.items()
                                           if before.get(name) != after[name])
            problems = ([f"{cmd.name} exited with code {code}: {err.strip()}"] if code != 0
                        else workloads.check(self.plan, cmd.name, self.out))
            result["problems"].append(problems)
        result["hashes"] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                            for path in sorted(self.out.iterdir())}
        if any(cmd.name == "oracle" for cmd in self.plan.commands) and not any(result["problems"]):
            result["oracle_gaps"] = workloads.oracle_gaps(self.out, self.plan.measure)
        return result


def _env(package_root: Path) -> dict:
    """The environment of a child that imports ``regenfv`` from ``package_root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(package_root), os.environ.get("PYTHONPATH", "")) if p)
    return env


def _listing(folder: Path) -> dict:
    return {p.name: (st.st_size, st.st_mtime_ns) for p in folder.iterdir() for st in [p.stat()]}


def _machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor() or None,
            "llc": None, "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), info["cpu_model"])
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            info["llc"] = fh.read().strip()
    except OSError:
        pass
    return info


def _software(root: Path) -> dict:
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "git_sha": sha, "source_sha256": src.hexdigest()}


def _run_loop(bench: Bench, seconds: float, traced_too: bool) -> list[dict]:
    """Iterate until the next round would end past ``seconds``.

    A round is an untraced iteration plus either a traced one (``traced_too``)
    or a control iteration, run first on every other round.
    """
    done: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if traced_too:
            done.append(bench.iteration(False, len(done)))
            done.append(bench.iteration(True, len(done)))
        else:
            control_first = len(durations) % 2 == 1
            control = bench.control_iteration() if control_first else None
            done.append(bench.iteration(False, len(done)))
            done[-1]["control_s"] = control if control_first else bench.control_iteration()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        expected = elapsed + statistics.median(durations)
        enough = traced_too or len(durations) >= MIN_ITERATIONS
        if expected > HARD_CAP_S or (enough and expected > seconds):
            return done


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="seconds-scale inputs (self-test)")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "regenfv" / "cli.py").is_file():
        print(f"perfbench: no regenfv sources at {root / 'src' / 'regenfv'}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.prepare(args.workload, args.seed, work / "inputs", tiny=args.tiny)
    bench = Bench(root, plan, work)

    bench.time_setup()  # untimed: compiles the package bytecode once, as an install would
    setup, control_setup = [], []
    if not args.trace:
        bench.time_setup(control=True)
        for i in range(SETUP_REPEATS):  # alternate which of the pair goes first
            if i % 2:
                control_setup.append(bench.time_setup(control=True))
                setup.append(bench.time_setup())
            else:
                setup.append(bench.time_setup())
                control_setup.append(bench.time_setup(control=True))
    iterations = _run_loop(bench, args.seconds, traced_too=bool(args.trace))

    problems = [p for it in iterations for cmd in it["problems"] for p in cmd]
    reference = iterations[0]["hashes"]
    for it in iterations[1:]:
        if it["hashes"] != reference:
            changed = sorted(k for k in set(it["hashes"]) | set(reference)
                             if it["hashes"].get(k) != reference.get(k))
            problems.append(f"outputs differ between iterations: {changed}")
            it["problems"][-1].append("outputs differ from the first iteration")
    attempted = sum(len(it["problems"]) for it in iterations)
    failed = sum(1 for it in iterations for cmd in it["problems"] if cmd)

    untraced = [it for it in iterations if not it["traced"]]
    walls = {cmd.name: statistics.median(it["walls"][cmd.name] for it in untraced)
             for cmd in plan.commands}
    solve = [sum(it["walls"].values()) for it in untraced]
    control = [it.get("control_s") for it in untraced]
    gaps = iterations[0].get("oracle_gaps")
    steps = None
    if args.trace:
        per_iter = []
        for it in (it for it in iterations if it["traced"]):
            spans = layers.IterationSpans()
            for path in it["span_files"]:
                spans.add_file(path)
            per_iter.append(layers.iteration_metrics(spans, sum(it["walls"].values()),
                                                     it["bytes_written"]))
        # one representative traced iteration, so its layer self times still add up
        metrics = sorted(per_iter, key=lambda m: m["trace.command_s"])[(len(per_iter) - 1) // 2]
        metrics["trace.overhead_s"] = metrics["trace.command_s"] - statistics.median(solve)
        for cmd in layers.COMMANDS:
            metrics[f"{cmd}_s"] = walls.get(cmd, 0.0)
        metrics["oracle_gap_rel"], metrics["oracle_gap_final"] = gaps or (0.0, 0.0)
        steps = metrics["stepping.steps"]
        units = dict(layers.PER_LAYER)
    else:
        nominal_setup, nominal_solve = workloads.NOMINAL[args.workload]
        metrics = {
            "solve_s": nominal_solve * statistics.median(a / b for a, b in zip(solve, control)),
            "setup_s": nominal_setup * statistics.median(a / b for a, b in zip(setup, control_setup)),
            "peak_rss_mb": statistics.median(max(it["rss_kib"].values()) / 1024.0 for it in untraced),
        }
        units = dict(END_TO_END)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics and units disagree: {sorted(set(metrics) ^ set(units))}")

    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload], "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "tiny": args.tiny,
        "load": "closed loop, one client, one CLI subprocess at a time",
        "problem": {"cells": plan.cells, "saves": plan.saves, "steps": steps,
                    "commands": [" ".join([c.name, *c.extra]) for c in plan.commands]},
        "machine": _machine(), "software": _software(root),
        "grid_bytes": "computed from operator argument and result array sizes",
        "setup_walls_s": setup, "control_setup_walls_s": control_setup,
        "nominal_s": {"setup": workloads.NOMINAL[args.workload][0],
                      "solve": workloads.NOMINAL[args.workload][1]},
        "iterations": [{k: it.get(k) for k in ("traced", "walls", "control_s", "rss_kib",
                                               "bytes_written", "problems")}
                       for it in iterations],
        "outputs_sha256": reference, "oracle_gaps": gaps,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    records = root / ".perfbench_work" / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced iterations, {len(iterations) - len(untraced)} traced")
    for name, wall in walls.items():
        print(f"  {name}_s {wall:.4f} s wall (median of {len(untraced)})")
    if not args.trace:
        print(f"  iteration {statistics.median(solve):.4f} s wall, control "
              f"{statistics.median(control):.4f} s (medians of {len(control)})")
        print(f"  set-up {statistics.median(setup):.4f} s wall, control "
              f"{statistics.median(control_setup):.4f} s (medians of {len(setup)})")
    if gaps and not args.trace:
        print(f"  oracle_gap_rel {gaps[0]:.6g} ratio\n  oracle_gap_final {gaps[1]:.6g} ratio")
    print(f"  fail_ratio {failed / attempted:.4g} ratio ({failed} of {attempted} commands)")
    for key, value in metrics.items():
        print(f"  {key} {value:.6g} {units[key]}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(f"  record: {record_path.relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
