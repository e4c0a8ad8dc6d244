"""Fast self-test of the benchmark at tiny sizes (about 40 s on 2 cores).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json, that ``run.py --tiny`` prints a
last line with exactly the keys correct, attempted, failed and metrics; that
it emits every named end-to-end (``--trace 0``) and per-layer (``--trace 1``)
metric with its unit and a finite value; that the layer self times plus
``trace.unattributed_s`` add up to ``trace.command_s``; that inputs depend on
the seed and only on it; and that the benchmark refuses to run, printing no
result, in a folder that holds only BENCHMARK.json and the benchmark's own
files. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402


def _fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def _bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = _bench(ROOT, workload, 3, trace)
    if proc.returncode != 0:
        _fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        _fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        _fail(f"{workload} trace {trace}: {proc.stdout[-1500:]}")
    named = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in named}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        _fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
              f"{sorted(set(got.items()) ^ set(expected.items()))}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            _fail(f"{workload}: {name} = {value!r}")
        if not trace and not value > 0:
            _fail(f"{workload}: end-to-end metric {name} is {value}, must never be 0")
        if name.endswith(("_s", "_ms", "_us", ".calls", ".bytes")) and value < 0 \
                and name != "trace.overhead_s":
            _fail(f"{workload}: {name} is negative ({value})")
    if trace:
        layer_sum = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS)
        total = layer_sum + values["trace.unattributed_s"]
        if not math.isclose(total, values["trace.command_s"], rel_tol=1e-9):
            _fail(f"{workload}: self times {layer_sum} + unattributed do not add up to "
                  f"{values['trace.command_s']}")
        if values["trace.unattributed_s"] < 0 or layer_sum <= 0:
            _fail(f"{workload}: implausible self times (sum {layer_sum})")
    print(f"ok  {workload} trace {trace}: {len(values)} metrics")


def check_inputs() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        tmp = Path(tmp)
        for name in workloads.WHY:
            a = workloads.prepare(name, 5, tmp / "a" / name)
            b = workloads.prepare(name, 5, tmp / "b" / name)
            c = workloads.prepare(name, 6, tmp / "c" / name)
            read = lambda plan: {p.name: p.read_bytes() for p in plan.config.parent.iterdir()}
            if read(a) != read(b):
                _fail(f"{name}: the same seed wrote different inputs")
            if read(a) == read(c):
                _fail(f"{name}: different seeds wrote the same inputs")
    print("ok  inputs are a function of the seed")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "dosing_1d", 1, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            _fail(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    print("ok  refuses to run without the program's sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    if declared != workloads.WHY:
        _fail("BENCHMARK.json workloads and perfbench/workloads.py WHY differ")
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    check_inputs()
    check_refuses_without_sources()
    for workload in declared:
        for trace in (0, 1):
            check_result(spec, workload, trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
