"""Per-layer metrics from the span files that ``traced_cli.py`` writes.

A span's self time is its duration minus the durations of its direct
children. A layer's self time is the sum over its spans, the layer being the
part of the span name before the first dot. Everything the spans do not
cover (interpreter start, package import, argument parsing, writing the span
file) is ``trace.unattributed_s``, so the layer self times plus that remainder
equal the traced command time exactly.

Times of named functions are per call (inclusive of their children) unless
the unit says otherwise; counts and bytes are totals over one iteration of
the workload, that is over all of its commands.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYERS = ("config", "stepping", "grid", "model", "diagnostics", "cli", "weakform", "sweep", "oracle")
GRID_FNS = ("laplacian_neumann", "taxis_divergence", "max_face_speed", "gradient_sq", "gradient_components")
COMMANDS = ("run", "weakcheck", "sweep", "oracle")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [("config.parse_ms", "ms"), ("config.build_initial_ms", "ms"),
     ("stepping.steps", "count"), ("stepping.step_us", "us"), ("stepping.step_p99_us", "us"),
     ("stepping.driver_self_us", "us"), ("stepping.dt_median", "model_t"),
     ("stepping.short_step_ratio", "ratio"), ("stepping.positivity_debt", "mass")]
    + [(f"grid.{fn}.{kind}", unit) for fn in GRID_FNS
       for kind, unit in (("calls", "count"), ("us", "us"), ("bytes", "B"))]
    + [("model.reaction_rhs.array_calls", "count"), ("model.reaction_rhs.array_us", "us"),
       ("model.reaction_rhs.scalar_calls", "count"), ("model.reaction_rhs.scalar_us", "us"),
       ("model.eval_rate.calls", "count"), ("model.apply_dose.calls", "count"),
       ("diagnostics.records", "count"), ("diagnostics.record_ms", "ms"),
       ("cli.snapshot_write_ms", "ms"), ("cli.bytes_written", "B"),
       ("cli.load_trajectory_ms", "ms"), ("cli.bytes_read", "B"),
       ("weakform.residual_table_ms", "ms"), ("weakform.rows", "count"),
       ("sweep.members", "count"), ("sweep.run_member_s", "s"),
       ("sweep.pair_distances_ms", "ms"), ("sweep.artificial_terms_ms", "ms"),
       ("oracle.rk4_steps", "count"), ("oracle.rk4_step_us", "us"), ("oracle.rk4_solve_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.command_s", "s"), ("trace.overhead_s", "s"), ("trace.unattributed_s", "s")]
    + [(f"{cmd}_s", "s") for cmd in COMMANDS]
    + [("oracle_gap_rel", "ratio"), ("oracle_gap_final", "ratio")]
)


@dataclass
class IterationSpans:
    """Span statistics of one workload iteration, merged over its commands."""

    calls: dict = field(default_factory=dict)       # name -> count
    total: dict = field(default_factory=dict)       # name -> summed duration, s
    self_time: dict = field(default_factory=dict)   # name -> summed self time, s
    step_durations: list = field(default_factory=list)
    dts: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    rk4_steps: int = 0
    max_debt: float = 0.0

    def add_file(self, path: Path) -> None:
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            ids, parent = data["name_id"], data["parent"]
            dur = data["end"] - data["start"]
            dts = data["dts"]
        names = meta["names"]
        n = len(names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child[: len(dur)]
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        selft = np.bincount(ids, weights=own, minlength=n)
        for i, name in enumerate(names):
            self.calls[name] = self.calls.get(name, 0) + int(calls[i])
            self.total[name] = self.total.get(name, 0.0) + float(total[i])
            self.self_time[name] = self.self_time.get(name, 0.0) + float(selft[i])
        if "stepping.step" in names:
            self.step_durations.extend(dur[ids == names.index("stepping.step")].tolist())
        if "oracle.rk4_solve" in names and "model.reaction_rhs[scalar]" in names:
            rk4, rhs = names.index("oracle.rk4_solve"), names.index("model.reaction_rhs[scalar]")
            under = (ids == rhs) & has_parent
            under[under] = ids[parent[under]] == rk4
            self.rk4_steps += int(np.count_nonzero(under)) // 4  # RK4 evaluates 4 stages
        self.dts.extend(dts.tolist())
        self.max_debt = max(self.max_debt, float(meta["max_debt"]))
        for key, value in meta["counters"].items():
            self.counters[key] = self.counters.get(key, 0.0) + value

    def per_call(self, name: str, scale: float) -> float:
        count = self.calls.get(name, 0)
        return self.total.get(name, 0.0) / count * scale if count else 0.0


def iteration_metrics(spans: IterationSpans, traced_wall_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of one traced iteration (all but the untraced comparisons)."""
    s = spans
    m = {
        "config.parse_ms": s.per_call("config.parse_config", 1e3),
        "config.build_initial_ms": s.per_call("config.build_initial", 1e3),
    }
    steps = s.calls.get("stepping.step", 0)
    durations = np.asarray(s.step_durations)
    dts = np.asarray(s.dts)
    dt_median = float(np.median(dts)) if dts.size else 0.0
    driver_self = s.self_time.get("stepping.run", 0.0)
    m.update({
        "stepping.steps": steps,
        "stepping.step_us": float(np.median(durations)) * 1e6 if steps else 0.0,
        "stepping.step_p99_us": float(np.percentile(durations, 99)) * 1e6 if steps else 0.0,
        "stepping.driver_self_us": driver_self / steps * 1e6 if steps else 0.0,
        "stepping.dt_median": dt_median,
        "stepping.short_step_ratio":
            float(np.mean(dts < dt_median * (1.0 - 1e-9))) if dts.size else 0.0,
        "stepping.positivity_debt": s.max_debt,
    })
    for fn in GRID_FNS:
        name = f"grid.{fn}"
        m[f"{name}.calls"] = s.calls.get(name, 0)
        m[f"{name}.us"] = s.per_call(name, 1e6)
        m[f"{name}.bytes"] = int(s.counters.get(f"{name}.bytes", 0))
    rk4_steps = s.rk4_steps
    m.update({
        "model.reaction_rhs.array_calls": s.calls.get("model.reaction_rhs[array]", 0),
        "model.reaction_rhs.array_us": s.per_call("model.reaction_rhs[array]", 1e6),
        "model.reaction_rhs.scalar_calls": s.calls.get("model.reaction_rhs[scalar]", 0),
        "model.reaction_rhs.scalar_us": s.per_call("model.reaction_rhs[scalar]", 1e6),
        "model.eval_rate.calls": s.calls.get("model.eval_rate", 0),
        "model.apply_dose.calls": s.calls.get("model.apply_dose", 0),
        "diagnostics.records": s.calls.get("diagnostics.compute_record", 0),
        "diagnostics.record_ms": s.per_call("diagnostics.compute_record", 1e3),
        "cli.snapshot_write_ms": s.per_call("cli.snapshot_sink", 1e3),
        "cli.bytes_written": bytes_written,
        "cli.load_trajectory_ms": s.per_call("cli.load_trajectory", 1e3),
        "cli.bytes_read": int(s.counters.get("cli.bytes_read", 0)),
        "weakform.residual_table_ms": s.per_call("weakform.residual_table", 1e3),
        "weakform.rows": int(s.counters.get("weakform.rows", 0)),
        "sweep.members": s.calls.get("sweep.run_member", 0),
        "sweep.run_member_s": s.per_call("sweep.run_member", 1.0),
        "sweep.pair_distances_ms": s.per_call("sweep.pair_distances", 1e3),
        "sweep.artificial_terms_ms": s.per_call("sweep.artificial_terms", 1e3),
        "oracle.rk4_steps": rk4_steps,
        "oracle.rk4_step_us":
            s.total.get("oracle.rk4_solve", 0.0) / rk4_steps * 1e6 if rk4_steps else 0.0,
        "oracle.rk4_solve_s": s.per_call("oracle.rk4_solve", 1.0),
    })
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in s.self_time.items():
        layer = name.split(".", 1)[0]
        if layer not in layer_self:
            raise ValueError(f"span {name!r} belongs to no traced layer")
        layer_self[layer] += value
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    m["trace.command_s"] = traced_wall_s
    m["trace.unattributed_s"] = traced_wall_s - sum(layer_self.values())
    return m
