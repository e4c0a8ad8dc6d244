"""Run one ``regenfv`` CLI command with every public function of the package traced.

    python3 perfbench/traced_cli.py --spans SPANS.npz --label WORKLOAD/SEED -- run --config ...

Before the command starts, each public module-level function of ``config``,
``stepping``, ``grid``, ``model``, ``diagnostics``, ``cli``, ``weakform``,
``sweep`` and ``oracle`` (and ``RunConfig.build_initial``) is replaced, in
every ``regenfv`` module that refers to it, by a wrapper that records a span.
The sinks that ``run`` receives are wrapped too, named after the module that
defined them (``cli.snapshot_sink``, ``weakform.snapshot_sink``, ...). No file
of the package is changed.

Spans (name id, parent span, start, end) are held in flat arrays and written
once, at exit, to an ``.npz`` file together with a few counters: the dt of
every step, the largest positivity debt, bytes computed from the array
arguments and results of grid operators, bytes read by ``load_trajectory``
and the rows of ``residual_table``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("config", "stepping", "grid", "model", "diagnostics", "cli", "weakform", "sweep", "oracle")


class Tracer:
    """Span store plus the counters the per-layer metrics need."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.dts = array("d")
        self.max_debt = 0.0
        self.counters: dict[str, float] = {}

    def id_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, after=None, pick=None):
        """A span-recording stand-in for ``fn``.

        ``pick(args)`` may choose between span names per call; ``after(args,
        kwargs, result)`` runs outside the timed interval to update counters.
        """
        nid = self.id_of(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid if pick is None else pick(args))
            outer = tracer.current
            parents.append(outer)
            starts.append(0.0)
            ends.append(0.0)
            tracer.current = i
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                tracer.current = outer
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path, label: str) -> None:
        meta = {"label": label, "names": self.names, "max_debt": self.max_debt,
                "counters": self.counters}
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            dts=np.frombuffer(self.dts, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def _special_wrapper(tracer: Tracer, layer: str, name: str, fn):
    """Wrappers that also count something; None for a plain span."""
    qual = f"{layer}.{name}"
    if layer == "grid" and name != "integrate":
        def grid_bytes(args, kwargs, result):
            moved = sum(_nbytes(a) for a in args if isinstance(a, np.ndarray)) + _nbytes(result)
            tracer.add(qual + ".bytes", moved)
        return tracer.wrap(qual, fn, after=grid_bytes)
    if qual == "model.reaction_rhs":
        array_id, scalar_id = tracer.id_of(qual + "[array]"), tracer.id_of(qual + "[scalar]")
        pick = lambda args: array_id if isinstance(args[0], np.ndarray) else scalar_id
        return tracer.wrap(qual + "[array]", fn, pick=pick)
    if qual == "stepping.step":
        def step_stats(args, kwargs, result):
            tracer.dts.append(kwargs["dt"] if "dt" in kwargs else args[4])
            tracer.max_debt = max(tracer.max_debt, result.positivity_debt)
        return tracer.wrap(qual, fn, after=step_stats)
    if qual == "stepping.run":
        inner = tracer.wrap(qual, fn)

        def run_with_traced_sinks(*args, **kwargs):
            for key in ("record_sink", "snapshot_sink"):
                sink = kwargs.get(key)
                if sink is not None:
                    owner = sink.__module__.rsplit(".", 1)[-1]
                    kwargs[key] = tracer.wrap(f"{owner}.{key}", sink)
            return inner(*args, **kwargs)

        return functools.wraps(fn)(run_with_traced_sinks)
    if qual == "cli.load_trajectory":
        def bytes_read(args, kwargs, result):
            out = Path(args[1])
            files = [out / "diagnostics.csv"] + [out / f"snap_{i}.csv" for i in range(len(result.times))]
            tracer.add("cli.bytes_read", sum(f.stat().st_size for f in files))
        return tracer.wrap(qual, fn, after=bytes_read)
    if qual == "weakform.residual_table":
        return tracer.wrap(qual, fn, after=lambda a, k, rows: tracer.add("weakform.rows", len(rows)))
    return None


def install(tracer: Tracer) -> None:
    """Replace the public functions of every traced layer by span wrappers."""
    replacements = {}
    for layer in LAYERS:
        module = importlib.import_module(f"regenfv.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            replacements[obj] = (_special_wrapper(tracer, layer, name, obj)
                                 or tracer.wrap(f"{layer}.{name}", obj))
    config = importlib.import_module("regenfv.config")
    config.RunConfig.build_initial = tracer.wrap("config.build_initial", config.RunConfig.build_initial)

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "regenfv" and not mod_name.startswith("regenfv."):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(module, name, replacements[obj])
            elif isinstance(obj, dict):  # dispatch tables such as weakform.RESIDUALS
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in replacements:
                        obj[key] = replacements[value]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="where to write the span file (.npz)")
    parser.add_argument("--label", default="", help="workload/seed label stored with the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the regenfv arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import regenfv.cli

    tracer = Tracer()
    install(tracer)
    try:
        return regenfv.cli.main(cli_args)
    finally:
        tracer.dump(Path(args.spans), args.label)


if __name__ == "__main__":
    sys.exit(main())
