"""Run one wavemaplab command in this process for the benchmark.

    python3 perfbench/child.py RECORD TRACE COMMAND [ARGS...]

Runs ``wavemaplab.cli.main([COMMAND, *ARGS])`` from the checkout's ``src``
and exits with its code.  When the command returns or raises, it writes
RECORD as JSON:

    {"t_enter": ..., "spans": [...]}

``t_enter`` is the ``time.monotonic()`` reading taken when the command
function is entered, so the parent, which reads the same clock, can tell
set-up time from command time.  With TRACE = 1 every public
function and method of the six program layers (and the names other modules
imported from them, such as ``cli.run``) is wrapped before the command runs,
and each call leaves one span

    [name, parent, start, end, rss_rise_kib, counts]

where ``parent`` is the index of the enclosing span (-1 at the top),
``rss_rise_kib`` is the rise of the process's peak RSS during the call and
``counts`` holds the work done: ``nodes`` (evaluation points), ``cells``
(grid cells per level), ``levels`` and ``bytes`` (solver slabs, saved files)
and, for ``GridField.jets_at``, which field was queried, whether it was the
first query of that field, and which stored levels the query touched.
Spans stay in memory until the record is written.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import resource
import sys
import time
import weakref
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("cli", "solver", "fields", "quadrature", "stress_energy",
          "manufactured")
# private names traced anyway: CSV report writing feeds cli.report_write_s
PRIVATE_TRACED = {"cli._write_csv"}


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Wraps callables so that each call appends one span to ``spans``."""

    def __init__(self, grid_field_cls):
        self.spans: list = []
        self._open: list = []
        self._grid_field_cls = grid_field_cls
        self._field_ids = weakref.WeakKeyDictionary()
        self._next_field_id = itertools.count()

    def wrap(self, name: str, fn):
        count = self._counter(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1, 0.0, 0.0, 0,
                    None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            rss0 = _maxrss_kib()
            span[2] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.monotonic()
                span[4] = _maxrss_kib() - rss0
                self._open.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        """Function (args, kwargs, result) -> counts dict, or None when the
        callable has nothing to count."""
        sig = inspect.signature(fn)
        params = set(sig.parameters)
        special = {"solver.run", "fields.GridField.jets_at",
                   "fields.GridField.save", "quadrature.energy_balance"}
        if not (params & {"ts", "xs", "cfg"} or name in special):
            return None

        def count(args, kwargs, result):
            a = sig.bind(*args, **kwargs).arguments
            c = {}
            pts = a.get("ts", a.get("xs"))
            if hasattr(pts, "__len__"):
                c["nodes"] = len(pts)
            if hasattr(a.get("cfg"), "n_cells"):
                c["cells"] = a["cfg"].n_cells ** 3
            if name == "solver.run":
                slab = result[0]
                c["levels"] = int(slab.data.shape[0])
                c["bytes"] = int(slab.data.nbytes)
            elif name == "fields.GridField.save":
                c["bytes"] = os.path.getsize(a["path"])
            elif name == "fields.GridField.jets_at":
                c.update(self._grid_query(a["self"], a["ts"]))
            elif name == "quadrature.energy_balance":
                c["slab"] = isinstance(a["field"], self._grid_field_cls)
            return c

        return count

    def _grid_query(self, fld, ts) -> dict:
        """Which slab was queried, whether for the first time, and which
        stored levels the linear-in-time interpolation reads."""
        first = fld not in self._field_ids
        if first:
            self._field_ids[fld] = next(self._next_field_id)
        nt = int(fld.data.shape[0])
        lo = np.clip(np.floor((np.asarray(ts, float) - fld.t0) / fld.dt)
                     .astype(int), 0, nt - 2)
        touched = np.union1d(lo, lo + 1)
        return {"field": self._field_ids[fld], "first": first, "nt": nt,
                "levels_touched": touched.tolist()}


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods defined in each layer module,
    and rebind every name in the package that refers to a wrapped function
    (re-exports, ``from .x import y`` and the CLI command table)."""
    swaps = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"wavemaplab.{layer}")
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj):
                if not attr.startswith("_") or name in PRIVATE_TRACED:
                    swaps[obj] = tracer.wrap(name, obj)
            elif inspect.isclass(obj):
                for meth_name, meth in list(vars(obj).items()):
                    if inspect.isfunction(meth) and not meth_name.startswith("_"):
                        setattr(obj, meth_name,
                                tracer.wrap(f"{name}.{meth_name}", meth))
    package = [m for n, m in list(sys.modules.items())
               if n == "wavemaplab" or n.startswith("wavemaplab.")]
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in swaps:
                setattr(mod, attr, swaps[obj])
    commands = sys.modules["wavemaplab.cli"]._COMMANDS
    for key, fn in commands.items():
        commands[key] = swaps.get(fn, fn)


def main(argv: list[str]) -> int:
    record, trace, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    from wavemaplab import cli
    from wavemaplab.fields import GridField

    tracer = None
    if trace:
        tracer = Tracer(GridField)
        install(tracer)
    marks = {}

    def timed(fn):
        @functools.wraps(fn)
        def command(*args, **kwargs):
            marks["t_enter"] = time.monotonic()
            return fn(*args, **kwargs)
        return command

    for key, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[key] = timed(fn)
    try:
        return cli.main(cli_args)
    finally:
        record.write_text(json.dumps(
            {"t_enter": marks.get("t_enter"),
             "spans": tracer.spans if tracer is not None else []}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
