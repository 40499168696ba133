"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` replaces every public function of the traced modules, in
every `majorant` module namespace that holds it (so `constructions` and
`lp_engine` both see the wrapped `paired_difference`), with a wrapper that
records a span: name, start, end, parent span and request id.  `restore`
puts the originals back.  Spans live in flat arrays while the run lasts and
are written out once it ends.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

LAYERS = ("exact_lattice", "cvector", "moment_curve", "lp_engine", "constructions", "cli")


def _paired_tag(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    """(dimension, rows x n^d at the returned grid) of a paired evaluation."""
    freqs = args[0] if args else kwargs["freqs"]
    d = len(freqs[0])
    return d, 2 * result.grid_points_per_axis**d




class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.name = array("H")
        self.op = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, tuple] = {}
        self.op_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, label: str, fn: Callable) -> Callable:
        nid = len(self.labels)
        self.labels.append(label)
        tag = _paired_tag if label == "lp_engine.paired_difference" else None
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            self.name.append(nid)
            self.op.append(self.op_id)
            self.parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if tag is not None:
                self.tags[idx] = tag(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"majorant.{layer}")
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "majorant" and not modname.startswith("majorant."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def summary(self, scale: list[float]) -> dict[str, dict[str, float]]:
        """Per label: calls, self seconds, and self seconds / points split by tag.

        Self time is multiplied by scale[request id], the request's speed factor.
        """
        covered = [0.0] * len(self)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, nid in enumerate(self.name):
            row = out[self.labels[nid]]
            own = (self.end[i] - self.start[i] - covered[i]) * scale[self.op[i]]
            row["calls"] += 1
            row["self_s"] += own
            tag = self.tags.get(i)
            if tag is not None:
                d, points = tag
                row[f"d{d}.self_s"] += own
                row["grid_points"] += points
        return out

    def write(self, path: Path) -> None:
        """One line per span: name, start and end in microseconds, parent, request id."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_us\tend_us\tparent\top\n")
            for i in range(len(self)):
                fh.write(
                    f"{self.labels[self.name[i]]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.end[i] - t0) * 1e6:.1f}\t{self.parent[i]}\t{self.op[i]}\n"
                )
