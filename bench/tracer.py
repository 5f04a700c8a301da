"""In-process span tracer for the per-layer numbers of the traced run.

`Tracer.install` wraps the public functions of each `coronawalk` module
(plus the few private helpers named in EXTRA) and rebinds every name that
points at them, in every module: `spectral` binds `exact_rank` by name and
`transfer` binds `corona_entry_base_base` and `exact_decomposition`, so
patching the defining module alone would miss those calls.  Spans
`[name, start, end, parent, invocation, size]` stay in memory until
`write`; `uninstall` restores the original bindings.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import time

import numpy as np

LAYERS = ("graphs", "exact", "spectral", "corona", "transfer", "cli")
# private helpers that carry a layer's cost: argument parsing and CSV output
EXTRA = ("cli._build_parser", "cli._render_csv")
GRAPH_METHODS = ("adjacency", "degrees", "is_regular", "is_connected",
                 "bfs_distances", "distance_matrix", "neighbors")


def _size(name: str, args, result):
    """Work count recorded with a span: matrix order, classes, time points."""
    if name == "exact.exact_rank":
        return len(args[0])
    if name == "spectral.symmetric_eigen":
        return len(args[0])
    if name == "corona.corona_graph":
        return result.n
    if name in ("spectral.decompose", "corona.corona_spectral_closed_form"):
        return len(result.classes)
    if name == "spectral.attach_exact_labels":
        return [sum(c.exact is not None for c in result.classes), len(result.classes)]
    if name == "spectral.entry_amplitudes":
        return int(np.size(args[3]))
    if name == "corona.corona_entry_base_base":
        return int(np.size(args[4]))
    if name == "corona.corona_entry_base_copy":
        return int(np.size(args[5]))
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.invocation: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation, 0])
            stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = start, end
                if result is not None:
                    span[5] = _size(name, args, result)
        return wrapper

    def install(self, modules: dict[str, object]) -> None:
        """Wrap and rebind; modules maps layer name -> imported module."""
        if not self._wrappers:
            for layer in LAYERS:
                mod = modules[layer]
                for attr, obj in vars(mod).items():
                    if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                        continue
                    name = f"{layer}.{attr}"
                    if attr.startswith("_") and name not in EXTRA:
                        continue
                    self._wrappers[id(obj)] = (obj, self._wrap(name, obj))
        targets = list(modules.values())
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj, hit[1]))
        graph_cls = modules["graphs"].Graph
        for attr in GRAPH_METHODS:
            orig = graph_cls.__dict__[attr]
            self._patches.append((graph_cls, attr, orig,
                                  self._wrap(f"graphs.Graph.{attr}", orig)))
        parser_cls = modules["cli"]._Parser
        self._patches.append((parser_cls, "parse_args", None,
                              self._wrap("cli.parse_args", argparse.ArgumentParser.parse_args)))
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, inv, size in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "invocation": inv,
                                     "size": size}) + "\n")


class SpanIndex:
    """Self and inclusive times over a finished span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                self.child_time[parent] += end - start

    def _outermost(self, i: int, names) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return False
            parent = self.spans[parent][3]
        return True

    def inclusive(self, *names: str) -> float:
        """Time inside any of the named spans, nested repeats counted once."""
        return sum(s[2] - s[1] for i, s in enumerate(self.spans)
                   if s[0] in names and self._outermost(i, names))

    def self_time(self, name: str) -> float:
        """Time in the named spans not covered by their child spans."""
        return sum(s[2] - s[1] - self.child_time[i]
                   for i, s in enumerate(self.spans) if s[0] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def sizes(self, name: str) -> list:
        return [s[5] for s in self.spans if s[0] == name]
