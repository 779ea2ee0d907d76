"""Outside-in span recorder for the mergeqp layers.

The recorder wraps every public function of the seven layer modules and
rebinds each module-level name that refers to one of them, so calls between
modules (``cli`` -> ``multilayer`` -> ``qp`` -> ``networks``) are recorded no
matter which module they are looked up in.  Nothing inside ``src/`` knows
about it: ``uninstall`` puts every original function object back.

A span is ``(function id, start, end, parent span, command id, outermost)``.
``outermost`` is false when the same function is already on the stack, so a
function's total time never counts a recursive call twice.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("bundles", "networks", "qp", "subspaces", "baselines", "multilayer", "cli")


def _public_functions(module):
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class SpanRecorder:
    """Records one span per call into a layer's public functions."""

    def __init__(self):
        self.package = importlib.import_module("mergeqp")
        self.modules = {name: importlib.import_module(f"mergeqp.{name}") for name in LAYERS}
        self.names = []  # function id -> "layer.function"
        self.spans = []
        self.commands = []  # command id -> label
        self.command_id = -1
        self.observations = {}  # "layer.function" -> list of extracted values
        self._observed = {}
        self._stack = []
        self._active = {}
        self._rebound = []  # (module, attribute, original)

    def observe(self, qualname, extract):
        """Keep ``extract(arguments, result)`` for every call to ``layer.function``.

        Must be called before ``install``.  ``arguments`` maps each parameter
        name to its value, defaults included.
        """
        self._observed[qualname] = extract
        self.observations[qualname] = []

    def begin_command(self, label):
        self.commands.append(label)
        self.command_id = len(self.commands) - 1

    def _wrap(self, qualname, fn):
        fid = len(self.names)
        self.names.append(qualname)
        self._active[fid] = 0
        extract = self._observed.get(qualname)
        signature = inspect.signature(fn) if extract else None
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            outermost = active[fid] == 0
            active[fid] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active[fid] -= 1
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.command_id, outermost)
            if extract is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.observations[qualname].append(extract(bound.arguments, result))
            return result

        return wrapper

    def install(self):
        if self._rebound:
            raise RuntimeError("recorder already installed")
        wrappers = {}
        for layer, module in self.modules.items():
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in (self.package, *self.modules.values()):
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        """Put every rebound name back to its original function."""
        for module, attr, original in self._rebound:
            setattr(module, attr, original)
        self._rebound = []

    def bindings(self):
        """Every module-level name of the package and its layers, with its value."""
        return {
            (module.__name__, attr): value
            for module in (self.package, *self.modules.values())
            for attr, value in vars(module).items()
        }

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """Write the spans as CSV, one row per call, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "function", "command", "start_s", "end_s"])
            for idx, (fid, start, end, parent, cmd, _) in enumerate(self.spans):
                label = self.commands[cmd] if cmd >= 0 else ""
                writer.writerow(
                    [idx, parent, self.names[fid], label, f"{start - t0:.9f}", f"{end - t0:.9f}"]
                )

    def summary(self):
        """Per-function totals and calls, and per-layer self time.

        A function's total is the summed duration of its outermost spans.  A
        span's self time is its duration minus its direct children's, and a
        layer's self time sums that over the layer's spans, which equals the
        layer's span time minus the time in child spans of other layers.
        """
        n_fn = len(self.names)
        total = np.zeros(n_fn)
        calls = np.zeros(n_fn, dtype=np.int64)
        child = np.zeros(len(self.spans))
        layer_self = {layer: 0.0 for layer in LAYERS}
        for fid, start, end, parent, _, outermost in self.spans:
            dur = end - start
            calls[fid] += 1
            if outermost:
                total[fid] += dur
            if parent >= 0:
                child[parent] += dur
        for idx, (fid, start, end, *_rest) in enumerate(self.spans):
            layer = self.names[fid].split(".", 1)[0]
            layer_self[layer] += (end - start) - child[idx]
        functions = {
            name: {"s": float(total[fid]), "calls": int(calls[fid])}
            for fid, name in enumerate(self.names)
        }
        return functions, layer_self


def box_kkt_residual(solves):
    """Largest ||d - clip(d - (H d + g), lo, hi)||_inf over (H, g, lo, hi, d) solves."""
    worst = 0.0
    for H, g, lo, hi, d in solves:
        worst = max(worst, float(np.abs(d - np.clip(d - (H @ d + g), lo, hi)).max()))
    return worst
