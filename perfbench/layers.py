"""Instrumentation installed from outside the package: halt watching for
every run, and per-layer spans for the traced run.

The package imports functions by name across modules (`solvers` and
`dynamics` call `hypergrad`, `inner_grad`, `solve_inner` and `frozen_field`
through their own globals) and calls `LossModel` methods on instances. So a
wrapper replaces the original under every name that refers to it in any
package module, and methods are replaced on their classes. `uninstall`
puts every original back.

Spans are aggregated in memory by (name, parent name, top), where top is
the outermost non-`cli` span on the stack: the call a preset made into the
library that caused this one. The stack is a single list, which is correct
because every preset runs with `--jobs 1`: ratio-sweep's one worker thread
runs while the calling thread waits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

PACKAGE = "bilevel_reweight"
LAYERS = ("simplex", "losses", "hypergrad", "solvers", "dynamics", "datagen",
          "cli")

# Functions whose FlowTrace result may carry a `halted` reason.
TRACE_RETURNING = {
    "solvers": ("exact_bilevel", "warm_started", "soba", "softmax_reparam"),
    "dynamics": ("integrate_mirror_flow", "integrate_joint_flow"),
}

# Methods outside the LossModel hierarchy that are layer boundaries of
# their own, besides every class's __call__.
EXTRA_METHODS = {
    ("simplex", "SimplexWeights", "__init__"): "simplex.SimplexWeights",
    ("solvers", "FlowTrace", "append"): "solvers.FlowTrace.append",
    ("solvers", "FlowTrace", "to_jsonl"): "solvers.FlowTrace.to_jsonl",
}

Key = Tuple[str, Optional[str], Optional[str]]


class Instrument:
    """Wraps package callables; records halts always and spans if asked."""

    def __init__(self, spans: bool):
        self.spans = spans
        self.halts: List[str] = []
        # key -> [calls, inclusive seconds, self seconds, result bytes]
        self.agg: Dict[Key, list] = {}
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ install

    def install(self):
        pkg = importlib.import_module(PACKAGE)
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
                for name in LAYERS}
        loss_base = mods["losses"].LossModel
        wrappers = {}  # id(original function) -> wrapper
        for layer, mod in mods.items():
            watched = TRACE_RETURNING.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (self.spans or attr in watched):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}",
                                                   attr in watched)
                elif inspect.isclass(obj) and self.spans:
                    self._wrap_class(layer, obj, issubclass(obj, loss_base))
        for mod in [pkg, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patch(mod, attr, wrapper)
        return self

    def _wrap_class(self, layer, cls, is_loss_model):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if is_loss_model and not attr.startswith("_"):
                group = f"{layer}.{attr}"
            elif attr == "__call__":
                group = f"{layer}.{cls.__name__}"
            else:
                group = EXTRA_METHODS.get((layer, cls.__name__, attr))
                if group is None:
                    continue
            self._patch(cls, attr, self._wrap(obj, group, False))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn, group, watch_halt):
        if not self.spans:
            @functools.wraps(fn)
            def watch(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._note_halt(group, result)
                return result
            return watch

        stack, agg = self._stack, self.agg
        is_cli = group.startswith("cli.")
        writes_file = group == "solvers.FlowTrace.to_jsonl"
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            top = parent[2] if parent is not None and parent[2] else (
                None if is_cli else group)
            frame = [group, 0.0, top]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                key = (group, parent[0] if parent is not None else None, top)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if isinstance(result, np.ndarray):
                rec[3] += result.nbytes
            elif writes_file:
                rec[3] += os.path.getsize(args[1] if len(args) > 1
                                          else kwargs["path"])
            if watch_halt:
                self._note_halt(group, result)
            return result
        return span

    def _note_halt(self, group, result):
        reason = getattr(result, "halted", None)
        if reason:
            self.halts.append(f"{group}: {reason}")

    # ------------------------------------------------------------ queries

    def total(self, field: int, name=None, parent=None, prefix=None,
              top_prefix=None) -> float:
        """Sum one aggregate field over the spans matching every filter."""
        out = 0.0
        for (n, p, top), rec in self.agg.items():
            if name is not None and n not in (name if isinstance(name, tuple) else (name,)):
                continue
            if parent is not None and p != parent:
                continue
            if prefix is not None and not n.startswith(prefix):
                continue
            if top_prefix is not None and not (top or "").startswith(top_prefix):
                continue
            out += rec[field]
        return out

    def spans_json(self) -> list:
        return [{"name": n, "parent": p, "top": top, "calls": rec[0],
                 "incl_s": rec[1], "self_s": rec[2], "bytes": rec[3]}
                for (n, p, top), rec in sorted(self.agg.items(),
                                               key=lambda kv: -kv[1][2])]


CALLS, INCL_S, SELF_S, BYTES = range(4)
