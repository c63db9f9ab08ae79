"""Span tracing of stegokit from outside the package.

`Tracer.install` rebinds every public function of the package's modules (in
each module namespace that refers to it) and the forward/backward methods of
the micronet layers and model to timing wrappers; `uninstall` puts the
originals back. Spans are kept in memory and written out when the run ends.
Nothing under `src/` knows about this file.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
import weakref

#: Span-name prefix -> the layer (package module) it is attributed to.
LAYERS = (
    "residual",
    "micronet",
    "micronet.checkpoint",
    "trainer",
    "codec",
    "containers",
    "stego_sim",
    "propositions",
    "cli",
)


def layer_of(span_name: str) -> str:
    if span_name.startswith("micronet.checkpoint."):
        return "micronet.checkpoint"
    return span_name.split(".", 1)[0]


def _path_size(value) -> int:
    try:
        return os.path.getsize(value)
    except (OSError, TypeError):
        return 0


# Byte counters for the file readers and writers: the size of the file named
# by the given positional argument, taken after the call returns.
_BYTES_ARG = {
    "containers.read_jcg": 0,
    "containers.write_jcg": 0,
    "micronet.checkpoint.load_checkpoint": 0,
    "micronet.checkpoint.save_checkpoint": 1,
}


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "bytes")

    def __init__(self, sid, name, parent, thread):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0
        self.bytes = 0

    def to_json(self) -> dict:
        return {"id": self.sid, "name": self.name, "start_ns": self.start, "end_ns": self.end,
                "parent": self.parent, "thread": self.thread, "bytes": self.bytes}


class Tracer:
    """Collects spans from wrapped package functions, across threads.

    A span's parent is the innermost open span on its own thread. A span
    opened on a worker thread with nothing open there (the thread-pooled
    dataset build) takes the innermost open span of the main thread.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._layer_names: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1].sid
        else:
            parent = None
        span = Span(next(self._ids), name, parent, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        bytes_arg = _BYTES_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if bytes_arg is not None and len(args) > bytes_arg:
                span.bytes = _path_size(args[bytes_arg])
            return result

        return traced

    def _wrap_layer_method(self, fn, suffix: str):
        names = self._layer_names

        @functools.wraps(fn)
        def traced(layer, *args, **kwargs):
            span = self._open(f"micronet.{names.get(layer, type(layer).__name__)}.{suffix}")
            try:
                return fn(layer, *args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _wrap_sequential(self, fn):
        names = self._layer_names

        @functools.wraps(fn)
        def registering(seq, *args, **kwargs):
            for name, layer in seq.named_layers:
                names[layer] = name
            return fn(seq, *args, **kwargs)

        return registering

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the package's public functions and layer methods."""
        from stegokit.micronet import layers, model

        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("stegokit.") and mod is not None}
        wrapped = {}
        for modname, mod in modules.items():
            label = modname[len("stegokit."):]
            if label in ("micronet.layers", "micronet.model"):
                continue  # traced through their classes below
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not name.startswith("_")):
                    wrapped[obj] = self._wrap(f"{label}.{name}", obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        for cls in vars(layers).values():
            if isinstance(cls, type) and issubclass(cls, layers.Layer):
                for meth, suffix in (("forward", "fwd"), ("backward", "bwd")):
                    if meth in vars(cls) and cls is not layers.Layer:
                        self._patch(cls, meth, self._wrap_layer_method(vars(cls)[meth], suffix))
        for meth in ("forward", "backward"):
            self._patch(layers.Sequential, meth,
                        self._wrap_sequential(getattr(layers.Sequential, meth)))
            self._patch(model.HybridModel, meth,
                        self._wrap(f"micronet.{meth}", getattr(model.HybridModel, meth)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def aggregate(spans: list[Span]) -> dict:
    """Per span name: calls, total ns, self ns and bytes.

    Self time is a span's duration minus the part of it that its children
    cover (children on other threads included, as an interval union).
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict = {}
    for s in spans:
        covered = 0
        cursor = s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = out.setdefault(s.name, {"calls": 0, "total_ns": 0, "self_ns": 0, "bytes": 0})
        row["calls"] += 1
        row["total_ns"] += s.end - s.start
        row["self_ns"] += s.end - s.start - covered
        row["bytes"] += s.bytes
    return out
