"""Span recorder that wraps blockinv's public functions from outside.

The benchmark installs wrappers only for the traced run: every public
function of a layer is replaced by a wrapper in every ``blockinv`` module
that holds it, so calls made inside the package are seen too.  The
untraced run installs nothing.

Each span records its name, start, end, parent span and the inversion it
belongs to.  Spans live in memory and are written out when the run ends.
Worker threads of the step engine have no span of their own on entry; their
spans take the main thread's innermost open span as parent.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager


def _flops_mm(args, kwargs, result):
    a, b = args[0], args[1]  # multiply(a, b, out, ...)
    return {"flops": 2 * a.shape[0] * a.shape[1] * b.shape[1]}


def _flops_schur(args, kwargs, result):
    x, y = args[1], args[2]  # schur_accumulate(dest, x, y, ...)
    return {"flops": 2 * x.shape[0] * x.shape[1] * y.shape[1]}


def _flops_left(args, kwargs, result):
    a_inv, target = args[0], args[1]  # target <- a_inv @ target
    return {"flops": 2 * a_inv.shape[0] * a_inv.shape[1] * target.shape[1]}


def _flops_right(args, kwargs, result):
    target, a_inv = args[0], args[1]  # target <- target @ a_inv
    return {"flops": 2 * target.shape[0] * a_inv.shape[0] * a_inv.shape[1]}


def _formula(args, kwargs, result):
    return {"formula": result}


def _step_kind(args, kwargs, result):
    return {"kind": result.action.kind}


_HEADER_BYTES = 20  # BMAT magic plus two u64 dimensions


def _bytes_written(args, kwargs, result):
    return {"bytes": args[0].size * 8 + _HEADER_BYTES}


def _bytes_read(args, kwargs, result):
    return {"bytes": result.size * 8 + _HEADER_BYTES}


# (defining module, function, span name, attribute extractor)
TARGETS = (
    ("blockinv.core", "multiply", "core.multiply", _flops_mm),
    ("blockinv.core", "schur_accumulate", "core.schur_accumulate", _flops_schur),
    ("blockinv.core", "multiply_inplace_left", "core.multiply_inplace_left", _flops_left),
    ("blockinv.core", "multiply_inplace_right", "core.multiply_inplace_right", _flops_right),
    ("blockinv.core", "invert_small", "core.invert_small", None),
    ("blockinv.recursive", "invertor_by_a", "recursive.invertor_by_a", None),
    ("blockinv.recursive", "invertor_inplace_by_a", "recursive.invertor_inplace_by_a", None),
    ("blockinv.recursive", "invertor_by_ad", "recursive.invertor_by_ad", None),
    ("blockinv.recursive", "invertor_with_fallback", "recursive.invertor_with_fallback", None),
    ("blockinv.schur", "invert_with_fallback", "schur.invert_with_fallback", _formula),
    ("blockinv.engine", "run_inversion", "engine.run_inversion", None),
    ("blockinv.engine", "step_plan", "engine.step_plan", _step_kind),
    ("blockinv.engine", "fox_block_multiply", "engine.fox_block_multiply", None),
    ("blockinv.storage", "checkpoint_save", "storage.checkpoint_save", None),
    ("blockinv.storage", "checkpoint_load", "storage.checkpoint_load", None),
    ("blockinv.storage", "load_minv_store", "storage.load_minv_store", None),
    ("blockinv.storage", "load_tsets", "storage.load_tsets", None),
    # block files are written and read through core's binary format
    ("blockinv.core", "save_binary", "storage.save_binary", _bytes_written),
    ("blockinv.core", "load_binary", "storage.load_binary", _bytes_read),
)


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "inversion", "error", "attrs")

    def __init__(self, sid, name, start, end, parent, inversion, error, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.inversion = inversion
        self.error = error
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "inversion": self.inversion, "error": self.error,
            **(self.attrs or {}),
        }


class Tracer:
    """Collects spans; one root span per timed inversion."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._inversion: int | None = None
        self._patched: list = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else None

    @contextmanager
    def inversion(self, label: str):
        """Root span of one timed inversion; its id tags every span inside."""
        sid = next(self._ids)
        self._inversion = sid
        self._main_stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._main_stack.pop()
            self._inversion = None
            self.spans.append(Span(sid, "inversion", start, end, None, sid, False, {"label": label}))

    def wrap(self, fn, name, extract):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = extract(args, kwargs, result) if extract and not error else None
                tracer.spans.append(
                    Span(sid, name, start, end, parent, tracer._inversion, error, attrs)
                )

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace each target in every blockinv module that holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "blockinv" or n.startswith("blockinv.")]
        for modname, attr, name, extract in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(original, name, extract)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.as_dict()) + "\n")
