"""In-memory spans recorded from outside the program.

The benchmark never edits ``src/``.  Instead it replaces public
functions and methods *where their callers look them up* (a module
attribute such as ``repro.core.kernels.count_witnesses``, or a class
attribute such as ``GraphPairIndex.__init__``) with wrappers that
record one span per call.  A span is ``(id, name, start, end, parent,
request id, phase, counters)``; the parent and request id travel in
:mod:`contextvars`, so nesting stays correct inside asyncio tasks.
Spans stay in memory until the run ends (:meth:`Recorder.dump`).

A layer's *self time* is its span's duration minus the time its child
spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import time
from pathlib import Path

_parent: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_parent", default=None
)
_request: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)
_phase: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_phase", default=""
)


class Span:
    """One recorded call; ``counters`` holds work counts."""

    __slots__ = (
        "sid", "name", "start", "end", "parent", "rid", "phase",
        "counters", "children",
    )

    def __init__(self, sid, name, start, parent, rid, phase):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.phase = phase
        self.counters = {}
        self.children = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_row(self) -> list:
        return [
            self.sid, self.name, self.start, self.end,
            None if self.parent is None else self.parent.sid,
            self.rid, self.phase, self.counters,
        ]


class Recorder:
    """Holds every span of one process and installs the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._next = 0
        self._undo: list = []

    # -- span lifecycle -------------------------------------------------
    def open(self, name: str) -> "tuple[Span, contextvars.Token]":
        self._next += 1
        span = Span(
            self._next, name, time.perf_counter(), _parent.get(),
            _request.get(), _phase.get(),
        )
        if span.parent is not None:
            span.parent.children += 1
        self.spans.append(span)
        return span, _parent.set(span)

    @staticmethod
    def close(span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _parent.reset(token)

    # -- wrapping -------------------------------------------------------
    def wrap(self, func, name: str, count=None, before=None):
        """A traced version of *func*.

        ``count(span, args, kwargs, result)`` may add counters;
        ``before(span, args, kwargs)`` runs once the span is open and
        may return a request id to bind for the call's duration.
        """
        recorder = self

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced_async(*args, **kwargs):
                span, token = recorder.open(name)
                rid_token = _bind(before, span, args, kwargs)
                try:
                    result = await func(*args, **kwargs)
                finally:
                    if rid_token is not None:
                        _request.reset(rid_token)
                    recorder.close(span, token)
                if count is not None:
                    count(span, args, kwargs, result)
                return result

            return traced_async

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span, token = recorder.open(name)
            rid_token = _bind(before, span, args, kwargs)
            try:
                result = func(*args, **kwargs)
            finally:
                if rid_token is not None:
                    _request.reset(rid_token)
                recorder.close(span, token)
            if count is not None:
                count(span, args, kwargs, result)
            return result

        return traced

    def patch(self, target: str, name: str, count=None, before=None):
        """Replace ``module:attr`` or ``module:Class.attr`` in place."""
        self.replace(
            target, lambda func: self.wrap(func, name, count, before)
        )

    def replace(self, target: str, make) -> None:
        """Swap ``module:attr`` / ``module:Class.attr`` for ``make(old)``."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- output ---------------------------------------------------------
    def dump(self, path: "str | Path") -> None:
        """Write every span as JSON (atomically: tmp file + rename)."""
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        rows = [span.to_row() for span in list(self.spans)]
        tmp.write_text(json.dumps(rows), encoding="utf-8")
        os.replace(tmp, path)


def current() -> "Span | None":
    """The innermost open span of this thread or task."""
    return _parent.get()


def current_request():
    """The request id bound to this thread or task, if any."""
    return _request.get()


def _bind(before, span, args, kwargs):
    if before is None:
        return None
    rid = before(span, args, kwargs)
    if rid is None:
        return None
    span.rid = rid
    return _request.set(rid)


class phase:
    """Context manager labelling every span opened inside it."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._token = None

    def __enter__(self) -> "phase":
        self._token = _phase.set(self.name)
        return self

    def __exit__(self, *exc: object) -> None:
        _phase.reset(self._token)


def load_rows(path: "str | Path") -> "list[Span]":
    """Rebuild spans (with parent links) from a :meth:`Recorder.dump`."""
    rows = json.loads(Path(path).read_text(encoding="utf-8"))
    by_id: dict[int, Span] = {}
    spans = []
    for sid, name, start, end, parent, rid, ph, counters in rows:
        span = Span(sid, name, start, by_id.get(parent), rid, ph)
        span.end = end
        span.counters = counters
        if span.parent is not None:
            span.parent.children += 1
        by_id[sid] = span
        spans.append(span)
    return spans


def self_times(spans: "list[Span]") -> "dict[int, float]":
    """Self time of every span: its duration minus its children's.

    Children of one span run inside it and, within one thread or task,
    one after another, so their durations add up to the time they
    cover.
    """
    own = {span.sid: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent.sid in own:
            own[span.parent.sid] -= span.duration
    return own


def root_of(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span
