"""The one timing core behind traces and phase profiles.

One process-wide activation holds the active
:class:`~repro.telemetry.tracing.Tracer` and
:class:`~repro.telemetry.profiler.PhaseProfiler`; each thread keeps one
stack of open regions; each region reads ``perf_counter`` once on entry
and once on exit and reports that duration to its sinks.
:func:`span` records a trace event; :func:`phase` also adds its seconds
to the profiler under the path of the thread's open *phases* (spans
never enter a phase path).  With no sink active both return one shared
no-op, so a region costs one global read.

The activation is a module global, not a contextvar: the engine's
dispatch threads must see the sinks the fit loop activated, and
contextvars do not flow into already-running pool threads.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .profiler import PhaseProfiler
    from .tracing import Tracer


class Sinks(NamedTuple):
    """The active tracer and profiler; either may be ``None``."""

    tracer: "Tracer | None" = None
    profiler: "PhaseProfiler | None" = None


#: The active sinks, or ``None`` when neither is (every region a no-op).
_active: Sinks | None = None
_active_lock = threading.Lock()
_local = threading.local()
_span_ids = itertools.count(1)


class _NullRegion:
    __slots__ = ()

    def __enter__(self) -> "_NullRegion":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_REGION = _NullRegion()


def _stack() -> list["Region"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


class Region:
    """One timed region, reported to ``tracer`` and/or ``profiler`` on exit."""

    __slots__ = ("name", "args", "tracer", "profiler", "span_id", "parent_id",
                 "path", "start")

    def __init__(self, name: str, args: dict, tracer: "Tracer | None",
                 profiler: "PhaseProfiler | None") -> None:
        self.name, self.args = name, args
        self.tracer, self.profiler = tracer, profiler
        self.span_id = 0
        self.parent_id: int | None = None
        self.path: tuple[str, ...] = ()

    def __enter__(self) -> "Region":
        stack = _stack()
        if self.tracer is not None:
            self.span_id = next(_span_ids)
            self.parent_id = next(
                (r.span_id for r in reversed(stack) if r.tracer is self.tracer),
                None,
            )
        if self.profiler is not None:
            self.path = _path(stack, self.profiler) + (self.name,)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        seconds = time.perf_counter() - self.start
        stack = _stack()
        if stack[-1] is self:
            stack.pop()
        else:
            stack.remove(self)
        if self.tracer is not None:
            self.tracer._record(self, seconds)
        if self.profiler is not None:
            self.profiler.add(self.path, seconds)
        return False


def _path(stack: list[Region], profiler: "PhaseProfiler") -> tuple[str, ...]:
    for region in reversed(stack):
        if region.profiler is profiler:
            return region.path
    return ()


def current_path(profiler: "PhaseProfiler") -> tuple[str, ...]:
    """The calling thread's open phases of ``profiler``."""
    return _path(_stack(), profiler)


def span(name: str, **args: object):
    """A trace event on the active tracer; a shared no-op without one."""
    sinks = _active
    if sinks is None or sinks.tracer is None:
        return _NULL_REGION
    return Region(name, args, sinks.tracer, None)


def phase(name: str):
    """A span that is also a row of the active profiler; no-op with no sink.

    For per-superstep granularity (cache builds, snapshots, worker
    shards); the sweep interior batches into locals instead.
    """
    sinks = _active
    if sinks is None:
        return _NULL_REGION
    return Region(name, {}, sinks.tracer, sinks.profiler)


def _swap(**change: object) -> Sinks:
    global _active
    with _active_lock:
        previous = _active or Sinks()
        sinks = previous._replace(**change)
        _active = sinks if sinks != Sinks() else None
    return previous


def set_tracer(tracer: "Tracer | None") -> "Tracer | None":
    """Install ``tracer`` as the active tracer; returns the old one."""
    return _swap(tracer=tracer).tracer


def get_tracer() -> "Tracer | None":
    return (_active or Sinks()).tracer


def set_profiler(profiler: "PhaseProfiler | None") -> "PhaseProfiler | None":
    """Install ``profiler`` (``None``: profiling off); returns the old one."""
    return _swap(profiler=profiler).profiler


def get_profiler() -> "PhaseProfiler | None":
    return (_active or Sinks()).profiler


def drain() -> dict:
    """Empty the active sinks into one picklable timing payload.

    ``{"spans": [...], "phases": [...]}``, a key per active sink: what a
    worker process ships home in every reply.
    """
    sinks = _active or Sinks()
    payload: dict = {}
    if sinks.tracer is not None:
        payload["spans"] = sinks.tracer.drain()
    if sinks.profiler is not None:
        payload["phases"] = sinks.profiler.drain()
    return payload
