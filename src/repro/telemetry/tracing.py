"""A buffered span tracer with Chrome ``trace_event`` export.

Training code marks regions with the module-level :func:`span` helper::

    from repro.telemetry import trace

    with trace.span("sweep", sweep=iteration):
        ...

Spans (and every ``phase``) are timed by the shared core
(:mod:`repro.telemetry.timing`), nest per thread, carry JSON-able
attributes, and are buffered in the active :class:`Tracer` until
:meth:`Tracer.save` writes Chrome ``trace_event`` JSON for
``chrome://tracing`` or Perfetto.  Worker processes mirror the parent's
active tracer and ship drained events home in their timing payload; the
parent absorbs them with :meth:`Tracer.extend`, so one trace file covers
the whole cluster.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from .context import get_request_id
from .timing import Region, get_tracer, set_tracer, span

__all__ = ["Tracer", "get_tracer", "set_tracer", "span"]

#: ``perf_counter`` → epoch seconds; regions read only ``perf_counter``.
_EPOCH_OFFSET = time.time() - time.perf_counter()


class Tracer:
    """Thread- and fork-safe buffered span recorder.

    Events are plain dicts in Chrome ``trace_event`` "X" (complete-event)
    form — ``ts``/``dur`` in microseconds, ``pid``/``tid`` identifying the
    process and thread — plus ``id`` / ``parent`` span links in ``args``
    so nesting survives even when timestamps tie.  ``max_events`` bounds
    memory on very long runs (the oldest half is dropped with a marker
    event, never silently).
    """

    def __init__(self, max_events: int = 200_000) -> None:
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._dropped = 0
        self.max_events = max_events

    def span(self, name: str, **args: object) -> Region:
        """A span recorded on this tracer, active or not."""
        return Region(name, args, self, None)

    def _record(self, region: Region, duration: float) -> None:
        args = {
            "id": region.span_id,
            "parent": region.parent_id,
            **region.args,
        }
        # Stamp the ambient request id so one Chrome-trace filter (or a
        # grep of the exported JSON) reconstructs a request's whole path.
        request_id = get_request_id()
        if request_id is not None:
            args.setdefault("request_id", request_id)
        event = {
            "name": region.name,
            "cat": "repro",
            "ph": "X",
            "ts": round((region.start + _EPOCH_OFFSET) * 1e6, 1),
            "dur": round(duration * 1e6, 1),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": args,
        }
        with self._lock:
            self._events.append(event)
            if len(self._events) > self.max_events:
                kept = self._events[len(self._events) // 2 :]
                self._dropped += len(self._events) - len(kept)
                self._events = kept

    # -- export ------------------------------------------------------------

    def drain(self) -> list[dict]:
        """Remove and return all buffered events (workers ship these home)."""
        with self._lock:
            events, self._events = self._events, []
            return events

    def extend(self, events: list[dict]) -> None:
        """Absorb events drained from another tracer (a worker process)."""
        with self._lock:
            self._events.extend(events)

    @property
    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def to_chrome_trace(self) -> dict:
        """The full buffer as a ``chrome://tracing``-loadable object."""
        with self._lock:
            events = sorted(self._events, key=lambda e: e["ts"])
            metadata = {
                "harness": "repro.telemetry",
                "dropped_events": self._dropped,
            }
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }

    def save(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON to ``path`` and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace(), indent=1) + "\n")
        return path

