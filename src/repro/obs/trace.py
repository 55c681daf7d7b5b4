"""Chrome trace-event / Perfetto JSON writer.

Spans are recorded as "complete" events (``ph: "X"``) with explicit
timestamps — the recorder never reads a clock itself (R005); callers
supply begin/end microseconds from whichever clock domain owns the
span.  Output is the standard ``{"traceEvents": [...]}`` JSON object
that both ``chrome://tracing`` and https://ui.perfetto.dev load
directly.

Determinism: events serialize in insertion order with ``sort_keys``
inside each object and fixed separators, so the same run produces
byte-identical files.  The buffer is bounded (``max_events``); once
full, further events are dropped and counted in ``dropped_events`` —
a truncated trace plus an honest drop count beats unbounded memory.
Writes go through a ``.tmp`` sibling then ``os.replace`` so a crash
mid-write never leaves a torn file, matching the .rpdb convention.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

DEFAULT_MAX_EVENTS = 200_000


class TraceWriter:
    """Bounded in-memory recorder for Chrome trace-event JSON.

    Emission is thread-safe: the bound check, the append and the drop
    counter update happen under one lock, so concurrent emitters (the
    ingest service's client handlers) can never overshoot
    ``max_events`` or lose a drop from the count.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self.events: list[dict] = []
        self.dropped_events = 0
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def _emit(self, event: dict) -> None:
        with self._lock:
            if len(self.events) >= self.max_events:
                self.dropped_events += 1
                return
            self.events.append(event)

    def complete(
        self,
        name: str,
        cat: str,
        ts_us: float,
        dur_us: float,
        pid: int,
        tid: int,
        args: dict | None = None,
    ) -> None:
        """A span: ``ph "X"`` complete event with explicit begin/duration."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": round(float(ts_us), 3),
            "dur": round(max(float(dur_us), 0.0), 3),
            "pid": int(pid),
            "tid": int(tid),
        }
        if args:
            event["args"] = args
        self._emit(event)

    def instant(
        self,
        name: str,
        cat: str,
        ts_us: float,
        pid: int,
        tid: int,
        args: dict | None = None,
    ) -> None:
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": round(float(ts_us), 3),
            "pid": int(pid),
            "tid": int(tid),
            "s": "t",
        }
        if args:
            event["args"] = args
        self._emit(event)

    def process_name(self, pid: int, name: str) -> None:
        self._emit(
            {
                "name": "process_name",
                "ph": "M",
                "pid": int(pid),
                "tid": 0,
                "args": {"name": name},
            }
        )

    def thread_name(self, pid: int, tid: int, name: str) -> None:
        self._emit(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": int(pid),
                "tid": int(tid),
                "args": {"name": name},
            }
        )

    # -- output -------------------------------------------------------------

    def categories(self) -> set[str]:
        return {e["cat"] for e in self.events if "cat" in e}

    def to_json(self) -> str:
        # Snapshot under the lock so a concurrent emitter can't mutate the
        # event list while json.dumps iterates it (torn serialization).
        with self._lock:
            events = list(self.events)
            dropped = self.dropped_events
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": dropped},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def write(self, path: str | Path) -> Path:
        """Atomically write the trace JSON to ``path`` (.tmp + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(self.to_json(), encoding="utf-8")
        os.replace(tmp, path)
        return path
