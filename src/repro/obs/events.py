"""Span/instant event records and the bounded event log.

Events carry only simulated-time stamps (microseconds); nothing in this
module reads a wall clock, so event streams are a pure function of the
simulation and replay byte-identically for a given seed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["SpanEvent", "InstantEvent", "EventLog"]


class SpanEvent:
    """A completed duration on some track: a core job, a DMA vector, a
    protocol phase, or a whole transaction (when ``txn_id`` is set)."""

    __slots__ = ("name", "cat", "node", "track", "ts", "dur", "txn_id", "args")

    def __init__(self, name: str, cat: str, node: int, track: str,
                 ts: float, dur: float, txn_id: Optional[int] = None,
                 args: Optional[Dict[str, Any]] = None):
        self.name = name
        self.cat = cat
        self.node = node
        self.track = track
        self.ts = ts
        self.dur = dur
        self.txn_id = txn_id
        self.args = args


class InstantEvent:
    """A zero-duration marker (aborts, retries, faults)."""

    __slots__ = ("name", "cat", "node", "track", "ts", "txn_id", "args")

    def __init__(self, name: str, cat: str, node: int, track: str,
                 ts: float, txn_id: Optional[int] = None,
                 args: Optional[Dict[str, Any]] = None):
        self.name = name
        self.cat = cat
        self.node = node
        self.track = track
        self.ts = ts
        self.txn_id = txn_id
        self.args = args


class EventLog:
    """Bounded append-only buffer of observability events.

    Appends beyond ``limit`` are counted in ``dropped`` rather than
    stored, so a runaway workload cannot exhaust memory; exporters
    surface the drop count so truncation is never silent.
    """

    def __init__(self, limit: int = 200_000):
        self.limit = limit
        self.events: List[Any] = []
        self.dropped = 0

    def append(self, event: Any) -> None:
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def spans(self) -> List[SpanEvent]:
        return [e for e in self.events if isinstance(e, SpanEvent)]

    def instants(self) -> List[InstantEvent]:
        return [e for e in self.events if isinstance(e, InstantEvent)]
