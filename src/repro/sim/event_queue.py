"""Deterministic priority queue of simulation events.

:class:`EventQueue` is a binary heap ordered by (time, insertion sequence):
events at the same time pop in the order they were scheduled, so a run is
reproducible from its seed alone.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import SimulationError
from .events import Event, EventKind

__all__ = ["EventQueue"]


@dataclass
class EventQueue:
    """Min-heap of :class:`Event` ordered by (time, insertion sequence)."""

    _heap: list[Event] = field(default_factory=list)
    _sequence: int = 0
    _last_popped_time: float = float("-inf")

    def schedule(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Insert an event at ``time``; scheduling into the past is an error."""
        if time < self._last_popped_time:
            raise SimulationError(
                f"cannot schedule an event at t={time:g}, already processed up "
                f"to t={self._last_popped_time:g}"
            )
        event = Event(time=time, sequence=self._sequence, kind=kind, payload=payload)
        self._sequence += 1
        heapq.heappush(self._heap, event)
        return event

    def peek(self) -> Event | None:
        """The earliest pending event without removing it (None when empty)."""
        return self._heap[0] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the earliest pending event."""
        if not self._heap:
            raise SimulationError("pop() on an empty event queue")
        event = heapq.heappop(self._heap)
        self._last_popped_time = event.time
        return event

    def pop_due(self, time: float) -> Iterator[Event]:
        """Yield every event whose time is <= ``time``, in order."""
        while self._heap and self._heap[0].time <= time:
            yield self.pop()

    def next_time(self) -> float:
        """Time of the earliest pending event (inf when empty)."""
        return self._heap[0].time if self._heap else float("inf")

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
