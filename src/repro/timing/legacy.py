"""The original single-heap discrete-event engine, kept as the tests'
reference.

This is the engine the repository shipped with before the bucketed
fast-path engine replaced it in :mod:`repro.timing.engine`, cut to the
same small interface (``schedule``, ``schedule_retry``, ``run``,
``release``). The test suite swaps it in for the simulator's engine and
demands identical firing logs, result payloads and sanitizer event
streams from both, which proves the fast engine preserves the exact
``(cycle, seq)`` firing order and therefore bit-identical statistics.
Nothing outside the tests builds it.

Do not optimize this file; its value is being the unoptimized oracle.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.timing.engine import RETRY_DELAY

Callback = Callable[[], None]


class LegacyEngine:
    """A deterministic discrete-event simulator clock (single global heap).

    >>> eng = LegacyEngine()
    >>> fired = []
    >>> eng.schedule(5, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [5]
    """

    def __init__(self, max_cycles: int = 500_000_000):
        self.now: int = 0
        self.max_cycles = max_cycles
        #: ``(cycle, seq, callback)`` entries.
        self._heap: List[Tuple[int, int, Callback]] = []
        self._seq = 0
        self._events_fired = 0
        #: Accepted for interface parity with the fast engine, which uses
        #: it to cross-check skipped retry polls; nothing is skipped here.
        self.audit_retries = False
        #: Optional () -> str hook appended to DeadlockError messages
        #: (the sanitizer attaches its recent-event tail here).
        self.diagnostics: Optional[Callable[[], str]] = None

    def schedule(self, cycle: int, callback: Callback) -> None:
        """Schedule ``callback`` to fire at absolute ``cycle``."""
        if cycle < self.now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self.now}, at={cycle})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (cycle, self._seq, callback))

    def schedule_retry(self, cycle: int, poll: Callable[..., object]) -> None:
        """The fast engine's retry primitive as one plain event per poll.

        No batches and no epoch skip: every poll runs its predicate, and a
        still-blocked poll (non-None result) schedules its next poll
        ``RETRY_DELAY`` cycles later. This is the oracle the batched
        retries are checked against. Each re-arm wraps the poll afresh
        rather than rescheduling the same closure, which would have to
        refer to itself (a reference cycle per retried request).
        """
        def fire() -> None:
            if poll() is not None:
                self.schedule_retry(self.now + RETRY_DELAY, poll)

        self.schedule(cycle, fire)

    def run(self) -> None:
        """Fire events in ``(cycle, seq)`` order until the heap is empty."""
        while self._heap:
            cycle, _, callback = heapq.heappop(self._heap)
            self.now = cycle
            if cycle > self.max_cycles:
                detail = (f"event horizon exceeded max_cycles="
                          f"{self.max_cycles}; likely livelock or runaway "
                          "simulation")
                if self.diagnostics is not None:
                    detail += "\n" + self.diagnostics()
                raise DeadlockError(self.now, detail)
            callback()
            self._events_fired += 1

    def release(self) -> None:
        """Drop every queued event (simulator teardown; see
        :meth:`repro.timing.engine.Engine.release`)."""
        del self._heap[:]

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    @property
    def events_fired(self) -> int:
        return self._events_fired
