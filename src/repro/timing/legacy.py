"""The original single-heap discrete-event engine, kept as a reference.

This is the engine the repository shipped with before the bucketed
fast-path engine replaced it in :mod:`repro.timing.engine`. It is retained
verbatim (plus :meth:`LegacyEngine.schedule_call` and
:meth:`LegacyEngine.schedule_retry` compatibility shims) for two reasons:

* the differential battery in ``tests/test_engine_differential.py`` replays
  randomized schedule/cancel/run sequences — and whole Fig. 9 cells —
  against it to prove the new engine preserves the exact ``(cycle, seq)``
  firing order and therefore bit-identical statistics;
* ``repro-perf --compare-legacy`` and ``RCC_LEGACY_ENGINE=1`` let anyone
  re-measure the speedup or fall back to the slow-but-simple engine when
  debugging the fast one.

Do not optimize this file; its value is being the unoptimized oracle.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.timing.engine import RETRY_DELAY

Callback = Callable[[], None]


class LegacyEvent:
    """Handle for a scheduled event; lets the scheduler cancel it."""

    __slots__ = ("cycle", "seq", "callback", "cancelled")

    def __init__(self, cycle: int, seq: int, callback: Callback):
        self.cycle = cycle
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the heap, skipped)."""
        self.cancelled = True

    def __lt__(self, other: "LegacyEvent") -> bool:
        return (self.cycle, self.seq) < (other.cycle, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"<Event @{self.cycle} #{self.seq}{flag}>"


class LegacyEngine:
    """A deterministic discrete-event simulator clock (single global heap).

    >>> eng = LegacyEngine()
    >>> fired = []
    >>> _ = eng.schedule(5, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [5]
    """

    def __init__(self, max_cycles: int = 500_000_000):
        self.now: int = 0
        self.max_cycles = max_cycles
        self._heap: List[LegacyEvent] = []
        self._seq = 0
        self._events_fired = 0
        self._stopped = False
        #: Accepted for interface parity with the fast engine, which uses
        #: it to cross-check skipped retry polls; nothing is skipped here.
        self.audit_retries = False
        #: Optional () -> str hook appended to DeadlockError messages
        #: (the sanitizer attaches its recent-event tail here).
        self.diagnostics: Optional[Callable[[], str]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, cycle: int, callback: Callback) -> LegacyEvent:
        """Schedule ``callback`` to fire at absolute ``cycle``."""
        if cycle < self.now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self.now}, at={cycle})"
            )
        self._seq += 1
        ev = LegacyEvent(cycle, self._seq, callback)
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_in(self, delay: int, callback: Callback) -> LegacyEvent:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule(self.now + delay, callback)

    def schedule_call(self, cycle: int, callback: Callback) -> None:
        """Compatibility with the fast engine's no-handle scheduling path.

        The legacy heap has no event pool, so this is plain ``schedule``
        with the handle dropped — the shared call sites behave identically
        on both engines, which is what the differential tests rely on.
        """
        self.schedule(cycle, callback)

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

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True

    def step(self) -> bool:
        """Fire the next pending event. Returns False when none remain."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            if ev.cycle > self.max_cycles:
                detail = (f"event horizon exceeded max_cycles="
                          f"{self.max_cycles}; likely livelock or runaway "
                          "simulation")
                if self.diagnostics is not None:
                    detail += "\n" + self.diagnostics()
                raise DeadlockError(self.now, detail)
            self.now = ev.cycle
            ev.callback()
            self._events_fired += 1
            return True
        return False

    def run(self, until: Optional[int] = None) -> None:
        """Run until the event queue drains, ``stop()``, or cycle ``until``."""
        self._stopped = False
        while not self._stopped:
            if until is not None and self.peek() is not None and self.peek() > until:
                self.now = until
                return
            if not self.step():
                return

    def release(self) -> None:
        """Drop every queued event (simulator teardown; see
        :meth:`repro.timing.engine.Engine.release`)."""
        del self._heap[:]

    def peek(self) -> Optional[int]:
        """Cycle of the next live event, or None if the queue is empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].cycle if self._heap else None

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for ev in self._heap if not ev.cancelled)

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def snapshot(self) -> Tuple[int, int, int]:
        """(now, events_fired, pending) — used by progress watchdogs."""
        return (self.now, self._events_fired, self.pending)
