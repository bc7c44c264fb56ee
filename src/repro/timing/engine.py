"""Cycle-accurate discrete-event simulation engine (bucketed fast path).

Events fire in ``(cycle, seq)`` order, where ``seq`` is the global
scheduling order, so events scheduled for the same cycle fire in
scheduling order and every simulation is fully deterministic — two runs
with the same configuration and workload produce bit-identical statistics.
The tests check this equivalence against the original single-heap engine,
kept as :class:`repro.timing.legacy.LegacyEngine`.

The engine is **run-to-completion** and **single-use**: a simulation
schedules its first events, calls :meth:`Engine.run` once, which returns
only when the queue is empty (or raises), and then drops the queue with
:meth:`Engine.release`. Events cannot be cancelled and ``schedule``
returns no handle, which is what lets the queue hold bare callbacks.

Profiles of the Fig. 9 sweep showed most events land within a few hundred
cycles of ``now`` (core ticks at ``now+1``, L1 hits at
``now+hit_latency``, NoC deliveries tens of cycles out, DRAM returns ~460
cycles out), so a global binary heap pays an O(log n) comparison cascade
per event for keys that are almost always near the minimum. Instead the
engine keeps a **two-level queue**:

* a rotating array of ``_RING`` (512, a power of two ≥ the DRAM minimum
  latency) near-future cycle buckets covering ``[now, horizon)``; an event
  at cycle ``c`` appends its bare callback to bucket ``c & (_RING - 1)`` —
  O(1), and because appends happen in scheduling order each bucket list
  is seq-sorted by construction (no seq is drawn);
* a far-future heap of ``(cycle, seq, callback)`` tuples for the rare
  events at or beyond the horizon (livelock watchdogs, timeseries
  samplers); when the queue advances, far events that fall inside the new
  window are migrated into their buckets **before** any callback at the
  new cycle runs, which keeps bucket order = seq order;
* a min-heap of *occupied bucket cycles* (pushed only on a bucket's
  empty→nonempty transition, so ~1 push per simulated cycle rather than
  per event) that makes "what is the next nonempty cycle?" O(log #cycles)
  even when the ring is sparse.

Same-cycle events are drained as a batch: the run loop takes a bucket once
and iterates it, picking up events appended to the current cycle mid-drain
without touching any priority structure. :meth:`Engine.schedule_retry`
queues a *retry poll*: a request that hit a blocked L2 bank asks every
``RETRY_DELAY`` cycles whether it can proceed. Consecutive retries in one
bucket share one :class:`RetryBatch` entry, fired member by member in
order, and a member blocked on a full bank is re-armed without re-running
its predicate while the bank's :class:`RetryGate` epoch is unchanged
(DESIGN.md Appendix D, "Retry batches").

Components never spin on cycles they have nothing to do in; each schedules
the next event it cares about. GPU cores register their per-cycle issue
stage in the engine's cycle bucket itself (see ``GPUCore._schedule_tick``),
which makes the bucket the shared per-cycle dispatch list for all cores
active in that cycle.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import DeadlockError, InvariantViolation, SimulationError

Callback = Callable[[], None]

#: Width of the near-future window, in cycles. Must be a power of two and
#: should exceed the largest common scheduling distance (DRAM min_latency,
#: 460 cycles in the paper config) so that steady-state traffic never
#: touches the far heap.
_RING = 512
_MASK = _RING - 1

#: Cycles between two polls of a blocked request (the request sitting in
#: the bank's input queue). Shorter than the ring, so a batch being fired
#: always re-arms its members inside the window.
RETRY_DELAY = 8
assert RETRY_DELAY < _RING


class RetryGate:
    """The unblock epoch of one L2 bank.

    Every change that can let a request blocked on "line absent and MSHR
    (plus parked leases) full" proceed bumps ``epoch``: MSHR releases,
    tag-array inserts, TC parked-lease pops and RCC rollover/freeze
    transitions. A retry poll that reports itself blocked on the gate is
    re-armed without re-running its predicate while ``epoch`` stays put.
    """

    __slots__ = ("epoch",)

    def __init__(self) -> None:
        self.epoch = 0


#: Stand-in gate of a member that must be re-evaluated on its next firing
#: (first firing, or blocked on something the epoch does not track). Its
#: recorded epoch is -1, which ``epoch`` (0, never bumped) never equals.
_UNGATED = RetryGate()


class RetryBatch:
    """Consecutive retry polls of one bucket, fired as one entry.

    ``members`` holds ``(poll, gate, epoch)`` triples in scheduling order.
    """

    __slots__ = ("members",)

    def __init__(self, members: list) -> None:
        self.members = members


class Engine:
    """A deterministic discrete-event simulator clock.

    >>> eng = Engine()
    >>> fired = []
    >>> eng.schedule(5, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [5]
    """

    __slots__ = ("now", "max_cycles", "_seq", "_events_fired", "_live",
                 "_ring", "_ring_cycles", "_far", "_horizon",
                 "audit_retries", "diagnostics")

    def __init__(self, max_cycles: int = 500_000_000):
        self.now: int = 0
        self.max_cycles = max_cycles
        #: Tie-breaker of far-heap entries (scheduling order).
        self._seq = 0
        self._events_fired = 0
        #: Scheduled, not yet fired events — O(1) ``pending``. Every
        #: retry-batch member counts as one event.
        self._live = 0
        #: Near-future buckets; bucket ``c & _MASK`` holds cycle ``c`` while
        #: ``c`` is inside ``[now, _horizon)``.
        self._ring: List[list] = [[] for _ in range(_RING)]
        #: Min-heap of cycles whose bucket is occupied (one entry per
        #: occupied cycle; pushed on the empty→nonempty transition).
        self._ring_cycles: List[int] = []
        #: ``(cycle, seq, callback)`` entries at ``cycle >= _horizon``.
        self._far: List[Tuple[int, int, object]] = []
        #: Exclusive upper bound of the ring window. Invariant: every event
        #: in a bucket has ``cycle < _horizon`` and every far-heap event has
        #: ``cycle >= horizon-at-push`` (the horizon only grows), so the
        #: earliest ring cycle is always below the earliest far cycle.
        self._horizon = _RING
        #: Re-evaluate every retry member the epoch lets the engine skip and
        #: raise :class:`InvariantViolation` if it was in fact unblocked.
        #: Set when a sanitizer is attached to the simulation.
        self.audit_retries = False
        #: Optional () -> str hook appended to DeadlockError messages
        #: (the sanitizer attaches its recent-event tail here).
        self.diagnostics: Optional[Callable[[], str]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, cycle: int, callback: Callback) -> None:
        """Schedule ``callback`` to fire at absolute ``cycle``."""
        if cycle < self._horizon:
            if cycle < self.now:
                raise SimulationError(
                    f"cannot schedule event in the past "
                    f"(now={self.now}, at={cycle})"
                )
            self._live += 1
            bucket = self._ring[cycle & _MASK]
            if not bucket:
                heapq.heappush(self._ring_cycles, cycle)
            bucket.append(callback)
            return
        self._push_far(cycle, callback)

    def schedule_retry(self, cycle: int, poll: Callable[..., object]) -> None:
        """Queue a retry poll at ``cycle``.

        ``poll()`` either lets the blocked request proceed (it runs the
        handler) and returns None, or reports that the request is still
        blocked: ``True`` for a condition that must be re-checked on every
        poll, or the bank's :class:`RetryGate` when the request waits for
        that bank to free capacity. A still-blocked poll is re-armed
        ``RETRY_DELAY`` cycles later. ``poll(True)`` must report the same
        status without running anything; the sanitizer's cross-check of
        skipped members relies on it.

        The retry joins the bucket's last entry when that is a retry batch
        (even one being fired, which then fires it in turn), and starts a
        new batch otherwise, so the firing order is exactly that of one
        event per retry. Each member counts as one event in ``pending``
        and ``events_fired``.
        """
        if cycle < self._horizon:
            if cycle < self.now:
                raise SimulationError(
                    f"cannot schedule event in the past "
                    f"(now={self.now}, at={cycle})"
                )
            self._live += 1
            bucket = self._ring[cycle & _MASK]
            if bucket:
                last = bucket[-1]
                if last.__class__ is RetryBatch:
                    last.members.append((poll, _UNGATED, -1))
                    return
            else:
                heapq.heappush(self._ring_cycles, cycle)
            bucket.append(RetryBatch([(poll, _UNGATED, -1)]))
            return
        self._push_far(cycle, RetryBatch([(poll, _UNGATED, -1)]))

    def _push_far(self, cycle: int, entry: object) -> None:
        """Queue an entry beyond the window, keyed by ``(cycle, seq)``."""
        self._seq += 1
        self._live += 1
        heapq.heappush(self._far, (cycle, self._seq, entry))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _next_cycle(self) -> int:
        """The earliest queued cycle, with the far events that the window
        starting there covers migrated into their buckets. Only called
        while events are queued."""
        rc = self._ring_cycles
        far = self._far
        nxt = heapq.heappop(rc) if rc else far[0][0]
        # Slide the window so it starts at the cycle about to fire.
        # Migration happens before any callback at ``nxt`` runs and pops
        # the far heap in (cycle, seq) order, so every bucket list stays
        # seq-sorted.
        horizon = self._horizon = nxt + _RING
        ring = self._ring
        while far and far[0][0] < horizon:
            cycle, _, entry = heapq.heappop(far)
            bucket = ring[cycle & _MASK]
            if not bucket and cycle != nxt:
                heapq.heappush(rc, cycle)
            bucket.append(entry)
        return nxt

    def run(self) -> None:
        """Fire events in ``(cycle, seq)`` order until the queue is empty.

        A cycle past ``max_cycles`` raises :class:`DeadlockError`."""
        ring = self._ring
        fire_retries = self._fire_retries
        while self._live:
            cyc = self._next_cycle()
            # ``now`` is a per-cycle fact, not a per-event one: set it once
            # per batch (every callback in it fires at this cycle).
            self.now = cyc
            if cyc > self.max_cycles:
                detail = (f"event horizon exceeded max_cycles="
                          f"{self.max_cycles}; likely livelock or runaway "
                          "simulation")
                if self.diagnostics is not None:
                    detail += "\n" + self.diagnostics()
                raise DeadlockError(cyc, detail)
            lst = ring[cyc & _MASK]
            # The live/fired counters are reconciled once per cycle (no
            # callback reads them mid-run); ``finally`` keeps them right
            # when a callback raises. Retry batches keep their own counts.
            fired = 0
            try:
                # The list iterator re-reads ``len(lst)``, so events the
                # callbacks append to this cycle are fired in this drain.
                for cb in lst:
                    if cb.__class__ is RetryBatch:
                        fire_retries(cb, cyc)
                    else:
                        fired += 1
                        cb()
            finally:
                self._live -= fired
                self._events_fired += fired
            del lst[:]

    def _fire_retries(self, batch: RetryBatch, cyc: int) -> None:
        """Fire ``batch``'s members in order, including members that
        join it while it fires.

        A member whose gate epoch is unchanged since it last reported
        itself blocked is re-armed without calling its poll (with
        ``audit_retries`` set, the poll is asked anyway and a disagreement
        raises). Re-armed members join the retry batch that is last in
        the bucket ``RETRY_DELAY`` cycles ahead, or start one — exactly
        where one event per retry would have been appended.
        """
        audit = self.audit_retries
        t = cyc + RETRY_DELAY
        bt = self._ring[t & _MASK]
        nxt = None
        fired = rearmed = 0
        try:
            for m in batch.members:
                fired += 1
                poll, gate, ep = m
                if gate.epoch == ep:
                    if audit and poll(True) is not gate:
                        self._retry_skip_violation(poll, gate, cyc)
                else:
                    r = poll()
                    if r is None:
                        continue
                    if r is True:
                        m = (poll, _UNGATED, -1)
                    else:
                        m = (poll, r, r.epoch)
                rearmed += 1
                if nxt is None or bt[-1] is not nxt:
                    last = bt[-1] if bt else None
                    if last.__class__ is RetryBatch:
                        nxt = last
                    else:
                        if not bt:
                            heapq.heappush(self._ring_cycles, t)
                        nxt = RetryBatch([])
                        bt.append(nxt)
                    append = nxt.members.append
                append(m)
        finally:
            self._live += rearmed - fired
            self._events_fired += fired

    def _retry_skip_violation(self, poll, gate: RetryGate, cyc: int) -> None:
        detail = ("a retry member was re-armed on an unchanged gate epoch "
                  f"({gate.epoch}) but its poll no longer reports itself "
                  "blocked on that gate: some unblock path does not bump "
                  "the bank's RetryGate")
        if self.diagnostics is not None:
            detail += "\n" + self.diagnostics()
        raise InvariantViolation(
            invariant="engine.retry.epoch_skip", event=f"{poll!r} @{cyc}",
            detail=detail, citation="DESIGN.md Appendix D, Retry batches")

    def release(self) -> None:
        """Drop every queued entry, leaving an empty engine (simulator
        teardown).

        Queued callbacks and retry polls close over the components that
        hold this engine, so a queue left behind by a finished or failed
        run would tie the whole machine into reference cycles."""
        for bucket in self._ring:
            if bucket:
                del bucket[:]
        del self._ring_cycles[:]
        del self._far[:]
        self._live = 0

    @property
    def pending(self) -> int:
        """Number of events still queued. O(1)."""
        return self._live

    @property
    def events_fired(self) -> int:
        return self._events_fired
