"""Unit tests for the discrete-event engine's contract, pinned on both the
fast :class:`Engine` and the reference :class:`LegacyEngine`."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.timing.engine import Engine
from repro.timing.legacy import LegacyEngine

ENGINES = (Engine, LegacyEngine)


def test_runs_events_in_time_order():
    for engine_cls in ENGINES:
        eng = engine_cls()
        fired = []
        eng.schedule(10, lambda: fired.append(10))
        eng.schedule(5, lambda: fired.append(5))
        eng.schedule(7, lambda: fired.append(7))
        eng.run()
        assert fired == [5, 7, 10]
        assert eng.now == 10


def test_same_cycle_events_fire_in_schedule_order():
    for engine_cls in ENGINES:
        eng = engine_cls()
        fired = []
        for i in range(20):
            eng.schedule(3, lambda i=i: fired.append(i))
        eng.run()
        assert fired == list(range(20))


def test_schedule_in_is_relative():
    # A callback schedules relative to ``now``, which is its own cycle.
    for engine_cls in ENGINES:
        eng = engine_cls()
        seen = []
        eng.schedule(4, lambda: eng.schedule(eng.now + 6,
                                             lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [10]


def test_cannot_schedule_in_past():
    for engine_cls in ENGINES:
        eng = engine_cls()
        eng.schedule(5, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule(3, lambda: None)


def test_negative_delay_rejected():
    # The same rejection from inside a running callback.
    for engine_cls in ENGINES:
        eng = engine_cls()
        eng.schedule(5, lambda: eng.schedule(eng.now - 1, lambda: None))
        with pytest.raises(SimulationError):
            eng.run()


def test_max_cycles_guards_against_livelock():
    for engine_cls in ENGINES:
        eng = engine_cls(max_cycles=100)

        def reschedule():
            eng.schedule(eng.now + 10, reschedule)

        eng.schedule(0, reschedule)
        with pytest.raises(DeadlockError) as exc:
            eng.run()
        assert exc.value.cycle == 110  # the first cycle past the bound
        assert eng.events_fired == 11


def test_events_fired_counter():
    for engine_cls in ENGINES:
        eng = engine_cls()
        for i in range(7):
            eng.schedule(i, lambda: None)
        eng.schedule(5000, lambda: None)  # beyond the fast engine's window
        assert eng.pending == 8
        eng.run()
        assert (eng.now, eng.events_fired, eng.pending) == (5000, 8, 0)
