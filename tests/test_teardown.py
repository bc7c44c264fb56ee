"""Simulator teardown: a finished simulator holds no reference cycles.

``GPUSimulator.run`` ends, whether it completes or raises, by undoing
every back-reference its build made (crossbar endpoints, core<->L1,
completion hook, rollover wiring, engine diagnostics and queue), and the
L2 retry paths drop a message's cached poll once it stops being parked.
A dropped simulator is then freed by reference counting alone, which is
what lets the end-of-run collect cover only the young generation
(DESIGN.md Appendix D, "Teardown"). Every check here counts the objects
a full collection under ``gc.DEBUG_SAVEALL`` finds unreachable: zero
means nothing was left for the cycle collector.
"""

from __future__ import annotations

import dataclasses
import gc
from collections import Counter

import pytest

from repro.coherence.registry import available_protocols
from repro.config import GPUConfig
from repro.errors import DeadlockError, SimulationError
from repro.fuzz.oracle import INIT, Observation, explain
from repro.sim.gpusim import GPUSimulator
from repro.timing.engine import Engine
from repro.timing.legacy import LegacyEngine
from repro.workloads import get_workload
from tests.conftest import use_engine
from tests.test_fuzz_differential import MP

ENGINES = ("fast", "legacy")


def cyclic_garbage(fn) -> Counter:
    """Run ``fn`` (which must drop everything it builds) and return, by
    type, the objects a full collection then finds unreachable."""
    gc.collect()
    fn()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        del gc.garbage[:]


def _pressure_cfg() -> GPUConfig:
    """The small machine with two L2 MSHRs per bank (as in
    ``tests/test_retry_batches.py``): every protocol retries a lot."""
    cfg = GPUConfig.small()
    return dataclasses.replace(cfg, l2_per_bank=dataclasses.replace(
        cfg.l2_per_bank, mshr_entries=2))


def _build(cfg, protocol, workload, intensity, seed, **kw) -> GPUSimulator:
    traces = get_workload(workload, intensity=intensity,
                          seed=seed).generate(cfg)
    return GPUSimulator(cfg, protocol, traces, workload, **kw)


# ----------------------------------------------------------------------
# Completed runs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("protocol", available_protocols())
def test_finished_simulator_leaves_no_cycles(protocol, sanitize, engine,
                                             monkeypatch):
    use_engine(monkeypatch, engine == "legacy")

    def run_and_drop():
        sim = _build(GPUConfig.small(), protocol, "dlb", 0.1, 1,
                     sanitize=sanitize)
        assert sim.run().mem_ops > 0

    assert cyclic_garbage(run_and_drop) == Counter()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("protocol", available_protocols())
def test_pressure_run_leaves_nothing_for_the_young_collect(protocol, engine,
                                                           monkeypatch):
    use_engine(monkeypatch, engine == "legacy")
    sim = _build(_pressure_cfg(), protocol, "hsp", 0.5, 3)
    gc.collect()  # generation 0 starts empty: only the run's objects count
    sim.run()
    assert sim.young_gc_reclaimed == 0


#: Retry-heavy machines: the 2-MSHR small machine, where every parked
#: request proceeds at its first poll that finds room, and the bench
#: machine on hsp, where many proceed into the full handler only to be
#: parked again.
RETRY_MACHINES = {
    "pressure": (_pressure_cfg, 0.5, False),
    "bench": (GPUConfig.bench, 0.02, True),
}


@pytest.mark.parametrize("machine", sorted(RETRY_MACHINES))
@pytest.mark.parametrize("protocol", ["RCC-WO", "TCW", "MESI"])
def test_each_parked_message_builds_one_poll(protocol, machine,
                                             monkeypatch):
    """The retry paths drop a message's cached poll only when a proceed
    does not re-park it, so no message ever needs a second poll."""
    make_cfg, intensity, reparks = RETRY_MACHINES[machine]
    sim = _build(make_cfg(), protocol, "hsp", intensity, 3)
    l2_cls = type(sim.proto.l2s[0])
    polls_by_msg = {}
    parks = Counter()
    scheduled = []  # keeps every poll alive, so ids stay unique

    def recording_retry(self, msg, *args):
        original(self, msg, *args)
        parks[msg.msg_id] += 1
        polls_by_msg.setdefault(msg.msg_id, set()).add(
            id(msg.meta["_retry_poll"]))

    def recording_schedule(self, cycle, poll):
        scheduled.append(poll)
        original_schedule(self, cycle, poll)

    original = l2_cls._retry
    original_schedule = Engine.schedule_retry
    monkeypatch.setattr(l2_cls, "_retry", recording_retry)
    monkeypatch.setattr(Engine, "schedule_retry", recording_schedule)
    sim.run()
    assert len(polls_by_msg) > 10  # the machine really was under pressure
    assert any(n > 1 for n in parks.values()) == reparks
    assert all(len(polls) == 1 for polls in polls_by_msg.values())
    assert len({id(p) for p in scheduled}) == len(polls_by_msg)


def test_results_stay_readable_after_teardown():
    sim = _build(GPUConfig.small(), "RCC", "bfs", 0.05, 1)
    result = sim.run()
    assert result.mem_ops > 0 and result.cycles > 0
    assert sim.final_memory() == result.final_memory
    assert sum(l1.stats.loads for l1 in sim.proto.l1s) == result.l1_loads
    assert sim.engine.pending == 0


# ----------------------------------------------------------------------
# Single use
# ----------------------------------------------------------------------

def test_second_run_raises():
    sim = _build(GPUConfig.small(), "RCC", "bfs", 0.05, 1)
    first = sim.run().to_payload()
    with pytest.raises(SimulationError, match="single-use"):
        sim.run()
    assert sim.result.to_payload() == first


# ----------------------------------------------------------------------
# Runs that raise
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
def test_deadlock_tears_down_and_keeps_the_sanitizer_tail(engine,
                                                          monkeypatch):
    """The ``test_integration.py::test_deadlock_detection`` setup,
    sanitized: teardown must not run before the sanitizer's recent-event
    tail is rendered into the message, and must run before the error
    leaves ``run``."""
    use_engine(monkeypatch, engine == "legacy")
    messages = []

    def deadlock_and_drop():
        sim = _build(GPUConfig.small().replace(max_cycles=200), "RCC",
                     "vpr", 0.5, 3, sanitize=True)
        try:
            sim.run()
        except DeadlockError as exc:
            messages.append(str(exc))
        assert sim.engine.pending == 0

    assert cyclic_garbage(deadlock_and_drop) == Counter()
    assert len(messages) == 1
    assert "sanitizer[RCC] saw" in messages[0]
    assert "most recent:" in messages[0]


# ----------------------------------------------------------------------
# Engine release
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine_cls", [Engine, LegacyEngine])
def test_release_drops_queued_work(engine_cls):
    eng = engine_cls()
    fired = []
    eng.schedule(3, lambda: fired.append(3))
    eng.schedule(10_000, lambda: fired.append(10_000))
    eng.schedule_retry(7, lambda dry=False: fired.append(7))
    eng.release()
    assert eng.pending == 0
    eng.run()
    assert fired == [] and eng.events_fired == 0


# ----------------------------------------------------------------------
# The SC oracle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("explainable", [True, False])
def test_oracle_leaves_no_cycles(explainable):
    flag_read = (0, 0, 1)
    data_read = (0, 0, 0) if explainable else INIT
    obs = Observation(reads={(1, 0): [flag_read, data_read]},
                      final={0: (0, 0, 0), 1: (0, 0, 1)})

    def search():
        assert (explain(MP, obs) is not None) == explainable

    assert cyclic_garbage(search) == Counter()
