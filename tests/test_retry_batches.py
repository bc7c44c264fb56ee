"""Retry batches: ``Engine.schedule_retry`` against the legacy oracle.

The fast engine groups consecutive retry polls of one bucket into a
:class:`RetryBatch` entry and skips re-polling members blocked on an
unchanged :class:`RetryGate` epoch. :class:`LegacyEngine` runs one plain
event per poll and polls every time, so every test here demands the same
firing log, ``now``, ``events_fired`` and ``pending`` from both.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import GPUConfig
from repro.errors import DeadlockError, InvariantViolation
from repro.mem.mshr import MSHRFile
from repro.sim.gpusim import GPUSimulator
from repro.timing.engine import RETRY_DELAY, Engine, RetryBatch, RetryGate
from repro.timing.legacy import LegacyEngine
from repro.workloads import get_workload
from tests.conftest import use_engine

ENGINES = (Engine, LegacyEngine)


class World:
    """Per-engine harness: tagged polls that stay blocked until a token
    is free, plus a log of everything that fired."""

    def __init__(self, engine):
        self.engine = engine
        self.log = []
        self.tokens = 0
        self.gate = RetryGate()
        self.polls = 0      # full polls (predicate + maybe proceed)
        self.dry_polls = 0  # sanitizer cross-check re-evaluations

    def release(self, n=1, bump=True):
        self.tokens += n
        if bump:
            self.gate.epoch += 1

    def call(self, tag, then=None):
        def cb():
            self.log.append((self.engine.now, tag))
            if then is not None:
                then()
        return cb

    def poll(self, tag, gated=True, then=None):
        def poll(dry=False):
            if dry:
                self.dry_polls += 1
            else:
                self.polls += 1
            if not self.tokens:
                return self.gate if gated else True
            if not dry:
                self.tokens -= 1
                self.log.append((self.engine.now, tag))
                if then is not None:
                    then()
            return None
        return poll

    def observed(self):
        eng = self.engine
        return self.log, (eng.now, eng.events_fired, eng.pending)


def both(script):
    """Run ``script(world)`` on both engines; return their observations."""
    out = []
    for cls in ENGINES:
        world = World(cls())
        script(world)
        world.engine.run()
        out.append(world.observed())
    assert out[0] == out[1], f"fast {out[0]}\nlegacy {out[1]}"
    return out[0]


# ----------------------------------------------------------------------
def test_members_of_one_bucket_share_a_batch():
    eng = Engine()
    world = World(eng)
    for tag in "abc":
        eng.schedule_retry(8, world.poll(tag))
    bucket = eng._ring[8]
    assert len(bucket) == 1 and bucket[0].__class__ is RetryBatch
    assert len(bucket[0].members) == 3
    assert eng.pending == 3


def test_call_between_two_retries_keeps_its_place():
    # A delivery scheduled into the bucket between two retries splits
    # them into two batches, so the delivery fires between them.
    def script(w):
        eng = w.engine
        eng.schedule_retry(8, w.poll("a"))
        eng.schedule(8, w.call("x", then=lambda: w.release(3)))
        eng.schedule_retry(8, w.poll("b"))
        eng.schedule(20, lambda: w.release(1))
    log, _ = both(script)
    assert [tag for _, tag in log] == ["x", "b", "a"]
    eng = Engine()
    w = World(eng)
    script(w)
    kinds = [e.__class__.__name__ for e in eng._ring[8]]
    assert kinds == ["RetryBatch", "function", "RetryBatch"]


def test_delivery_lands_between_rearmed_members():
    # The real case: members a and c of one batch stay blocked and
    # re-arm RETRY_DELAY ahead, while b proceeds and sends a message with
    # the same latency in between. The next bucket must read a, x, c.
    def script(w):
        eng = w.engine

        def b_proceeds(dry=False):
            if not dry:
                w.log.append((eng.now, "b"))
                eng.schedule(eng.now + RETRY_DELAY, w.call("x"))
            return None

        eng.schedule_retry(8, w.poll("a"))
        eng.schedule_retry(8, b_proceeds)
        eng.schedule_retry(8, w.poll("c"))
        eng.schedule(12, lambda: w.release(2))
    log, _ = both(script)
    assert log == [(8, "b"), (16, "a"), (16, "x"), (16, "c")]


def test_handler_schedules_same_cycle_and_next_poll_events():
    # A proceeding member's handler schedules into its own cycle (a call
    # and a retry) and RETRY_DELAY ahead (a call and a retry); the batch
    # being fired must neither swallow nor reorder them.
    def script(w):
        eng = w.engine

        def fan_out():
            now = eng.now
            eng.schedule(now, w.call("same-call"))
            eng.schedule_retry(now, w.poll("same-retry", gated=False))
            eng.schedule(now + RETRY_DELAY, w.call("next-call"))
            eng.schedule_retry(now + RETRY_DELAY, w.poll("next-retry"))

        eng.schedule_retry(8, w.poll("a", then=fan_out))
        eng.schedule_retry(8, w.poll("b"))
        eng.schedule_retry(8, w.poll("c"))
        eng.schedule(0, lambda: w.release(2))
        eng.schedule(30, lambda: w.release(10))
    log, (_, _, pending) = both(script)
    tags = [tag for _, tag in log]
    assert tags[:3] == ["a", "b", "same-call"]
    assert pending == 0
    assert set(tags) == {"a", "b", "c", "same-call", "same-retry",
                         "next-call", "next-retry"}


# ----------------------------------------------------------------------
# The epoch skip
# ----------------------------------------------------------------------
def test_gated_member_is_not_repolled_until_the_epoch_moves():
    polls = {}
    for cls in ENGINES:
        w = World(cls())
        eng = w.engine
        eng.schedule_retry(8, w.poll("a"))
        eng.schedule(800, lambda: w.release(1))
        eng.run()
        polls[cls] = w.polls
        assert w.log == [(800, "a")]
        assert eng.events_fired == 100 + 1
    assert polls[LegacyEngine] == 100
    # The first poll, then the one the release's bump forces at 800.
    assert polls[Engine] == 2


def test_ungated_member_is_polled_every_time():
    w = World(Engine())
    w.engine.schedule_retry(8, w.poll("a", gated=False))
    w.engine.schedule(800, lambda: w.release(1))
    w.engine.run()
    assert w.polls == 100


def test_audit_reevaluates_every_skipped_member():
    w = World(Engine())
    w.engine.audit_retries = True
    w.engine.schedule_retry(8, w.poll("a"))
    w.engine.schedule(800, lambda: w.release(1))
    w.engine.run()
    assert (w.polls, w.dry_polls) == (2, 98)


def test_audit_catches_an_unblock_without_epoch_bump():
    for audit in (False, True):
        w = World(Engine(max_cycles=5_000))
        eng = w.engine
        eng.audit_retries = audit
        eng.schedule_retry(8, w.poll("a"))
        eng.schedule(100, lambda: w.release(1, bump=False))
        if audit:
            with pytest.raises(InvariantViolation) as exc:
                eng.run()
            assert exc.value.invariant == "engine.retry.epoch_skip"
            assert eng.now == 104
        else:
            # Without the cross-check the missed bump strands the poll
            # until the cycle budget runs out.
            with pytest.raises(DeadlockError):
                eng.run()
            assert w.log == []


# ----------------------------------------------------------------------
# Whole simulations
# ----------------------------------------------------------------------
def _pressure_cfg():
    """The small machine with two L2 MSHRs per bank: every protocol
    spends much of the run retrying against full banks."""
    cfg = GPUConfig.small()
    return dataclasses.replace(cfg, l2_per_bank=dataclasses.replace(
        cfg.l2_per_bank, mshr_entries=2))


@pytest.mark.parametrize("protocol", ["RCC-WO", "TCW", "MESI"])
def test_pressure_cell_matches_legacy_under_the_sanitizer(protocol,
                                                          monkeypatch):
    cfg = _pressure_cfg()
    traces = get_workload("hsp", intensity=0.5, seed=3).generate(cfg)
    payloads = []
    for legacy in (False, True):
        use_engine(monkeypatch, legacy)
        sim = GPUSimulator(cfg, protocol, traces, "hsp", sanitize=True)
        assert sim.engine.audit_retries
        payloads.append(json.dumps(sim.run().to_payload(), sort_keys=True))
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("protocol", ["RCC-WO", "TCW", "MESI"])
def test_missing_release_bump_is_caught_by_the_sanitizer(protocol,
                                                         monkeypatch):
    def release_without_bump(self, addr):
        entry = self._entries.get(addr)
        if entry is not None and entry.empty:
            del self._entries[addr]
            return True
        return False

    monkeypatch.setattr(MSHRFile, "release_if_empty", release_without_bump)
    cfg = _pressure_cfg()
    traces = get_workload("hsp", intensity=0.5, seed=3).generate(cfg)
    sim = GPUSimulator(cfg, protocol, traces, "hsp", sanitize=True)
    with pytest.raises(InvariantViolation) as exc:
        sim.run()
    assert exc.value.invariant == "engine.retry.epoch_skip"
