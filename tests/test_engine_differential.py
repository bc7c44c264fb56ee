"""Differential battery: fast bucketed engine vs the legacy heap oracle.

Two layers of evidence that the two-level queue preserves the engine's
determinism contract (events fire in exact ``(cycle, seq)`` order):

* randomized schedule/schedule_call/cancel/run(until) scripts replayed
  against both engines must produce identical firing logs — with a
  greedy shrinker so a failure prints its minimal script;
* a seeded Fig. 9 sweep cell run end-to-end on each engine must produce
  bit-identical result payloads.
"""

import json
import random

import pytest

from repro.config import GPUConfig
from repro.exec import SimCell, run_cell
from repro.timing.engine import Engine, RetryGate
from repro.timing.legacy import LegacyEngine

# ----------------------------------------------------------------------
# Script interpreter
# ----------------------------------------------------------------------
# A script is a list of top-level ops:
#   ("sched", delay, tag, nested)  schedule() with a handle kept under tag
#   ("call",  delay, tag, nested)  schedule_call() (no handle)
#   ("retry", delay, tag, gated, nested)
#                                  schedule_retry() of a poll that proceeds
#                                  (logging ``tag``) once a token is free
#   ("release", delay, tag)        schedule_call() of a callback that frees
#                                  one token and bumps the gate's epoch
#   ("cancel", tag)                cancel tag's handle if one exists
#   ("run_until", delta)           run(until=now + delta)
#   ("run",)                       drain everything queued so far
# ``nested`` is a list of (kind, delay, tag) scheduled from inside the
# callback when it fires — the mid-drain insertion case the bucket
# cursor must handle. Nested kinds are "sched", "call", "retry_g" (gated
# retry), "retry_u" (ungated retry) and "release".
#
# A blocked retry poll reports the script's RetryGate when ``gated`` (the
# fast engine may then skip re-polling it until a release bumps the
# epoch) and True otherwise. The legacy engine polls every time, so equal
# logs prove the skips were exact.


def exec_script(engine, script):
    log = []
    handles = {}
    tokens = [0]
    gate = RetryGate()

    def make_cb(tag, nested):
        def cb():
            log.append((engine.now, tag))
            for kind, delay, sub in nested:
                at = engine.now + delay
                if kind == "call":
                    engine.schedule_call(at, make_cb(sub, ()))
                elif kind == "sched":
                    handles[sub] = engine.schedule(at, make_cb(sub, ()))
                elif kind == "release":
                    engine.schedule_call(at, make_release(sub))
                else:
                    engine.schedule_retry(
                        at, make_poll(sub, kind == "retry_g", ()))
        return cb

    def make_release(tag):
        def release():
            log.append((engine.now, tag))
            tokens[0] += 1
            gate.epoch += 1
        return release

    def make_poll(tag, gated, nested):
        proceed = make_cb(tag, nested)

        def poll(dry=False):
            if not tokens[0]:
                return gate if gated else True
            if not dry:
                tokens[0] -= 1
                proceed()
            return None
        return poll

    for op in script:
        kind = op[0]
        if kind == "sched":
            _, delay, tag, nested = op
            handles[tag] = engine.schedule(engine.now + delay,
                                           make_cb(tag, nested))
        elif kind == "call":
            _, delay, tag, nested = op
            engine.schedule_call(engine.now + delay, make_cb(tag, nested))
        elif kind == "retry":
            _, delay, tag, gated, nested = op
            engine.schedule_retry(engine.now + delay,
                                  make_poll(tag, gated, nested))
        elif kind == "release":
            _, delay, tag = op
            engine.schedule_call(engine.now + delay, make_release(tag))
        elif kind == "cancel":
            handle = handles.get(op[1])
            if handle is not None:
                handle.cancel()
        elif kind == "run_until":
            engine.run(until=engine.now + op[1])
        elif kind == "run":
            engine.run()
    engine.run()
    return log, engine.now, engine.events_fired, engine.pending


def observe(script):
    fast = exec_script(Engine(), script)
    slow = exec_script(LegacyEngine(), script)
    return fast, slow


def shrink(script):
    """Greedily drop ops while the fast/legacy mismatch persists."""
    current = list(script)
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            fast, slow = observe(candidate)
            if fast != slow:
                current = candidate
                changed = True
                break
    return current


def random_script(rng):
    #: Delays straddle the 512-cycle ring window so far-heap migration,
    #: horizon slides, and run(until) parking all get exercised.
    delays = [0, 0, 1, 2, 3, 7, 8, 50, 200, 511, 512, 513, 900, 5000]
    script = []
    tag = 0
    for _ in range(rng.randrange(4, 40)):
        roll = rng.random()
        if roll < 0.35:
            nested = [("call" if rng.random() < 0.5 else "sched",
                       rng.choice(delays), f"n{tag}-{j}")
                      for j in range(rng.randrange(0, 3))]
            script.append(("sched", rng.choice(delays), f"t{tag}", nested))
            tag += 1
        elif roll < 0.65:
            nested = [("call", rng.choice(delays), f"n{tag}-{j}")
                      for j in range(rng.randrange(0, 3))]
            script.append(("call", rng.choice(delays), f"t{tag}", nested))
            tag += 1
        elif roll < 0.75 and tag:
            script.append(("cancel", f"t{rng.randrange(tag)}"))
        elif roll < 0.92:
            script.append(("run_until", rng.choice([0, 1, 5, 60, 513, 2000])))
        else:
            script.append(("run",))
    return script


def random_retry_script(rng):
    """Retries and releases mixed into schedule/call/park traffic.

    Releases are kept scarcer than retries so batches build up and stay
    blocked for several polls; delays include the retry interval (8) so
    deliveries land between retries of one bucket. The closing releases
    free enough tokens for every retry to proceed, so the final drain
    ends."""
    delays = [0, 1, 3, 8, 8, 16, 40, 511, 513, 900]
    script = []
    tag = 0
    for _ in range(rng.randrange(6, 50)):
        roll = rng.random()
        if roll < 0.35:
            nested = [(rng.choice(["call", "sched", "retry_g", "retry_u",
                                   "release"]),
                       rng.choice(delays), f"n{tag}-{j}")
                      for j in range(rng.randrange(0, 3))]
            script.append(("retry", rng.choice(delays), f"t{tag}",
                           rng.random() < 0.7, nested))
            tag += 1
        elif roll < 0.5:
            script.append(("release", rng.choice(delays) + 24, f"r{tag}"))
            tag += 1
        elif roll < 0.7:
            nested = [("call", rng.choice(delays), f"n{tag}-{j}")
                      for j in range(rng.randrange(0, 3))]
            script.append(("call", rng.choice(delays), f"t{tag}", nested))
            tag += 1
        elif roll < 0.78:
            script.append(("sched", rng.choice(delays), f"t{tag}", ()))
            tag += 1
        else:
            # No bare ("run",): a blocked retry polls until released.
            script.append(("run_until", rng.choice([0, 1, 5, 8, 60, 513])))
    # Each op adds at most three retries (itself and two nested ones).
    script += [("release", 8 * k, f"end{k}") for k in range(3 * tag + 1)]
    return script


# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(12))
def test_randomized_scripts_match_legacy(seed):
    rng = random.Random(987_000 + seed)
    for round_no in range(40):
        script = random_script(rng)
        fast, slow = observe(script)
        if fast != slow:
            minimal = shrink(script)
            pytest.fail(
                f"engines diverged (seed {seed}, round {round_no}); "
                f"minimal script: {minimal!r}\n"
                f"fast:   {exec_script(Engine(), minimal)}\n"
                f"legacy: {exec_script(LegacyEngine(), minimal)}")


@pytest.mark.parametrize("seed", range(8))
def test_randomized_retry_scripts_match_legacy(seed):
    rng = random.Random(424_000 + seed)
    for round_no in range(30):
        script = random_retry_script(rng)
        fast, slow = observe(script)
        if fast != slow:
            minimal = shrink(script)
            pytest.fail(
                f"engines diverged (seed {seed}, round {round_no}); "
                f"minimal script: {minimal!r}\n"
                f"fast:   {exec_script(Engine(), minimal)}\n"
                f"legacy: {exec_script(LegacyEngine(), minimal)}")


def test_interleaved_same_cycle_schedule_and_call_order():
    # schedule() and schedule_call() share one seq counter: an interleaved
    # same-cycle mix must fire in exact submission order on both engines.
    script = [("sched", 5, "a", ()), ("call", 5, "b", ()),
              ("sched", 5, "c", ()), ("call", 5, "d", ()),
              ("call", 5, "e", ()), ("sched", 5, "f", ())]
    fast, slow = observe(script)
    assert fast == slow
    assert [tag for _, tag in fast[0]] == ["a", "b", "c", "d", "e", "f"]


def test_cancel_of_far_future_event_matches():
    script = [("sched", 5000, "far", ()), ("sched", 3, "near", ()),
              ("cancel", "far"), ("run",)]
    fast, slow = observe(script)
    assert fast == slow
    assert fast[3] == 0  # nothing pending on either engine


def test_park_and_resume_with_earlier_insertion():
    # run(until) parks with the next cycle still queued; a later schedule
    # targets an earlier cycle, which must fire first on resume.
    script = [("sched", 100, "late", ()), ("run_until", 10),
              ("sched", 20, "early", ()), ("run",)]
    fast, slow = observe(script)
    assert fast == slow
    assert [tag for _, tag in fast[0]] == ["early", "late"]


# ----------------------------------------------------------------------
# Drain-path edges: the fast engine walks a bucket by index while its
# callbacks extend it; these pins hold on both engines.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_cls", [Engine, LegacyEngine],
                         ids=["fast", "legacy"])
def test_stop_from_bare_callback_mid_drain(engine_cls):
    # stop() issued *inside* a bare schedule_call callback must halt the
    # drain before the next entry of the same bucket fires, and a second
    # run() must resume exactly where it left off.
    eng = engine_cls()
    log = []
    eng.schedule_call(5, lambda: log.append("a"))
    eng.schedule_call(5, lambda: (log.append("stop"), eng.stop()))
    eng.schedule_call(5, lambda: log.append("b"))
    eng.schedule_call(9, lambda: log.append("later"))
    eng.run()
    assert log == ["a", "stop"]
    eng.run()
    assert log == ["a", "stop", "b", "later"]


def test_event_appended_to_current_bucket_mid_drain():
    # A bare callback scheduling a cancellable *Event* into its own cycle
    # mixes both entry kinds in the bucket being drained. Firing order
    # must stay submission order on both engines, and cancelling the
    # fresh handle from a sibling callback must suppress it.
    def script_ops(eng, log, cancel_it):
        box = {}

        def planter():
            log.append("plant")
            box["h"] = eng.schedule(eng.now, lambda: log.append("event"))

        def sibling():
            log.append("sibling")
            if cancel_it:
                box["h"].cancel()

        eng.schedule_call(7, planter)
        eng.schedule_call(7, sibling)
        eng.schedule_call(7, lambda: log.append("tail"))

    for cancel_it, expect in ((False, ["plant", "sibling", "tail",
                                       "event"]),
                              (True, ["plant", "sibling", "tail"])):
        logs = []
        for engine_cls in (Engine, LegacyEngine):
            eng = engine_cls()
            log = []
            script_ops(eng, log, cancel_it)
            eng.run()
            logs.append(log)
            assert log == expect, (engine_cls.__name__, cancel_it)
        assert logs[0] == logs[1]


# ----------------------------------------------------------------------
# End-to-end: a seeded Fig. 9 cell must be bit-identical across engines.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol,workload",
                         [("RCC", "bfs"), ("TCS", "dlb"), ("MESI", "bfs")])
def test_fig9_cell_payload_identical_across_engines(monkeypatch, protocol,
                                                    workload):
    cell = SimCell(cfg=GPUConfig.small(), protocol=protocol,
                   workload=workload, intensity=0.25, seed=1234)
    monkeypatch.delenv("RCC_LEGACY_ENGINE", raising=False)
    fast = run_cell(cell).to_payload()
    monkeypatch.setenv("RCC_LEGACY_ENGINE", "1")
    legacy = run_cell(cell).to_payload()
    assert json.dumps(fast, sort_keys=True) == json.dumps(legacy,
                                                          sort_keys=True)
