"""Differential battery: fast bucketed engine vs the legacy heap oracle.

Two layers of evidence that the two-level queue preserves the engine's
determinism contract (events fire in exact ``(cycle, seq)`` order):

* randomized schedule/schedule_retry/run scripts replayed against both
  engines must produce identical firing logs — with a
  greedy shrinker so a failure prints its minimal script;
* a seeded Fig. 9 sweep cell run end-to-end on each engine must produce
  bit-identical result payloads.
"""

import json
import random

import pytest

from repro.config import GPUConfig
from repro.exec import SimCell, run_cell
from repro.sim.gpusim import GPUSimulator
from repro.timing.engine import Engine, RetryGate
from repro.timing.legacy import LegacyEngine
from tests.conftest import empty_traces, use_engine

# ----------------------------------------------------------------------
# Script interpreter
# ----------------------------------------------------------------------
# A script is a list of top-level ops:
#   ("sched", delay, tag, nested)  schedule() of a callback logging ``tag``
#   ("retry", delay, tag, gated, nested)
#                                  schedule_retry() of a poll that proceeds
#                                  (logging ``tag``) once a token is free
#   ("release", delay, tag)        schedule() of a callback that frees
#                                  one token and bumps the gate's epoch
#   ("run",)                       drain everything queued so far
# ``nested`` is a list of (kind, delay, tag) scheduled from inside the
# callback when it fires — the mid-drain insertion case the bucket
# cursor must handle. Nested kinds are "sched", "retry_g" (gated
# retry), "retry_u" (ungated retry) and "release".
#
# A blocked retry poll reports the script's RetryGate when ``gated`` (the
# fast engine may then skip re-polling it until a release bumps the
# epoch) and True otherwise. The legacy engine polls every time, so equal
# logs prove the skips were exact.


def exec_script(engine, script):
    log = []
    tokens = [0]
    gate = RetryGate()

    def make_cb(tag, nested):
        def cb():
            log.append((engine.now, tag))
            for kind, delay, sub in nested:
                at = engine.now + delay
                if kind == "sched":
                    engine.schedule(at, make_cb(sub, ()))
                elif kind == "release":
                    engine.schedule(at, make_release(sub))
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
            engine.schedule(engine.now + delay, make_cb(tag, nested))
        elif kind == "retry":
            _, delay, tag, gated, nested = op
            engine.schedule_retry(engine.now + delay,
                                  make_poll(tag, gated, nested))
        elif kind == "release":
            _, delay, tag = op
            engine.schedule(engine.now + delay, make_release(tag))
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
    #: Delays straddle the 512-cycle ring window so far-heap migration and
    #: horizon slides get exercised.
    delays = [0, 0, 1, 2, 3, 7, 8, 50, 200, 511, 512, 513, 900, 5000]
    script = []
    tag = 0
    for _ in range(rng.randrange(4, 40)):
        if rng.random() < 0.85:
            nested = [("sched", rng.choice(delays), f"n{tag}-{j}")
                      for j in range(rng.randrange(0, 3))]
            script.append(("sched", rng.choice(delays), f"t{tag}", nested))
            tag += 1
        else:
            script.append(("run",))
    return script


def random_retry_script(rng):
    """Retries and releases mixed into plain scheduling traffic.

    Releases are kept scarcer than retries so batches build up and stay
    blocked for several polls; delays include the retry interval (8) so
    deliveries land between retries of one bucket. The closing releases
    free enough tokens for every retry to proceed, so the final drain
    ends. There is no mid-script ("run",): a blocked retry polls until
    released."""
    delays = [0, 1, 3, 8, 8, 16, 40, 511, 513, 900]
    script = []
    tag = 0
    for _ in range(rng.randrange(6, 50)):
        roll = rng.random()
        if roll < 0.45:
            nested = [(rng.choice(["sched", "retry_g", "retry_u",
                                   "release"]),
                       rng.choice(delays), f"n{tag}-{j}")
                      for j in range(rng.randrange(0, 3))]
            script.append(("retry", rng.choice(delays), f"t{tag}",
                           rng.random() < 0.7, nested))
        elif roll < 0.65:
            script.append(("release", rng.choice(delays) + 24, f"r{tag}"))
        else:
            nested = [("sched", rng.choice(delays), f"n{tag}-{j}")
                      for j in range(rng.randrange(0, 3))]
            script.append(("sched", rng.choice(delays), f"t{tag}", nested))
        tag += 1
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
    # Plain events and retry polls share one bucket: an interleaved
    # same-cycle mix must fire in exact submission order on both engines,
    # with a far event migrated into the cycle ahead of later schedules.
    script = [("release", 0, "r0"), ("release", 0, "r1"),
              ("sched", 5, "a", ()), ("retry", 5, "b", True, ()),
              ("sched", 5, "c", ()), ("retry", 5, "d", False, ()),
              ("sched", 600, "far", ()),
              ("sched", 200, "mid", [("sched", 400, "near")])]
    fast, slow = observe(script)
    assert fast == slow
    assert [tag for _, tag in fast[0]] == ["r0", "r1", "a", "b", "c", "d",
                                           "mid", "far", "near"]


# ----------------------------------------------------------------------
# Drain-path edges: the fast engine iterates a bucket while its callbacks
# extend it; these pins hold on both engines.
# ----------------------------------------------------------------------
def test_event_appended_to_current_bucket_mid_drain():
    # A callback scheduling into its own cycle extends the bucket being
    # drained; the new event fires after everything already queued there.
    for engine_cls in (Engine, LegacyEngine):
        eng = engine_cls()
        log = []

        def planter():
            log.append("plant")
            eng.schedule(eng.now, lambda: log.append("event"))

        eng.schedule(7, planter)
        eng.schedule(7, lambda: log.append("sibling"))
        eng.schedule(7, lambda: log.append("tail"))
        eng.run()
        assert log == ["plant", "sibling", "tail", "event"], \
            engine_cls.__name__


# ----------------------------------------------------------------------
# End-to-end: a seeded Fig. 9 cell must be bit-identical across engines.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol,workload",
                         [("RCC", "bfs"), ("TCS", "dlb"), ("MESI", "bfs")])
def test_fig9_cell_payload_identical_across_engines(monkeypatch, protocol,
                                                    workload):
    cell = SimCell(cfg=GPUConfig.small(), protocol=protocol,
                   workload=workload, intensity=0.25, seed=1234)
    use_engine(monkeypatch, legacy=False)
    fast = run_cell(cell).to_payload()
    use_engine(monkeypatch, legacy=True)
    legacy = run_cell(cell).to_payload()
    assert json.dumps(fast, sort_keys=True) == json.dumps(legacy,
                                                          sort_keys=True)


@pytest.mark.parametrize("legacy", [False, True])
def test_use_engine_swaps_the_simulators_engine(monkeypatch, legacy):
    cfg = GPUConfig.small()
    use_engine(monkeypatch, legacy)
    sim = GPUSimulator(cfg, "RCC", empty_traces(cfg))
    assert type(sim.engine) is (LegacyEngine if legacy else Engine)
