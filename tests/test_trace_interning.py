"""Trace ops are shared immutable values (DESIGN.md §5): the factories
intern one instance per distinct op in bounded caches, validation still
runs when an op is first built, and equality, hashing and pickling behave
as they did for per-call instances."""

import copy
import dataclasses
import io
import pickle
import tracemalloc

import pytest

from repro.common.types import MemOpKind
from repro.config import GPUConfig
from repro.errors import TraceError
from repro.fuzz.generator import FuzzKnobs, generate_program
from repro.gpu import trace
from repro.gpu.trace import (
    INTERN_LIMIT, TraceOp, atomic_op, barrier_op, compute_op, fence_op,
    load_op, store_op,
)
from repro.workloads import get_workload
from repro.workloads.tracefile import load_traces, save_traces


def _ops(grid):
    return [op for row in grid for t in row for op in t.ops]


def _sample():
    return [load_op(0x80), store_op(0x80), atomic_op(0x100), compute_op(7),
            fence_op(), barrier_op(2)]


def test_equal_ops_from_different_generators_are_one_object():
    cfg = GPUConfig.small()
    seen = {}
    for op in _ops(get_workload("bfs", intensity=0.1).generate(cfg)):
        assert seen.setdefault(op, op) is op
    shared = 0
    for op in _ops(get_workload("vpr", intensity=0.1).generate(cfg)):
        if op in seen:
            assert seen[op] is op
            shared += 1
    assert shared > 0
    # Keyword and positional calls share too.
    assert barrier_op(barrier_id=3) is barrier_op(3)
    assert load_op(addr=0x80) is load_op(0x80)


def test_fuzz_lowering_and_tracefile_share_ops():
    prog = generate_program(3, FuzzKnobs(n_cores=2, warps_per_core=2,
                                         ops_per_warp=6, n_addrs=3))
    lowered = prog.to_traces(GPUConfig.small())
    buf = io.StringIO()
    save_traces(buf, lowered)
    buf.seek(0)
    loaded = load_traces(buf)
    assert _ops(loaded) == _ops(lowered)
    for a, b in zip(_ops(loaded), _ops(lowered)):
        assert a is b


@pytest.mark.parametrize("build", [
    lambda: compute_op(0),
    lambda: load_op(-1),
    lambda: TraceOp(MemOpKind.LOAD),
])
def test_invalid_ops_raise_on_every_call(build):
    for _ in range(3):
        with pytest.raises(TraceError):
            build()


def test_ops_are_slotted_and_frozen():
    for op in _sample():
        assert not hasattr(op, "__dict__")
        for name in ("kind", "addr", "cycles", "barrier_id"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(op, name, getattr(op, name))


def test_equality_and_hash_by_value():
    a = load_op(0x80)
    b = TraceOp(MemOpKind.LOAD, addr=0x80)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != store_op(0x80) and a != load_op(0x100)
    assert len({a, b, load_op(0x80)}) == 1


@pytest.mark.parametrize("clone", [
    lambda op: pickle.loads(pickle.dumps(op)),
    copy.deepcopy,
])
def test_pickle_and_deepcopy_round_trip(clone):
    for op in _sample():
        twin = clone(op)
        assert twin == op and hash(twin) == hash(op)


def test_tracefile_round_trip_shares_ops():
    grid = get_workload("stn", intensity=0.1).generate(GPUConfig.small())
    buf = io.StringIO()
    save_traces(buf, grid)
    buf.seek(0)
    loaded = load_traces(buf)
    assert [[t.ops for t in row] for row in loaded] == \
        [[t.ops for t in row] for row in grid]
    ops = _ops(loaded)
    assert len({id(op) for op in ops}) == len(set(ops)) < len(ops)


def test_cache_stays_within_its_bound():
    for i in range(INTERN_LIMIT + 100):
        load_op(0x10_0000_0000 + 128 * i)
    assert trace._load.cache_info().currsize <= INTERN_LIMIT
    # Evicted ops are rebuilt, equal and valid.
    assert load_op(0x10_0000_0000).addr == 0x10_0000_0000


def test_trace_memory_per_op():
    """Host-independent guard on the traces' resident size: bfs on the
    bench machine holds 13,824 ops. Per-call instances cost 133 traced
    bytes per op; shared ones leave the lists' 8-byte references and
    the per-warp objects."""
    cfg = GPUConfig.bench()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grid = get_workload("bfs", intensity=0.25).generate(cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    ops = _ops(grid)
    assert held / len(ops) <= 32
    assert len({id(op) for op in ops}) <= 0.10 * len(ops)
