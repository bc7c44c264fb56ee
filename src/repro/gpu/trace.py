"""Workload traces: the instruction stream each warp executes.

Traces are *post-coalescing*: one LOAD/STORE/ATOMIC op represents one memory
transaction issued by a warp's load-store unit (the unit of coherence
traffic). COMPUTE ops model the ALU work between memory instructions as a
cycle count; BARRIER ops synchronize all warps within one core (a workgroup
in our model maps to one SM); FENCE ops order memory under weak consistency
(under SC they are no-ops in hardware, exactly as the paper treats them, but
are kept in traces).

Trace ops are shared immutable values. A workload holds hundreds of
thousands of ops but only a few thousand distinct ones, so the factories
below hand out one interned instance per distinct op, and a trace is a
list of references to them. Never mutate an op and never key anything on
its identity: equal ops built anywhere may or may not be the same object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterable, List, Optional, Set

from repro.common.types import MemOpKind
from repro.errors import TraceError


@dataclass(frozen=True, slots=True)
class TraceOp:
    """One trace instruction.

    ``addr`` is a byte address for memory ops, ``cycles`` the duration of a
    COMPUTE op, ``barrier_id`` distinguishes successive barriers.
    """

    kind: MemOpKind
    addr: Optional[int] = None
    cycles: int = 0
    barrier_id: int = 0

    def __post_init__(self):
        if self.kind.is_global_mem and self.addr is None:
            raise TraceError(f"{self.kind} op requires an address")
        if self.kind is MemOpKind.COMPUTE and self.cycles <= 0:
            raise TraceError("COMPUTE op requires positive cycle count")
        if self.addr is not None and self.addr < 0:
            raise TraceError(f"negative address {self.addr}")


#: Distinct ops each factory keeps interned. The caches evict the least
#: recently used op past this bound, so a long campaign over ever-new
#: addresses stays bounded; the largest generated workload, kmn or ndl on
#: the Table III machine, touches 16,384 distinct load addresses.
INTERN_LIMIT = 1 << 14


def _interned(kind: MemOpKind, *fields):
    """A bounded cache of shared ``kind`` ops keyed by the op's one
    variable field (the next positional field after ``fields``). An op is
    validated when it is first built; an invalid one raises
    :class:`TraceError` and is never cached."""
    return lru_cache(maxsize=INTERN_LIMIT)(partial(TraceOp, kind, *fields))


_load = _interned(MemOpKind.LOAD)
_store = _interned(MemOpKind.STORE)
_atomic = _interned(MemOpKind.ATOMIC)
_compute = _interned(MemOpKind.COMPUTE, None)
_barrier = _interned(MemOpKind.BARRIER, None, 0)
_FENCE = TraceOp(MemOpKind.FENCE)


def load_op(addr: int) -> TraceOp:
    return _load(addr)


def store_op(addr: int) -> TraceOp:
    return _store(addr)


def atomic_op(addr: int) -> TraceOp:
    return _atomic(addr)


def compute_op(cycles: int) -> TraceOp:
    return _compute(cycles)


def fence_op() -> TraceOp:
    return _FENCE


def barrier_op(barrier_id: int = 0) -> TraceOp:
    return _barrier(barrier_id)


@dataclass
class WarpTrace:
    """The full instruction stream for one warp."""

    core_id: int
    warp_id: int
    ops: List[TraceOp] = field(default_factory=list)

    def append(self, op: TraceOp) -> None:
        self.ops.append(op)

    def extend(self, ops: Iterable[TraceOp]) -> None:
        self.ops.extend(ops)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def n_mem_ops(self) -> int:
        return sum(1 for op in self.ops if op.kind.is_global_mem)

    def mem_blocks(self, block_bytes: int) -> Set[int]:
        """Block base addresses this warp's global memory ops touch."""
        return {(op.addr // block_bytes) * block_bytes
                for op in self.ops if op.kind.is_global_mem}

    def validate(self, n_warps_in_core: int) -> None:
        """Sanity-check barrier matching: every warp in a core must reach
        barriers in the same order; we check ids are non-decreasing."""
        last = -1
        for op in self.ops:
            if op.kind is MemOpKind.BARRIER:
                if op.barrier_id < last:
                    raise TraceError(
                        f"barrier ids must be non-decreasing in warp "
                        f"{self.core_id}.{self.warp_id}"
                    )
                last = op.barrier_id
