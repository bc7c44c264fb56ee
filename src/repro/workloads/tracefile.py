"""Trace file I/O.

Workload traces can be saved to (and replayed from) a simple line-oriented
text format, so users can feed externally captured access streams into the
simulator, diff generated workloads, or archive the exact traces behind a
result. Format, one op per line, with per-warp headers:

    # repro-trace v1
    @ <core> <warp>
    L <hex-addr>        load
    S <hex-addr>        store
    A <hex-addr>        atomic
    C <cycles>          compute
    F                   fence
    B <barrier-id>      barrier

Blank lines and ``#`` comments are ignored. Core and warp ids are
non-negative, and the dense (core, warp) grid they span holds at most
:data:`MAX_GRID_WARPS` warps.
"""

from __future__ import annotations

from typing import List, TextIO, Union

from repro.common.types import MemOpKind
from repro.errors import TraceError
from repro.gpu.trace import (
    TraceOp, WarpTrace, atomic_op, barrier_op, compute_op, fence_op,
    load_op, store_op,
)

MAGIC = "# repro-trace v1"

#: Bound on the dense grid a file may span, (max core + 1) x (max warp +
#: 1) warps: far above any configured machine (the Table III GPU has 768),
#: and small enough that a stray huge id fails at once instead of filling
#: memory with empty warps.
MAX_GRID_WARPS = 1 << 16

_KIND_CODE = {
    MemOpKind.LOAD: "L",
    MemOpKind.STORE: "S",
    MemOpKind.ATOMIC: "A",
    MemOpKind.COMPUTE: "C",
    MemOpKind.FENCE: "F",
    MemOpKind.BARRIER: "B",
}


def _encode_op(op: TraceOp) -> str:
    code = _KIND_CODE[op.kind]
    if op.kind.is_global_mem:
        return f"{code} {op.addr:x}"
    if op.kind is MemOpKind.COMPUTE:
        return f"{code} {op.cycles}"
    if op.kind is MemOpKind.BARRIER:
        return f"{code} {op.barrier_id}"
    return code


def _decode_op(line: str, lineno: int) -> TraceOp:
    parts = line.split()
    code = parts[0]
    try:
        if code == "L":
            return load_op(int(parts[1], 16))
        if code == "S":
            return store_op(int(parts[1], 16))
        if code == "A":
            return atomic_op(int(parts[1], 16))
        if code == "C":
            return compute_op(int(parts[1]))
        if code == "F":
            return fence_op()
        if code == "B":
            return barrier_op(int(parts[1]))
    except (IndexError, ValueError) as exc:
        raise TraceError(f"line {lineno}: malformed op {line!r}") from exc
    except TraceError as exc:
        raise TraceError(f"line {lineno}: {exc}") from exc
    raise TraceError(f"line {lineno}: unknown op code {code!r}")


def save_traces(f: Union[str, TextIO],
                traces: List[List[WarpTrace]]) -> None:
    """Write a per-core/per-warp trace grid to ``f`` (path or file)."""
    if isinstance(f, str):
        with open(f, "w") as fh:
            save_traces(fh, traces)
        return
    f.write(MAGIC + "\n")
    for core_traces in traces:
        for t in core_traces:
            f.write(f"@ {t.core_id} {t.warp_id}\n")
            for op in t.ops:
                f.write(_encode_op(op) + "\n")


def load_traces(f: Union[str, TextIO]) -> List[List[WarpTrace]]:
    """Read a trace grid; the result is dense in (core, warp) ids."""
    if isinstance(f, str):
        with open(f) as fh:
            return load_traces(fh)
    grid = {}
    n_cores = n_warps = 0
    current: WarpTrace = None
    for lineno, raw in enumerate(f, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@"):
            parts = line.split()
            try:
                core, warp = int(parts[1]), int(parts[2])
            except (IndexError, ValueError) as exc:
                raise TraceError(f"line {lineno}: bad header {line!r}") \
                    from exc
            if core < 0 or warp < 0:
                raise TraceError(f"line {lineno}: negative id in {line!r}")
            n_cores, n_warps = max(n_cores, core + 1), max(n_warps, warp + 1)
            if n_cores * n_warps > MAX_GRID_WARPS:
                raise TraceError(
                    f"line {lineno}: {line!r} spans a {n_cores} x {n_warps} "
                    f"warp grid, more than {MAX_GRID_WARPS} warps")
            if (core, warp) in grid:
                raise TraceError(f"line {lineno}: duplicate warp "
                                 f"({core},{warp})")
            current = WarpTrace(core, warp)
            grid[(core, warp)] = current
            continue
        if current is None:
            raise TraceError(f"line {lineno}: op before any '@' header")
        current.append(_decode_op(line, lineno))
    if not grid:
        raise TraceError("empty trace file")
    out: List[List[WarpTrace]] = []
    for c in range(n_cores):
        row = []
        for w in range(n_warps):
            row.append(grid.get((c, w), WarpTrace(c, w)))
        out.append(row)
    return out
