"""Host-speed probe: a fixed pure-Python loop timed between units of work.

On a host whose cores are shared with other tenants, their load can
slow the interpreter by up to about 40% for seconds or minutes at a
time (measured on a 2-vCPU KVM guest on a 2.1 GHz Xeon), in CPU time as
well as in wall time. A pass therefore also times
this loop every ``interval_s`` between cells (or programs), and
``run.py`` scales the pass's host times by (``REF_PROBE_S`` / mean probe
time) ** ``ELASTICITY``: a pass run while the host is busy has its times
scaled down by about as much as the busy host slowed them. The loop uses
only the standard library, so no change to ``repro`` can speed it up or
slow it down.
"""

from __future__ import annotations

import heapq
import time
from typing import List

#: The scale: scaled host times read as seconds on a host where one probe
#: takes this long (a quiet 2.1 GHz Xeon core under CPython 3.11 takes
#: about 5 ms, a busy one up to about 8 ms).
REF_PROBE_S = 0.0050

#: The simulator slows less than the probe when the host is busy: host
#: time grows about as probe time to this power. In two sets of ~150
#: passes of the three workloads, each across a swing of about 1.8x in
#: probe time, the least-squares slope of log pass CPU time on log probe
#: time (centred per workload) was 0.67 and 0.79; per workload it ranged
#: from 0.53 (fuzz-differential) to 0.91 (wo-pressure).
ELASTICITY = 0.75


class _Node:
    __slots__ = ("key", "val", "next")

    def __init__(self, key: int, val: int, nxt: "_Node"):
        self.key = key
        self.val = val
        self.next = nxt

    def bump(self, x: int) -> int:
        self.val += x
        return self.val


def probe_work(n: int = 5500) -> int:
    """Dict lookups, attribute updates, method calls and heap traffic:
    the same kinds of work as the simulator's event loop."""
    heap: List = []
    table = {}
    head = None
    acc = 0
    for i in range(n):
        k = (i * 2654435761) & 1023
        node = table.get(k)
        if node is None:
            node = table[k] = _Node(k, 0, head)
            head = node
        acc += node.bump(i & 7)
        heapq.heappush(heap, (k, i))
        if len(heap) > 256:
            acc ^= heapq.heappop(heap)[1]
    return acc


def scale(probe_s: float) -> float:
    """Factor that takes host times measured alongside a mean probe time
    of ``probe_s`` to the reference host speed."""
    return (REF_PROBE_S / probe_s) ** ELASTICITY


class Probe:
    """Probe samples of one pass, in wall and CPU seconds."""

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.wall_s: List[float] = []
        self.cpu_s: List[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        probe_work()
        c1, w1 = time.process_time(), time.perf_counter()
        self.wall_s.append(w1 - w0)
        self.cpu_s.append(c1 - c0)
        self._last = w1

    def maybe(self) -> None:
        """Sample if ``interval_s`` has gone by since the last sample."""
        if time.perf_counter() - self._last >= self.interval_s:
            self.sample()
