"""Windowed time series: sample a counter every N cycles.

Used to watch quantities evolve over a run (e.g. logical-clock skew across
cores, MSHR occupancy, NoC injection rate) without storing per-event data.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.timing.engine import Engine


class TimeSeries:
    """Periodically samples ``probe()`` until ``active()`` turns false."""

    def __init__(self, engine: Engine, probe: Callable[[], float],
                 period: int = 1000,
                 active: Optional[Callable[[], bool]] = None,
                 name: str = "series"):
        if period <= 0:
            raise ValueError("period must be positive")
        self.engine = engine
        self.probe = probe
        self.period = period
        self.active = active or (lambda: True)
        self.name = name
        self.samples: List[Tuple[int, float]] = []
        self._started = False

    def start(self) -> None:
        if not self._started:
            self._started = True
            self.engine.schedule(self.engine.now + self.period, self._tick)

    def _tick(self) -> None:
        if not self.active():
            return  # stop sampling; lets the event queue drain
        self.samples.append((self.engine.now, float(self.probe())))
        self.engine.schedule(self.engine.now + self.period, self._tick)

    # ------------------------------------------------------------------
    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    @property
    def mean(self) -> float:
        vals = self.values()
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def peak(self) -> float:
        vals = self.values()
        return max(vals) if vals else 0.0

    def last(self) -> float:
        return self.samples[-1][1] if self.samples else 0.0


def clock_skew_probe(l1s) -> Callable[[], float]:
    """Probe: spread between the fastest and slowest logical clock — the
    'relativistic' divergence between cores, interesting to watch on
    workloads with rare sharing (dlb) vs constant sharing (vpr)."""
    def probe() -> float:
        clocks = [l1.clock.value for l1 in l1s if hasattr(l1, "clock")]
        return float(max(clocks) - min(clocks)) if clocks else 0.0
    return probe


def mshr_occupancy_probe(controllers) -> Callable[[], float]:
    """Probe: total outstanding MSHR entries across controllers."""
    def probe() -> float:
        return float(sum(len(c.mshr) for c in controllers))
    return probe
