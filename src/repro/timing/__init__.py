"""Discrete-event simulation engine used by every timed component.

:class:`Engine` is the bucketed fast-path engine; the original single-heap
implementation survives as :class:`LegacyEngine` for differential testing
and for the ``RCC_LEGACY_ENGINE=1`` escape hatch (see :func:`make_engine`).
"""

from repro.common.env import env_flag
from repro.timing.engine import RETRY_DELAY, Engine, Event, RetryGate
from repro.timing.legacy import LegacyEngine, LegacyEvent


def make_engine(max_cycles: int = 500_000_000):
    """The engine the simulator should use.

    Honors ``RCC_LEGACY_ENGINE=1`` in the environment (any value
    :func:`repro.common.env.env_flag` reads as on), which swaps the
    original single-heap engine back in — useful for debugging the fast
    engine and for measuring the speedup (``repro-perf --compare-legacy``).
    Both engines implement the same interface and the same deterministic
    ``(cycle, seq)`` firing order, so results are bit-identical either way.
    """
    if env_flag("RCC_LEGACY_ENGINE"):
        return LegacyEngine(max_cycles=max_cycles)
    return Engine(max_cycles=max_cycles)


__all__ = ["Engine", "Event", "LegacyEngine", "LegacyEvent", "RETRY_DELAY",
           "RetryGate", "make_engine"]
