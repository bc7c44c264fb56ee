"""Discrete-event simulation engine used by every timed component.

:class:`Engine` is the bucketed, run-to-completion engine the simulator
builds, one per run. The original single-heap implementation survives as
:class:`LegacyEngine`, with the same small interface, as the reference
the tests compare it against.
"""

from repro.timing.engine import RETRY_DELAY, Engine, RetryGate
from repro.timing.legacy import LegacyEngine

__all__ = ["Engine", "LegacyEngine", "RETRY_DELAY", "RetryGate"]
