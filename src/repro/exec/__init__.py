"""Sweep execution engine: parallel cells + content-keyed result cache.

See :mod:`repro.exec.engine` for the scheduling policy and
:mod:`repro.exec.cache` for the on-disk cache layout.
"""

from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.exec.cells import (
    SimCell, canonical_overrides, cell_key, cell_simulator, derive_seed,
    run_cell, sweep_cells,
)
from repro.exec.engine import RetryPolicy, SweepExecutor, SweepStats
from repro.exec.journal import (
    CampaignJournal, campaign_id, decode_value, encode_value,
    payload_digest,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "CampaignJournal",
    "ResultCache",
    "RetryPolicy",
    "SimCell",
    "SweepExecutor",
    "SweepStats",
    "campaign_id",
    "canonical_overrides",
    "cell_key",
    "cell_simulator",
    "decode_value",
    "derive_seed",
    "encode_value",
    "payload_digest",
    "run_cell",
    "sweep_cells",
]
