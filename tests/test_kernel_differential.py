"""Differential battery: the event kernel vs its legacy oracle.

The default event kernel (:class:`repro.timing.Engine`) coalesces L2
retry polls into batches and re-arms a gated poll without calling it
while its bank's unblock epoch is unchanged. :class:`LegacyEngine`
fires one event per poll and calls every poll, so it stays the oracle.
This battery swaps the simulator's engine (``tests.conftest.use_engine``)
between two runs of the *same* cell in one process and demands:

* bit-identical result payloads (cycles, stats, per-block values) on
  seeds the golden file does not cover;
* an **identical sanitizer event stream** — same transitions at the same
  cycles with the same fields, event for event — proving batching and
  the epoch skip move no emission point, not just the end state;
* a clean sanitized run under both kernels (no invariant violations).
"""

from __future__ import annotations

import json

import pytest

from repro.config import GPUConfig
from repro.core.lease_policy import (FixedLeasePolicy,
                                     available_lease_policies,
                                     register_lease_policy,
                                     unregister_lease_policy)
from repro.exec import SimCell, run_cell
from repro.sanitize.sanitizer import Sanitizer
from repro.sim.gpusim import run_simulation
from repro.workloads import get_workload
from tests.conftest import use_engine

PROTOCOLS = ("RCC", "RCC-WO", "MESI")


def _payload(cell, monkeypatch, legacy: bool):
    use_engine(monkeypatch, legacy)
    return run_cell(cell).to_payload()


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("workload", ("bfs", "stn"))
@pytest.mark.parametrize("seed", (7, 4242))
def test_payload_bit_identical(protocol, workload, seed, monkeypatch):
    cell = SimCell(cfg=GPUConfig.small(), protocol=protocol,
                   workload=workload, intensity=0.5, seed=seed)
    fast = _payload(cell, monkeypatch, legacy=False)
    legacy = _payload(cell, monkeypatch, legacy=True)
    assert json.dumps(fast, sort_keys=True) == json.dumps(legacy,
                                                          sort_keys=True)


@pytest.mark.parametrize("policy", sorted(available_lease_policies()))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_policy_override_bit_identical(protocol, policy, monkeypatch):
    """Every built-in lease policy on the atomic-heavy dlb cell, where
    IAV lines park atomics behind retries: the batched kernel must match
    the one-event-per-poll oracle exactly."""
    cell = SimCell(cfg=GPUConfig.small(), protocol=protocol,
                   workload="dlb", intensity=1.0, seed=31,
                   ts_overrides=(("lease_policy", policy),))
    fast = _payload(cell, monkeypatch, legacy=False)
    legacy = _payload(cell, monkeypatch, legacy=True)
    assert fast == legacy


class _ProbeHalfLease(FixedLeasePolicy):
    """Registered subclass policy: halves the fixed lease, so grants and
    renewals (and the retries they cause) differ from the built-in."""

    name = "probe-half"

    def lease_for(self, line, now=0, pc=None):
        base = super().lease_for(line, now, pc=pc)
        return max(1, base // 2)


@pytest.mark.parametrize("protocol", ("RCC", "RCC-WO"))
def test_registered_subclass_policy_bit_identical(protocol, monkeypatch):
    """A registered policy runs through the same L2 grant path on both
    kernels; payloads must match exactly."""
    register_lease_policy(_ProbeHalfLease, replace=True)
    try:
        cell = SimCell(cfg=GPUConfig.small(), protocol=protocol,
                       workload="dlb", intensity=1.0, seed=31,
                       ts_overrides=(("lease_policy", "probe-half"),))
        fast = _payload(cell, monkeypatch, legacy=False)
        legacy = _payload(cell, monkeypatch, legacy=True)
        assert fast == legacy
    finally:
        unregister_lease_policy("probe-half")


def _event_stream(protocol: str, monkeypatch, legacy: bool):
    """Run one sanitized simulation, teeing every Sanitizer.emit call."""
    use_engine(monkeypatch, legacy)
    events = []
    real_emit = Sanitizer.emit

    def tee(self, kind, unit, unit_id, cycle, addr, **fields):
        events.append((kind, unit, unit_id, cycle, addr,
                       tuple(sorted(fields.items()))))
        real_emit(self, kind, unit, unit_id, cycle, addr, **fields)

    monkeypatch.setattr(Sanitizer, "emit", tee)
    cfg = GPUConfig.small()
    wl = get_workload("stn", intensity=0.75, seed=11)
    result = run_simulation(cfg, protocol, wl.generate(cfg), "stn",
                            sanitize=True)
    monkeypatch.setattr(Sanitizer, "emit", real_emit)
    return events, result.to_payload()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_sanitizer_event_stream_identical(protocol, monkeypatch):
    fast_events, fast_payload = _event_stream(protocol, monkeypatch,
                                              legacy=False)
    legacy_events, legacy_payload = _event_stream(protocol, monkeypatch,
                                                  legacy=True)
    assert fast_payload == legacy_payload
    assert len(fast_events) == len(legacy_events), \
        f"{protocol}: the batched kernel emits a different number of events"
    for i, (fe, le) in enumerate(zip(fast_events, legacy_events)):
        assert fe == le, (
            f"{protocol}: sanitizer event #{i} diverges:\n"
            f"  fast:   {fe}\n  legacy: {le}")
    assert fast_events, "sanitized run produced no events (vacuous test)"
