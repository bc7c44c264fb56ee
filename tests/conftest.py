"""Shared fixtures and trace-building helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.config import GPUConfig
from repro.gpu.trace import WarpTrace
from repro.sim import gpusim
from repro.sim.gpusim import run_simulation
from repro.timing import Engine, LegacyEngine

#: All protocols, and the subsets most tests sweep.
ALL_PROTOCOLS = ["MESI", "TCS", "TCW", "RCC", "RCC-WO", "SC-IDEAL"]
SC_PROTOCOLS = ["MESI", "TCS", "RCC", "SC-IDEAL"]
WO_PROTOCOLS = ["TCW", "RCC-WO"]


@pytest.fixture
def small_cfg() -> GPUConfig:
    return GPUConfig.small()


@pytest.fixture
def tiny_cfg() -> GPUConfig:
    """Two cores, two warps: the smallest interesting machine."""
    cfg = GPUConfig.small()
    return cfg.replace(n_cores=2, warps_per_core=2)


def empty_traces(cfg: GPUConfig):
    """A trace grid of the right shape with no ops."""
    return [[WarpTrace(c, w) for w in range(cfg.warps_per_core)]
            for c in range(cfg.n_cores)]


def program_traces(cfg: GPUConfig, programs):
    """Build traces from {(core, warp): [ops...]}."""
    traces = empty_traces(cfg)
    for (core, warp), ops in programs.items():
        traces[core][warp].extend(ops)
    return traces


def run_program(cfg: GPUConfig, protocol: str, programs, **kw):
    """Run a {(core, warp): [ops]} program and return the SimResult."""
    return run_simulation(cfg, protocol, program_traces(cfg, programs),
                          workload_name="test", **kw)


def use_engine(monkeypatch, legacy: bool) -> None:
    """Make every simulator built in this process run on the reference
    :class:`LegacyEngine` (``legacy``) or on the fast :class:`Engine`."""
    monkeypatch.setattr(gpusim, "Engine", LegacyEngine if legacy else Engine)
