"""repro — Relativistic Cache Coherence (RCC) for GPUs, reproduced.

A self-contained, event-driven GPU memory-system simulator and a full
implementation of the RCC logical-timestamp coherence protocol from

    Xiaowei Ren and Mieszko Lis,
    "Efficient Sequential Consistency in GPUs via Relativistic Cache
    Coherence", HPCA 2017.

Quickstart::

    from repro import GPUConfig, run_simulation
    from repro.workloads import get_workload

    cfg = GPUConfig.bench()
    wl = get_workload("dlb")
    result = run_simulation(cfg, "RCC", wl.generate(cfg), wl.name)
    print(result.cycles, result.avg_store_latency)

Protocols: ``MESI``, ``TCS``, ``TCW``, ``SC-IDEAL`` (baselines) and ``RCC``
/ ``RCC-WO`` (the paper's contribution).
"""

from repro.config import GPUConfig, CacheConfig, NoCConfig, DRAMConfig, \
    TimestampConfig, TCConfig, PROTOCOLS
from repro.sim.gpusim import GPUSimulator, run_simulation
from repro.sim.results import SimResult

__version__ = "1.4.0"

__all__ = [
    "CacheConfig",
    "DRAMConfig",
    "GPUConfig",
    "GPUSimulator",
    "NoCConfig",
    "PROTOCOLS",
    "SimResult",
    "TCConfig",
    "TimestampConfig",
    "run_simulation",
    "__version__",
]
