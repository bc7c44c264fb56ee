"""The benchmark's named workloads, driven through ``repro``'s public API.

* ``sc-sharing``: {RCC, MESI, TCS} x {bfs, dlb, vpr} on
  ``GPUConfig.bench()`` at intensity 0.25 -- the paper's Fig. 9 headline
  case: cross-core sharing under SC, heavy in stores and atomics.
* ``wo-pressure``: {RCC-WO, TCW} x {hsp, sr, lps, ndl} on the same
  machine -- load-heavy intra-workgroup stencils under weak ordering,
  where the L2 MSHRs saturate and parked misses poll.
* ``fuzz-differential``: 100 seeded 2x2x6-op programs checked by a
  sanitized ``DifferentialRunner`` over every registered protocol --
  hundreds of tiny simulations plus the witness checker and the oracle.

Every workload has two phases. ``setup`` generates the inputs (and, for
the grids, constructs the simulators); ``execute`` runs them and returns
a :class:`PassResult`, calling ``between()`` before each cell or program
(the host-speed probe hooks in there). Both take a ledger
(:mod:`ledger`), which is a no-op in untraced passes. The modelled
caches start empty in every cell.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.config import GPUConfig
from repro.consistency.checker import SCChecker
from repro.errors import ReproError
from repro.fuzz import differential
from repro.fuzz.differential import DifferentialRunner
from repro.fuzz.generator import FuzzKnobs, generate_program
from repro.fuzz.oracle import sc_explainable
from repro.gpu.warp import reset_op_seq
from repro.sim.gpusim import GPUSimulator
from repro.workloads.registry import get_workload

from digests import payload_digest, verdict_digest

INTENSITY = 0.25
FUZZ_KNOBS = FuzzKnobs(n_cores=2, warps_per_core=2, ops_per_warp=6,
                       n_addrs=3, fence_density=0.1)


@dataclass
class PassResult:
    """What one pass of a workload produced."""

    #: cell or program label -> digest of its simulated output (None when
    #: the cell failed before producing one).
    digests: Dict[str, Optional[str]] = field(default_factory=dict)
    #: label -> why it failed.
    failures: Dict[str, str] = field(default_factory=dict)
    #: Simulated counts summed over every simulation the pass ran.
    counts: Counter = field(default_factory=Counter)
    #: Host CPU seconds spent inside ``GPUSimulator.run``.
    run_cpu_s: float = 0.0
    #: label -> host wall seconds of running that cell or checking that
    #: program, and the part of ``run_cpu_s`` it accounts for. Medians
    #: per label over passes are steadier than medians of pass totals.
    unit_wall_s: Dict[str, float] = field(default_factory=dict)
    unit_cpu_s: Dict[str, float] = field(default_factory=dict)
    #: protocol -> [L1 class, L2 class] that ``build_protocol`` returned.
    classes: Dict[str, List[str]] = field(default_factory=dict)

    def add_sim(self, sim: GPUSimulator, result: Any, cpu_s: float) -> None:
        c = self.counts
        for name in ("mem_ops", "cycles", "sc_stall_cycles", "total_flits",
                     "total_msgs", "events_fired", "l1_loads",
                     "l1_load_hits", "l2_hits", "l2_misses",
                     "l2_renew_grants", "dram_reads", "dram_writes"):
            c[name] += getattr(result, name)
        for dram in sim.drams:
            c["dram_row_hits"] += dram.row_hits
            c["dram_row_misses"] += dram.row_misses
        self.run_cpu_s += cpu_s
        self.classes[sim.protocol_name] = [type(sim.proto.l1s[0]).__name__,
                                           type(sim.proto.l2s[0]).__name__]


def build_sim(ledger: Any, cfg: GPUConfig, protocol: str, traces: List,
              workload_name: str, **kwargs: Any) -> GPUSimulator:
    with ledger.span("sim.build"):
        sim = GPUSimulator(cfg, protocol, traces,
                           workload_name=workload_name, **kwargs)
    ledger.instrument(sim)
    return sim


def run_sim(ledger: Any, out: PassResult, sim: GPUSimulator) -> Any:
    """Run one built simulator, charging its CPU time and counts to
    ``out``. The op-id counter is reset first, as ``GPUSimulator`` does at
    build time, so a cell built early and run late writes the same data
    tokens as a cell built and run at once."""
    reset_op_seq()
    t0 = time.process_time()
    with ledger.span("sim.run"):
        result = sim.run()
    out.add_sim(sim, result, time.process_time() - t0)
    return result


# ----------------------------------------------------------------------
# Grid workloads
# ----------------------------------------------------------------------

@dataclass
class Cell:
    label: str
    expected_ops: int
    sim: Optional[GPUSimulator] = None
    error: Optional[str] = None


def cell_failure(cell: Cell, result: Any) -> Optional[str]:
    """Why a cell failed, or None: an error raised while building or
    running it, or a completed mem-op count other than its trace's."""
    if cell.error is not None:
        return cell.error
    if result.mem_ops != cell.expected_ops:
        return (f"completed {result.mem_ops} mem ops, "
                f"trace has {cell.expected_ops}")
    return None


class GridWorkload:
    """Every protocol x every trace workload on one machine."""

    def __init__(self, protocols: Tuple[str, ...],
                 workloads: Tuple[str, ...],
                 cfg_factory=GPUConfig.bench):
        self.protocols = protocols
        self.workloads = workloads
        self.cfg_factory = cfg_factory

    def setup(self, seed: int, ledger: Any) -> List[Cell]:
        cfg = self.cfg_factory()
        cells = []
        for protocol in self.protocols:
            for name in self.workloads:
                with ledger.span("workloads.generate"):
                    traces = get_workload(name, intensity=INTENSITY,
                                          seed=seed).generate(cfg)
                cell = Cell(f"{protocol}/{name}",
                            sum(t.n_mem_ops for core in traces
                                for t in core))
                try:
                    cell.sim = build_sim(ledger, cfg, protocol, traces, name)
                except ReproError as exc:
                    cell.error = f"{type(exc).__name__}: {exc}"
                cells.append(cell)
        return cells

    def execute(self, cells: List[Cell], ledger: Any,
                between: Callable[[], None] = lambda: None) -> PassResult:
        out = PassResult()
        for cell in cells:
            between()
            result = None
            t0, cpu0 = time.perf_counter(), out.run_cpu_s
            if cell.sim is not None:
                try:
                    result = run_sim(ledger, out, cell.sim)
                except ReproError as exc:
                    cell.error = f"{type(exc).__name__}: {exc}"
                cell.sim = None  # release the finished machine
            out.unit_wall_s[cell.label] = time.perf_counter() - t0
            out.unit_cpu_s[cell.label] = out.run_cpu_s - cpu0
            failure = cell_failure(cell, result)
            out.digests[cell.label] = (None if result is None
                                       else payload_digest(result))
            if failure is not None:
                out.failures[cell.label] = failure
        return out


# ----------------------------------------------------------------------
# Differential fuzzing
# ----------------------------------------------------------------------

@contextmanager
def _substituted(module: Any, **names: Any) -> Iterator[None]:
    saved = {name: getattr(module, name) for name in names}
    for name, value in names.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


class FuzzWorkload:
    """Seeded programs through a sanitized differential runner."""

    def __init__(self, n_programs: int = 100,
                 knobs: FuzzKnobs = FUZZ_KNOBS):
        self.n_programs = n_programs
        self.knobs = knobs

    def setup(self, seed: int, ledger: Any):
        with ledger.span("workloads.generate"):
            programs = [generate_program(seed + i, self.knobs)
                        for i in range(self.n_programs)]
        return programs, DifferentialRunner(sanitize=True)

    def execute(self, inputs, ledger: Any,
                between: Callable[[], None] = lambda: None) -> PassResult:
        """Check every program. The runner's executors call
        ``repro.fuzz.differential.run_simulation``; for the pass that name
        is routed through :func:`build_sim` / :func:`run_sim`, so each
        simulation is timed, counted and digested like a grid cell (and
        instrumented when traced). A traced pass also routes the witness
        checker and the oracle through the ledger."""
        programs, runner = inputs
        out = PassResult()
        sim_digests: List[str] = []

        def simulate(cfg, protocol, traces, workload_name="custom",
                     **kwargs):
            sim = build_sim(ledger, cfg, protocol, traces, workload_name,
                            **kwargs)
            result = run_sim(ledger, out, sim)
            sim_digests.append(payload_digest(result))
            return result

        names: Dict[str, Any] = {"run_simulation": simulate}
        if ledger.traced:
            def checker(block_bytes):
                inst = SCChecker(block_bytes)
                inst.check = ledger.wrap("consistency.check", inst.check)
                return inst

            names["SCChecker"] = checker
            names["sc_explainable"] = ledger.wrap("fuzz.oracle",
                                                  sc_explainable)
            for ex in runner.executors:
                ex.execute = ledger.wrap("fuzz.execute", ex.execute)
        with _substituted(differential, **names):
            for program in programs:
                between()
                del sim_digests[:]
                label = f"program[{program.seed}]"
                t0, cpu0 = time.perf_counter(), out.run_cpu_s
                verdict = runner.check_program(program)
                out.unit_wall_s[label] = time.perf_counter() - t0
                out.unit_cpu_s[label] = out.run_cpu_s - cpu0
                out.digests[label] = verdict_digest(verdict, sim_digests)
                out.counts["oracle_exhausted"] += sum(
                    o.oracle_exhausted for o in verdict.outcomes.values())
                if not verdict.passed:
                    out.failures[label] = verdict.failures[0]
        return out


WORKLOADS = {
    "sc-sharing": GridWorkload(("RCC", "MESI", "TCS"),
                               ("bfs", "dlb", "vpr")),
    "wo-pressure": GridWorkload(("RCC-WO", "TCW"),
                                ("hsp", "sr", "lps", "ndl")),
    "fuzz-differential": FuzzWorkload(),
}
