"""The workloads of cases.py on small machines: failure accounting, digests
and the traced path's fidelity."""

from collections import Counter

import pytest

from repro.config import GPUConfig
from repro.fuzz.generator import FuzzKnobs
from repro.sim.gpusim import run_simulation
from repro.workloads.registry import get_workload

from cases import INTENSITY, Cell, FuzzWorkload, GridWorkload, cell_failure
from digests import payload_digest
from ledger import Ledger, NullLedger


def small_grid(protocols, workloads=("bfs",)):
    return GridWorkload(protocols, workloads, cfg_factory=GPUConfig.small)


def run_grid(grid, ledger=None, seed=7):
    ledger = ledger or NullLedger()
    return grid.execute(grid.setup(seed, ledger), ledger)


def test_failing_cell_is_counted_and_the_workload_keeps_running():
    out = run_grid(small_grid(("NO-SUCH-PROTOCOL", "RCC")))
    assert len(out.digests) == 2
    assert list(out.failures) == ["NO-SUCH-PROTOCOL/bfs"]
    assert "ConfigError" in out.failures["NO-SUCH-PROTOCOL/bfs"]
    assert out.digests["NO-SUCH-PROTOCOL/bfs"] is None
    assert out.digests["RCC/bfs"] is not None
    assert out.counts["mem_ops"] > 0


def test_mem_op_count_mismatch_is_a_failure():
    class Result:
        mem_ops = 9

    assert cell_failure(Cell("RCC/bfs", expected_ops=9), Result()) is None
    why = cell_failure(Cell("RCC/bfs", expected_ops=10), Result())
    assert why == "completed 9 mem ops, trace has 10"
    assert cell_failure(Cell("RCC/bfs", 9, error="DeadlockError: x"),
                        None) == "DeadlockError: x"


def test_grid_cell_digest_matches_a_plain_run_simulation():
    cfg = GPUConfig.small()
    out = run_grid(small_grid(("RCC", "TCS"), ("bfs", "dlb")))
    for protocol in ("RCC", "TCS"):
        for name in ("bfs", "dlb"):
            traces = get_workload(name, intensity=INTENSITY,
                                  seed=7).generate(cfg)
            res = run_simulation(cfg, protocol, traces, workload_name=name)
            assert out.digests[f"{protocol}/{name}"] == payload_digest(res)


@pytest.mark.parametrize("flat", ["1", "0"])
def test_traced_grid_matches_untraced_and_sees_every_call(monkeypatch,
                                                           flat):
    monkeypatch.setenv("RCC_FLAT_KERNEL", flat)
    grid = small_grid(("RCC", "MESI", "TCW"), ("bfs", "hsp"))
    plain = run_grid(grid)
    led = Ledger()
    traced = run_grid(grid, led)
    led.close()
    assert traced.digests == plain.digests
    assert traced.counts == plain.counts
    assert not traced.failures
    c = traced.counts
    assert led.calls["noc.send"] == c["total_msgs"]
    assert (led.calls["l1.on_message"] + led.calls["l2.on_message"]
            == c["total_msgs"])
    assert led.calls["mem.dram_access"] == c["dram_reads"] + c["dram_writes"]
    assert led.calls["l1.access"] == c["mem_ops"]
    assert led.calls["gpu.mem_op_done"] == c["mem_ops"]
    assert led.calls["timing.run"] == 6
    assert sum(led.self_s.values()) == pytest.approx(led.wall_s)
    expect = "FlatRCCL1Controller" if flat == "1" else "RCCL1Controller"
    assert traced.classes["RCC"][0] == expect


def test_fuzz_verdict_digests_repeat_and_survive_tracing():
    fuzz = FuzzWorkload(n_programs=3, knobs=FuzzKnobs(
        n_cores=2, warps_per_core=2, ops_per_warp=4, n_addrs=2,
        fence_density=0.1))
    first = fuzz.execute(fuzz.setup(11, NullLedger()), NullLedger())
    again = fuzz.execute(fuzz.setup(11, NullLedger()), NullLedger())
    led = Ledger()
    traced = fuzz.execute(fuzz.setup(11, led), led)
    led.close()
    assert list(first.digests) == [f"program[{s}]" for s in (11, 12, 13)]
    assert first.digests == again.digests == traced.digests
    assert not first.failures
    n_sims = 3 * 6  # every program under every registered protocol
    assert led.calls["sim.run"] == n_sims
    assert led.calls["fuzz.execute"] == n_sims
    assert led.calls["fuzz.oracle"] == n_sims
    assert led.calls["consistency.check"] > 0
    assert led.calls["sanitize.emit"] > 0
    assert Counter(first.counts) == Counter(traced.counts)
