"""Tests for trace file save/load round-trips."""

import io
import time

import pytest

from repro.config import GPUConfig
from repro.errors import ConfigError, TraceError
from repro.gpu.trace import (
    WarpTrace, atomic_op, barrier_op, compute_op, fence_op, load_op,
    store_op,
)
from repro.sim.gpusim import GPUSimulator, run_simulation
from repro.workloads import get_workload
from repro.workloads.tracefile import (
    MAX_GRID_WARPS, load_traces, save_traces,
)


def sample_traces():
    t00 = WarpTrace(0, 0)
    t00.extend([load_op(0x1000), store_op(0x2080), atomic_op(0x3000),
                compute_op(17), fence_op(), barrier_op(2)])
    t01 = WarpTrace(0, 1)
    t01.extend([load_op(0x80)])
    t10 = WarpTrace(1, 0)
    t11 = WarpTrace(1, 1)
    t11.extend([store_op(0xFFF00)])
    return [[t00, t01], [t10, t11]]


def test_round_trip_in_memory():
    buf = io.StringIO()
    save_traces(buf, sample_traces())
    buf.seek(0)
    loaded = load_traces(buf)
    orig = sample_traces()
    assert len(loaded) == len(orig)
    for co, cl in zip(orig, loaded):
        for to, tl in zip(co, cl):
            assert to.ops == tl.ops


def test_round_trip_on_disk(tmp_path):
    path = str(tmp_path / "trace.txt")
    save_traces(path, sample_traces())
    loaded = load_traces(path)
    assert loaded[0][0].ops == sample_traces()[0][0].ops


def test_round_trip_generated_workload(tmp_path):
    cfg = GPUConfig.small()
    traces = get_workload("stn", intensity=0.15).generate(cfg)
    path = str(tmp_path / "stn.trace")
    save_traces(path, traces)
    loaded = load_traces(path)
    a = run_simulation(cfg, "RCC", traces, "stn")
    b = run_simulation(cfg, "RCC", loaded, "stn")
    assert a.cycles == b.cycles       # identical replay
    assert a.mem_ops == b.mem_ops


def test_comments_and_blanks_ignored():
    text = "\n".join([
        "# repro-trace v1", "", "# a comment", "@ 0 0", "L 100", "",
        "C 5", "# done",
    ])
    loaded = load_traces(io.StringIO(text))
    assert len(loaded[0][0].ops) == 2


def test_malformed_op_rejected():
    with pytest.raises(TraceError):
        load_traces(io.StringIO("@ 0 0\nL\n"))
    with pytest.raises(TraceError):
        load_traces(io.StringIO("@ 0 0\nX 99\n"))


@pytest.mark.parametrize("op", ["L -80", "C 0"])
def test_invalid_op_error_names_its_line(op):
    with pytest.raises(TraceError, match="line 3: "):
        load_traces(io.StringIO(f"@ 0 0\nL 80\n{op}\n"))


def test_op_before_header_rejected():
    with pytest.raises(TraceError):
        load_traces(io.StringIO("L 100\n"))


def test_duplicate_warp_rejected():
    with pytest.raises(TraceError):
        load_traces(io.StringIO("@ 0 0\nL 1\n@ 0 0\nL 2\n"))


def test_empty_file_rejected():
    with pytest.raises(TraceError):
        load_traces(io.StringIO("# nothing here\n"))


def test_missing_warps_filled_empty():
    loaded = load_traces(io.StringIO("@ 1 1\nL 80\n"))
    assert len(loaded) == 2
    assert len(loaded[0]) == 2
    assert loaded[0][0].ops == []
    assert len(loaded[1][1].ops) == 1


@pytest.mark.parametrize("text, lineno", [
    # A negative warp before a real one used to vanish silently, leaving
    # one warp that held only the store.
    ("# repro-trace v1\n@ -1 0\nL 80\n@ 0 0\nS 100\n", 2),
    # ... and a lone negative warp id loaded as [[]].
    ("@ 0 -3\nL 80\n", 1),
])
def test_negative_ids_rejected(text, lineno):
    with pytest.raises(TraceError, match=f"line {lineno}: negative id"):
        load_traces(io.StringIO(text))


def test_huge_ids_rejected_at_once():
    # A 2001 x 3001 grid used to be built eagerly (8.5 s, 6M empty warps).
    t0 = time.perf_counter()
    with pytest.raises(TraceError, match="line 1: .*more than"):
        load_traces(io.StringIO("@ 2000 3000\nL 80\n"))
    with pytest.raises(TraceError, match="line 3: "):
        load_traces(io.StringIO(f"@ 0 0\nL 80\n@ 0 {10 ** 30}\n"))
    assert time.perf_counter() - t0 < 1.0


def test_grid_bound_is_inclusive():
    side = int(MAX_GRID_WARPS ** 0.5)
    loaded = load_traces(io.StringIO(f"@ {side - 1} {side - 1}\nL 80\n"))
    assert len(loaded) * len(loaded[0]) == side * side <= MAX_GRID_WARPS
    with pytest.raises(TraceError):
        load_traces(io.StringIO(f"@ {side - 1} {side}\nL 80\n"))


def test_grid_wider_than_the_machine_rejected():
    # 4 cores x 9 warps on a machine with 4 warps per core used to run.
    cfg = GPUConfig.small()
    traces = [[WarpTrace(c, w) for w in range(9)] for c in range(4)]
    traces[3][8].append(load_op(0x80))
    with pytest.raises(ConfigError, match="core 0 has traces for 9 warps"):
        GPUSimulator(cfg, "RCC", traces)


def test_trace_file_warp_beyond_the_machine_rejected(tmp_path):
    cfg = GPUConfig.small()
    path = tmp_path / "wide.trace"
    path.write_text(f"@ {cfg.n_cores - 1} {cfg.warps_per_core}\nL 80\n")
    traces = load_traces(str(path))
    with pytest.raises(ConfigError, match=(
            f"core 0 has traces for {cfg.warps_per_core + 1} warps, "
            f"more than warps_per_core={cfg.warps_per_core}")):
        run_simulation(cfg, "MESI", traces)
