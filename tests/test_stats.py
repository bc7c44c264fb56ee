"""Tests for histograms, time series, and run comparison."""

import pytest

from repro.common.types import MemOpKind
from repro.config import GPUConfig
from repro.sim.gpusim import run_simulation
from repro.stats.compare import compare_runs, speedup_table
from repro.stats.histogram import Histogram
from repro.stats.timeseries import TimeSeries, clock_skew_probe
from repro.timing.engine import Engine
from repro.workloads import get_workload


class TestHistogram:
    def test_mean_and_count(self):
        h = Histogram()
        for v in (1, 2, 3, 4):
            h.add(v)
        assert h.count == 4
        assert h.mean == 2.5
        assert h.min == 1 and h.max == 4

    def test_percentiles_monotone(self):
        h = Histogram()
        for v in range(1, 1001):
            h.add(v)
        p50 = h.percentile(50)
        p90 = h.percentile(90)
        p99 = h.percentile(99)
        assert p50 <= p90 <= p99
        assert 200 <= p50 <= 800  # log-bucket approximation is coarse

    def test_zero_bucket(self):
        h = Histogram()
        h.add(0, count=5)
        assert h.buckets() == [(0, 0, 5)]
        assert h.percentile(99) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram().add(-1)

    def test_saturates_at_max(self):
        h = Histogram(max_value=1 << 10)
        h.add(10**9)
        assert h.max == 1 << 10

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.add(4)
        b.add(400, count=3)
        a.merge(b)
        assert a.count == 4
        assert a.max == 400
        assert a.total == 4 + 1200

    def test_summary_keys(self):
        h = Histogram()
        h.add(7)
        assert set(h.summary()) == {"count", "mean", "p50", "p90", "p99",
                                    "min", "max"}

    def test_empty_percentile(self):
        assert Histogram().percentile(50) == 0.0

    def test_bad_percentile(self):
        with pytest.raises(ValueError):
            Histogram().percentile(0)

    def test_single_sample_percentiles_exact(self):
        # One sample occupies one bucket; interpolating over the bucket's
        # nominal [lo, hi) used to report values the histogram never saw.
        h = Histogram()
        h.add(5)
        for p in (1, 50, 90, 99, 100):
            assert h.percentile(p) == 5.0

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram()
        h.add(9, count=2)  # bucket [8, 15], samples only at 9
        assert h.percentile(50) == 9.0
        assert h.percentile(99) == 9.0

    def test_merge_wider_histogram_folds_overflow(self):
        a = Histogram(max_value=1 << 4)
        b = Histogram(max_value=1 << 10)
        b.add(1000, count=3)
        a.merge(b)
        # The wider histogram's overflow buckets fold into a's saturation
        # bucket instead of silently vanishing.
        assert a.count == 3
        assert sum(a._buckets) == 3
        assert a.percentile(99) > 0

    def test_merged_overflow_percentiles_reach_observed_max(self):
        # Folded overflow lives in the saturation bucket, whose nominal
        # power-of-two range tops out far below the folded samples; the
        # bucket's effective upper bound must extend to the observed max
        # or percentiles contradict min/max/mean.
        a = Histogram(max_value=1 << 4)
        a.add(12)
        b = Histogram(max_value=1 << 10)
        b.add(1000, count=3)
        a.merge(b)
        assert a.max == 1000
        # 3 of 4 samples are 1000: p99 must land well above the
        # saturation bucket's nominal top (31), at most at max.
        assert 500 < a.percentile(99) <= 1000
        assert a.percentile(50) >= 12
        # buckets() reports the same extended bound.
        lo, hi, n = a.buckets()[-1]
        assert hi == 1000 and n == 3

    def test_merged_overflow_all_mass_in_saturation_bucket(self):
        # Degenerate: *every* sample folds into the saturation bucket.
        a = Histogram(max_value=1 << 4)
        b = Histogram(max_value=1 << 10)
        b.add(600, count=4)
        a.merge(b)
        assert a.min == a.max == 600
        # Single-valued histogram: every percentile is that value.
        assert a.percentile(50) == 600.0
        assert a.percentile(99) == 600.0

    def test_single_bucket_histogram_merge(self):
        # max_value=0 gives a one-bucket histogram; merging wider data
        # must keep percentiles within [min, max], not pinned to 0.
        c = Histogram(max_value=0)
        c.add(0)
        d = Histogram(max_value=1 << 6)
        d.add(40, count=5)
        c.merge(d)
        assert c.count == 6
        assert 0 <= c.percentile(50) <= 40
        assert c.percentile(99) <= 40
        assert c.buckets() == [(0, 40, 6)]

    def test_unmerged_histogram_bounds_unchanged(self):
        # The saturation-bucket extension must not disturb ordinary
        # histograms: samples within max_value keep nominal bounds.
        h = Histogram(max_value=1 << 10)
        h.add(3)
        h.add(700)
        assert h.buckets()[0] == (2, 3, 1)
        assert h.buckets()[-1] == (512, 1023, 1)
        assert h.percentile(99) <= 700


class TestTimeSeries:
    def test_samples_until_inactive(self):
        eng = Engine()
        counter = {"v": 0, "alive": True}

        def bump():
            counter["v"] += 1
            if eng.now < 5000:
                eng.schedule(eng.now + 100, bump)
            else:
                counter["alive"] = False

        eng.schedule(0, bump)
        ts = TimeSeries(eng, probe=lambda: counter["v"], period=500,
                        active=lambda: counter["alive"])
        ts.start()
        eng.run()
        assert len(ts.samples) >= 5
        vals = ts.values()
        assert vals == sorted(vals)  # the counter only grows
        assert ts.peak == vals[-1] == ts.last()
        assert ts.mean > 0

    def test_bad_period(self):
        with pytest.raises(ValueError):
            TimeSeries(Engine(), probe=lambda: 0, period=0)

    def test_clock_skew_probe_on_real_run(self):
        from repro.sim.gpusim import GPUSimulator
        cfg = GPUConfig.small()
        wl = get_workload("dlb", intensity=0.2)
        sim = GPUSimulator(cfg, "RCC", wl.generate(cfg), "dlb")
        series = TimeSeries(sim.engine, clock_skew_probe(sim.proto.l1s),
                            period=500,
                            active=lambda: not all(c.finished
                                                   for c in sim.cores))
        series.start()
        sim.run()
        assert series.samples  # cores really do drift apart and resync
        assert series.peak >= 0


class TestCompare:
    @pytest.fixture(scope="class")
    def results(self):
        cfg = GPUConfig.small()
        out = []
        for protocol in ("MESI", "RCC"):
            for wlname in ("dlb", "kmn"):
                wl = get_workload(wlname, intensity=0.15)
                out.append(run_simulation(cfg, protocol, wl.generate(cfg),
                                          wlname))
        return out

    def test_compare_runs_baseline_is_one(self, results):
        table = compare_runs(results, baseline_protocol="MESI")
        assert table["MESI"]["speedup"] == pytest.approx(1.0)
        assert table["MESI"]["energy"] == pytest.approx(1.0)
        assert set(table) == {"MESI", "RCC"}
        assert table["RCC"]["speedup"] > 0

    def test_speedup_table_rows(self, results):
        rows = speedup_table(results)
        assert len(rows) == 4
        assert all(len(r) == 3 for r in rows)

    @staticmethod
    def _stub(protocol, workload, cycles, energy_total, flits):
        from types import SimpleNamespace
        return SimpleNamespace(protocol=protocol, workload=workload,
                               cycles=cycles,
                               energy=SimpleNamespace(total=energy_total),
                               total_flits=flits)

    def test_degenerate_runs_do_not_crash(self):
        # A zero-cycle run (empty trace) or zero energy total (energy
        # model off) must not raise ZeroDivisionError or poison the
        # geometric mean with zeros.
        results = [
            self._stub("MESI", "w", cycles=0, energy_total=0.0, flits=0),
            self._stub("RCC", "w", cycles=0, energy_total=0.0, flits=0),
        ]
        table = compare_runs(results, baseline_protocol="MESI")
        assert table["MESI"]["speedup"] == pytest.approx(1.0)
        assert table["RCC"]["energy"] == pytest.approx(1.0)
        rows = speedup_table(results, baseline_protocol="MESI")
        assert len(rows) == 2  # and formatting a 0-cycle run didn't crash

    def test_zero_cycle_run_against_real_baseline(self):
        results = [
            self._stub("MESI", "w", cycles=100, energy_total=4.0, flits=10),
            self._stub("RCC", "w", cycles=0, energy_total=2.0, flits=5),
        ]
        table = compare_runs(results, baseline_protocol="MESI")
        assert table["MESI"]["speedup"] == pytest.approx(1.0)
        assert table["RCC"]["speedup"] == pytest.approx(100.0)
        assert table["RCC"]["energy"] == pytest.approx(0.5)
