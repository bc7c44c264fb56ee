import statistics

import pytest

from numeric import median, quartiles, ratio, spread


def test_median_odd_and_even():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    assert median(x for x in (5.0,)) == 5.0


def test_median_of_nothing_raises():
    with pytest.raises(ValueError):
        median([])


def test_quartiles_match_statistics_quantiles():
    values = [9.1, 8.7, 10.2, 9.9, 9.4, 8.8, 9.0, 11.5, 9.3, 9.6]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = quartiles([1, 2, 3, 4, 5])
    assert (q1, q2, q3) == (1.5, 3.0, 4.5)


def test_spread_is_iqr_over_median():
    assert spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3.0)
    assert spread([7.0] * 4) == 0.0
    with pytest.raises(ValueError):
        spread([0, 0, 0])


def test_ratio_of_nothing_is_zero():
    assert ratio(3, 4) == 0.75
    assert ratio(3, 0) == 0.0


def test_end_to_end_scales_each_pass_by_its_probe():
    import run
    from probe import ELASTICITY, REF_PROBE_S

    def fake_pass(slow, cell_s):
        # A pass on a busy host: the probe takes ``slow`` times as long,
        # the workload ``slow ** ELASTICITY`` times.
        k = slow ** ELASTICITY
        return {
            "setup_s": 0.5 * k, "setup_probe_s": REF_PROBE_S * slow,
            "wall_s": (0.5 + sum(cell_s.values()) + 0.1) * k,
            "probe_wall_s": [REF_PROBE_S * slow] * 3,
            "probe_cpu_s": [REF_PROBE_S * slow] * 3,
            "unit_wall_s": {k_: v * k for k_, v in cell_s.items()},
            "unit_cpu_s": {k_: v * k for k_, v in cell_s.items()},
            "peak_rss_mb": 40.0,
            "counts": {"mem_ops": 300, "cycles": 1000,
                       "sc_stall_cycles": 600, "total_flits": 900},
        }

    cells = {"RCC/bfs": 1.0, "RCC/dlb": 2.0}
    passes = [fake_pass(1.6, cells), fake_pass(1.0, cells),
              fake_pass(1.0, {"RCC/bfs": 1.0, "RCC/dlb": 9.0}),
              fake_pass(1.7, cells), fake_pass(1.1, cells)]
    assert run.quieter_half(passes) == [passes[1], passes[2], passes[4]]
    m = run.end_to_end(passes, passes)
    assert m["setup_s"] == pytest.approx(0.5)
    # Per-cell medians drop the third pass's slow dlb cell.
    assert m["wall_s"] == pytest.approx(0.5 + 3.0 + 0.1)
    assert m["sim_ops_per_s"] == pytest.approx(300 / 3.0)
    assert m["sc_stall_cycles_per_op"] == 2.0
    assert m["noc_flits_per_op"] == 3.0
    assert m["sim_cycles"] == 1000
