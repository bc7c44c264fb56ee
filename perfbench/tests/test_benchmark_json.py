"""BENCHMARK.json and run.py agree on names, units and limits."""

import json
import os

import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_match_run_py():
    spec = load()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


def test_bounds_and_setup_metric():
    spec = load()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
