"""The ``RCC_*`` environment toggles: one boolean parser, typed errors for
malformed integers, and a result-cache key the environment cannot reach."""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro.common.env import env_flag, env_int
from repro.config import GPUConfig
from repro.errors import ConfigError
from repro.exec import ResultCache, RetryPolicy, SimCell, SweepExecutor
from repro.exec.cells import cell_key
from repro.sanitize.sanitizer import sanitize_enabled_from_env

OFF = ["0", "off", "no", "", "OFF", " No ", "false"]
ON = ["1", "true", "yes", "on", "TRUE", " On "]


@pytest.mark.parametrize("value", OFF)
def test_flag_off_values(value):
    assert env_flag("RCC_X", {"RCC_X": value}) is False


@pytest.mark.parametrize("value", ON)
def test_flag_on_values(value):
    assert env_flag("RCC_X", {"RCC_X": value}) is True


def test_flag_unset_is_off():
    assert env_flag("RCC_X", {}) is False


@pytest.mark.parametrize("value,serial", [("0", False), ("no", False),
                                          ("1", True), ("on", True)])
def test_no_mp_toggle(monkeypatch, value, serial):
    monkeypatch.setenv("RCC_NO_MP", value)
    pool = SweepExecutor(jobs=2)._make_pool(2)
    try:
        assert (pool is None) == serial
    finally:
        if pool is not None:
            pool.shutdown()


@pytest.mark.parametrize("value,on", [("0", False), ("off", False),
                                      ("1", True), ("true", True)])
def test_sanitize_toggle_uses_the_same_parser(value, on):
    assert sanitize_enabled_from_env({"RCC_SANITIZE": value}) is on


def test_env_int():
    assert env_int("RCC_N", 7, {}) == 7
    assert env_int("RCC_N", 7, {"RCC_N": " "}) == 7
    assert env_int("RCC_N", 7, {"RCC_N": "12"}) == 12
    with pytest.raises(ConfigError, match="RCC_N='x'"):
        env_int("RCC_N", 7, {"RCC_N": "x"})


def test_bad_jobs_is_a_config_error(monkeypatch):
    monkeypatch.setenv("RCC_JOBS", "abc")
    with pytest.raises(ConfigError, match="RCC_JOBS"):
        SweepExecutor()


def test_bad_max_attempts_is_a_config_error(monkeypatch):
    monkeypatch.setenv("RCC_MAX_ATTEMPTS", "abc")
    with pytest.raises(ConfigError, match="RCC_MAX_ATTEMPTS"):
        RetryPolicy.from_env()
    with pytest.raises(ConfigError, match="RCC_MAX_ATTEMPTS"):
        SweepExecutor(jobs=1)


def test_bad_cache_bound_is_a_config_error(monkeypatch, tmp_path):
    monkeypatch.setenv("RCC_CACHE_MAX_ENTRIES", "many")
    with pytest.raises(ConfigError, match="RCC_CACHE_MAX_ENTRIES"):
        ResultCache(str(tmp_path))


class _Tripwire(dict):
    """An ``os.environ`` stand-in that fails any read."""

    def _trip(self, *args, **kwargs):
        raise AssertionError("cell_key read the environment")

    get = __getitem__ = __contains__ = _trip


def test_cell_key_does_not_read_the_environment(monkeypatch):
    cell = SimCell(cfg=GPUConfig.small(), protocol="RCC", workload="bfs",
                   intensity=0.25, seed=1234)
    before = cell_key(cell)
    monkeypatch.setattr(os, "environ", _Tripwire())
    assert cell_key(cell) == before


_REPO = Path(__file__).resolve().parent.parent
_TOGGLE = re.compile(r"RCC_[A-Z_]+")


def _readme_toggles():
    """The variables in README's "Environment toggles" table."""
    text = (_REPO / "README.md").read_text()
    section = text.split("### Environment toggles", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\| `(RCC_[A-Z_]+)` \|", section, re.M))


def test_readme_lists_exactly_the_toggles_the_package_reads():
    read = set()
    for path in (_REPO / "src" / "repro").rglob("*.py"):
        read.update(_TOGGLE.findall(path.read_text()))
    documented = _readme_toggles()
    assert documented, "README has no Environment toggles table"
    assert read - documented == set(), "toggles missing from README"
    assert documented - read == set(), "README rows for unread toggles"
