"""Digests of simulated results, and the comparison of two result files.

A simulator-speed change must leave every simulated statistic unchanged.
Each grid cell records the sha256 of its ``SimResult.to_payload()`` and
each fuzz program the sha256 of its verdict, so two result files (two
commits, or a traced and an untraced pass) compare cell by cell.
"""

from __future__ import annotations

import enum
import hashlib
import json
from typing import Any, Dict, List, Mapping


def canonical(obj: Any) -> Any:
    """A JSON-able form of ``obj`` that does not depend on dict order:
    dicts become key-sorted pairs (keys may be tuples), tuples lists,
    enums their names and anything else without a JSON form its repr."""
    if isinstance(obj, dict):
        items = [[canonical(k), canonical(v)] for k, v in obj.items()]
        return sorted(items, key=lambda kv: json.dumps(kv[0]))
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, enum.Enum):
        return obj.name
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def sha256_of(obj: Any) -> str:
    text = json.dumps(canonical(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(result: Any) -> str:
    """sha256 of one ``SimResult``'s full payload."""
    return sha256_of(result.to_payload())


def verdict_digest(verdict: Any, sim_digests: List[str]) -> str:
    """sha256 of one fuzz program's ``ProgramVerdict``: per executor its
    error, cycles, architectural observation, witness-checker violations
    and oracle verdict, plus the payload digests of the simulations the
    program ran (in run order)."""
    outcomes = {}
    for name, out in verdict.outcomes.items():
        obs = out.observation
        outcomes[name] = {
            "error": out.error,
            "cycles": out.cycles,
            "reads": None if obs is None else obs.reads,
            "final": None if obs is None else obs.final,
            "violations": [repr(v) for v in out.checker_violations],
            "oracle": out.oracle_verdict,
            "oracle_exhausted": out.oracle_exhausted,
        }
    return sha256_of({"outcomes": outcomes, "sims": sim_digests,
                      "passed": verdict.passed})


def compare_digests(a: Mapping[str, str],
                    b: Mapping[str, str]) -> Dict[str, List[str]]:
    """Cells whose digest differs, and cells present on one side only."""
    return {
        "differ": sorted(k for k in a.keys() & b.keys() if a[k] != b[k]),
        "only_a": sorted(a.keys() - b.keys()),
        "only_b": sorted(b.keys() - a.keys()),
    }
