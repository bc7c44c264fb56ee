"""Compare the simulated-output digests of two benchmark result files.

    python3 perfbench/compare.py A.json B.json

Lists every grid cell or fuzz program whose digest differs, or that only
one file holds. Exits 0 when every digest matches and 1 otherwise, so a
simulator-speed change can show that no simulated statistic moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from digests import compare_digests


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    results = []
    for path in (args.a, args.b):
        with open(path) as fh:
            results.append(json.load(fh))
    a, b = results
    for path, res in zip((args.a, args.b), results):
        prov = res["provenance"]
        print(f"{path}: {res['workload']} seed {prov['seed']} "
              f"git {prov['git_sha'][:12]}")
    diff = compare_digests(a["digests"], b["digests"])
    for label in diff["differ"]:
        print(f"DIFFERS  {label}")
    for label in diff["only_a"]:
        print(f"ONLY A   {label}")
    for label in diff["only_b"]:
        print(f"ONLY B   {label}")
    bad = sum(len(v) for v in diff.values())
    same = len(a["digests"].keys() & b["digests"].keys()) - len(diff["differ"])
    print(f"{same} identical, {bad} differing or unmatched")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
