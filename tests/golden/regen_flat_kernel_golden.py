"""Regenerate ``flat_kernel_golden.json``.

The capture pins the payloads of RCC, RCC-WO and MESI across the battery
workloads and every registered lease policy, as produced by the object
controllers. (The name is historical: the golden was built to pin the
flat-array kernel, since retired, against these controllers.)

Only run this when a *deliberate* protocol behavior change lands; commit
the regenerated file in the same PR as the change. Usage::

    PYTHONPATH=src python tests/golden/regen_flat_kernel_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess

from repro.config import GPUConfig
from repro.core.lease_policy import available_lease_policies
from repro.exec import SimCell, run_cell

PROTOCOLS = ("RCC", "RCC-WO", "MESI")
WORKLOADS = ("bfs", "stn", "dlb", "lud")
INTENSITIES = (0.25, 1.0)
SEED = 1234
OUT = os.path.join(os.path.dirname(__file__), "flat_kernel_golden.json")


def main() -> None:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except Exception:
        rev = "unknown"
    cells = {}
    for protocol in PROTOCOLS:
        for workload in WORKLOADS:
            for policy in available_lease_policies():
                for intensity in INTENSITIES:
                    cell = SimCell(
                        cfg=GPUConfig.small(), protocol=protocol,
                        workload=workload, intensity=intensity, seed=SEED,
                        ts_overrides=(("lease_policy", policy),))
                    res = run_cell(cell)
                    blob = json.dumps(res.to_payload(), sort_keys=True)
                    key = f"{protocol}/{workload}/{policy}@{intensity}"
                    cells[key] = {
                        "payload_sha256": hashlib.sha256(
                            blob.encode()).hexdigest(),
                        "cycles": res.cycles,
                        "mem_ops": res.mem_ops,
                    }
                    print(f"{key}: {cells[key]['payload_sha256'][:12]}")
    doc = {
        "kind": "flat-kernel-golden",
        "schema": 1,
        "note": "Object-kernel (oracle) payload hashes for the protocols "
                f"the flat kernel covers, captured at commit {rev}. Small "
                f"machine, seed {SEED}. Regenerate only for deliberate "
                "behavior changes.",
        "cells": cells,
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT} ({len(cells)} cells)")


if __name__ == "__main__":
    main()
