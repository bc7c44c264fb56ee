"""Golden-payload battery: 72 RCC / RCC-WO / MESI cells, bit for bit.

Every hash in ``tests/golden/flat_kernel_golden.json`` was captured from
the object controllers. The grid covers RCC, RCC-WO and MESI across the
battery workloads, every registered lease policy, and two intensities on
the small machine. Recomputing each cell and comparing payload SHA-256
proves that engine and controller restructurings (the retired flat-array
kernel, the batched L2 retries) changed *nothing observable* — not
cycles, not stats, not a single payload field. The file and test names
keep the flat kernel's name because the golden was built to pin it.

If a deliberate protocol behavior change lands later, regenerate with::

    PYTHONPATH=src python tests/golden/regen_flat_kernel_golden.py

and say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.config import GPUConfig
from repro.core.lease_policy import available_lease_policies
from repro.exec import SimCell, run_cell

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "flat_kernel_golden.json")

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)

assert GOLDEN["kind"] == "flat-kernel-golden" and GOLDEN["schema"] == 1


def payload_hash(result) -> str:
    """The canonical payload digest the golden file stores."""
    blob = json.dumps(result.to_payload(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def cell_for(key: str) -> SimCell:
    """Rebuild the SimCell a golden key (``RCC/bfs/fixed@0.25``) names."""
    protocol, workload, rest = key.split("/")
    policy, intensity = rest.rsplit("@", 1)
    return SimCell(cfg=GPUConfig.small(), protocol=protocol,
                   workload=workload, intensity=float(intensity), seed=1234,
                   ts_overrides=(("lease_policy", policy),))


@pytest.mark.parametrize("key", sorted(GOLDEN["cells"]))
def test_flat_kernel_bit_identical(key):
    expected = GOLDEN["cells"][key]
    result = run_cell(cell_for(key))
    assert result.mem_ops == expected["mem_ops"], \
        f"{key}: mem_ops drifted (workload generation changed)"
    assert result.cycles == expected["cycles"], \
        f"{key}: cycles drifted (timing diverged)"
    assert payload_hash(result) == expected["payload_sha256"], (
        f"{key}: result payload differs from the golden capture")


def test_golden_grid_shape():
    """The golden grid is the full 3 x 4 x policies x 2 cross it claims."""
    keys = GOLDEN["cells"].keys()
    protocols = {k.split("/")[0] for k in keys}
    workloads = {k.split("/")[1] for k in keys}
    policies = {k.split("/")[2].rsplit("@", 1)[0] for k in keys}
    assert protocols == {"RCC", "RCC-WO", "MESI"}
    assert workloads == {"bfs", "stn", "dlb", "lud"}
    assert policies == set(available_lease_policies())
    assert len(keys) == 3 * 4 * len(policies) * 2
