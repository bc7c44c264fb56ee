"""One pass of one workload, in a fresh interpreter; prints one JSON line.

    python3 perfbench/one_pass.py --workload sc-sharing --seed 1234 \
        --mode run|traced|setup

``run`` sets the workload up, executes it and reports host times,
simulated counts and digests. ``traced`` does the same under a
:class:`ledger.Ledger` and adds the per-span self times. ``setup`` stops
after the set-up. Every mode samples the host-speed probe (``probe.py``)
around the set-up and between cells; the reported host times exclude
the probe's own time. ``run.py`` starts these passes one after another;
this script expects ``src`` on ``PYTHONPATH``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from ledger import Ledger, NullLedger  # noqa: E402
from probe import Probe  # noqa: E402

#: Probe samples taken on each side of the set-up.
SETUP_PROBES = 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "traced", "setup"),
                    required=True)
    args = ap.parse_args(argv)

    ledger = Ledger(start=T0) if args.mode == "traced" else NullLedger()
    probe = Probe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    t_setup = time.perf_counter()
    with ledger.span("bench.import"):
        from cases import WORKLOADS
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, ledger)
    setup_s = time.perf_counter() - t_setup
    for _ in range(SETUP_PROBES):
        probe.sample()
    report = {
        "setup_s": setup_s,
        "setup_probe_s": sum(probe.wall_s) / len(probe.wall_s),
    }
    if args.mode != "setup":
        result = workload.execute(inputs, ledger, probe.maybe)
        report.update(
            wall_s=time.perf_counter() - T0 - sum(probe.wall_s),
            probe_wall_s=probe.wall_s,
            probe_cpu_s=probe.cpu_s,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            unit_wall_s=result.unit_wall_s,
            unit_cpu_s=result.unit_cpu_s,
            counts=dict(result.counts),
            digests=result.digests,
            failures=result.failures,
            classes=result.classes,
        )
    if ledger.traced:
        ledger.close()
        report["ledger"] = {
            "wall_s": ledger.wall_s,
            "self_s": dict(ledger.self_s),
            "calls": dict(ledger.calls),
            "engine_direct": dict(ledger.engine_direct),
        }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
