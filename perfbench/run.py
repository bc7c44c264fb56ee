"""The repository benchmark: one named workload, measured end to end or
traced layer by layer.

    python3 perfbench/run.py --workload sc-sharing [--seed 1234]
        [--seconds 24] [--trace 0|1] [--out FILE]

Workloads (see ``cases.py``): ``sc-sharing``, ``wo-pressure``,
``fuzz-differential``. Each pass runs in a fresh single-threaded
interpreter (``one_pass.py``); passes repeat until ``--seconds`` have
gone by, at least three of them. Host times are scaled by the host-speed
probe of their own pass (``probe.py``) and taken from the quieter half of
the passes, as medians cell by cell; simulated counts are exact and must
repeat in every pass.
``--trace 1`` alternates an untraced and a traced pass instead and
reports the per-layer ledger of the median traced pass (unscaled).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result
(provenance, per-cell digests, every pass) goes to ``--out``, by default
``.bench_results/<workload>-seed<seed>-trace<t>.json`` under the
repository root; ``compare.py`` diffs the digests of two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from numeric import median, quartiles, ratio, spread
import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sc-sharing", "wo-pressure", "fuzz-differential")
MIN_PASSES = 3
#: Set-ups measured per untraced run (extra set-up-only passes make up
#: the difference), so ``setup_s`` is a median of at least this many.
MIN_SETUPS = 5
#: Whole-run budget in seconds; a pass that would outlive it is killed.
RUN_BUDGET_S = 170.0

#: name -> unit, in report order.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "sc_stall_cycles_per_op": "cycles/op",
    "noc_flits_per_op": "flits/op",
}
PER_LAYER = {
    "timing.events_per_op": "events/op",
    "timing.unattributed_events_per_op": "events/op",
    "timing.self_s": "s",
    "gpu.ticks_per_op": "ticks/op",
    "gpu.self_s": "s",
    "l1.access_s": "s",
    "l1.would_stall_s": "s",
    "l1.on_message_s": "s",
    "l1.load_hit_ratio": "ratio",
    "l2.on_message_s": "s",
    "l2.hit_ratio": "ratio",
    "l2.misses_per_op": "misses/op",
    "l2.renew_grants": "count",
    "noc.sends_per_op": "msgs/op",
    "noc.send_s": "s",
    "mem.dram_accesses_per_op": "accesses/op",
    "mem.dram_access_s": "s",
    "mem.row_hit_ratio": "ratio",
    "workloads.generate_s": "s",
    "sim.build_s": "s",
    "sim.result_s": "s",
    "sanitize.emits": "count",
    "sanitize.emit_s": "s",
    "consistency.check_s": "s",
    "fuzz.oracle_s": "s",
    "fuzz.execute_s": "s",
    "fuzz.oracle_exhausted": "count",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


class PassFailed(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def run_pass(workload: str, seed: int, mode: str,
             timeout: float) -> Dict[str, Any]:
    """Run ``one_pass.py`` in a fresh interpreter and return its report."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass of {workload} ran past the "
                         f"{RUN_BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass of {workload} exited "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise PassFailed(f"{mode} pass of {workload} printed nothing")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float,
            trace: bool) -> Tuple[List[Dict], List[Dict], List[Dict]]:
    """Passes until ``seconds`` have gone by (at least ``MIN_PASSES``, or
    one untraced/traced pair when tracing). Returns the untraced passes,
    the traced passes, and the reports of every measured set-up."""
    start = time.perf_counter()

    def left() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - start)

    plain: List[Dict] = []
    traced: List[Dict] = []
    while True:
        plain.append(run_pass(workload, seed, "run", left()))
        if trace:
            traced.append(run_pass(workload, seed, "traced", left()))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (trace or len(plain) >= MIN_PASSES):
            break
    setups = list(plain)
    if not trace:
        while len(setups) < MIN_SETUPS:
            setups.append(run_pass(workload, seed, "setup", left()))
    return plain, traced, setups


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def median_of_parts(parts: List[Dict[str, float]]) -> float:
    """Sum over cells (or programs) of each one's median over passes;
    ``parts`` holds one label -> seconds dict per pass.

    A burst of load from elsewhere on the host slows the cells that run
    during it, in one pass; the per-cell median drops it, where the
    median of pass totals keeps it whenever it lands in the middle pass.
    """
    return sum(median(p[label] for p in parts) for label in parts[0])


def probe_mean(samples: List[float]) -> float:
    return sum(samples) / len(samples)


def probe_scale(samples: List[float]) -> float:
    """Factor that takes a pass's host times to the reference host speed."""
    return probe.scale(probe_mean(samples))


def quieter_half(passes: List[Dict]) -> List[Dict]:
    """The half of the passes (rounded up) whose probe ran fastest.

    Scaling by the probe is approximate: how much a busy host slows the
    simulator varies from workload to workload. Passes run on a quiet
    host need the least correction, so the host metrics come from them.
    """
    ranked = sorted(passes, key=lambda p: probe_mean(p["probe_wall_s"]))
    return ranked[:(len(ranked) + 1) // 2]


def end_to_end(plain: List[Dict], setups: List[Dict]) -> Dict[str, float]:
    """Host times are scaled per pass by the host-speed probe
    (``probe.py``) and taken from the quieter half of the passes;
    simulated counts are exact."""
    counts = plain[0]["counts"]
    ops = counts["mem_ops"]
    setup_s = median(r["setup_s"] * probe.scale(r["setup_probe_s"])
                     for r in setups)
    walls, cpus, rests = [], [], []
    for p in quieter_half(plain):
        kw = probe_scale(p["probe_wall_s"])
        kc = probe_scale(p["probe_cpu_s"])
        walls.append({k: v * kw for k, v in p["unit_wall_s"].items()})
        cpus.append({k: v * kc for k, v in p["unit_cpu_s"].items()})
        # The rest of the pass: interpreter start, digests, bookkeeping.
        rests.append(kw * (p["wall_s"] - p["setup_s"]
                           - sum(p["unit_wall_s"].values())))
    return {
        "wall_s": setup_s + median_of_parts(walls) + median(rests),
        "setup_s": setup_s,
        "sim_ops_per_s": ops / median_of_parts(cpus),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
        "sim_cycles": counts["cycles"],
        "sc_stall_cycles_per_op": ratio(counts["sc_stall_cycles"], ops),
        "noc_flits_per_op": ratio(counts["total_flits"], ops),
    }


def per_layer(p: Dict, overhead_ratio: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    led = p["ledger"]
    self_s: Dict[str, float] = led["self_s"]
    calls: Dict[str, int] = led["calls"]
    c = p["counts"]
    ops = c["mem_ops"]
    # Engine events that entered a public entry point: wrapped calls made
    # straight from the engine loop. Sanitizer emits do not count; they
    # observe a step inside an event's handler rather than handle it.
    handled = sum(n for name, n in led["engine_direct"].items()
                  if not name.startswith("sanitize."))
    layer: Dict[str, float] = {}
    for name, secs in self_s.items():
        key = name.split(".", 1)[0]
        layer[key] = layer.get(key, 0.0) + secs

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    return {
        "timing.events_per_op": ratio(c["events_fired"], ops),
        "timing.unattributed_events_per_op": ratio(
            max(0, c["events_fired"] - handled), ops),
        "timing.self_s": layer.get("timing", 0.0),
        "gpu.ticks_per_op": ratio(calls.get("gpu.tick", 0), ops),
        "gpu.self_s": layer.get("gpu", 0.0),
        "l1.access_s": s("l1.access"),
        "l1.would_stall_s": s("l1.would_stall"),
        "l1.on_message_s": s("l1.on_message"),
        "l1.load_hit_ratio": ratio(c["l1_load_hits"], c["l1_loads"]),
        "l2.on_message_s": s("l2.on_message"),
        "l2.hit_ratio": ratio(c["l2_hits"], c["l2_hits"] + c["l2_misses"]),
        "l2.misses_per_op": ratio(c["l2_misses"], ops),
        "l2.renew_grants": c["l2_renew_grants"],
        "noc.sends_per_op": ratio(calls.get("noc.send", 0), ops),
        "noc.send_s": s("noc.send"),
        "mem.dram_accesses_per_op": ratio(calls.get("mem.dram_access", 0),
                                          ops),
        "mem.dram_access_s": s("mem.dram_access"),
        "mem.row_hit_ratio": ratio(
            c["dram_row_hits"], c["dram_row_hits"] + c["dram_row_misses"]),
        "workloads.generate_s": s("workloads.generate"),
        "sim.build_s": s("sim.build"),
        "sim.result_s": s("sim.run"),
        "sanitize.emits": calls.get("sanitize.emit", 0),
        "sanitize.emit_s": s("sanitize.emit"),
        "consistency.check_s": s("consistency.check"),
        "fuzz.oracle_s": s("fuzz.oracle"),
        "fuzz.execute_s": s("fuzz.execute"),
        "fuzz.oracle_exhausted": c.get("oracle_exhausted", 0),
        "bench.self_s": layer.get("bench", 0.0),
        "trace.wall_s": led["wall_s"],
        "trace.overhead_ratio": overhead_ratio,
    }


def median_pass(passes: List[Dict]) -> Dict:
    """The pass with the median wall time (the lower one of an even
    count), so every per-layer number comes from one consistent pass."""
    ranked = sorted(passes, key=lambda p: p["ledger"]["wall_s"])
    return ranked[(len(ranked) - 1) // 2]


def consistency_problems(plain: List[Dict], traced: List[Dict]) -> List[str]:
    """Simulated output must repeat exactly: every pass of one seed, traced
    or not, has the same digests and the same simulated counts."""
    ref = plain[0]
    problems = []
    for i, p in enumerate(plain[1:] + traced, start=1):
        kind = "untraced" if i < len(plain) else "traced"
        if p["digests"] != ref["digests"]:
            problems.append(f"{kind} pass {i} digests differ from pass 0")
        if p["counts"] != ref["counts"]:
            problems.append(f"{kind} pass {i} counts differ from pass 0")
    return problems


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def _git(*args: str) -> Optional[str]:
    # The ceiling keeps git from adopting a repository that merely
    # encloses an unpacked checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "--no-optional-locks", "-C", ROOT,
                               *args], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int, plain: List[Dict]) -> Dict[str, Any]:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": nproc,
        "seed": seed,
        "controller_classes": plain[0]["classes"],
        "rcc_env": {k: v for k, v in sorted(os.environ.items())
                    if k.startswith("RCC_")},
    }


# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description="Measure one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="where to write the full result JSON")
    args = ap.parse_args(argv)
    trace = bool(args.trace)

    try:
        plain, traced, setups = collect(args.workload, args.seed,
                                        args.seconds, trace)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["digests"]) for p in plain + traced)
    failed = sum(len(p["failures"]) for p in plain + traced)
    problems = consistency_problems(plain, traced)
    if trace:
        chosen = median_pass(traced)
        overhead = median(t["wall_s"] / p["wall_s"]
                          for p, t in zip(plain, traced))
        metrics = per_layer(chosen, overhead)
        units = PER_LAYER
    else:
        metrics = end_to_end(plain, setups)
        units = END_TO_END

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, plain),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": plain[0]["failures"],
        "consistency_problems": problems,
        "digests": plain[0]["digests"],
        "passes": plain,
        "traced_passes": traced,
        "setups": setups[len(plain):],
    }
    if not trace:
        pass_walls = [p["wall_s"] * probe_scale(p["probe_wall_s"])
                      for p in plain]
        result["pass_wall_quartiles"] = quartiles(pass_walls)
        spread_ = spread(pass_walls)
    out = args.out or os.path.join(
        ROOT, ".bench_results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    prov = result["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(plain)} untraced + {len(traced)} traced  "
          f"git {prov['git_sha'][:12]}"
          f"{' (dirty)' if prov['git_dirty'] else ''}  "
          f"python {prov['python']}  nproc {prov['nproc']}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:>16.6g} {unit}")
    if trace:
        led = chosen["ledger"]
        print(f"  layer self times sum to {sum(led['self_s'].values()):.6f}"
              f" s of {led['wall_s']:.6f} s traced wall")
    else:
        probe_ms = median(1000 * probe_mean(p["probe_wall_s"])
                          for p in plain)
        print(f"  host times scaled to a {1000 * probe.REF_PROBE_S:.1f} ms"
              f" probe; this run's probe took {probe_ms:.2f} ms (median),"
              f" its unscaled wall_s {median(p['wall_s'] for p in plain):.4f}"
              f" s")
        q1, q2, q3 = result["pass_wall_quartiles"]
        print(f"  scaled pass walls over {len(plain)} passes: quartiles"
              f" {q1:.4f} / {q2:.4f} / {q3:.4f} s, spread {spread_:.4f}")
    print(f"  {'failed_ratio':36s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted})")
    for label, why in plain[0]["failures"].items():
        print(f"  FAILED {label}: {why}")
    for problem in problems:
        print(f"  INCONSISTENT: {problem}")
    print(f"  {len(plain[0]['digests'])} digests -> {out}")

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
