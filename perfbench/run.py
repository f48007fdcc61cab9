"""Cold, layered benchmark of the T3D simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

For ``--seconds`` seconds it runs cold iterations of one workload, each
in a fresh ``child.py`` process with the result cache off, one job, GC
off and the default compute tiers, and prints the medians, scaled to
the reference host speed (see ``hostspeed.py``).  With
``--trace 1`` it then profiles one more iteration and prints the
per-layer metrics instead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` measures every workload, traced, and prints a table
of every end-to-end and per-layer metric with its unit.

The benchmark exits with a nonzero code, printing no result, when the
simulator's sources (``src/repro``) are not beside it or an iteration
crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402
from layers import LAYERS  # noqa: E402

#: Environment switches that select a sweep or compute tier.  The
#: benchmark reports what it found and runs with the cache off, one
#: job and every tier at its default.
TIER_SWITCHES = ("REPRO_CACHE", "REPRO_JOBS", "REPRO_COHORT",
                 "REPRO_VECTOR")

#: Host seconds of one ``hostspeed.kernel()`` call on the reference
#: host.  Times are reported as if the host ran the kernel this fast.
REFERENCE_KERNEL_S = 0.060

#: Fewest timed iterations in a run, whatever ``--seconds`` says.
MIN_ITERATIONS = 3
#: No iteration starts once a run has used this many seconds.
RUN_DEADLINE_S = 120.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Simulated counters reported per layer (summed over processors).
COUNTERS = ("node.l1.hits", "node.l1.misses", "node.dram.accesses",
            "node.dram.row_misses", "node.wb.merged_writes",
            "node.wb.drained_entries", "shell.remote.uncached_reads",
            "shell.remote.stores", "shell.prefetch.issues",
            "shell.blt.bytes_moved", "shell.annex.updates",
            "shell.msgq.sends", "splitc.ops")


def per_layer_names() -> list:
    """``(name, unit)`` of every per-layer metric, in report order."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.self_s", "s"), (f"{layer}.share", "ratio"),
                  (f"{layer}.calls", "count")]
    names += [("node.ns_per_access", "ns"), ("splitc.ns_per_op", "ns"),
              ("node.l1.hit_ratio", "ratio")]
    names += [(name, "B" if name.endswith("bytes_moved") else "count")
              for name in COUNTERS]
    names += [("parallel.cache_hits", "count"),
              ("hostspeed.kernel_s", "s"), ("hostspeed.raw_wall_s", "s"),
              ("hostspeed.raw_setup_s", "s"),
              ("profile.wall_s", "s"), ("profile.residual_s", "s"),
              ("tracing_overhead", "ratio"),
              ("edges_per_s", "1/s"), ("paper_err_pct", "%")]
    return names


class IterationFailed(RuntimeError):
    """A child iteration crashed or printed no report."""


def cold_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in TIER_SWITCHES}
    env.update(REPRO_CACHE="0", REPRO_JOBS="1")
    return env


def run_child(workload: str, *extra: str) -> dict:
    """Run ``child.py`` in the cold environment; returns its report."""
    proc = subprocess.run(
        [sys.executable, CHILD, "--workload", workload, *extra],
        cwd=ROOT, env=cold_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise IterationFailed(f"{workload} {' '.join(extra)}: "
                              f"exit {proc.returncode}")
    return json.loads(lines[-1])


def reference_wall(report: dict) -> float:
    """One child's timed call in reference seconds.  Each segment of
    the call is scaled by the mean of the kernel times sampled at its
    two ends."""
    kernel = report["kernel_s"]
    return sum(2 * REFERENCE_KERNEL_S * seconds / (kernel[i] + kernel[i + 1])
               for i, seconds in enumerate(report["segments_s"]))


def reference_setup(report: dict) -> float:
    """One child's set-up in reference seconds, scaled by the kernel
    time sampled right after it."""
    return report["setup_s"] * REFERENCE_KERNEL_S / report["kernel_s"][0]


def measure(workload: str, seed: int, seconds: float,
            traced: bool) -> dict:
    """Run cold iterations for ``seconds`` (and the traced one);
    returns the aggregate used by the reports."""
    started = time.perf_counter()
    run_child(workload, "--load-only")
    reports = []
    while True:
        elapsed = time.perf_counter() - started
        if len(reports) >= MIN_ITERATIONS and (
                elapsed >= seconds or elapsed >= RUN_DEADLINE_S):
            break
        reports.append(run_child(workload, "--seed", str(seed)))
    traced_report = (run_child(workload, "--seed", str(seed), "--traced")
                     if traced else None)
    every = reports + ([traced_report] if traced_report else [])
    failures = [f"{name}: {error}" for r in every
                for name, error in r["ops"] if error]
    wall = statistics.median(reference_wall(r) for r in reports)
    first = reports[0]
    result = {
        "workload": workload,
        "iterations": len(reports),
        "attempted": sum(len(r["ops"]) for r in every),
        "failed": len(failures),
        "failures": failures,
        "end_to_end": {
            "wall_s": wall,
            "setup_s": statistics.median(reference_setup(r)
                                         for r in reports),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in reports),
        },
        "hostspeed": {
            "kernel_s": statistics.median(
                k for r in reports for k in r["kernel_s"]),
            "raw_wall_s": statistics.median(r["wall_s"] for r in reports),
            "raw_setup_s": statistics.median(r["setup_s"] for r in reports),
        },
        "edges_per_s": first["edges"] / wall,
        "paper_err_pct": first["paper_err_pct"] or 0.0,
        "cache_hits": sum(r["cache_hits"] for r in every),
    }
    if traced_report is not None:
        result["per_layer"] = per_layer_metrics(result, traced_report)
    return result


def per_layer_metrics(result: dict, traced: dict) -> dict:
    counters = traced["counters"]
    table = traced["layers"]
    metrics = {}
    for layer in LAYERS:
        for key in ("self_s", "share", "calls"):
            metrics[f"{layer}.{key}"] = table[layer][key]
    accesses = counters.get("node.l1.hits", 0) + \
        counters.get("node.l1.misses", 0)
    ops = counters.get("splitc.ops", 0)
    metrics["node.ns_per_access"] = (
        1e9 * table["node"]["self_s"] / accesses if accesses else 0.0)
    metrics["splitc.ns_per_op"] = (
        1e9 * table["splitc"]["self_s"] / ops if ops else 0.0)
    metrics["node.l1.hit_ratio"] = (
        counters.get("node.l1.hits", 0) / accesses if accesses else 0.0)
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    metrics["parallel.cache_hits"] = result["cache_hits"]
    for name, value in result["hostspeed"].items():
        metrics[f"hostspeed.{name}"] = value
    metrics["profile.wall_s"] = traced["wall_s"]
    metrics["profile.residual_s"] = traced["residual_s"]
    metrics["tracing_overhead"] = (
        reference_wall(traced) / result["end_to_end"]["wall_s"])
    metrics["edges_per_s"] = result["edges_per_s"]
    metrics["paper_err_pct"] = result["paper_err_pct"]
    return metrics


def contract_line(result: dict, traced: bool) -> str:
    if traced:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in per_layer_names()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_table(results: list) -> None:
    names = list(END_TO_END) + [("ops_attempted", "count"),
                                ("ops_failed", "count")] + per_layer_names()
    header = f"{'metric':<30}{'unit':>7}" + "".join(
        f"{r['workload']:>16}" for r in results)
    print(header)
    print("-" * len(header))
    for name, unit in names:
        cells = []
        for r in results:
            value = {**r["end_to_end"], **r["per_layer"],
                     "ops_attempted": r["attempted"],
                     "ops_failed": r["failed"]}[name]
            cells.append(f"{value:>16.6g}")
        print(f"{name:<30}{unit:>7}" + "".join(cells))


def stop(signum, _frame):
    """Turn SIGTERM into an exception, so ``subprocess.run`` kills and
    reaps the running child before the benchmark exits."""
    raise SystemExit(f"error: stopped by signal {signum}")


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    seen = {k: os.environ[k] for k in TIER_SWITCHES if k in os.environ}
    print(f"tier switches seen: {seen or 'none'}; running with "
          "REPRO_CACHE=0 REPRO_JOBS=1 and default tiers", file=sys.stderr)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    traced = args.trace == 1 or args.workload == "all"
    try:
        results = [measure(name, args.seed, args.seconds, traced)
                   for name in names]
    except (IterationFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in results:
        print(f"{r['workload']}: {r['iterations']} timed iterations",
              file=sys.stderr)
        for failure in r["failures"]:
            print(f"FAILED {r['workload']}: {failure}", file=sys.stderr)
    if args.workload == "all":
        print_table(results)
        print(json.dumps({
            "correct": all(r["failed"] == 0 for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "workloads": {r["workload"]: {**r["end_to_end"],
                                          **r["per_layer"]}
                          for r in results}}))
    else:
        print(contract_line(results[0], traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
