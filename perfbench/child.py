"""One cold iteration of one workload, in a fresh interpreter.

``run.py`` starts this script once per iteration, so each timed call
starts from an empty process: no probe memo, no warm module state, and
a peak-RSS gauge that belongs to this workload alone.  It prints one
JSON object on its last line of standard output.

    python3 perfbench/child.py --workload NAME --seed N [--traced]
    python3 perfbench/child.py --workload NAME --load-only

``--traced`` profiles the timed region with cProfile (never with
``repro.trace``, which would send the fast kernels down their generic
paths) and harvests every unit's ``counters()``.  ``--load-only`` just
imports the entry points, which compiles the sources before any timed
iteration.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
sys.path[:0] = [HERE, SRC]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


class UnitLog:
    """Remembers every hardware unit and Split-C runtime constructed
    while installed, so their public ``counters()`` and ``OpStats`` can
    be summed after a run whose machines the entry point builds
    internally.  Wraps constructors only; per-access code is untouched.
    """

    #: (module, class, counter prefix); ``None`` marks Split-C runtimes.
    CLASSES = (("repro.node.memsys", "MemorySystem", "node"),
               ("repro.shell.annex", "DtbAnnex", "shell.annex"),
               ("repro.shell.remote", "RemoteAccessUnit", "shell.remote"),
               ("repro.shell.prefetch", "PrefetchQueue", "shell.prefetch"),
               ("repro.shell.blt", "BlockTransferEngine", "shell.blt"),
               ("repro.shell.msgqueue", "MessageUnit", "shell.msgq"),
               ("repro.splitc.runtime", "SplitC", None))

    def __init__(self):
        self.units: list = []
        self.runtimes: list = []

    def install(self) -> None:
        import importlib
        for module, name, prefix in self.CLASSES:
            cls = getattr(importlib.import_module(module), name)
            cls.__init__ = self._wrap(cls.__init__, prefix)

    def _wrap(self, init, prefix):
        log = self

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if prefix is None:
                log.runtimes.append(obj)
            else:
                log.units.append((prefix, obj))
        return __init__

    def counters(self) -> dict:
        total: dict = {}
        for prefix, unit in self.units:
            workloads.add_counters(total, prefix, unit)
        total["splitc.ops"] = sum(record.count for sc in self.runtimes
                                  for record in sc.stats.ops.values())
        return total


def cold_guard() -> None:
    """Empty the probe memo and the cache counters, and refuse to run
    with the ResultCache on or more than one job."""
    from repro.microbench.harness import clear_probe_memo
    from repro.parallel.cache import cache_enabled, reset_cache_stats
    from repro.parallel.executor import resolve_jobs
    clear_probe_memo()
    reset_cache_stats()
    if cache_enabled() or resolve_jobs() != 1:
        raise SystemExit("not a cold serial run: the ResultCache is on "
                         "or more than one job is configured")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--load-only", action="store_true")
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    gc.disable()

    started = time.perf_counter()
    api = wl.load()
    import repro
    if os.path.dirname(os.path.realpath(repro.__file__)) != \
            os.path.realpath(PACKAGE):
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {PACKAGE}")
    if args.load_only:
        print("{}")
        return 0
    log = profile = None
    if args.traced:
        log = UnitLog()
        log.install()
        profile = cProfile.Profile()
    cold_guard()
    state = wl.setup(api, args.seed)
    setup_end = time.perf_counter()

    # The timed call is cut into segments at each gauge() call; the
    # host speed is sampled at every cut, off the clock (hostspeed.py).
    kernel_s = [statistics.mean(hostspeed.sample(3))]
    segments_s = []

    def gauge():
        nonlocal mark
        if profile is None:
            segments_s.append(time.perf_counter() - mark)
            kernel_s.extend(hostspeed.sample(1))
            mark = time.perf_counter()

    if profile is not None:
        profile.enable()
    mark = time.perf_counter()
    out = wl.run(state, gauge)
    segments_s.append(time.perf_counter() - mark)
    if profile is not None:
        profile.disable()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kernel_s.append(statistics.mean(hostspeed.sample(3)))
    wall_s = sum(segments_s)

    from repro.parallel.cache import cache_stats
    cache_hits = cache_stats()["hits"]
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    outcome = wl.verify(state, out, args.seed, expected)
    if cache_hits:
        outcome.op("cold run", f"{cache_hits} ResultCache hits")
    report = {
        "setup_s": setup_end - started,
        "wall_s": wall_s,
        "segments_s": segments_s,
        "kernel_s": kernel_s,
        "peak_rss_mb": peak_rss_mb,
        "edges": outcome.edges,
        "paper_err_pct": outcome.paper_err_pct,
        "cache_hits": cache_hits,
        "ops": outcome.ops,
        "observed": outcome.observed,
    }
    if profile is not None:
        table = layers.layer_table(pstats.Stats(profile).stats, PACKAGE,
                                   wall_s)
        report.update(table)
        report["counters"] = log.counters()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
