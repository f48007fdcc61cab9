"""The benchmark's four workloads.

Each workload turns a seed into inputs, makes one timed call into the
simulator's public entry points, and checks what came back.  A
workload is split in four steps so the harness can time them apart:

* ``load()`` imports the entry points (part of set-up);
* ``setup(api, seed)`` builds machines and inputs (set-up);
* ``run(state, gauge)`` is the timed region.  A workload of several
  operations calls ``gauge()`` between them; the child then samples
  the host speed there, off the clock;
* ``check(state, out, seed)`` verifies the outputs, untimed.

``check`` returns an :class:`Outcome`: one entry per operation (each
EM3D, application or experiment call), the simulated values that are
compared with ``expected.json``, and the simulated EM3D edge updates.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

#: The seed whose simulated values ``expected.json`` records.
DEFAULT_SEED = 1995

#: The shell units of a node whose ``counters()`` are harvested, with
#: the prefix their counters are reported under.
NODE_UNITS = (("memsys", "node"), ("annex", "shell.annex"),
              ("remote", "shell.remote"), ("prefetch", "shell.prefetch"),
              ("blt", "shell.blt"), ("msgq", "shell.msgq"))


@dataclass
class Outcome:
    """What ``check`` found in one run of a workload."""

    #: ``(operation, error message or None)`` per operation.
    ops: list = field(default_factory=list)
    #: Deterministic simulated values, compared with ``expected.json``.
    observed: dict = field(default_factory=dict)
    #: Simulated EM3D edge updates performed by the timed call.
    edges: int = 0
    #: Mean |measured/paper - 1| in percent, where the run has paper
    #: values to compare with.
    paper_err_pct: float | None = None

    def op(self, name: str, error: str | None) -> None:
        self.ops.append((name, error))


def add_counters(total: dict, prefix: str, unit) -> None:
    """Add one unit's ``counters()`` into ``total`` under ``prefix``."""
    for key, value in unit.counters().items():
        name = f"{prefix}.{key}"
        total[name] = total.get(name, 0) + value


def machine_counters(machines) -> dict:
    """Every node unit's counters, summed over all processors of all
    ``machines``."""
    total: dict = {}
    for machine in machines:
        for pe in range(machine.num_nodes):
            node = machine.node(pe)
            for attr, prefix in NODE_UNITS:
                add_counters(total, prefix, getattr(node, attr))
    return total


def _import(*names):
    return SimpleNamespace(**{
        name.rsplit(".", 1)[-1]: importlib.import_module(name)
        for name in names})


def _new_machine(api, num_pes: int):
    return api.machine.Machine(api.params.t3d_machine_params(
        api.torus.balanced_torus_shape(num_pes)))


def _compare_expected(outcome: Outcome, expected: dict | None) -> None:
    """Fail the operation each changed recorded value belongs to: the
    one it is named after (``"cg.total_cycles"`` -> ``"cg"``), else
    every operation of the run."""
    if expected is None:
        return
    for key, want in expected.items():
        got = outcome.observed.get(key)
        if got == want:
            continue
        owners = [i for i, (name, _err) in enumerate(outcome.ops)
                  if key == name or key.startswith(name + ".")]
        for i in owners or range(len(outcome.ops)):
            name, error = outcome.ops[i]
            outcome.ops[i] = (name, error or f"simulated {key} changed "
                              "from the recorded value")


# ----------------------------------------------------------------------
# em3d_exchange: EM3D "put" at 256 processors
# ----------------------------------------------------------------------

EXCHANGE = dict(num_pes=256, nodes_per_pe=64, degree=6,
                remote_fraction=0.3, version="put", steps=1,
                warmup_steps=1)


def _exchange_load():
    return _import("repro.apps.em3d", "repro.apps.em3d.graph",
                   "repro.apps.em3d.reference", "repro.machine.machine",
                   "repro.params", "repro.network.torus")


def _exchange_setup(api, seed):
    c = EXCHANGE
    graph = api.em3d.make_graph(c["num_pes"], c["nodes_per_pe"],
                                c["degree"], c["remote_fraction"],
                                seed=seed)
    return SimpleNamespace(api=api, seed=seed, graph=graph,
                           machine=_new_machine(api, c["num_pes"]))


def _exchange_run(s, gauge):
    c = EXCHANGE
    return s.api.em3d.run_em3d(s.machine, s.graph, c["version"],
                               steps=c["steps"],
                               warmup_steps=c["warmup_steps"],
                               seed=s.seed)


def _exchange_check(s, result, seed):
    c = EXCHANGE
    graph = s.graph
    e0 = s.api.graph.initial_values(graph, "e", seed)
    h0 = s.api.graph.initial_values(graph, "h", seed)
    ref_e, ref_h = s.api.reference.reference_run(
        graph, e0, h0, steps=c["steps"] + c["warmup_steps"])
    error = None
    if result.e_values != ref_e or result.h_values != ref_h:
        error = "E/H field values differ from reference_run"
    outcome = Outcome(
        edges=((c["steps"] + c["warmup_steps"]) * graph.edges_per_pe
               * graph.num_pes),
        observed={
            "us_per_edge": result.us_per_edge,
            "splitc_ops": sum(r.count for r in result.stats.ops.values()),
            "counters": machine_counters([s.machine]),
        })
    outcome.op("run_em3d put", error)
    return outcome


# ----------------------------------------------------------------------
# em3d_capacity: the all-local million-point code path at 16 processors
# ----------------------------------------------------------------------

CAPACITY = dict(num_pes=16, nodes_per_pe=65536, degree=2, steps=1,
                warmup_steps=1)

#: The structured affine graph of ``repro.apps.em3d.million`` as its
#: module docstring specifies it: neighbor ``k`` of node ``i`` is
#: ``(i*40503 + k*2654435761) mod n``; weights and initial values are
#: integer hashes mapped into [-1, 1) by an exact 2**-24 scale.
_IDX_A, _IDX_B = 40503, 2654435761
_HASH_A, _HASH_B, _HASH_MOD = 2654435761, 40503, 1 << 24
_INIT = {"e": (48271, 11), "h": (16807, 7)}


def _capacity_reference_checksum(n: int, degree: int, steps: int):
    """Sum of the final E values after ``steps`` leapfrog steps,
    accumulated edge by edge in the simulator's order (numpy float64
    adds in the same order are bit-identical)."""
    import numpy as np
    i = np.arange(n, dtype=np.int64)

    def unit(x):
        return (x % _HASH_MOD) / _HASH_MOD * 2.0 - 1.0

    idx = [(i * _IDX_A + k * _IDX_B) % n for k in range(degree)]
    weight = [unit(i * _HASH_A + k * _HASH_B) for k in range(degree)]
    e = unit(i * _INIT["e"][0] + _INIT["e"][1])
    h = unit(i * _INIT["h"][0] + _INIT["h"][1])

    def half(src):
        acc = np.zeros(n)
        for k in range(degree):
            acc = acc + weight[k] * src[idx[k]]
        return acc

    for _ in range(steps):
        e = half(h)
        h = half(e)
    return float(e.sum())


def _capacity_load():
    return _import("repro.apps.em3d", "repro.machine.machine",
                   "repro.params", "repro.network.torus")


def _capacity_setup(api, seed):
    # The capacity graph is fixed by construction; the seed selects
    # nothing here (see README.md).
    return SimpleNamespace(api=api,
                           machine=_new_machine(api, CAPACITY["num_pes"]))


def _capacity_run(s, gauge):
    c = CAPACITY
    return s.api.em3d.run_em3d_million(
        s.machine, c["nodes_per_pe"], degree=c["degree"],
        steps=c["steps"], warmup_steps=c["warmup_steps"])


def _capacity_check(s, result, seed):
    c = CAPACITY
    steps = c["steps"] + c["warmup_steps"]
    want = _capacity_reference_checksum(c["nodes_per_pe"], c["degree"],
                                        steps)
    error = None
    if result.e_checksum != want:
        error = f"E checksum {result.e_checksum!r} != reference {want!r}"
    outcome = Outcome(
        edges=(steps * 2 * c["nodes_per_pe"] * c["degree"]
               * c["num_pes"]),
        observed={
            "us_per_edge": result.us_per_edge,
            "e_checksum": result.e_checksum,
            "counters": machine_counters([s.machine]),
        })
    outcome.op("run_em3d_million", error)
    return outcome


# ----------------------------------------------------------------------
# paper_figures: the whole experiment registry, cold and serial
# ----------------------------------------------------------------------

def _figures_load():
    return _import("repro.reporting.experiments")


def _figures_setup(api, seed):
    # The registry fixes its own inputs (the paper's experiments);
    # the seed selects nothing here (see README.md).
    return SimpleNamespace(api=api)


def _figures_run(s, gauge):
    # What run_all(jobs=1, use_cache=False) does, one experiment at a
    # time, so the host speed can be sampled between experiments.
    results = []
    for experiment in s.api.experiments.all_experiments():
        rows, notes = experiment.run(False)
        results.append((experiment, rows, notes))
        gauge()
    return results


def _figures_check(s, results, seed):
    outcome = Outcome()
    errors = []
    for experiment, rows, _notes in results:
        bad = [name for name, _paper, measured, _unit in rows
               if not math.isfinite(measured)]
        outcome.op(experiment.exp_id,
                   f"non-finite rows {bad}" if bad else None)
        outcome.observed[experiment.exp_id] = [
            [name, paper, measured, unit]
            for name, paper, measured, unit in rows]
        errors.extend(abs(measured / paper - 1.0)
                      for _name, paper, measured, _unit in rows if paper)
    outcome.paper_err_pct = 100.0 * sum(errors) / len(errors)
    return outcome


# ----------------------------------------------------------------------
# spmd_apps: the SPMD application catalog
# ----------------------------------------------------------------------

APPS_PES = 64
#: CG's all-gather ``all_reduce`` makes 64 processors take 34-140 s.
CG_PES = 16
#: CG's iteration count, and so its run time, depends on the right-hand
#: side; a fixed one keeps the workload's cost the same for every seed.
CG_SEED = 7
APPS = dict(hist_bins=256, hist_samples=64, sort_keys=64, stencil_cells=64,
            stencil_steps=4, transpose_n=128, fft_points=16, cg_rows=16)


def _apps_load():
    return _import("repro.apps.cg", "repro.apps.fft", "repro.apps.histogram",
                   "repro.apps.samplesort", "repro.apps.stencil",
                   "repro.apps.transpose", "repro.apps.spmd_workloads",
                   "repro.machine.machine", "repro.params",
                   "repro.network.torus")


def _apps_calls(api, seed):
    """``(name, processors, call(machine))`` for every application
    call, in run order."""
    a = APPS
    calls = [
        ("histogram.am", APPS_PES, lambda m: api.histogram.run_histogram(
            m, num_bins=a["hist_bins"], samples_per_pe=a["hist_samples"],
            method="am", seed=seed)),
    ]
    for method in ("bulk", "element"):
        calls.append((f"samplesort.{method}", APPS_PES,
                      lambda m, method=method: api.samplesort
                      .run_sample_sort(m, keys_per_pe=a["sort_keys"],
                                       method=method, seed=seed)))
    for style in ("bulk_synchronous", "message_driven"):
        calls.append((f"stencil.{style}", APPS_PES,
                      lambda m, style=style: api.stencil.run_stencil(
                          m, cells_per_pe=a["stencil_cells"],
                          steps=a["stencil_steps"], sync_style=style)))
    for strategy in ("bulk", "puts"):
        calls.append((f"transpose.{strategy}", APPS_PES,
                      lambda m, strategy=strategy: api.transpose
                      .run_transpose(m, a["transpose_n"], strategy)))
    for exchange in ("bulk", "puts"):
        calls.append((f"fft.{exchange}", APPS_PES,
                      lambda m, exchange=exchange: api.fft.run_fft(
                          m, points_per_pe=a["fft_points"], seed=seed,
                          exchange=exchange)))
    calls.append(("cg", CG_PES, lambda m: api.cg.run_cg(
        m, rows_per_pe=a["cg_rows"], seed=CG_SEED)))
    spmd = api.spmd_workloads
    for name, workload in spmd.MESSAGE_WORKLOADS.items():
        calls.append((f"message.{name}", workload.num_pes,
                      lambda m, name=name: spmd.run_message_workload(
                          m, name)))
    return calls


def _apps_setup(api, seed):
    calls = _apps_calls(api, seed)
    machines = [_new_machine(api, pes) for _name, pes, _call in calls]
    return SimpleNamespace(api=api, seed=seed, calls=calls,
                           machines=machines)


def _apps_run(s, gauge):
    out = {}
    for (name, _pes, call), machine in zip(s.calls, s.machines):
        try:
            out[name] = call(machine)
        except Exception as exc:  # a failed operation, not a crash
            out[name] = exc
        gauge()
    return out


def _fft_input(seed: int, n: int):
    """``run_fft``'s input: ``n`` complex points from ``Random(seed)``."""
    from random import Random
    rng = Random(seed)
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(n)]


def _check_app(api, name, result, seed, out):
    """Error message for one application result, or None."""
    a = APPS
    family = name.split(".", 1)[0]
    if family == "histogram":
        total = APPS_PES * a["hist_samples"]
        if result.lost_updates != 0:
            return f"{result.lost_updates} lost updates"
        if sum(result.bins) != total or result.total_counted != total:
            return f"counted {sum(result.bins)} of {total} samples"
    elif family == "samplesort":
        keys = result.sorted_keys
        if len(keys) != APPS_PES * a["sort_keys"] or keys != sorted(keys):
            return "keys not a sorted permutation of the input size"
        other = out.get("samplesort.bulk")
        if name != "samplesort.bulk" and getattr(
                other, "sorted_keys", None) != keys:
            return "element and bulk methods sorted different keys"
    elif family == "stencil":
        want = api.stencil.reference_stencil(
            APPS_PES, a["stencil_cells"], a["stencil_steps"])
        if result.values != want:
            return "cells differ from reference_stencil"
    elif family == "transpose":
        n = a["transpose_n"]
        want = [[c * n + r for c in range(n)] for r in range(n)]
        if result.matrix != want:
            return "matrix is not the transpose"
    elif family == "fft":
        want = api.fft.reference_dif_fft(
            _fft_input(seed, APPS_PES * a["fft_points"]))
        worst = max(abs(x - y) for x, y in zip(result.output, want))
        if len(result.output) != len(want) or worst > 1e-9:
            return f"spectrum off reference_dif_fft by {worst:g}"
    elif family == "cg":
        from random import Random
        rng = Random(CG_SEED)
        x_true = [rng.uniform(-1.0, 1.0)
                  for _ in range(CG_PES * a["cg_rows"])]
        worst = max(abs(x - y) for x, y in zip(result.x, x_true))
        if result.residual >= 1e-9 or worst > 1e-7:
            return (f"residual {result.residual:g}, "
                    f"solution off by {worst:g}")
    return None


def _apps_check(s, out, seed):
    outcome = Outcome()
    for (name, _pes, _call), machine in zip(s.calls, s.machines):
        outcome.observed[f"{name}.counters"] = machine_counters([machine])
        result = out[name]
        if isinstance(result, Exception):
            outcome.op(name, f"{type(result).__name__}: {result}")
            continue
        outcome.op(name, _check_app(s.api, name, result, seed, out))
        cycles = getattr(result, "total_cycles", None)
        if cycles is not None:
            outcome.observed[f"{name}.total_cycles"] = cycles
    return outcome


# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    #: False when the inputs are fixed by construction and the seed
    #: selects nothing; the recorded values then apply to every seed.
    seeded: bool
    load: object = field(repr=False)
    setup: object = field(repr=False)
    run: object = field(repr=False)
    check: object = field(repr=False)

    def verify(self, state, out, seed: int, expected: dict) -> Outcome:
        """``check`` plus the comparison with the recorded values."""
        outcome = self.check(state, out, seed)
        if not self.seeded or seed == DEFAULT_SEED:
            _compare_expected(outcome, expected.get(self.name))
        return outcome


WORKLOADS = {w.name: w for w in (
    Workload("em3d_exchange", True, _exchange_load, _exchange_setup,
             _exchange_run, _exchange_check),
    Workload("em3d_capacity", False, _capacity_load, _capacity_setup,
             _capacity_run, _capacity_check),
    Workload("paper_figures", False, _figures_load, _figures_setup,
             _figures_run, _figures_check),
    Workload("spmd_apps", True, _apps_load, _apps_setup, _apps_run,
             _apps_check),
)}
