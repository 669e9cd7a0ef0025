"""Fig. 5(d): CBAS-ND execution time with 1 / 2 / 4 / 8 workers.

The paper reports a ~7.6× speedup on 8 OpenMP threads.  CPython needs
processes instead of threads (GIL), so the reproduced claim is the
*shape*: wall-clock time decreases as workers are added, and multi-worker
runs beat the single-worker baseline.

The measured mode is the paper's loop, driven through the runtime layer
(:class:`~repro.runtime.ExecutionContext` owns the pool):

* ``stage_time`` / ``stage_quality`` — the stage-level sharded-CE mode
  (``mode="stage"``): one solve whose per-stage draws are sharded across
  the context's resident pool, so every CE refit sees the merged elites.
  Each context is warmed with an untimed solve (residency + OS-level
  warmup) before the timed run; one worker is the serial baseline.
* ``crash_recovery_time`` — the same warm max-worker stage solve with
  worker 0 SIGKILLed before its next RPC.  The shard seeds travel with
  the work, so the recovered result must be bit-identical to the clean
  run; the extra cost (respawn + graph re-ship + shard redraw) is the
  series' overhead point.

Streaming-mutation series (``graph_patch`` in ``BENCH_sampler.json``):
on the n=10k graph, an :class:`~repro.online.OnlinePlanner` with
``prune_declined=True`` plans once on a cold 2-worker pool (the
full detached-arrays install) and replans once after a decline — the
decline patches the frozen index in place, so the warm replan ships
only the sparse ``graph_patch`` record.  The recorded wire bytes are
pure pickle sizes, deterministic on any machine, so ``--check``
re-measures and gates *properties* rather than wall clock: the patch
must stay under 5% of the full install, and the warm patched replan
must perform zero graph installs.
"""

import json
import os
import time
from pathlib import Path

from repro.bench.datasets import bench_graph
from repro.bench.harness import ExperimentTable, dump_json, geometric_speedup
from repro.core.problem import WASOProblem
from repro.runtime import ExecutionContext

N = 600
K = 20
BUDGET = 1600
STAGES = 6
M = 20
WORKER_COUNTS = (1, 2, 4, 8)

#: The streaming-mutation series runs on the perf bench's big graph:
#: at n=10k the full install is megabytes while a decline's patch is
#: hundreds of bytes, so the gate has real headroom.
PATCH_N = 10_000
PATCH_WORKERS = 2
#: Patch wire bytes must stay under this fraction of the full install.
PATCH_FRACTION_GATE = 0.05

JSON_PATH = Path(__file__).parent.parent / "BENCH_sampler.json"


def run_experiment() -> ExperimentTable:
    graph = bench_graph("facebook", N)
    problem = WASOProblem(graph=graph, k=K)
    problem.compiled()  # freeze once, shared by every run below
    table = ExperimentTable(
        title=f"Fig 5(d): CBAS-ND time (s) vs workers (k={K}, T={BUDGET})",
        x_label="workers",
    )
    usable = [w for w in WORKER_COUNTS if w <= (os.cpu_count() or 1)]
    kwargs = dict(budget=BUDGET, m=M, stages=STAGES)
    for workers in usable:
        mode = "stage" if workers > 1 else "serial"
        with ExecutionContext(workers=workers) as context:
            # Warm-up solve: index freeze, seed caches, and (sharded)
            # pool startup + payload residency.
            context.solve(problem, "cbas-nd", rng=1, mode=mode, **kwargs)
            started = time.perf_counter()
            result = context.solve(
                problem, "cbas-nd", rng=3, mode=mode, **kwargs
            )
            elapsed = time.perf_counter() - started
            if workers > 1 and workers == max(usable):
                table.add(
                    "crash_recovery_time",
                    workers,
                    _timed_recovery(context, problem, result, kwargs),
                )
        table.add("stage_time", workers, elapsed)
        table.add("stage_quality", workers, result.willingness)
    return table


def _timed_recovery(context, problem, clean, kwargs) -> float:
    """Wall clock of the warm stage solve with worker 0 killed mid-solve."""
    from repro.parallel import NEXT_RPC, FaultPlan

    pool = context.pool()
    pool.fault_plan = FaultPlan(kills=[(0, NEXT_RPC)])
    try:
        started = time.perf_counter()
        recovered = context.solve(
            problem, "cbas-nd", rng=3, mode="stage", **kwargs
        )
        elapsed = time.perf_counter() - started
    finally:
        pool.fault_plan = None
    assert recovered.members == clean.members
    assert recovered.willingness == clean.willingness
    assert recovered.stats.samples_drawn == clean.stats.samples_drawn
    assert recovered.stats.extra["worker_restarts"] >= 1
    return elapsed


def measure_graph_patch() -> dict:
    """The ``graph_patch`` series: sparse deltas vs a full re-install.

    Cold plan → full detached-arrays install to every worker;
    decline → ``prune_declined`` patches the frozen index in place;
    warm replan → only the ``graph_patch`` record ships.  All byte
    counts are deterministic pickle sizes.
    """
    from repro.online import OnlinePlanner

    graph = bench_graph("facebook", PATCH_N)
    problem = WASOProblem(graph=graph, k=K)
    with ExecutionContext(workers=PATCH_WORKERS, mode="stage") as context:
        with OnlinePlanner(
            problem,
            solver=context.make_solver("cbas-nd", budget=160, m=10, stages=2),
            rng=5,
            prune_declined=True,
            context=context,
        ) as planner:
            group = planner.plan()
            cold = planner.last_result.stats.extra
            full_install_bytes = cold["batch_payload_bytes"]
            installs_before = context.pool().installs
            victim = next(iter(sorted(group.members, key=repr)))
            pruned_edges = graph.degree(victim)
            planner.record_decline(victim)
            warm = planner.last_result.stats.extra
            patch_bytes = warm.get("graph_patch_bytes", 0)
            replan_installs = context.pool().installs - installs_before
            assert not warm.get("graph_shipped"), warm
    return {
        "n": PATCH_N,
        "workers": PATCH_WORKERS,
        "full_install_bytes": full_install_bytes,
        "patch_bytes": patch_bytes,
        "patch_fraction": patch_bytes / full_install_bytes,
        "pruned_edges": pruned_edges,
        "warm_replan_graph_installs": replan_installs,
    }


def check_graph_patch(fresh: dict, committed: "dict | None") -> "list[str]":
    """Machine-independent gates for the streaming-mutation series."""
    problems = []
    if fresh["warm_replan_graph_installs"] != 0:
        problems.append(
            "warm patched replan performed "
            f"{fresh['warm_replan_graph_installs']} graph installs "
            "(expected 0: a decline must ship a sparse patch)"
        )
    limit = PATCH_FRACTION_GATE * fresh["full_install_bytes"]
    if fresh["patch_bytes"] >= limit:
        problems.append(
            f"graph_patch bytes {fresh['patch_bytes']} not under "
            f"{PATCH_FRACTION_GATE:.0%} of the full install "
            f"({fresh['full_install_bytes']}B)"
        )
    if committed:
        # Pickle sizes are deterministic: any growth is a regression.
        for key in ("patch_bytes", "full_install_bytes"):
            if fresh[key] > committed.get(key, fresh[key]):
                problems.append(
                    f"graph_patch.{key} grew: {committed[key]} -> "
                    f"{fresh[key]}"
                )
    return problems


def write_graph_patch(series: dict) -> None:
    """Merge the series into ``BENCH_sampler.json`` (other benches own
    their own top-level keys in the same file — never drop them)."""
    merged: dict = {}
    if JSON_PATH.exists():
        with open(JSON_PATH, encoding="utf-8") as handle:
            merged = json.load(handle)
    merged["graph_patch"] = series
    dump_json(str(JSON_PATH), merged)


def test_fig5d_parallel_speedup(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.show(fmt="{:.3f}")

    stage_times = table.series["stage_time"]
    workers = stage_times.xs()
    if len(workers) < 2:
        return  # single-core machine: nothing to compare
    baseline = stage_times.at(1)
    speedups = geometric_speedup(
        [stage_times.at(w) for w in workers], baseline=baseline
    )
    print(
        "stage-sharded speedups vs serial: "
        f"{[f'{s:.2f}x' for s in speedups]}"
    )
    recovery = table.series["crash_recovery_time"]
    clean = stage_times.at(max(workers))
    overhead = recovery.at(max(workers)) - clean
    print(
        f"crash-recovery overhead at {max(workers)} workers: "
        f"{overhead * 1e3:+.1f} ms over a {clean * 1e3:.1f} ms clean run"
    )
    # Shape: the best multi-worker run beats the serial baseline.
    assert min(stage_times.at(w) for w in workers[1:]) < baseline
    # Shape: stage shards refit from the full elite set, so quality must
    # stay comparable to the serial solve.
    qualities = table.series["stage_quality"]
    assert min(qualities.ys()) >= max(qualities.ys()) * 0.5


def _print_graph_patch(series: dict) -> None:
    print(
        f"graph_patch n={series['n']} workers={series['workers']}: "
        f"full install {series['full_install_bytes']}B -> decline patch "
        f"{series['patch_bytes']}B ({series['patch_fraction']:.2%}), "
        f"warm replan installs {series['warm_replan_graph_installs']}"
    )


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-measure the graph_patch series and gate it (patch "
        "bytes < 5%% of the full install, zero installs on the warm "
        "patched replan) against the committed BENCH_sampler.json "
        "without overwriting it; exit 1 on failure",
    )
    args = parser.parse_args()

    if args.check:
        committed = None
        if JSON_PATH.exists():
            with open(JSON_PATH, encoding="utf-8") as handle:
                committed = json.load(handle).get("graph_patch")
        fresh = measure_graph_patch()
        _print_graph_patch(fresh)
        problems = check_graph_patch(fresh, committed)
        if problems:
            print("\nREGRESSIONS in the graph_patch series:")
            for line in problems:
                print(f"  - {line}")
            sys.exit(1)
        print("\ngraph_patch gates hold")
    else:
        run_experiment().show(fmt="{:.3f}")
        series = measure_graph_patch()
        _print_graph_patch(series)
        write_graph_patch(series)
        print(f"wrote {JSON_PATH}")
