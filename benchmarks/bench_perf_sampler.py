"""Tier-2 perf benchmark: compiled sampling kernel vs dict-based reference.

Measures, on synthetic Facebook-regime graphs of n ∈ {1k, 10k}:

* ``add_delta`` micro-kernel throughput (calls/sec) for both evaluators —
  a tracking metric: with pair weights cached, the dict path is already
  near-optimal for single id-keyed probes, so no speedup is asserted
  here (the compiled layout's win is the sampler's int-indexed loop,
  where generation stamps replace hashing entirely);
* raw sampler ``draw`` throughput (samples/sec, uniform expansion from the
  CBAS start-node pool) for both paths;
* end-to-end uniform CBAS solve throughput (samples drawn per second of
  solve time) for both engines — this is where the compiled index's
  amortization (frozen evaluator, O(1) start ranking, cached seed state,
  skipped per-draw connectivity BFS) compounds with the fast kernel;
* end-to-end CBAS-ND solve throughput for both engines — this adds the
  cross-entropy machinery on top: the elite refit after every stage and
  the weighted frontier draw, which the compiled engine serves from the
  array-backed ``SelectionProbabilities`` (one list index per frontier
  slot, elite counts off ``Sample.indices``) versus the reference
  engine's per-node dict probes;
* end-to-end CBAS and CBAS-ND throughput for the **vector** engine —
  the numpy stage-batched kernel (``repro.vector``), which replaces the
  per-draw expansion loop with one batched kernel call per OCBA stage.
  Its solutions are not bit-identical to the scalar engines (positional
  Philox randomness, reassociated float sums), so no
  ``identical_solutions`` check applies; the differential oracle lives
  in ``tests/test_vector.py``;
* pool worker payload sizes: the detached compiled-arrays payload
  (``WASOProblem.detached()``) versus the historical dict-graph pickle
  — gated on the slim number only, since the resident pool never ships
  the dict graph (and a detached problem has no dict size at all);
* the resident serving session (``resident_solve``): wire-level payload
  bytes of a ``solve_many`` session on the n=10k graph — the first
  batch installs the detached arrays once per worker, the second batch
  and an interleaved replan ship only O(1) specs, so the per-batch
  payload series drops from megabytes to hundreds of bytes;
* stage-sharded CBAS-ND (``repro.parallel.stage_pool``) wall clock on
  one large n=10k solve (T=3200, 4 workers, persistent pool, payload
  resident before timing) versus the serial compiled engine — the
  speedup the best-of budget split cannot deliver by construction.

Results are persisted to ``BENCH_sampler.json`` next to the repo root so
future PRs can diff against them.  Acceptance gates, all measured in the
same run: the compiled engine delivers ≥3× samples/sec for uniform CBAS
expansion on the n=10k graph, ≥2× for CBAS-ND on the n=10k graph, the
vector engine ≥5× over the dict reference for CBAS-ND on the n=10k
graph, the
slim worker payload is strictly smaller than the dict-graph pickle, the
resident session performs exactly one graph install per (graph, worker)
pair, both engines return identical seeded solutions, and — on machines
with at least 4 CPUs — the stage-sharded solve beats the serial wall
clock by ≥1.5× (machines with fewer cores record the numbers without
gating, matching ``bench_fig5_parallel``'s convention).

Regression checking: ``python benchmarks/bench_perf_sampler.py --check``
re-measures and compares against the *committed* ``BENCH_sampler.json``
without overwriting it, failing (exit 1) on any throughput metric more
than 20% below the baseline or on growth of any shipped payload byte
count (the slim arrays and the resident-session series; pickle sizes
are deterministic, so any growth is a real regression).  Payload bytes
are also machine-independent, so the tier-2 marker exposes them as a
standalone gate: ``pytest benchmarks/ -m tier2`` runs the payload
regression check (plus the multi-core wall-clock gates where the CPUs
exist) — the CI job documented in ROADMAP.md.  Throughput baselines are
machine-specific — regenerate them (run without ``--check``) when the
hardware changes.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.algorithms.cbas import CBAS
from repro.algorithms.cbas_nd import CBASND
from repro.algorithms.sampling import ExpansionSampler, seed_for_start
from repro.algorithms.start_nodes import select_start_nodes
from repro.bench.datasets import bench_graph
from repro.bench.harness import dump_json
from repro.core.problem import WASOProblem
from repro.core.willingness import evaluator_for
from repro.parallel.pool import worker_payload_bytes
from repro.runtime import ExecutionContext

NS = (1000, 10000)
K = 10
START_NODES = 30
DRAWS_PER_START = {1000: 60, 10000: 60}
ADD_DELTA_CALLS = 20_000
CBAS_BUDGET = 600
CBASND_BUDGET = 600
CBASND_STAGES = 6
STAGE_PARALLEL_N = 10000
STAGE_PARALLEL_BUDGET = 3200
STAGE_PARALLEL_WORKERS = 4
RESIDENT_N = 10000
RESIDENT_WORKERS = 2
RESIDENT_REQUESTS = 6
RESIDENT_BUDGET = 60
JSON_PATH = Path(__file__).parent.parent / "BENCH_sampler.json"

#: Acceptance gate for the n=10k uniform-CBAS expansion speedup.
MIN_CBAS_SPEEDUP = 3.0
#: Acceptance gate for the n=10k CBAS-ND (CE update + weighted frontier).
MIN_CBASND_SPEEDUP = 2.0
#: Acceptance gate for the vector engine's n=10k CBAS-ND solve over the
#: dict reference path (the PR-7 tentpole number).
MIN_VECTOR_CBASND_SPEEDUP = 5.0
#: Acceptance gate for the stage-sharded n=10k solve (needs >= 4 CPUs).
MIN_STAGE_PARALLEL_SPEEDUP = 1.5
#: --check fails when a throughput metric drops below baseline by more
#: than this fraction.
THROUGHPUT_TOLERANCE = 0.2


def _bench_add_delta(problem: WASOProblem, engine: str) -> float:
    """add_delta calls/sec against a fixed random group."""
    graph = problem.graph
    evaluator = evaluator_for(graph, engine)
    rng = random.Random(11)
    nodes = graph.node_list()
    group = set(rng.sample(nodes, K))
    probes = [node for node in rng.choices(nodes, k=500) if node not in group]
    add_delta = evaluator.add_delta
    calls = 0
    started = time.perf_counter()
    while calls < ADD_DELTA_CALLS:
        for node in probes:
            add_delta(node, group)
        calls += len(probes)
    elapsed = time.perf_counter() - started
    return calls / elapsed


def _bench_draw(problem: WASOProblem, engine: str, n: int) -> float:
    """Uniform draw samples/sec from the CBAS start-node pool."""
    evaluator = evaluator_for(problem.graph, engine)
    sampler = ExpansionSampler(problem, evaluator)
    starts = select_start_nodes(problem, evaluator, START_NODES)
    seeds = [seed_for_start(problem, start) for start in starts]
    rng = random.Random(7)
    for seed in seeds:  # warm caches outside the timed region
        sampler.draw(seed, rng)
    per_start = DRAWS_PER_START[n]
    drawn = 0
    started = time.perf_counter()
    for seed in seeds:
        for _ in range(per_start):
            if sampler.draw(seed, rng) is not None:
                drawn += 1
    elapsed = time.perf_counter() - started
    return drawn / elapsed


def _bench_cbas(problem: WASOProblem, engine: str) -> tuple[float, object]:
    """End-to-end uniform CBAS: (samples/sec of solve time, solution)."""
    solver = CBAS(budget=CBAS_BUDGET, m=START_NODES, stages=8, engine=engine)
    solver.solve(problem, rng=1)  # warm-up solve
    best_rate, solution = 0.0, None
    for _ in range(3):
        started = time.perf_counter()
        result = solver.solve(problem, rng=7)
        elapsed = time.perf_counter() - started
        best_rate = max(best_rate, result.stats.samples_drawn / elapsed)
        solution = result
    return best_rate, solution


def _bench_cbas_nd(problem: WASOProblem, engine: str) -> tuple[float, object]:
    """End-to-end CBAS-ND: CE elite refit + weighted frontier draws."""
    solver = CBASND(
        budget=CBASND_BUDGET,
        m=START_NODES,
        stages=CBASND_STAGES,
        engine=engine,
    )
    solver.solve(problem, rng=1)  # warm-up solve
    best_rate, solution = 0.0, None
    for _ in range(3):
        started = time.perf_counter()
        result = solver.solve(problem, rng=7)
        elapsed = time.perf_counter() - started
        best_rate = max(best_rate, result.stats.samples_drawn / elapsed)
        solution = result
    return best_rate, solution


def _bench_stage_parallel(problem: WASOProblem) -> dict:
    """Wall clock of one big CBAS-ND solve: serial vs stage-sharded.

    Both sides get one untimed warm-up solve (index freeze, seed caches,
    and — for the sharded engine — pool startup and payload residency,
    which a persistent pool amortizes across solves) and then keep the
    best of three timed solves.
    """

    def best_wall(solver) -> tuple[float, object]:
        solver.solve(problem, rng=1)  # warm-up
        best, result = float("inf"), None
        for _ in range(3):
            started = time.perf_counter()
            outcome = solver.solve(problem, rng=7)
            elapsed = time.perf_counter() - started
            if elapsed < best:
                best, result = elapsed, outcome
        return best, result

    serial_solver = CBASND(
        budget=STAGE_PARALLEL_BUDGET, m=START_NODES, stages=CBASND_STAGES
    )
    serial_wall, serial_result = best_wall(serial_solver)
    with ExecutionContext(
        workers=STAGE_PARALLEL_WORKERS, mode="stage"
    ) as context:
        sharded_solver = context.make_solver(
            "cbas-nd",
            budget=STAGE_PARALLEL_BUDGET,
            m=START_NODES,
            stages=CBASND_STAGES,
        )
        sharded_wall, sharded_result = best_wall(sharded_solver)
    extra = sharded_result.stats.extra
    return {
        "n": STAGE_PARALLEL_N,
        "budget": STAGE_PARALLEL_BUDGET,
        "stages": CBASND_STAGES,
        "workers": STAGE_PARALLEL_WORKERS,
        "cpu_count": os.cpu_count() or 1,
        "serial_seconds": serial_wall,
        "sharded_seconds": sharded_wall,
        "speedup": serial_wall / sharded_wall,
        "serial_willingness": serial_result.willingness,
        "sharded_willingness": sharded_result.willingness,
        # Shard-protocol overhead (ROADMAP "overhead curve"): worker
        # round trips and per-stage CE-patch bytes of the timed solve.
        "shard_rpcs": extra.get("shard_rpcs"),
        "shard_patch_bytes": extra.get("shard_patch_bytes"),
    }


def _bench_resident_solve(problem: WASOProblem) -> dict:
    """Wire-level payload series of a resident serving session.

    Drives ``solve_many`` twice plus an interleaved replan over the same
    problem through one :class:`ExecutionContext` and records what each
    step actually pickled onto the worker pipes: the first batch
    installs the detached graph arrays exactly once per worker, the
    second batch and the replan ship only O(1) specs.  The byte counts
    are deterministic (pure pickle sizes), so ``--check`` and the tier-2
    payload gate treat any growth as a regression.
    """
    from repro.online import OnlinePlanner
    from repro.runtime import SolveRequest

    slim = worker_payload_bytes(problem)["compiled_arrays_bytes"]

    def batch():
        return [
            SolveRequest(
                problem, "cbas-nd", seed,
                dict(budget=RESIDENT_BUDGET, m=10, stages=3),
            )
            for seed in range(RESIDENT_REQUESTS)
        ]

    with ExecutionContext(workers=RESIDENT_WORKERS) as context:
        first = context.solve_many(batch(), mode="solve")
        installs_first = context.pool().installs
        with OnlinePlanner(
            problem,
            solver=context.make_solver("cbas-nd", budget=80, m=10, stages=2),
            rng=5,
            context=context,
        ) as planner:
            group = planner.plan()
            planner.record_decline(next(iter(sorted(group.members))))
        installs_replan = context.pool().installs
        second = context.solve_many(batch(), mode="solve")
        installs_second = context.pool().installs
        # A warm forced-solve-mode single solve exercises the resident
        # best-of path non-vacuously (the planner's small replans route
        # serial by design, so they could never re-ship anything): the
        # graph must already be resident in both workers.
        warm = context.solve(
            problem, "cbas-nd", rng=9, mode="solve",
            budget=RESIDENT_BUDGET, m=10, stages=3,
        )
    first_extra = first[0].stats.extra
    second_extra = second[0].stats.extra
    return {
        "n": RESIDENT_N,
        "workers": RESIDENT_WORKERS,
        "requests": RESIDENT_REQUESTS,
        "budget": RESIDENT_BUDGET,
        "detached_graph_bytes": slim,
        "first_batch_payload_bytes": first_extra["batch_payload_bytes"],
        "first_batch_graph_installs": first_extra["graph_installs"],
        "second_batch_payload_bytes": second_extra["batch_payload_bytes"],
        "second_batch_graph_installs": second_extra["graph_installs"],
        "replan_graph_installs": installs_replan - installs_first,
        "warm_solve_graph_installs": warm.stats.extra["graph_installs"],
        "warm_solve_payload_bytes": warm.stats.extra["batch_payload_bytes"],
        "session_graph_installs": installs_second,
    }


def run_experiment(write: bool = True) -> dict:
    payload: dict = {"k": K, "start_nodes": START_NODES, "sizes": {}}
    for n in NS:
        problem = WASOProblem(graph=bench_graph("facebook", n), k=K)
        problem.compiled()  # one-shot freeze, reused by every compiled run
        entry: dict = {}
        for engine in ("reference", "compiled"):
            entry[engine] = {
                "add_delta_per_sec": _bench_add_delta(problem, engine),
                "draw_samples_per_sec": _bench_draw(problem, engine, n),
            }
            rate, result = _bench_cbas(problem, engine)
            entry[engine]["cbas_samples_per_sec"] = rate
            entry[engine]["cbas_willingness"] = result.willingness
            entry[engine]["cbas_members"] = sorted(
                map(repr, result.members)
            )
            nd_rate, nd_result = _bench_cbas_nd(problem, engine)
            entry[engine]["cbas_nd_samples_per_sec"] = nd_rate
            entry[engine]["cbas_nd_willingness"] = nd_result.willingness
            entry[engine]["cbas_nd_members"] = sorted(
                map(repr, nd_result.members)
            )
        # The vector engine skips the scalar micro-kernels (its add_delta
        # and single-draw paths are the inherited compiled ones); the
        # end-to-end solves are where its batched kernel runs.
        entry["vector"] = {}
        rate, result = _bench_cbas(problem, "vector")
        entry["vector"]["cbas_samples_per_sec"] = rate
        entry["vector"]["cbas_willingness"] = result.willingness
        entry["vector"]["cbas_members"] = sorted(map(repr, result.members))
        nd_rate, nd_result = _bench_cbas_nd(problem, "vector")
        entry["vector"]["cbas_nd_samples_per_sec"] = nd_rate
        entry["vector"]["cbas_nd_willingness"] = nd_result.willingness
        entry["vector"]["cbas_nd_members"] = sorted(
            map(repr, nd_result.members)
        )
        for metric in (
            "add_delta_per_sec",
            "draw_samples_per_sec",
            "cbas_samples_per_sec",
            "cbas_nd_samples_per_sec",
        ):
            entry[f"speedup_{metric}"] = (
                entry["compiled"][metric] / entry["reference"][metric]
            )
        for metric in ("cbas_samples_per_sec", "cbas_nd_samples_per_sec"):
            entry[f"speedup_vector_{metric}"] = (
                entry["vector"][metric] / entry["reference"][metric]
            )
        entry["identical_solutions"] = (
            entry["compiled"]["cbas_willingness"]
            == entry["reference"]["cbas_willingness"]
            and entry["compiled"]["cbas_members"]
            == entry["reference"]["cbas_members"]
            and entry["compiled"]["cbas_nd_willingness"]
            == entry["reference"]["cbas_nd_willingness"]
            and entry["compiled"]["cbas_nd_members"]
            == entry["reference"]["cbas_nd_members"]
        )
        entry["worker_payload"] = worker_payload_bytes(problem)
        payload["sizes"][str(n)] = entry
        if n == RESIDENT_N:
            payload["resident_solve"] = _bench_resident_solve(problem)
        if n == STAGE_PARALLEL_N:
            payload["stage_parallel"] = _bench_stage_parallel(problem)
    if write:
        # Merge: other benches own their own top-level series in the
        # same file (``serving_daemon`` from bench_serving_daemon.py)
        # — regenerating this one must not drop theirs.
        merged: dict = {}
        if JSON_PATH.exists():
            with open(JSON_PATH, encoding="utf-8") as handle:
                merged = json.load(handle)
        merged.update(payload)
        dump_json(str(JSON_PATH), merged)
    return payload


def check_against_baseline(fresh: dict, baseline: dict) -> list[str]:
    """Compare a fresh run against the committed baseline.

    Returns human-readable failure strings: any ``*_per_sec`` metric more
    than ``THROUGHPUT_TOLERANCE`` below baseline, and any *shipped*
    payload byte count above baseline (pickle sizes are deterministic,
    so any growth is a real regression, not noise).  The payload gate
    covers the slim number only — ``compiled_arrays_bytes`` plus the
    ``resident_solve`` wire series — because the dict-graph pickle is
    never shipped by the resident pool (and does not exist at all for a
    detached problem, where it reports ``None``).
    """
    failures: list[str] = []
    for n, base_entry in baseline.get("sizes", {}).items():
        fresh_entry = fresh.get("sizes", {}).get(n)
        if fresh_entry is None:
            failures.append(f"n={n}: missing from fresh results")
            continue
        for engine in ("reference", "compiled", "vector"):
            for metric, base_value in base_entry.get(engine, {}).items():
                if not metric.endswith("_per_sec"):
                    continue
                fresh_value = fresh_entry.get(engine, {}).get(metric)
                if fresh_value is None:
                    failures.append(
                        f"n={n} {engine} {metric}: missing from fresh "
                        "results (baseline schema drift — regenerate it)"
                    )
                    continue
                floor = base_value * (1.0 - THROUGHPUT_TOLERANCE)
                if fresh_value < floor:
                    failures.append(
                        f"n={n} {engine} {metric}: {fresh_value:,.0f}/s is "
                        f">{THROUGHPUT_TOLERANCE:.0%} below baseline "
                        f"{base_value:,.0f}/s"
                    )
        base_bytes = base_entry.get("worker_payload", {}).get(
            "compiled_arrays_bytes"
        )
        fresh_bytes = fresh_entry.get("worker_payload", {}).get(
            "compiled_arrays_bytes"
        )
        if base_bytes is not None:
            if fresh_bytes is None:
                failures.append(
                    f"n={n} worker_payload compiled_arrays_bytes: missing "
                    "from fresh results (baseline schema drift — "
                    "regenerate it)"
                )
            elif fresh_bytes > base_bytes:
                failures.append(
                    f"n={n} worker_payload compiled_arrays_bytes: "
                    f"{fresh_bytes}B grew past baseline {base_bytes}B"
                )
    failures.extend(_check_resident_series(fresh, baseline))
    return failures


def _check_resident_series(fresh: dict, baseline: dict) -> list[str]:
    """Payload-byte regression check for the resident-session series."""
    failures: list[str] = []
    base_resident = baseline.get("resident_solve")
    if not base_resident:
        return failures
    fresh_resident = fresh.get("resident_solve") or {}
    for field in (
        "detached_graph_bytes",
        "first_batch_payload_bytes",
        "second_batch_payload_bytes",
        "warm_solve_payload_bytes",
    ):
        base_value = base_resident.get(field)
        if base_value is None:
            continue
        fresh_value = fresh_resident.get(field)
        if fresh_value is None:
            failures.append(
                f"resident_solve {field}: missing from fresh results "
                "(baseline schema drift — regenerate it)"
            )
        elif fresh_value > base_value:
            failures.append(
                f"resident_solve {field}: {fresh_value}B grew past "
                f"baseline {base_value}B"
            )
    for field in (
        "first_batch_graph_installs",
        "second_batch_graph_installs",
        "replan_graph_installs",
        "warm_solve_graph_installs",
        "session_graph_installs",
    ):
        base_value = base_resident.get(field)
        fresh_value = fresh_resident.get(field)
        if base_value is not None and fresh_value != base_value:
            failures.append(
                f"resident_solve {field}: {fresh_value} != baseline "
                f"{base_value} (the session must ship each graph exactly "
                "once per worker)"
            )
    return failures


def test_perf_sampler(benchmark):
    payload = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for n, entry in payload["sizes"].items():
        print(
            f"n={n}: add_delta {entry['speedup_add_delta_per_sec']:.2f}x, "
            f"draw {entry['speedup_draw_samples_per_sec']:.2f}x, "
            f"cbas {entry['speedup_cbas_samples_per_sec']:.2f}x, "
            f"cbas-nd {entry['speedup_cbas_nd_samples_per_sec']:.2f}x, "
            f"vector cbas-nd "
            f"{entry['speedup_vector_cbas_nd_samples_per_sec']:.2f}x"
        )
        # Seeded solutions must agree bit-for-bit between the scalar
        # engines (the vector engine is tolerance-checked in
        # tests/test_vector.py, not here).
        assert entry["identical_solutions"]
        # The compiled sampler must never lose to the dict path.
        assert entry["speedup_draw_samples_per_sec"] > 1.0
        assert entry["speedup_cbas_samples_per_sec"] > 1.0
        assert entry["speedup_cbas_nd_samples_per_sec"] > 1.0
        # The batched vector kernel must never lose to the dict path
        # either, at any size.
        assert entry["speedup_vector_cbas_nd_samples_per_sec"] > 1.0
        # The slim pool payload must undercut the dict-graph pickle.
        sizes = entry["worker_payload"]
        assert sizes["compiled_arrays_bytes"] < sizes["dict_graph_bytes"], (
            "compiled-arrays worker payload is not smaller than the "
            f"dict-graph pickle: {sizes}"
        )
    # Headline gates at n=10k: uniform CBAS expansion and CBAS-ND's
    # CE update + weighted frontier.
    big = payload["sizes"]["10000"]
    assert big["speedup_cbas_samples_per_sec"] >= MIN_CBAS_SPEEDUP, (
        "compiled CBAS expansion fell below the 3x acceptance gate: "
        f"{big['speedup_cbas_samples_per_sec']:.2f}x"
    )
    assert big["speedup_cbas_nd_samples_per_sec"] >= MIN_CBASND_SPEEDUP, (
        "compiled CBAS-ND fell below the 2x acceptance gate: "
        f"{big['speedup_cbas_nd_samples_per_sec']:.2f}x"
    )
    assert (
        big["speedup_vector_cbas_nd_samples_per_sec"]
        >= MIN_VECTOR_CBASND_SPEEDUP
    ), (
        "vector CBAS-ND fell below the 5x acceptance gate over the dict "
        f"reference: {big['speedup_vector_cbas_nd_samples_per_sec']:.2f}x"
    )
    # The resident serving session: exactly one graph install per
    # (graph, worker) pair, warm batches and replans ship only specs.
    resident = payload["resident_solve"]
    print(
        f"resident session n={resident['n']}: first batch "
        f"{resident['first_batch_payload_bytes']}B "
        f"({resident['first_batch_graph_installs']} installs), second "
        f"{resident['second_batch_payload_bytes']}B "
        f"({resident['second_batch_graph_installs']} installs)"
    )
    assert resident["first_batch_graph_installs"] == resident["workers"]
    assert resident["second_batch_graph_installs"] == 0
    assert resident["replan_graph_installs"] == 0
    assert resident["warm_solve_graph_installs"] == 0
    assert resident["session_graph_installs"] == resident["workers"]
    assert (
        resident["first_batch_payload_bytes"]
        > resident["detached_graph_bytes"]
        > resident["second_batch_payload_bytes"]
    )
    stage = payload["stage_parallel"]
    print(
        f"stage-parallel n={stage['n']} T={stage['budget']} "
        f"workers={stage['workers']}: serial {stage['serial_seconds']:.3f}s, "
        f"sharded {stage['sharded_seconds']:.3f}s "
        f"({stage['speedup']:.2f}x, {stage['cpu_count']} cpus)"
    )
    # The ≥1.5x wall-clock gate lives in the tier-2
    # ``test_stage_parallel_speedup_gate`` below — it needs the workers
    # to actually run in parallel, so it auto-skips on small machines
    # while a multi-core runner enforces it.  This test only records the
    # series.
    assert JSON_PATH.exists()


@pytest.mark.tier2
def test_payload_bytes_regression_gate():
    """Tier-2 gate: shipped payload bytes must not grow past the baseline.

    Pickle sizes are deterministic and machine-independent, so this gate
    runs everywhere the tier-2 job runs (no CPU-count skip): it
    re-measures the slim worker payloads and the resident-session wire
    series and fails on any growth — the resident protocol's
    ship-once-per-(graph, worker) invariant is checked exactly, not with
    a tolerance.
    """
    if not JSON_PATH.exists():
        pytest.skip(f"no committed baseline at {JSON_PATH}")
    with open(JSON_PATH, encoding="utf-8") as handle:
        committed = json.load(handle)
    fresh: dict = {"sizes": {}}
    for n_key, base_entry in committed.get("sizes", {}).items():
        if "worker_payload" not in base_entry:
            continue
        problem = WASOProblem(graph=bench_graph("facebook", int(n_key)), k=K)
        problem.compiled()
        fresh["sizes"][n_key] = {
            "worker_payload": worker_payload_bytes(problem)
        }
        if int(n_key) == RESIDENT_N:
            fresh["resident_solve"] = _bench_resident_solve(problem)
    failures = [
        line
        for line in check_against_baseline(fresh, committed)
        if "per_sec" not in line  # payload-only re-measurement
    ]
    assert not failures, "\n".join(failures)


@pytest.mark.tier2
def test_stage_parallel_speedup_gate():
    """Tier-2 gate: stage-sharded CBAS-ND beats serial by ≥1.5× wall clock.

    Enforced only where the workers can actually run in parallel: on
    machines with fewer than ``STAGE_PARALLEL_WORKERS`` CPUs the test
    skips with a visible reason (the 1-CPU CI container records ~0.8×,
    which is expected — the ``stage_parallel`` series in
    ``BENCH_sampler.json`` still tracks the numbers there).
    """
    cpus = os.cpu_count() or 1
    if cpus < STAGE_PARALLEL_WORKERS:
        pytest.skip(
            f"stage-parallel ≥{MIN_STAGE_PARALLEL_SPEEDUP}x wall-clock gate "
            f"needs ≥{STAGE_PARALLEL_WORKERS} CPUs to run the workers in "
            f"parallel; this machine has {cpus}"
        )
    problem = WASOProblem(graph=bench_graph("facebook", STAGE_PARALLEL_N), k=K)
    problem.compiled()
    stage = _bench_stage_parallel(problem)
    print(
        f"stage-parallel gate: serial {stage['serial_seconds']:.3f}s, "
        f"sharded {stage['sharded_seconds']:.3f}s ({stage['speedup']:.2f}x)"
    )
    assert stage["speedup"] >= MIN_STAGE_PARALLEL_SPEEDUP, (
        "stage-sharded CBAS-ND fell below the "
        f"{MIN_STAGE_PARALLEL_SPEEDUP}x wall-clock gate: "
        f"{stage['speedup']:.2f}x"
    )


def _print_summary(result: dict) -> None:
    for n, entry in result["sizes"].items():
        sizes = entry["worker_payload"]
        print(
            f"n={n}: add_delta {entry['speedup_add_delta_per_sec']:.2f}x, "
            f"draw {entry['speedup_draw_samples_per_sec']:.2f}x, "
            f"cbas {entry['speedup_cbas_samples_per_sec']:.2f}x, "
            f"cbas-nd {entry['speedup_cbas_nd_samples_per_sec']:.2f}x, "
            f"vector cbas-nd "
            f"{entry['speedup_vector_cbas_nd_samples_per_sec']:.2f}x, "
            f"identical={entry['identical_solutions']}, "
            f"payload {sizes['compiled_arrays_bytes']}B vs "
            f"{sizes['dict_graph_bytes']}B dict"
        )
    resident = result.get("resident_solve")
    if resident:
        print(
            f"resident session n={resident['n']} "
            f"workers={resident['workers']}: batch1 "
            f"{resident['first_batch_payload_bytes']}B "
            f"({resident['first_batch_graph_installs']} installs) -> "
            f"batch2 {resident['second_batch_payload_bytes']}B "
            f"({resident['second_batch_graph_installs']} installs), "
            f"replan installs {resident['replan_graph_installs']}"
        )
    stage = result.get("stage_parallel")
    if stage:
        print(
            f"stage-parallel n={stage['n']} T={stage['budget']} "
            f"workers={stage['workers']}: "
            f"serial {stage['serial_seconds']:.3f}s, "
            f"sharded {stage['sharded_seconds']:.3f}s "
            f"({stage['speedup']:.2f}x on {stage['cpu_count']} cpus)"
        )


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-measure and compare against the committed "
        "BENCH_sampler.json without overwriting it; exit 1 on >20%% "
        "throughput regression or any payload-size regression",
    )
    args = parser.parse_args()

    if args.check:
        if not JSON_PATH.exists():
            print(f"no baseline at {JSON_PATH}; run without --check first")
            sys.exit(2)
        with open(JSON_PATH, encoding="utf-8") as handle:
            committed = json.load(handle)
        fresh = run_experiment(write=False)
        _print_summary(fresh)
        problems = check_against_baseline(fresh, committed)
        if problems:
            print("\nREGRESSIONS against committed baseline:")
            for line in problems:
                print(f"  - {line}")
            sys.exit(1)
        print("\nno regressions against committed baseline")
    else:
        result = run_experiment()
        _print_summary(result)
        print(f"wrote {JSON_PATH}")
