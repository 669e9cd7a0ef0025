"""Fig. 7(a-f): quality and time sweeps on the sparse DBLP-regime graph.

Paper claims reproduced as shape checks:

* (a,b) k sweep: CBAS-ND outperforms DGreedy decisively (paper: +92%) and
  RGreedy meaningfully (paper: +32%); RGreedy remains the slowest but is
  *relatively* cheaper than on Facebook because the sparse graph's
  frontiers grow slowly (average degree 3.7 vs 26);
* (c,d) m sweep: quality converges at moderate m, time grows with m;
* (e,f) T sweep: quality grows with T, CBAS-ND fastest-growing.
"""

from common import (
    RUN_SEED,
    assert_dominates,
    standard_algorithms,
    sweep,
)
from repro.algorithms.cbas import CBAS
from repro.algorithms.cbas_nd import CBASND
from repro.bench.datasets import bench_graph
from repro.bench.harness import ExperimentTable, shape_nondecreasing
from repro.core.problem import WASOProblem

N = 700
KS = (10, 20, 30)
MS = (5, 15, 30, 60)
BUDGETS = (200, 500, 1000, 2000)
REPEATS = 2


def _dblp_problem(k: int) -> WASOProblem:
    graph = bench_graph("dblp", N)
    return WASOProblem(graph=graph, k=k)


def run_k_sweep() -> tuple[ExperimentTable, ExperimentTable]:
    quality = ExperimentTable(
        title="Fig 7(a): quality vs k (DBLP-like)", x_label="k"
    )
    times = ExperimentTable(
        title="Fig 7(b): time (s) vs k (DBLP-like)", x_label="k"
    )
    sweep(
        quality,
        times,
        KS,
        problem_of=_dblp_problem,
        algorithms_of=standard_algorithms,
        repeats=REPEATS,
    )
    return quality, times


def run_m_sweep() -> tuple[ExperimentTable, ExperimentTable]:
    problem = _dblp_problem(10)
    quality = ExperimentTable(
        title="Fig 7(c): quality vs m (DBLP-like, k=10)", x_label="m"
    )
    times = ExperimentTable(
        title="Fig 7(d): time (s) vs m (DBLP-like, k=10)", x_label="m"
    )
    for m in MS:
        for name, factory in (
            ("CBAS", lambda: CBAS(budget=600, m=m, stages=6)),
            ("CBAS-ND", lambda: CBASND(budget=600, m=m, stages=6)),
        ):
            total_q, total_s = 0.0, 0.0
            for repeat in range(REPEATS):
                result = factory().solve(problem, rng=RUN_SEED + repeat)
                total_q += result.willingness
                total_s += result.stats.elapsed_seconds
            quality.add(name, m, total_q / REPEATS)
            times.add(name, m, total_s / REPEATS)
    return quality, times


def run_t_sweep() -> tuple[ExperimentTable, ExperimentTable]:
    problem = _dblp_problem(10)
    quality = ExperimentTable(
        title="Fig 7(e): quality vs T (DBLP-like, k=10)", x_label="T"
    )
    times = ExperimentTable(
        title="Fig 7(f): time (s) vs T (DBLP-like, k=10)", x_label="T"
    )
    for t in BUDGETS:
        for name, factory in (
            ("CBAS", lambda: CBAS(budget=t, m=25, stages=6)),
            ("CBAS-ND", lambda: CBASND(budget=t, m=25, stages=6)),
        ):
            total_q, total_s = 0.0, 0.0
            for repeat in range(REPEATS):
                result = factory().solve(problem, rng=RUN_SEED + repeat)
                total_q += result.willingness
                total_s += result.stats.elapsed_seconds
            quality.add(name, t, total_q / REPEATS)
            times.add(name, t, total_s / REPEATS)
    return quality, times


def run_experiment():
    return run_k_sweep(), run_m_sweep(), run_t_sweep()


def test_fig7_dblp(benchmark):
    (kq, kt), (mq, mt), (tq, tt) = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    for table in (kq, kt, mq, mt, tq, tt):
        table.show(fmt="{:.4f}")

    # (a) CBAS-ND decisively beats DGreedy on the sparse graph.
    assert_dominates(kq, "CBAS-ND", "DGreedy")
    top = max(KS)
    assert kq.series["CBAS-ND"].at(top) >= kq.series["DGreedy"].at(top) * 1.2
    # (a) CBAS-ND also beats RGreedy on most points.
    assert_dominates(kq, "CBAS-ND", "RGreedy", min_fraction_of_points=0.6)
    # (c) quality converges in m: mid-sweep within 20% of the max-m value.
    nd = mq.series["CBAS-ND"]
    assert nd.at(30) >= nd.at(60) * 0.8, mq.render()
    # (e) quality grows with T (15% noise slack).
    assert shape_nondecreasing(tq.series["CBAS-ND"], slack=0.15)


def _paper_scale(cache_dir) -> int:
    """n=10⁶ out-of-core demonstration (``--paper-scale``).

    Builds a million-node ring graph *directly in compiled-array form*
    (the dict-based SocialGraph would need gigabytes of adjacency dicts
    just to freeze it), saves it to the bench cache once, then serves a
    ``solve_many`` batch through two workers off the mmap-backed index —
    asserting the only graph traffic on the worker pipes is the O(1)
    path-install message, never the array pickle.
    """
    import pickle
    import time
    from array import array
    from pathlib import Path

    from common import BENCH_CACHE, MAX_PATH_INSTALL_BYTES
    from repro.graph.compiled import CompiledGraph
    from repro.graph.storage import MANIFEST_NAME, save_compiled
    from repro.runtime import ExecutionContext, SolveRequest

    n = 1_000_000
    index = Path(cache_dir or BENCH_CACHE) / f"ring-n{n}"
    if not (index / MANIFEST_NAME).is_file():
        started = time.perf_counter()
        ring = CompiledGraph.__new__(CompiledGraph)
        ring.nodes = list(range(n))
        ring.offsets = array("q", range(0, 2 * n + 1, 2))
        ring.targets = array(
            "q",
            (
                neighbour
                for node in range(n)
                for neighbour in ((node - 1) % n, (node + 1) % n)
            ),
        )
        # Constant scores: a·η=0.25, b=0.5, τ=1 both ways → pair weight
        # 0.5·1 + 0.5·1 = 1.0 on every edge.
        ring.out_w = array("d", [0.5]) * (2 * n)
        ring.pair_w = array("d", [1.0]) * (2 * n)
        ring.weighted_interest = array("d", [0.25]) * n
        ring.tightness_weight = array("d", [0.5]) * n
        # Potential = self-interest + two unit pair weights, with a small
        # deterministic ripple so the start ranking is not one giant tie.
        ring.potential = array(
            "d", (2.25 + (node % 97) / 970.0 for node in range(n))
        )
        ring._component_sizes = array("q", [n]) * n
        ring._component_labels = array("q", [0]) * n
        save_compiled(ring, index)
        print(
            f"compiled ring n={n} into {index} "
            f"in {time.perf_counter() - started:.1f}s"
        )

    started = time.perf_counter()
    compiled = CompiledGraph.load(index)
    load_s = time.perf_counter() - started
    problem = WASOProblem(graph=compiled.graph, k=10)
    install_bytes = len(
        pickle.dumps(
            ("graph_path", compiled.payload_token, compiled.disk_home, ())
        )
    )
    requests = [
        SolveRequest(
            problem, "cbas-nd", 1000 + offset, dict(budget=40, m=5, stages=2)
        )
        for offset in range(4)
    ]
    started = time.perf_counter()
    with ExecutionContext(workers=2) as context:
        # A fresh pool's lifetime counters are this batch's wire
        # traffic (each result reports only its own chunk's share).
        context.solve_many(requests, mode="solve")
        traffic = context.pool().counters()
    solve_s = time.perf_counter() - started
    index_bytes = sum(child.stat().st_size for child in index.iterdir())
    print(
        f"paper scale: n={n}, index {index_bytes / 1e6:.0f}MB on disk, "
        f"mmap load {load_s:.2f}s, 4-request batch over 2 workers "
        f"in {solve_s:.1f}s"
    )
    print(
        f"wire traffic: path install {install_bytes}B, batch payload "
        f"{traffic['payload_bytes']}B, "
        f"{traffic['installs']} graph installs"
    )
    failures = []
    if install_bytes > MAX_PATH_INSTALL_BYTES:
        failures.append(
            f"path install {install_bytes}B exceeds the "
            f"{MAX_PATH_INSTALL_BYTES}B gate"
        )
    if traffic["installs"] != 2:
        failures.append(
            "expected one install per worker (2), saw "
            f"{traffic['installs']}"
        )
    if traffic["payload_bytes"] > 100_000:
        failures.append(
            f"batch payload {traffic['payload_bytes']}B — a full "
            "array pickle crossed the worker pipes"
        )
    compiled.close()
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("paper-scale demonstration passed")
    return 0


if __name__ == "__main__":
    import sys

    from common import run_mmap_residency_cli

    def _tables() -> None:
        for pair in run_experiment():
            for table in pair:
                table.show(fmt="{:.4f}")

    sys.exit(
        run_mmap_residency_cli("dblp", _tables, paper_scale=_paper_scale)
    )
