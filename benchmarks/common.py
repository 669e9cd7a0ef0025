"""Shared helpers for the figure-regeneration benches.

Every bench module regenerates one paper figure (or a panel group from
it): it runs the same algorithms over the same sweep the figure plots,
prints the series as a table, and asserts the figure's qualitative *shape*
claims.  Budgets follow the rule ``T = BUDGET_PER_K · k`` so the sampling
effort grows with the group size, as the paper's fixed-T experiments do
relative to their (much larger) graphs.

The benches run at laptop scale: graphs of ~600 nodes instead of the
paper's 90k–1.8M-node crawls (see DESIGN.md §3), with the same degree
regimes and score models.
"""

from __future__ import annotations

import json
import pickle
import statistics
from pathlib import Path
from typing import Callable, Optional

from repro.algorithms.base import Solver
from repro.algorithms.cbas import CBAS
from repro.algorithms.cbas_nd import CBASND
from repro.algorithms.dgreedy import DGreedy
from repro.algorithms.rgreedy import RGreedy
from repro.bench.harness import ExperimentTable
from repro.core.problem import WASOProblem

#: Seed used for every bench solver run (dataset seeds live in
#: repro.bench.datasets.BENCH_SEED).
RUN_SEED = 7

#: Sampling budget per unit of group size.
BUDGET_PER_K = 60

#: Number of OCBA / CE stages used by the staged solvers in benches.
STAGES = 8

#: Start-node count for the staged solvers (paper: well below n/k works).
START_NODES = 30


def budget_for(k: int) -> int:
    return BUDGET_PER_K * k


def standard_algorithms(k: int) -> dict[str, Solver]:
    """The paper's four-way comparison, configured for group size ``k``.

    RGreedy gets a smaller sample count because each of its samples costs
    O(frontier) willingness evaluations — exactly the cost structure the
    paper reports (RGreedy is ~10² slower at equal sample counts; giving
    it T/10 keeps bench runtimes sane while leaving it slower anyway).
    """
    t = budget_for(k)
    return {
        "DGreedy": DGreedy(),
        "RGreedy": RGreedy(budget=max(20, t // 10), m=15),
        "CBAS": CBAS(budget=t, m=START_NODES, stages=STAGES),
        "CBAS-ND": CBASND(budget=t, m=START_NODES, stages=STAGES),
    }


def sweep(
    table_quality: Optional[ExperimentTable],
    table_time: Optional[ExperimentTable],
    xs,
    problem_of: Callable[[object], WASOProblem],
    algorithms_of: Callable[[object], dict[str, Solver]],
    repeats: int = 1,
) -> None:
    """Run ``algorithms_of(x)`` on ``problem_of(x)`` for every sweep point.

    Quality is averaged over ``repeats`` solver seeds; time is the mean
    wall-clock per solve.
    """
    for x in xs:
        problem = problem_of(x)
        for name, solver in algorithms_of(x).items():
            qualities, times = [], []
            for repeat in range(repeats):
                result = solver.solve(problem, rng=RUN_SEED + repeat)
                qualities.append(result.willingness)
                times.append(result.stats.elapsed_seconds)
            if table_quality is not None:
                table_quality.add(name, x, statistics.fmean(qualities))
            if table_time is not None:
                table_time.add(name, x, statistics.fmean(times))


def assert_dominates(
    table: ExperimentTable,
    winner: str,
    loser: str,
    min_fraction_of_points: float = 0.6,
    slack: float = 1.0,
) -> None:
    """Shape check: ``winner`` beats ``loser`` on most sweep points.

    ``slack`` < 1 allows the winner to trail by that factor on the points
    it loses (randomized algorithms are noisy at bench scale).
    """
    win_series = table.series[winner]
    lose_series = table.series[loser]
    common = sorted(set(win_series.points) & set(lose_series.points))
    assert common, f"no common sweep points between {winner} and {loser}"
    wins = sum(
        1
        for x in common
        if win_series.points[x] >= lose_series.points[x] * slack
    )
    assert wins >= min_fraction_of_points * len(common), (
        f"{winner} beat {loser} on only {wins}/{len(common)} points:\n"
        + table.render()
    )


# ----------------------------------------------------------------------
# Out-of-core (mmap) residency series, shared by fig7/fig8
# ----------------------------------------------------------------------
#: Default bench index cache (gitignored scratch).
BENCH_CACHE = Path(__file__).parent / ".bench_cache"

#: Graph sizes the mmap residency series records and `--check` gates.
MMAP_RESIDENCY_NS = (10_000, 100_000)

#: Machine-independent gate: one path install (the pickled
#: ``("graph_path", token, path, evictions)`` message) must stay under
#: 1KB regardless of graph size — that is the whole point of the
#: out-of-core format.
MAX_PATH_INSTALL_BYTES = 1024

_BENCH_JSON = Path(__file__).parent.parent / "BENCH_sampler.json"


def bench_index(family: str, n: int, cache_dir=None) -> Path:
    """The on-disk compiled index for one bench graph, compiled once.

    The index is keyed by ``(family, n)`` under the bench cache; when
    the manifest already exists nothing is generated or compiled —
    repeated bench runs (and ``--check`` on a warm cache) skip straight
    to the mmap load.
    """
    from repro.bench.datasets import bench_graph
    from repro.graph.storage import MANIFEST_NAME, save_compiled

    index = Path(cache_dir or BENCH_CACHE) / f"{family}-n{n}"
    if not (index / MANIFEST_NAME).is_file():
        save_compiled(bench_graph(family, n).compiled(), index)
    return index


def mmap_residency_entry(family: str, n: int, cache_dir=None) -> dict:
    """Measure one family/size point of the ``mmap_residency`` series.

    Loads the cached index mmap-backed and drives a cold batch plus a
    warm batch of ``solve_many`` through a two-worker pool, recording
    the wire bytes: ``path_install_bytes`` is the pickled path-install
    message (O(1) at any n — the gated number), the batch payload series
    shows cold ≈ warm ≈ spec-sized, and ``index_bytes`` is what stayed
    on disk instead of crossing the pipes.
    """
    from repro.graph.compiled import CompiledGraph
    from repro.runtime import ExecutionContext, SolveRequest

    index = bench_index(family, n, cache_dir)
    compiled = CompiledGraph.load(index)
    problem = WASOProblem(graph=compiled.graph, k=10)
    install_message = pickle.dumps(
        ("graph_path", compiled.payload_token, compiled.disk_home, ())
    )

    def batch(seed0: int) -> list:
        return [
            SolveRequest(
                problem, "cbas-nd", seed0 + offset,
                dict(budget=60, m=10, stages=3),
            )
            for offset in range(4)
        ]

    with ExecutionContext(workers=2) as context:
        # A batch's wire traffic is the pool's counter window around it
        # (each result reports only its own chunk's share).
        counters = context.pool().counters
        before = counters()
        context.solve_many(batch(0), mode="solve")
        cold = counters() - before
        before = counters()
        context.solve_many(batch(100), mode="solve")
        warm = counters() - before
    entry = {
        "n": n,
        "workers": 2,
        "index_bytes": sum(
            child.stat().st_size for child in index.iterdir()
        ),
        "path_install_bytes": len(install_message),
        "cold_batch_payload_bytes": cold["payload_bytes"],
        "cold_graph_installs": cold["installs"],
        "warm_batch_payload_bytes": warm["payload_bytes"],
        "warm_graph_installs": warm["installs"],
    }
    compiled.close()
    return entry


def record_mmap_residency(family: str, cache_dir=None) -> dict:
    """Measure the series for ``family`` and merge it into the bench JSON.

    Other top-level series (``sizes``, ``resident_solve``,
    ``serving_daemon``) and the other family's sub-series are preserved
    — each bench owns exactly its own key.
    """
    entries = {
        str(n): mmap_residency_entry(family, n, cache_dir)
        for n in MMAP_RESIDENCY_NS
    }
    merged: dict = {}
    if _BENCH_JSON.exists():
        merged = json.loads(_BENCH_JSON.read_text(encoding="utf-8"))
    merged.setdefault("mmap_residency", {})[family] = entries
    _BENCH_JSON.write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return entries


def check_mmap_residency(family: str, cache_dir=None) -> list:
    """Machine-independent ``--check`` gate for the mmap series.

    Re-measures (compiling only on a cold cache) and fails when a path
    install exceeds :data:`MAX_PATH_INSTALL_BYTES` at any gated size, or
    when the warm batch re-installed anything.  Returns failure strings.
    """
    failures = []
    for n in MMAP_RESIDENCY_NS:
        entry = mmap_residency_entry(family, n, cache_dir)
        if entry["path_install_bytes"] > MAX_PATH_INSTALL_BYTES:
            failures.append(
                f"{family} n={n}: path install is "
                f"{entry['path_install_bytes']}B "
                f"(> {MAX_PATH_INSTALL_BYTES}B gate)"
            )
        if entry["warm_graph_installs"]:
            failures.append(
                f"{family} n={n}: warm batch re-installed the graph "
                f"({entry['warm_graph_installs']} installs; expected 0)"
            )
        if entry["cold_graph_installs"] != entry["workers"]:
            failures.append(
                f"{family} n={n}: cold batch performed "
                f"{entry['cold_graph_installs']} installs "
                f"(expected one per worker = {entry['workers']})"
            )
        print(
            f"mmap_residency {family} n={n}: "
            f"index {entry['index_bytes']}B on disk, "
            f"path install {entry['path_install_bytes']}B, "
            f"cold batch {entry['cold_batch_payload_bytes']}B "
            f"({entry['cold_graph_installs']} installs), "
            f"warm batch {entry['warm_batch_payload_bytes']}B "
            f"({entry['warm_graph_installs']} installs)"
        )
    return failures


def run_mmap_residency_cli(
    family: str, tables, argv=None, paper_scale=None
) -> int:
    """Shared ``__main__`` flow for the fig7/fig8 benches.

    Default run: regenerate the figure tables (``tables`` is the
    caller's print-the-figure thunk) *and* record the family's
    ``mmap_residency`` series.  ``--check``: only the
    machine-independent residency gate (exit 1 on failure).
    ``--paper-scale`` (fig7) runs the n=10⁶ demonstration.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description=f"figure bench + mmap residency series ({family})"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="machine-independent gate: path-install bytes <= "
        f"{MAX_PATH_INSTALL_BYTES} at n in {MMAP_RESIDENCY_NS} "
        "(compiles into the cache only when cold; does not rewrite "
        "BENCH_sampler.json)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"compiled-index cache directory (default: {BENCH_CACHE})",
    )
    if paper_scale is not None:
        parser.add_argument(
            "--paper-scale",
            action="store_true",
            help="n=10^6 synthetic demonstration: compile to disk once, "
            "serve solve_many through workers, assert O(1) installs",
        )
    args = parser.parse_args(argv)
    if paper_scale is not None and getattr(args, "paper_scale", False):
        return paper_scale(args.cache_dir)
    if args.check:
        failures = check_mmap_residency(family, args.cache_dir)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print("mmap residency gate passed")
        return 0
    tables()
    record_mmap_residency(family, args.cache_dir)
    return 0
