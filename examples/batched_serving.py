"""Batched serving: many planning requests through one runtime context.

A site serving group recommendations does not solve one query at a time:
requests with different group sizes, constraints, solvers, and budgets
arrive together.  ``ExecutionContext.solve_many`` multiplexes a
heterogeneous batch over one shared compiled graph — small solves fan
out across the resident worker pool as whole-solve chunks, large ones
are stage-sharded across the same workers — and the results are
bit-identical to solving each request on its own.

Run:  python examples/batched_serving.py
"""

import time

from repro import (
    ExecutionContext,
    SolveRequest,
    WASOProblem,
    facebook_like,
)


def main() -> None:
    graph = facebook_like(400, seed=21)
    print(
        f"network: {graph.number_of_nodes()} people, "
        f"{graph.number_of_edges()} friendships"
    )

    # A mixed batch: different ks, a must-include organizer, a greedy
    # baseline request, and per-request seeds/budgets.
    anchor = graph.node_list()[0]
    requests = [
        SolveRequest(
            WASOProblem(graph=graph, k=8),
            "cbas-nd",
            rng=1,
            solver_kwargs={"budget": 300, "m": 20, "stages": 5},
        ),
        SolveRequest(
            WASOProblem(graph=graph, k=12, required=frozenset({anchor})),
            "cbas-nd",
            rng=2,
            solver_kwargs={"budget": 400, "m": 25, "stages": 5},
        ),
        SolveRequest(WASOProblem(graph=graph, k=6), "dgreedy"),
        SolveRequest(
            WASOProblem(graph=graph, k=10),
            "cbas",
            rng=4,
            solver_kwargs={"budget": 250, "m": 20, "stages": 5},
        ),
    ]

    with ExecutionContext() as ctx:
        started = time.perf_counter()
        results = ctx.solve_many(requests)
        elapsed = time.perf_counter() - started

    print(f"\nserved {len(requests)} requests in {elapsed * 1e3:.0f} ms:")
    for index, (request, result) in enumerate(zip(requests, results)):
        print(
            f"  #{index} {request.solver:8s} k={request.problem.k:3d} "
            f"W={result.willingness:8.2f} "
            f"members={sorted(result.members)[:6]}..."
        )

    # The batch is bit-identical to one-by-one solving.
    with ExecutionContext() as ctx:
        single = ctx.solve(
            requests[0].problem,
            requests[0].solver,
            rng=requests[0].rng,
            **requests[0].solver_kwargs,
        )
    assert single.members == results[0].members
    assert single.willingness == results[0].willingness
    print("\nbatched result #0 == standalone solve ✔")


if __name__ == "__main__":
    main()
