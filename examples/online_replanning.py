"""Online re-planning (paper §4.4.1): attendees decline, the plan adapts.

After the first recommendation goes out, responses arrive one by one.
Confirmed attendees are locked in; each decline triggers a fast re-plan
that keeps the confirmations and routes around the decliner.

Run:  python examples/online_replanning.py
"""

import random

from repro import ExecutionContext, WASOProblem, facebook_like
from repro.online import OnlinePlanner


def main() -> None:
    graph = facebook_like(300, seed=11)
    problem = WASOProblem(graph=graph, k=10)
    # The runtime context owns the pool; replans and fresh solves share
    # one resident pool when routing goes parallel.
    # The with-block holds the creation reference, so the pool is torn
    # down at exit once the planner has also released its co-ownership.
    with ExecutionContext() as context:
        planner = OnlinePlanner(
            problem,
            solver=context.make_solver("cbas-nd", budget=300, m=20, stages=5),
            rng=11,
            context=context,
        )
        run_session(planner)


def run_session(planner: OnlinePlanner) -> None:
    plan = planner.plan()
    print(f"initial plan (W={plan.willingness:.2f}): {sorted(plan.members)}")

    # Simulate responses: each invitee accepts with probability 0.7.
    rng = random.Random(11)
    for node in sorted(plan.members):
        if rng.random() < 0.7:
            planner.record_accept(node)
            print(f"  {node} accepted")
        else:
            refreshed = planner.record_decline(node)
            print(
                f"  {node} DECLINED -> re-planned "
                f"(W={refreshed.willingness:.2f}): "
                f"{sorted(refreshed.members)}"
            )

    final = planner.finalize()
    print(f"\nfinal group (W={final.willingness:.2f}): {sorted(final.members)}")
    print(f"declines handled: {len(planner.declined)}")
    assert not (final.members & planner.declined)
    print("no decliner is in the final group ✔")
    planner.close()  # drops the planner's co-ownership of the context


if __name__ == "__main__":
    main()
