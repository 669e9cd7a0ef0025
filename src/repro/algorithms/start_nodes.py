"""Start-node selection (phase 1 of CBAS / CBAS-ND, also used by RGreedy).

The paper sums, for every node, the interest score and the tightness
scores of incident edges, then extracts the ``m`` largest with a heap
(§3.1; the complexity analysis explicitly mentions the heap).  Required
attendees are always promoted to start nodes — the user study's
"with initiator" runs state that CBAS-ND "always chooses the user as a
start node".

The reference engine runs that heap over every candidate on each call:
``heapq.nlargest`` keyed on ``(potential, repr(node))``, which keeps
candidate (graph) order among equal keys.  It is the oracle.  The
compiled and vector engines read the same order from a ranking kept on
the compiled graph per generation
(:meth:`~repro.graph.compiled.CompiledGraph.start_ranking`): potential
descending, then ``repr`` descending, then compiled id ascending.  A
call walks it from the top and skips required and forbidden nodes, so
phase 1 costs O(m + |required| + |forbidden|) instead of an O(n) scan.
A delta batch moves only the potentials of its ops' endpoints, so the
ranking follows the graph's delta log by moving those nodes alone.
"""

from __future__ import annotations

import heapq
import math

from repro.core.problem import WASOProblem
from repro.core.willingness import (
    FastWillingnessEvaluator,
    WillingnessEvaluator,
)
from repro.graph.social_graph import NodeId

__all__ = ["select_start_nodes", "default_start_count"]


def default_start_count(problem: WASOProblem) -> int:
    """The paper's default ``m = ⌈n / k⌉`` (start nodes cover the network)."""
    return max(1, math.ceil(problem.graph.number_of_nodes() / problem.k))


def select_start_nodes(
    problem: WASOProblem,
    evaluator: "WillingnessEvaluator | FastWillingnessEvaluator",
    m: int,
) -> list[NodeId]:
    """Pick ``m`` start nodes by descending node potential.

    Node potential is ``a_v·η_v + b_v·Σ τ_vj + Σ b_j·τ_jv`` — the weighted
    interest plus incident weighted tightness.  Required nodes come first
    regardless of score.  Returns fewer than ``m`` nodes only when the
    graph has fewer candidates.  With a :class:`FastWillingnessEvaluator`
    the nodes come off the compiled graph's cached ranking; both paths
    give the same list.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    required = [node for node in problem.required]
    chosen: list[NodeId] = list(required)
    if len(chosen) >= m:
        return chosen[:m]

    compiled = getattr(evaluator, "compiled", None)
    if compiled is not None:
        skip = problem.required | problem.forbidden
        nodes = compiled.nodes
        for index in compiled.start_ranking():
            node = nodes[index]
            if node not in skip:
                chosen.append(node)
                if len(chosen) == m:
                    break
        return chosen

    taken = set(chosen)
    scored = (
        (evaluator.node_potential(node), repr(node), node)
        for node in problem.candidates()
        if node not in taken
    )
    top = heapq.nlargest(m - len(chosen), scored, key=lambda item: (item[0], item[1]))
    chosen.extend(node for _, _, node in top)
    return chosen
