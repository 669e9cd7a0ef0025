"""DGreedy — the deterministic greedy baseline.

At every iteration the algorithm adds the frontier node with the largest
willingness increment (paper §1/§3).  The first pick therefore maximizes
the weighted interest score alone, which is precisely why the greedy run in
the paper's Figure 1 gets trapped: it commits to the highest-interest start
node and explores a single sequence of the solution space.

Required attendees, when present, form the seed instead (the user-study
"with initiator" mode).  Ties are broken by node representation so the
algorithm is fully deterministic.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.algorithms.base import ContextSolver, SolveResult, SolveStats
from repro.core.problem import WASOProblem
from repro.core.solution import GroupSolution
from repro.exceptions import SolverError
from repro.graph.social_graph import NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import ExecutionContext

__all__ = ["DGreedy"]


class DGreedy(ContextSolver):
    """Deterministic greedy construction (one start node, one sequence).

    The compiled engine (the context default) reuses the graph's frozen
    flat-array index across solves; deltas are bit-identical to the
    reference path, so the deterministic result is engine-independent.
    ``engine=`` overrides the context's engine (a request-spec key, and
    how pool workers rebuild the solver).
    """

    name = "dgreedy"

    def __init__(
        self,
        engine: Optional[str] = None,
        context: "Optional[ExecutionContext]" = None,
    ) -> None:
        self._init_context(engine, context)

    def _solve(self, problem: WASOProblem, rng: random.Random) -> SolveResult:
        evaluator = self.context.evaluator_for(problem, self.engine)
        graph = problem.graph
        allowed = set(problem.candidates())

        members: set[NodeId] = set(problem.required)
        if members:
            current = evaluator.value(members)
        else:
            start = self._best_first_node(problem, evaluator)
            members = {start}
            current = evaluator.value(members)

        while len(members) < problem.k:
            candidates = self._frontier(problem, members, allowed)
            if not candidates:
                raise SolverError(
                    "greedy expansion stalled before reaching k nodes"
                )
            best_node = None
            best_delta = -float("inf")
            for node in candidates:
                delta = evaluator.add_delta(node, members)
                if delta > best_delta or (
                    delta == best_delta
                    and best_node is not None
                    and repr(node) < repr(best_node)
                ):
                    best_node = node
                    best_delta = delta
            members.add(best_node)
            current += best_delta

        if problem.connected and not graph.is_connected_subset(members):
            raise SolverError(
                "greedy could not connect the required attendees"
            )
        solution = GroupSolution(members=frozenset(members), willingness=current)
        return SolveResult(solution=solution, stats=SolveStats(samples_drawn=1))

    # ------------------------------------------------------------------
    def _best_first_node(self, problem: WASOProblem, evaluator) -> NodeId:
        """Highest weighted-interest allowed node (deterministic ties)."""
        best_node = None
        best_score = -float("inf")
        for node in problem.candidates():
            score = evaluator.weighted_interest(node)
            if score > best_score or (
                score == best_score and repr(node) < repr(best_node)
            ):
                best_node = node
                best_score = score
        if best_node is None:
            raise SolverError("no candidate nodes available")
        return best_node

    def _frontier(
        self,
        problem: WASOProblem,
        members: set[NodeId],
        allowed: set[NodeId],
    ) -> list[NodeId]:
        if not problem.connected:
            return [node for node in allowed if node not in members]
        frontier: set[NodeId] = set()
        for member in members:
            for neighbour in problem.graph.neighbors(member):
                if neighbour in allowed and neighbour not in members:
                    frontier.add(neighbour)
        return list(frontier)
