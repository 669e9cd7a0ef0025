"""RGreedy — randomized greedy with willingness-proportional selection.

The paper introduces RGreedy (§4.1) as the natural fix for CBAS's
indiscriminate uniform expansion: at iteration ``t`` the probability of
picking frontier node ``v_i`` is proportional to the willingness of the
group it would create,

    P(v_i | S_{t−1}) ∝ W({v_i} ∪ S_{t−1}).

This inherits greedy's myopia (only local information) *and* is expensive —
every expansion step must evaluate the willingness increment of every
frontier node, which is why the paper's running-time figures show RGreedy
two orders of magnitude slower than CBAS / CBAS-ND.  We keep that cost
profile honestly: no budget-allocation tricks, each of the ``m`` start
nodes is expanded ``T/m`` times.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.algorithms.base import ContextSolver, SolveResult, SolveStats
from repro.algorithms.sampling import ExpansionSampler, seed_for_start
from repro.algorithms.start_nodes import default_start_count, select_start_nodes
from repro.core.problem import WASOProblem
from repro.core.solution import GroupSolution
from repro.exceptions import BudgetExhaustedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import ExecutionContext

__all__ = ["RGreedy"]


class RGreedy(ContextSolver):
    """Randomized greedy baseline.

    Parameters
    ----------
    budget:
        Total number of complete samples ``T``.
    m:
        Number of start nodes; defaults to the paper's ``⌈n/k⌉``.
    engine:
        ``"compiled"`` or ``"reference"`` sampling path; seeded results
        are identical on both.  ``None`` inherits the context's engine.
        A request-spec key, and how pool workers rebuild the solver.
    context:
        The :class:`~repro.runtime.context.ExecutionContext` to execute
        through (private serial one when omitted).
    """

    name = "rgreedy"

    def __init__(
        self,
        budget: int = 100,
        m: Optional[int] = None,
        engine: Optional[str] = None,
        context: "Optional[ExecutionContext]" = None,
    ) -> None:
        if budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        if m is not None and m < 1:
            raise ValueError(f"m must be positive, got {m}")
        self.budget = budget
        self.m = m
        self._init_context(engine, context)

    def _solve(self, problem: WASOProblem, rng: random.Random) -> SolveResult:
        evaluator = self.context.evaluator_for(problem, self.engine)
        sampler = ExpansionSampler(problem, evaluator)
        m = self.m if self.m is not None else default_start_count(problem)
        starts = select_start_nodes(problem, evaluator, m)

        per_start = max(1, self.budget // max(1, len(starts)))
        stats = SolveStats()
        best_sample = None
        if sampler.is_vector:
            batches = self._draw_all_vector(
                problem, sampler, rng, starts, per_start
            )
        else:
            batches = None
        for index, start in enumerate(starts):
            remaining = self.budget - stats.samples_drawn
            if remaining <= 0:
                break
            if batches is not None:
                batch = batches[index]
            else:
                seed = seed_for_start(problem, start)
                # Batched per start: same draw count and RNG stream as
                # the historical draw-at-a-time loop, one seed-state
                # resolve.
                batch = sampler.draw_batch(
                    seed, rng, min(per_start, remaining), greedy_bias=True
                )
            for sample in batch:
                stats.samples_drawn += 1
                if sample is None:
                    stats.failed_samples += 1
                    continue
                if (
                    best_sample is None
                    or sample.willingness > best_sample.willingness
                ):
                    best_sample = sample
        batched = getattr(sampler, "vector_batch_draws", 0)
        if batched:
            stats.extra["vector_batch_draws"] = batched
        fallback = getattr(sampler, "vector_fallback_draws", 0)
        if fallback:
            stats.extra["vector_fallback_draws"] = fallback

        if best_sample is None:
            raise BudgetExhaustedError(
                "RGreedy drew no feasible sample within its budget"
            )
        solution = GroupSolution(
            members=best_sample.members, willingness=best_sample.willingness
        )
        stats.extra["start_nodes"] = len(starts)
        return SolveResult(solution=solution, stats=stats)

    def _draw_all_vector(
        self,
        problem: WASOProblem,
        sampler: ExpansionSampler,
        rng: random.Random,
        starts: list,
        per_start: int,
    ) -> "list[list]":
        """Every start's greedy batch in one vector-kernel call.

        RGreedy never truncates a batch (no failure cap), so each
        start's draw count is a pure function of the budget split and
        the whole solve can be planned — and drawn — up front.
        """
        sampler.vector_key = rng.getrandbits(64)
        entries = []
        planned = 0
        for index, start in enumerate(starts):
            remaining = self.budget - planned
            if remaining <= 0:
                break
            count = min(per_start, remaining)
            entries.append(
                {
                    "start_key": index,
                    "seed": seed_for_start(problem, start),
                    "first_draw": 0,
                    "count": count,
                    "failures": 0,
                }
            )
            planned += count
        batches = sampler.draw_batch_vector(entries, mode="greedy")
        batches.extend([] for _ in range(len(starts) - len(batches)))
        return batches
