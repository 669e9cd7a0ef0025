"""Stage-execution strategies for the staged randomized solvers.

CBAS and CBAS-ND run ``r`` OCBA stages; within a stage, every funded
start node draws its budget share of samples and the per-start statistics
(and, for CBAS-ND, the cross-entropy vectors) are updated from them.  The
paper parallelizes exactly this inner loop with OpenMP — threads draw the
stage's samples concurrently and synchronize only at stage boundaries
(Fig. 5(d)).

This module factors the inner loop behind a strategy object so the two
execution modes share the solver's stage skeleton (allocation, pruning,
write-off policy, warm starts):

* :class:`SerialStageExecutor` — the default in-process loop.  It
  performs the identical draw calls, in the identical order, against the
  identical RNG as the historical inline loop, so seeded serial runs are
  bit-for-bit unchanged.
* :class:`~repro.parallel.stage_pool.ShardedStageExecutor` — splits each
  funded start's share across the persistent worker pool
  (:class:`~repro.parallel.pool.ResidentPool`), merges the compact
  per-shard summaries, and refits the CE vectors from the *merged* elite
  evidence — the process-based equivalent of the paper's OpenMP loop.

The solver owns everything problem-specific through the hook methods it
already exposes (``_draw_batch``, ``_after_start_stage``) plus the
shard-protocol hooks (``_shard_mode``, ``_shard_keep_rank``,
``_merge_start_stage``, ``_shard_initial_vectors``); executors only
orchestrate where and when draws happen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.algorithms.base import SolveStats
from repro.algorithms.sampling import ExpansionSampler, Sample, seed_for_start
from repro.budget.ocba import StartNodeStats
from repro.core.problem import WASOProblem

__all__ = [
    "MAX_CONSECUTIVE_FAILURES",
    "StageContext",
    "StageExecutor",
    "SerialStageExecutor",
]

#: A start node whose expansions keep failing (its component is smaller
#: than k) is written off after this many consecutive failures.
MAX_CONSECUTIVE_FAILURES = 5


@dataclass
class StageContext:
    """Per-solve state shared between the solver's skeleton and an executor.

    Built by :meth:`repro.algorithms.cbas.CBAS._solve` once phase 1 is
    settled (start nodes ranked, vectors prepared, undersized components
    pruned) and threaded through every ``run_stage`` call.  Executors
    mutate ``stats`` / ``node_stats`` / ``failures`` in place and track
    the incumbent best sample on ``best_sample``.
    """

    solver: object
    problem: WASOProblem
    sampler: ExpansionSampler
    rng: random.Random
    starts: list
    node_stats: "list[StartNodeStats]"
    failures: "list[int]"
    stats: SolveStats
    best_sample: Optional[Sample] = None


class StageExecutor:
    """Strategy interface: where a stage's sample draws happen."""

    def begin_solve(self, ctx: StageContext) -> None:
        """Per-solve setup (resident payloads, worker vector mirrors)."""

    def run_stage(self, ctx: StageContext, shares: "list[int]") -> None:
        """Draw one stage: ``shares[i]`` samples for start node ``i``."""
        raise NotImplementedError

    def end_solve(self, ctx: StageContext) -> None:
        """Per-solve teardown (the pool itself stays warm)."""


class SerialStageExecutor(StageExecutor):
    """In-process stage execution — the historical inline loop, verbatim.

    One shared RNG is consumed start-by-start in index order, every
    sample updates the OCBA statistics and the incumbent best as it is
    drawn, and the solver's ``_after_start_stage`` hook (the CE refit)
    runs per start — bit-identical results and statistics to the code
    this strategy was factored out of.
    """

    def run_stage(self, ctx: StageContext, shares: "list[int]") -> None:
        for index, share in enumerate(shares):
            if share == 0 or ctx.node_stats[index].pruned:
                continue
            seed = seed_for_start(ctx.problem, ctx.starts[index])
            # One batch per (start, stage): the sampler resolves the
            # cached seed state once and stops early at the
            # consecutive-failure cap, so stats and RNG consumption
            # match the historical draw-at-a-time loop exactly.
            batch = ctx.solver._draw_batch(
                ctx.sampler, seed, ctx.rng, index, share, ctx.failures[index]
            )
            self._record_batch(ctx, index, batch)

    @staticmethod
    def _record_batch(
        ctx: StageContext, index: int, batch: "list[Optional[Sample]]"
    ) -> None:
        """Account one start's stage batch, sample by sample in order.

        Every draw updates the OCBA statistics, the consecutive-failure
        write-off and the incumbent best as it is drawn, then the
        solver's ``_after_start_stage`` hook (the CE refit) runs on the
        start's successful samples.  Both in-process executors share
        this accounting, so their statistics agree exactly.
        """
        node_stats = ctx.node_stats
        failures = ctx.failures
        stats = ctx.stats
        best_sample = ctx.best_sample
        stage_samples: list[Sample] = []
        for sample in batch:
            stats.samples_drawn += 1
            if sample is None:
                stats.failed_samples += 1
                failures[index] += 1
                if failures[index] >= MAX_CONSECUTIVE_FAILURES:
                    node_stats[index].pruned = True
                continue
            failures[index] = 0
            node_stats[index].record(sample.willingness)
            stage_samples.append(sample)
            if (
                best_sample is None
                or sample.willingness > best_sample.willingness
            ):
                best_sample = sample
        ctx.best_sample = best_sample
        ctx.solver._after_start_stage(index, stage_samples, stats)
