"""Stage-execution strategies for the staged randomized solvers.

CBAS and CBAS-ND run ``r`` OCBA stages; within a stage, every funded
start node draws its budget share of samples and the per-start statistics
(and, for CBAS-ND, the cross-entropy vectors) are updated from them.  The
paper parallelizes exactly this inner loop with OpenMP — threads draw the
stage's samples concurrently and synchronize only at stage boundaries
(Fig. 5(d)).

This module factors the inner loop behind a strategy object so every
execution mode shares the solver's stage skeleton (allocation, pruning,
write-off policy, warm starts):

* :class:`SerialStageExecutor` — the default in-process loop, start by
  start against the one shared RNG.
* :class:`~repro.vector.stage_exec.VectorSerialStageExecutor` — every
  funded start's share in one batch-kernel call.
* :class:`~repro.parallel.stage_pool.ShardedStageExecutor` — each funded
  start's share split across the persistent worker pool
  (:class:`~repro.parallel.pool.ResidentPool`), the process-based
  equivalent of the paper's OpenMP loop.

All three reduce a start's draws with
:func:`~repro.algorithms.sampling.summarize_shard` and fold them through
one :func:`merge_start_stage`: draw and failure counts, the write-off,
OCBA statistics, the incumbent and the solver's CE refit.

The solver owns everything problem-specific through its hook methods:
``_draw_batch`` (the serial draws), ``_merge_start_stage`` (the refit),
and the shard-protocol hooks ``_shard_mode``, ``_shard_keep_rank``,
``_stage_weight_array`` and ``_shard_initial_vectors``; executors only
orchestrate where and when draws happen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Optional

from repro.algorithms.base import SolveStats
from repro.algorithms.sampling import (
    ExpansionSampler,
    Sample,
    ShardSummary,
    seed_for_start,
    summarize_shard,
)
from repro.budget.ocba import StartNodeStats
from repro.core.problem import WASOProblem

__all__ = [
    "MAX_CONSECUTIVE_FAILURES",
    "StageContext",
    "StageExecutor",
    "SerialStageExecutor",
    "merge_start_stage",
]

#: A start node whose expansions keep failing (its component is smaller
#: than k) is written off after this many consecutive failures.
MAX_CONSECUTIVE_FAILURES = 5


@dataclass
class StageContext:
    """Per-solve state shared between the solver's skeleton and an executor.

    Built by :meth:`repro.algorithms.cbas.CBAS._solve` once phase 1 is
    settled (start nodes ranked, vectors prepared, undersized components
    pruned) and threaded through every ``run_stage`` call.
    :func:`merge_start_stage` mutates ``stats`` / ``node_stats`` /
    ``failures`` in place and tracks the incumbent best sample on
    ``best_sample``.
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


def merge_start_stage(
    ctx: StageContext, index: int, summaries: "list[ShardSummary]"
) -> "tuple | None":
    """Fold start ``index``'s stage summaries, in draw order, into ``ctx``.

    The consecutive-failure counter carries across the summaries and
    writes the start off at the cap; every success's willingness is
    recorded in the OCBA statistics; the incumbent becomes the first
    occurrence of a strictly better maximum.  Returns the vector-sync
    patch of the solver's ``_merge_start_stage`` refit (``None`` when
    there is nothing to sync).
    """
    stats = ctx.stats
    node_stat = ctx.node_stats[index]
    counter = ctx.failures[index]
    hit_cap = False
    successes = 0
    for summary in summaries:
        values = summary.willingness
        stats.samples_drawn += summary.attempts
        stats.failed_samples += summary.attempts - len(values)
        hit_cap = hit_cap or summary.hit_cap
        if values:
            counter = summary.trailing_failures
            successes += len(values)
            for willingness in values:
                node_stat.record(willingness)
        else:
            counter += summary.attempts
    ctx.failures[index] = counter
    if hit_cap or counter >= MAX_CONSECUTIVE_FAILURES:
        node_stat.pruned = True
    if not successes:
        return None
    if len(summaries) == 1:
        kept = summaries[0].kept
    else:
        # Each shard's list is best first with ties in draw order; a
        # stable sort of the concatenation keeps that order across
        # shards too.
        kept = sorted(
            chain.from_iterable(summary.kept for summary in summaries),
            key=itemgetter(0),
            reverse=True,
        )
    top, ids = kept[0]
    if ctx.best_sample is None or top > ctx.best_sample.willingness:
        ctx.best_sample = ctx.sampler.sample_from_pair(top, ids)
    return ctx.solver._merge_start_stage(index, successes, kept, stats)


class StageExecutor:
    """Strategy interface: where a stage's sample draws happen."""

    def begin_solve(self, ctx: StageContext) -> None:
        """Per-solve setup (resident payloads, worker vector mirrors)."""

    def run_stage(self, ctx: StageContext, shares: "list[int]") -> None:
        """Draw one stage: ``shares[i]`` samples for start node ``i``."""
        raise NotImplementedError


class SerialStageExecutor(StageExecutor):
    """In-process stage execution against the one shared RNG.

    Starts draw in index order, one batch per (start, stage), and each
    start's batch is merged before the next start draws.
    """

    def run_stage(self, ctx: StageContext, shares: "list[int]") -> None:
        solver = ctx.solver
        for index, share in enumerate(shares):
            if share == 0 or ctx.node_stats[index].pruned:
                continue
            carry = ctx.failures[index]
            # The sampler resolves the cached seed state once and stops
            # early at the consecutive-failure cap.
            batch = solver._draw_batch(
                ctx.sampler,
                seed_for_start(ctx.problem, ctx.starts[index]),
                ctx.rng,
                index,
                share,
                carry,
            )
            summary = summarize_shard(
                batch,
                solver._shard_keep_rank(share),
                max_failures=MAX_CONSECUTIVE_FAILURES,
                carry_failures=carry,
            )
            merge_start_stage(ctx, index, [summary])
