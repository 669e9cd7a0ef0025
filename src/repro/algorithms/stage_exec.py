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

* :class:`SerialStageExecutor` — the in-process loop on every engine:
  one :meth:`~repro.algorithms.sampling.ExpansionSampler.draw_stage`
  call draws every funded start's share, then the starts merge in
  index order.
* :class:`~repro.parallel.stage_pool.ShardedStageExecutor` — each funded
  start's share split across the persistent worker pool
  (:class:`~repro.parallel.pool.ResidentPool`), the process-based
  equivalent of the paper's OpenMP loop.

Both reduce a start's draws with
:func:`~repro.algorithms.sampling.summarize_shard` and fold them through
one :func:`merge_start_stage`: draw and failure counts, the write-off,
OCBA statistics, the incumbent and the solver's CE refit.

The solver owns everything problem-specific through its hook methods:
``_shard_mode`` (the frontier bias), ``_stage_vector`` (a start's CE
vector), ``_shard_keep_rank``, ``_shard_initial_vectors`` and
``_merge_start_stage`` (the refit); executors only orchestrate where and
when draws happen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
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
    #: Each start's planned draw ordinal: the vector engine's Philox
    #: counter position.  It advances by the full share every stage,
    #: however early the write-off cap stops the draws, so a draw's
    #: randomness depends only on the allocation sequence.
    ordinals: "list[int]" = field(init=False)

    def __post_init__(self) -> None:
        self.ordinals = [0] * len(self.starts)


def merge_start_stage(
    ctx: StageContext, index: int, summaries: "list[ShardSummary]"
) -> "tuple | None":
    """Fold start ``index``'s stage summaries, in draw order, into ``ctx``.

    The consecutive-failure counter carries across the summaries and
    writes the start off at the cap exactly where one serial loop over
    the concatenated draws would stop: a summary whose leading failures
    take the counter to the cap adds only the draws up to it, and later
    summaries (shards drawn past the stop) add nothing.  Every counted
    success's willingness is recorded in the OCBA statistics; the
    incumbent becomes the first occurrence of a strictly better maximum.
    Returns the vector-sync patch of the solver's ``_merge_start_stage``
    refit (``None`` when there is nothing to sync).
    """
    stats = ctx.stats
    node_stat = ctx.node_stats[index]
    counter = ctx.failures[index]
    successes = 0
    for position, summary in enumerate(summaries):
        if counter + summary.leading_failures >= MAX_CONSECUTIVE_FAILURES:
            stopped = MAX_CONSECUTIVE_FAILURES - counter
            stats.samples_drawn += stopped
            stats.failed_samples += stopped
            counter = MAX_CONSECUTIVE_FAILURES
            # The cut falls before this summary's first success, so its
            # elites and those of every later summary are left out.
            summaries = summaries[:position]
            break
        values = summary.willingness
        stats.samples_drawn += summary.attempts
        stats.failed_samples += summary.attempts - len(values)
        if values:
            counter = summary.trailing_failures
            successes += len(values)
            for willingness in values:
                node_stat.record(willingness)
        else:
            counter += summary.attempts
    ctx.failures[index] = counter
    if counter >= MAX_CONSECUTIVE_FAILURES:
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
    """In-process stage execution, on every engine.

    Draws every funded start's share with one sampler call (from the
    solve's one RNG on the scalar engines), then merges the starts in
    index order.  Drawing all before merging any changes nothing: a
    merge reads no randomness and touches only its own start's vector,
    counter and statistics.
    """

    def run_stage(self, ctx: StageContext, shares: "list[int]") -> None:
        solver = ctx.solver
        funded = [
            index
            for index, share in enumerate(shares)
            if share and not ctx.node_stats[index].pruned
        ]
        if not funded:
            return
        entries = [
            {
                "start_key": index,
                "seed": seed_for_start(ctx.problem, ctx.starts[index]),
                "first_draw": ctx.ordinals[index],
                "count": shares[index],
                "failures": ctx.failures[index],
            }
            for index in funded
        ]
        batches = ctx.sampler.draw_stage(
            entries,
            solver._shard_mode(),
            [solver._stage_vector(index) for index in funded],
            ctx.rng,
            MAX_CONSECUTIVE_FAILURES,
        )
        for index, batch in zip(funded, batches):
            ctx.ordinals[index] += shares[index]
            summary = summarize_shard(
                batch, solver._shard_keep_rank(shares[index])
            )
            merge_start_stage(ctx, index, [summary])
