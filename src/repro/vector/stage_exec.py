"""Serial stage executor feeding whole stages to the vector kernel.

The scalar :class:`~repro.algorithms.stage_exec.SerialStageExecutor`
draws start-by-start against one shared RNG.  The vector executor
instead collects *every* funded start's share into one
:func:`~repro.vector.kernel.draw_stage_batch` call — the batch kernel
scores and extends all of the stage's draws together — and then merges
the returned batches in index order through the same
:func:`~repro.algorithms.stage_exec.merge_start_stage` every executor
uses.

That reordering is semantically safe for the staged solvers: within a
stage each start owns its own CE vector, so start ``i``'s refit never
influences start ``j``'s draws of the *same* stage (the same argument
the sharded executor already relies on).  Randomness is positional
(:mod:`repro.vector.rng`): each start's planned draw ordinal advances by
its **full** share every stage — even when the consecutive-failure cap
truncates the realized batch — so the per-draw uniforms are a pure
function of the allocation sequence, and serial and stage-sharded
vector runs consume identical randomness.
"""

from __future__ import annotations

from repro.algorithms.sampling import seed_for_start, summarize_shard
from repro.algorithms.stage_exec import (
    MAX_CONSECUTIVE_FAILURES,
    StageContext,
    StageExecutor,
    merge_start_stage,
)

__all__ = ["VectorSerialStageExecutor"]


class VectorSerialStageExecutor(StageExecutor):
    """In-process stage execution through the batch kernel.

    Stateless across solves: the per-solve planned-draw ordinals live on
    the sampler (one sampler per solve), so one cached executor instance
    serves every vector solve of a context.
    """

    def begin_solve(self, ctx: StageContext) -> None:
        sampler = ctx.sampler
        if not getattr(sampler, "is_vector", False):
            raise RuntimeError(
                "VectorSerialStageExecutor requires a vector-engine sampler"
            )
        sampler.vector_ordinals = [0] * len(ctx.starts)

    def run_stage(self, ctx: StageContext, shares: "list[int]") -> None:
        solver = ctx.solver
        sampler = ctx.sampler
        node_stats = ctx.node_stats
        failures = ctx.failures
        ordinals = sampler.vector_ordinals

        funded = [
            index
            for index, share in enumerate(shares)
            if share and not node_stats[index].pruned
        ]
        if not funded:
            return
        mode = solver._shard_mode()
        entries = [
            {
                "start_key": index,
                "seed": seed_for_start(ctx.problem, ctx.starts[index]),
                "first_draw": ordinals[index],
                "count": shares[index],
                "failures": failures[index],
            }
            for index in funded
        ]
        weight_rows = None
        if mode == "ce":
            weight_rows = [
                solver._stage_weight_array(index) for index in funded
            ]
        batches = sampler.draw_batch_vector(
            entries,
            mode=mode,
            weight_rows=weight_rows,
            max_failures=MAX_CONSECUTIVE_FAILURES,
        )

        for entry, batch in zip(entries, batches):
            index = entry["start_key"]
            # Ordinals advance by the planned share, not the realized
            # batch length — positional randomness must not depend on
            # where a failure cap happened to truncate.
            ordinals[index] += entry["count"]
            summary = summarize_shard(
                batch,
                solver._shard_keep_rank(entry["count"]),
                max_failures=MAX_CONSECUTIVE_FAILURES,
                carry_failures=entry["failures"],
            )
            merge_start_stage(ctx, index, [summary])
