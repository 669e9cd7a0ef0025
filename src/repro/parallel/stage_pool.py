"""Stage-sharded parallel CE execution on the resident worker pool.

This is the process-based equivalent of the paper's OpenMP loop
(Fig. 5(d)): the sample draws *inside* each CBAS / CBAS-ND stage are
sharded across workers, and the workers synchronize only at stage
boundaries — every stage's cross-entropy refit sees the **full** merged
elite evidence.  It is the one parallel path for a single large solve;
batches of many solves go to the same pool as whole-solve chunks.

Architecture
------------
* :class:`~repro.parallel.pool.ResidentPool` — the W long-lived worker
  processes, shared with ``solve_many``'s chunks.  They hold the
  problem's frozen :class:`~repro.graph.compiled.CompiledGraph` arrays
  *resident* across stages, solves, batches, and online re-planning
  rounds (:mod:`repro.parallel.residency`): a re-plan on the same graph
  ships only the O(1) problem spec (``k`` / ``required`` /
  ``forbidden``), a graph mutation mints a new token and transparently
  invalidates the resident arrays, and long sessions over many graphs
  evict least-recently-used entries from the bounded worker caches.
* :class:`ShardedStageExecutor` — the :class:`~repro.algorithms.
  stage_exec.StageExecutor` strategy solvers plug in.  Per stage it
  splits every funded start node's budget share into per-worker shards
  (budget + RNG seed + pending CE-vector sync patches — a few hundred
  bytes), and folds the workers' compact
  :class:`~repro.algorithms.sampling.ShardSummary` replies, in shard
  order, through :func:`~repro.algorithms.stage_exec.merge_start_stage`
  — the same merge the in-process executor runs: failure accounting,
  the write-off, OCBA statistics recorded sample by sample in draw
  order, the incumbent best sample, and one Eq. (4) refit from the
  merged elite set.
* Workers draw through the same sampler call as the in-process
  executor (:meth:`~repro.algorithms.sampling.ExpansionSampler.
  draw_stage`) and mirror each start's :class:`~repro.ce.probability.
  SelectionProbabilities` by replaying the parent's refit patches, so a
  shard's draws are bit-identical to a serial run fed the same
  per-shard RNG streams (``tests/test_stage_parallel.py`` proves the
  merged elite set and refit vector match a serial reconstruction of
  the concatenated sample stream).

Semantics versus serial execution
---------------------------------
A compiled-engine stage-sharded solve is *not* RNG-stream-identical to
the default serial solve (the draws come from per-shard generators),
but it is the same statistical computation with the same per-stage
elite refit — the paper makes the same observation about its OpenMP
runs.  Vector-engine randomness is positional, so there serial and
stage-sharded solves are identical at any worker count.

On both engines the consecutive-failure write-off counts the start's
whole draw stream, not each shard's.  Each shard stops at the cap on
its own — the first from the carried counter, the others from zero —
so a later shard can draw past the point where one serial loop over
the concatenated draws would stop.  The merge adds only the draws up to
that point; the shard's extra draws are wasted work, never results.
"""

from __future__ import annotations

import itertools
import pickle
from typing import Optional

from repro.algorithms.stage_exec import (
    MAX_CONSECUTIVE_FAILURES,
    StageContext,
    StageExecutor,
    merge_start_stage,
)
from repro.parallel.pool import (
    ResidentPool,
    _solve_worker_main,
    _WorkerSolveState,
    split_budget,
)
from repro.parallel.residency import record_recovery, record_shipping

__all__ = ["ShardedStageExecutor"]

# perfbench/tracing.py looks up the stage-shard methods under this name.
StagePool = ResidentPool
# perfbench/tracing.py wraps the worker loop under this name too.
_stage_worker_main = _solve_worker_main

#: Solve ids are unique per parent process so a worker can detect stage
#: requests for a solve it was never set up for.
_SOLVE_COUNTER = itertools.count()


class ShardedStageExecutor(StageExecutor):
    """Stage strategy that shards every stage's draws across a pool.

    Parameters
    ----------
    pool:
        The :class:`~repro.parallel.pool.ResidentPool` to run on — the
        owning :class:`~repro.runtime.context.ExecutionContext`'s pool
        (never closed by this executor).
    trace:
        Record a per-stage shard/merge trace on :attr:`trace` — used by
        the shard-merge equivalence tests to replay the exact per-shard
        RNG streams serially; off by default (it retains kept samples).
    """

    def __init__(self, pool: ResidentPool, trace: bool = False) -> None:
        self.pool = pool
        self.trace: "list | None" = [] if trace else None
        self._solve_id: Optional[int] = None
        self._patch_log: "list[list] | None" = None
        self._patch_sizes: "list[list[int]] | None" = None
        self._synced: "list[list[int]] | None" = None
        #: The solve's graph (token → detached compiled arrays) and spec:
        #: every stage dispatch carries them so the pool's install
        #: planner can re-arm a respawned worker, and the in-parent
        #: fallback rebuilds shard state from them.
        self._graphs: "Optional[dict]" = None
        self._spec: "Optional[dict]" = None
        #: Pool counters at the start of the solve; recovery accounting
        #: reports the difference.
        self._counters0 = None
        #: Vector-engine solves address each start's Philox stream by
        #: planned draw ordinal instead of per-shard RNG seeds.
        self._vector = False

    # ------------------------------------------------------------------
    def begin_solve(self, ctx: StageContext) -> None:
        solver = ctx.solver
        if not ctx.sampler.is_compiled:
            raise ValueError(
                "stage-sharded execution requires engine='compiled' or "
                "engine='vector': the workers hold the detached flat "
                "arrays, which cannot back the dict-based reference path"
            )
        problem = ctx.problem
        self._counters0 = self.pool.counters()
        shipped = self.pool.ensure_resident(problem)
        shipping = self.pool.counters() - self._counters0
        self._solve_id = next(_SOLVE_COUNTER)
        mode = solver._shard_mode()
        self._vector = ctx.sampler.is_vector
        spec = {
            "solve_id": self._solve_id,
            "problem": problem.payload_spec(),
            "starts": list(ctx.starts),
            "mode": mode,
            "max_failures": MAX_CONSECUTIVE_FAILURES,
            "vectors": solver._shard_initial_vectors(),
            "engine": "vector" if self._vector else "compiled",
        }
        if self._vector:
            spec["vector_key"] = ctx.sampler.vector_key
        self.pool.start_solve(spec)
        self._graphs = {problem.payload_token(): problem.compiled().detach()}
        self._spec = spec
        start_count = len(ctx.starts)
        self._patch_log = [[] for _ in range(start_count)]
        # Pickled size of each logged patch, measured once at append time
        # (never re-serialized for accounting on the stage hot path).
        self._patch_sizes = [[] for _ in range(start_count)]
        self._synced = [
            [0] * start_count for _ in range(self.pool.workers)
        ]
        ctx.stats.extra["stage_workers"] = self.pool.workers
        # Shipping accounting through the shared residency module, so
        # stage-sharded solves and chunk batches report the same keys;
        # the bytes are the install / patch traffic of this solve's
        # graph alone.
        record_shipping(
            ctx.stats.extra,
            shipped=shipped,
            payload_bytes=shipping["payload_bytes"],
            patch_bytes=shipping["patch_bytes"],
        )
        # Shard-protocol overhead accounting (the ROADMAP's "overhead
        # curve"): every broadcast/stage message exchanged with a worker
        # counts as one RPC; per stage the pickled bytes of the CE-vector
        # sync patches shipped with the shard entries are recorded, so
        # ``overhead ~ stages × starts × patch bytes`` is measurable from
        # any sharded solve's stats (and from the perf bench output).
        workers = self.pool.workers
        ctx.stats.extra["shard_rpcs"] = (2 if shipped else 1) * workers
        ctx.stats.extra["shard_patch_bytes"] = []
        if self.trace is not None:
            self.trace.append({"solve_id": self._solve_id, "stages": []})

    # ------------------------------------------------------------------
    def run_stage(self, ctx: StageContext, shares: "list[int]") -> None:
        solver = ctx.solver
        node_stats = ctx.node_stats
        workers = self.pool.workers
        funded = [
            (index, share)
            for index, share in enumerate(shares)
            if share != 0 and not node_stats[index].pruned
        ]
        if not funded:
            return

        worker_entries: "list[list[dict]]" = [[] for _ in range(workers)]
        placements = []
        stage_patch_bytes = 0
        for index, share in funded:
            shard_counts = split_budget(share, min(workers, share))
            if self._vector:
                # Positional randomness: shards address the start's
                # Philox stream by planned draw ordinal — no per-shard
                # RNG seeds, and nothing drawn from the parent stream.
                seeds = [None] * len(shard_counts)
            else:
                seeds = [ctx.rng.randrange(2**63) for _ in shard_counts]
            keep_rank = solver._shard_keep_rank(share)
            carry = ctx.failures[index]
            pending = self._patch_log[index]
            sizes = self._patch_sizes[index]
            positions = []
            first_draw = ctx.ordinals[index]
            for shard, (count, seed) in enumerate(zip(shard_counts, seeds)):
                synced_from = self._synced[shard][index]
                entry = {
                    "start": index,
                    "count": count,
                    "seed": seed,
                    # The carry-in consecutive-failure counter seeds the
                    # first shard only; the others start fresh.
                    "failures": carry if shard == 0 else 0,
                    "keep_rank": keep_rank,
                    "sync": pending[synced_from:],
                }
                if self._vector:
                    entry["first_draw"] = first_draw
                first_draw += count
                stage_patch_bytes += sum(sizes[synced_from:])
                worker_entries[shard].append(entry)
                self._synced[shard][index] = len(pending)
                positions.append((shard, len(worker_entries[shard]) - 1))
            ctx.ordinals[index] += share
            placements.append(
                (index, carry, shard_counts, seeds, keep_rank, positions)
            )

        results = self.pool.run_stage(
            self._spec,
            self._graphs,
            worker_entries,
            self._rebuild,
            self._fallback,
        )

        stats = ctx.stats
        stats.extra["shard_rpcs"] += workers
        stats.extra["shard_patch_bytes"].append(stage_patch_bytes)
        # Cumulative recovery accounting: keys appear only when the pool
        # actually had to heal something, so fault-free stats are
        # unchanged.
        recovery = self.pool.counters() - self._counters0
        record_recovery(
            stats.extra,
            restarts=recovery["worker_restarts"],
            retries=recovery["retries"],
            degraded=recovery["fallback_shards"],
        )
        stage_trace = [] if self.trace is not None else None
        drawn_before = stats.samples_drawn
        for index, carry, shard_counts, seeds, keep_rank, positions in placements:
            summaries = [results[worker][pos] for worker, pos in positions]
            patch = merge_start_stage(ctx, index, summaries)
            if patch is not None:
                self._patch_log[index].append(patch)
                self._patch_sizes[index].append(len(pickle.dumps(patch)))
            if stage_trace is not None:
                stage_trace.append(
                    {
                        "start": index,
                        "shards": list(zip(shard_counts, seeds)),
                        "carry": carry,
                        "keep_rank": keep_rank,
                        "successes": sum(
                            len(summary.willingness) for summary in summaries
                        ),
                        "kept": [
                            pair
                            for summary in summaries
                            for pair in summary.kept
                        ],
                    }
                )
        if self._vector:
            # Mirror the merged draws, not the shipped ones (shards can
            # draw past the write-off stop), on the parent sampler so
            # the solver's stats accounting sees them.
            ctx.sampler.vector_batch_draws += stats.samples_drawn - drawn_before
        if stage_trace is not None:
            self.trace[-1]["stages"].append(stage_trace)

    # ------------------------------------------------------------------
    # Crash-recovery hooks (invoked by ResidentPool's recovery)
    # ------------------------------------------------------------------
    def _full_sync_entries(self, entries: "list[dict]") -> "list[dict]":
        """Copies of ``entries`` whose sync patches are the full history.

        A rebuilt CE mirror (fresh worker, or the in-parent fallback
        state) starts from the initial solve-spec vectors, so the
        incremental ``pending[synced_from:]`` slice the entries shipped
        with is not enough — it needs every patch since the solve began.
        Seeds, counts, and failure carries are untouched: the redrawn
        shard is bit-identical.
        """
        rebuilt = []
        for entry in entries:
            refreshed = dict(entry)
            refreshed["sync"] = list(self._patch_log[entry["start"]])
            rebuilt.append(refreshed)
        return rebuilt

    def _rebuild(self, worker: int, entries: "list[dict]") -> "list[dict]":
        """Refresh a crashed worker's shard for re-dispatch."""
        rebuilt = self._full_sync_entries(entries)
        self._synced[worker] = [0] * len(self._patch_log)
        for entry in rebuilt:
            self._synced[worker][entry["start"]] = len(entry["sync"])
        return rebuilt

    def _fallback(self, worker: int, entries: "list[dict]"):
        """Run a retry-exhausted shard in the parent process.

        Graceful degradation: the shard is computed with the same
        :class:`~repro.parallel.pool._WorkerSolveState` machinery the
        workers run, built from the detached compiled index (the very
        shape a worker holds resident) and the stored solve spec, so the
        summaries are bit-identical to what the worker would have
        returned.  The respawned worker holds no CE mirrors; the pool
        re-sends it the spec at its next stage dispatch, so its sync
        cursors restart at zero and the next entries carry the full
        patch history.
        """
        self._synced[worker] = [0] * len(self._patch_log)
        (detached,) = self._graphs.values()
        state = _WorkerSolveState(detached, self._spec)
        return [
            state.run_entry(entry)
            for entry in self._full_sync_entries(entries)
        ]
