"""CBAS — Computational Budget Allocation for Start nodes (paper §3).

Phase 1 selects ``m`` start nodes by node potential; phase 2 runs ``r``
stages, each of which (a) apportions the stage budget ``T/r`` across the
surviving start nodes with the OCBA rule of Theorem 3 and (b) expands each
funded start node that many times by *uniform* random frontier selection.
Start nodes whose allocation drops to zero are pruned from later stages.

The solution quality is the maximum willingness over all samples
(Definition 1); Theorem 5 gives the approximation guarantee
``E[Q] ≥ N_b · (1/(N_b+1))^{(N_b+1)/N_b} · Q*``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.algorithms.base import ContextSolver, SolveResult, SolveStats
from repro.algorithms.sampling import ExpansionSampler
from repro.algorithms.stage_exec import StageContext
from repro.algorithms.start_nodes import default_start_count, select_start_nodes
from repro.budget.ocba import (
    StartNodeStats,
    apportion,
    gaussian_weights,
    uniform_weights,
)
from repro.budget.stages import plan_stages
from repro.core.problem import WASOProblem
from repro.core.solution import GroupSolution
from repro.core.willingness import (
    FastWillingnessEvaluator,
    WillingnessEvaluator,
)
from repro.exceptions import BudgetExhaustedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ce.probability import SelectionProbabilities
    from repro.runtime.context import ExecutionContext

__all__ = ["CBAS", "CBASWarmState"]


@dataclass
class CBASWarmState:
    """Reusable cross-solve state for §4.4.1 online re-planning.

    After every solve a :class:`CBAS` (or subclass) exports one of these
    as ``solver.last_warm_state``; installing it as ``solver.warm_state``
    before the next solve on the *same graph* skips the phase-1 start
    ranking (the paper: "the start nodes of phase 1 need not be
    recomputed") and, for CBAS-ND, carries the surviving cross-entropy
    vectors forward instead of resetting them to the homogeneous prior.
    The frozen compiled index is reused automatically — it is cached on
    the shared graph — so a warm re-plan never re-freezes.
    """

    #: Phase-1 start nodes in ranked order (required nodes first).
    starts: list = field(default_factory=list)
    #: CBAS-ND only: start node -> its SelectionProbabilities vector.
    vectors: dict = field(default_factory=dict)
    #: Identity + mutation stamp of the graph this state was earned on;
    #: vectors are only reused when it still matches (both engines drop
    #: them in lockstep, keeping seeded runs engine-identical).
    graph_state: "tuple | None" = None


class CBAS(ContextSolver):
    """Randomized solver with OCBA budget allocation across start nodes.

    Parameters
    ----------
    budget:
        Total computational budget ``T`` (number of complete samples).
    m:
        Number of start nodes (default: the paper's ``⌈n/k⌉``).
    stages:
        Number of allocation stages ``r`` (default: the paper's bound via
        :func:`repro.budget.stages.plan_stages` with ``P_b``/``α`` below).
    pb, alpha:
        Confidence and closeness-ratio parameters used only to derive the
        default ``stages``.
    engine:
        ``"compiled"`` runs sampling on the flat-array
        :class:`~repro.graph.compiled.CompiledGraph` index;
        ``"reference"`` keeps the dict-based path.  Seeded results are
        identical on both engines.  ``None`` (the default) inherits the
        context's engine (itself defaulting to ``"compiled"``).  It is
        also a request-spec key, and how pool workers rebuild a solver
        with its context's engine.
    context:
        The :class:`~repro.runtime.context.ExecutionContext` this solver
        executes through (engine, stage-strategy routing, worker pool).
        Without one the solver gets a private serial context — the
        historical in-process behaviour, bit for bit.
    """

    name = "cbas"

    def __init__(
        self,
        budget: int = 200,
        m: Optional[int] = None,
        stages: Optional[int] = None,
        pb: float = 0.7,
        alpha: float = 0.9,
        allocation: str = "uniform",
        start_selection: str = "potential",
        engine: Optional[str] = None,
        context: "Optional[ExecutionContext]" = None,
    ) -> None:
        if budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        if m is not None and m < 1:
            raise ValueError(f"m must be positive, got {m}")
        if stages is not None and stages < 1:
            raise ValueError(f"stages must be positive, got {stages}")
        if allocation not in ("uniform", "gaussian"):
            raise ValueError(
                f"allocation must be 'uniform' or 'gaussian', got {allocation!r}"
            )
        if start_selection not in ("potential", "random"):
            raise ValueError(
                "start_selection must be 'potential' or 'random', "
                f"got {start_selection!r}"
            )
        self.budget = budget
        self.m = m
        self.stages = stages
        self.pb = pb
        self.alpha = alpha
        self.allocation = allocation
        self.start_selection = start_selection
        self._init_context(engine, context)
        #: Install a :class:`CBASWarmState` here (online re-planning) to
        #: reuse phase-1 starts / CE vectors; cleared by the caller, not
        #: by the solver, so one state can serve several re-plans.
        self.warm_state: Optional[CBASWarmState] = None
        #: Exported after every solve; feed back via ``warm_state``.
        self.last_warm_state: Optional[CBASWarmState] = None

    # ------------------------------------------------------------------
    def _solve(self, problem: WASOProblem, rng: random.Random) -> SolveResult:
        evaluator = self.context.evaluator_for(problem, self.engine)
        sampler = ExpansionSampler(problem, evaluator)
        m = self.m if self.m is not None else default_start_count(problem)
        warm = self.warm_state
        warm_starts = (
            self._warm_start_nodes(problem, warm, m)
            if warm is not None
            else []
        )
        # Declines can shrink the previous solution's region below k
        # while another component stays viable: when every reused start
        # is written off, rank cold instead of burning the whole budget
        # on zero draws.
        for warm_used in (True, False) if warm_starts else (False,):
            if warm_used:
                starts = warm_starts
            elif self.start_selection == "random":
                starts = self._random_starts(problem, m, rng)
            else:
                starts = select_start_nodes(problem, evaluator, m)
            node_stats = [StartNodeStats(node=start) for start in starts]
            self._prepare(problem, starts, evaluator)
            skipped = self._prune_undersized_components(
                problem, starts, node_stats
            )
            if not all(stat.pruned for stat in node_stats):
                break
        stage_total = self._stage_count(problem, len(starts))
        failures = [0] * len(starts)
        stats = SolveStats()
        if skipped:
            stats.extra["skipped_small_components"] = skipped

        # The context picks the stage strategy — serial by default,
        # stage-sharded when its cost model (or a forced mode) says this
        # solve is worth sharding, or whatever executor it pins.
        executor = self.context.executor_for(self, problem)
        context = StageContext(
            solver=self,
            problem=problem,
            sampler=sampler,
            rng=rng,
            starts=starts,
            node_stats=node_stats,
            failures=failures,
            stats=stats,
        )
        per_stage = max(1, self.budget // stage_total)
        if sampler.is_vector:
            # The solve-level Philox base key is drawn here — after phase
            # 1, before any stage — so serial and stage-sharded vector
            # runs read it from the identical point of the seeded stream.
            sampler.vector_key = rng.getrandbits(64)
        executor.begin_solve(context)
        for stage in range(stage_total):
            stats.stages += 1
            if stage == 0:
                # Zero weight for starts pruned up front (sub-k
                # components) so their stage-0 share is redirected,
                # not discarded.
                shares = apportion(
                    [0.0 if stat.pruned else 1.0 for stat in node_stats],
                    per_stage,
                )
            else:
                if self.allocation == "gaussian":
                    weights = gaussian_weights(node_stats)
                else:
                    weights = uniform_weights(node_stats)
                for index, weight in enumerate(weights):
                    if weight <= 0.0:
                        node_stats[index].pruned = True
                shares = apportion(weights, per_stage)

            executor.run_stage(context, shares)

            stats.extra.setdefault("stage_best", []).append(
                context.best_sample.willingness
                if context.best_sample is not None
                else None
            )
            if all(stat.pruned for stat in node_stats):
                break
        best_sample = context.best_sample

        if best_sample is None:
            raise BudgetExhaustedError(
                "CBAS drew no feasible sample within its budget"
            )
        self.last_warm_state = self._export_warm_state(starts)
        self.last_warm_state.graph_state = self._graph_state(problem)
        if warm_used:
            stats.extra["warm_start"] = True
        stats.extra["start_nodes"] = len(starts)
        stats.extra["pruned_start_nodes"] = sum(
            1 for stat in node_stats if stat.pruned
        )
        # Vectorization accounting: written only when non-zero so
        # non-vector runs' stats stay byte-identical to the historical
        # output.
        batched = getattr(sampler, "vector_batch_draws", 0)
        if batched:
            stats.extra["vector_batch_draws"] = batched
        solution = GroupSolution(
            members=best_sample.members, willingness=best_sample.willingness
        )
        return SolveResult(solution=solution, stats=stats)

    # ------------------------------------------------------------------
    def _prune_undersized_components(
        self,
        problem: WASOProblem,
        starts: list,
        node_stats: list[StartNodeStats],
    ) -> int:
        """Write off start nodes whose component cannot hold ``k`` members.

        Every expansion from such a start is doomed; pruning them up front
        redirects their budget instead of burning it on
        ``MAX_CONSECUTIVE_FAILURES`` stalls per start.  Returns how many
        starts were written off.
        """
        if not problem.connected:
            return 0
        if self.engine in ("compiled", "vector") and not problem.forbidden:
            # No forbidden nodes: allowed-induced components equal the
            # graph's components, which the frozen index already labelled.
            compiled = problem.compiled()
            by_index = compiled.component_size_by_index()
            index_of = compiled.index_of
            sizes = {start: by_index[index_of[start]] for start in starts}
        else:
            sizes = problem.allowed_component_sizes()
        skipped = 0
        for index, start in enumerate(starts):
            if sizes.get(start, 0) < problem.k:
                node_stats[index].pruned = True
                skipped += 1
        return skipped

    # ------------------------------------------------------------------
    # Warm start (§4.4.1 online re-planning)
    # ------------------------------------------------------------------
    def _warm_start_nodes(
        self, problem: WASOProblem, warm: CBASWarmState, m: int
    ) -> list:
        """Reuse a previous solve's phase-1 start nodes.

        Required attendees (the online planner's confirmed set) are
        promoted to the front and the list is truncated to ``m`` — the
        same contract ``select_start_nodes`` honours, so replans keep the
        configured OCBA concentration instead of diluting the per-stage
        budget over an ever-growing start list.  Starts that have since
        become forbidden are dropped; an empty result makes the caller
        fall back to a cold start ranking.
        """
        chosen = list(problem.required)
        if len(chosen) >= m:
            return chosen[:m]
        taken = set(chosen)
        for start in warm.starts:
            if len(chosen) >= m:
                break
            if start not in taken and problem.is_candidate(start):
                taken.add(start)
                chosen.append(start)
        return chosen

    def _export_warm_state(self, starts: list) -> CBASWarmState:
        """Snapshot reusable state after a solve (CBAS-ND adds vectors)."""
        return CBASWarmState(starts=list(starts))

    @staticmethod
    def _graph_state(problem: WASOProblem) -> tuple:
        """Identity + mutation stamp of the problem's graph.

        A warm state whose stamp no longer matches was earned on a
        different (or since-mutated) graph; its vectors are then dropped
        on *both* engines — mirroring the compiled engine's behaviour,
        where any mutation produces a fresh freeze and a new ``index_of``
        object.
        """
        graph = problem.graph
        return (id(graph), getattr(graph, "_mutation_count", None))

    # ------------------------------------------------------------------
    # Hooks overridden by CBAS-ND
    # ------------------------------------------------------------------
    def _prepare(
        self,
        problem: WASOProblem,
        starts: list,
        evaluator: "WillingnessEvaluator | FastWillingnessEvaluator",
    ) -> None:
        """Per-solve setup hook (CBAS-ND builds its probability vectors)."""

    # ------------------------------------------------------------------
    # Stage-draw hooks (every executor; see stage_exec and stage_pool)
    # ------------------------------------------------------------------
    def _shard_mode(self) -> str:
        """How stage draws bias the frontier for this solver."""
        return "uniform"

    def _stage_vector(
        self, start_index: int
    ) -> "SelectionProbabilities | None":
        """The start's CE vector for ``"ce"`` draws; uniform CBAS has none."""
        return None

    def _shard_keep_rank(self, share: int) -> int:
        """Samples each shard must retain, ranked by willingness.

        Uniform CBAS only needs the incumbent best back from a shard;
        CBAS-ND raises this to the elite retention rank ``⌈ρ·share⌉``.
        """
        return 1

    def _shard_initial_vectors(self) -> "list | None":
        """Per-start CE vector payloads for solve start (``None`` = none)."""
        return None

    def _merge_start_stage(
        self,
        start_index: int,
        successes: int,
        kept: "list[tuple[float, tuple[int, ...]]]",
        stats: SolveStats,
    ) -> "tuple | None":
        """Refit from one start node's merged stage (CBAS-ND's Eq. (4)).

        Called by :func:`~repro.algorithms.stage_exec.merge_start_stage`
        for a stage with at least one success.  ``kept`` holds the
        candidate elites as ``(willingness, ids)`` pairs, best first and
        ties in draw order.  Returns the vector-sync patch workers must
        replay before the next stage, or ``None`` when there is nothing
        to sync (uniform CBAS always; CBAS-ND when a stage produced no
        elites).
        """
        return None

    def _random_starts(
        self, problem: WASOProblem, m: int, rng: random.Random
    ) -> list:
        """Ablation mode: start nodes drawn uniformly (required first)."""
        required = list(problem.required)
        pool = [n for n in problem.candidates() if n not in problem.required]
        extra = rng.sample(pool, min(max(0, m - len(required)), len(pool)))
        return (required + extra)[: max(1, m)]

    def _stage_count(self, problem: WASOProblem, m: int) -> int:
        if self.stages is not None:
            return self.stages
        return plan_stages(
            self.budget,
            n=problem.graph.number_of_nodes(),
            k=problem.k,
            m=m,
            pb=self.pb,
            alpha=self.alpha,
        )
