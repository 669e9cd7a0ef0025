"""CBAS-ND — CBAS with cross-entropy Neighbour Differentiation (paper §4).

CBAS-ND inherits CBAS's two-phase skeleton (start-node selection + staged
OCBA budget allocation) and changes only how a partial solution is grown:
instead of the uniform frontier draw, each start node ``v_i`` carries a
node-selection probability vector ``p_i`` (Definition 3).  Frontier node
``v_j`` is picked with probability proportional to ``p_{i,t,j}``; after
each stage the vector is refitted to that stage's elite samples via the
cross-entropy update of Eq. (4) and smoothed with weight ``w``:

    p ← w · (elite frequency) + (1 − w) · p_old

Theorem 6 shows this strictly improves the convergence rate over CBAS at
equal budget.  ``allocation="gaussian"`` switches the budget-allocation
rule to the Appendix-A Gaussian model, giving the paper's **CBAS-ND-G**
variant (Fig. 6); :func:`cbas_nd_g` is a convenience constructor for it.

The optional ``backtrack_threshold`` enables the §4.4.2 extension: when a
vector's movement ``z_i`` drops below the threshold, it is reset to its
previous state to escape premature convergence.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Optional

from repro.algorithms.base import SolveStats
from repro.algorithms.cbas import CBAS, CBASWarmState
from repro.algorithms.sampling import ExpansionSampler, Sample
from repro.algorithms.stage_exec import MAX_CONSECUTIVE_FAILURES, StageExecutor
from repro.ce.convergence import BacktrackController
from repro.ce.probability import SelectionProbabilities
from repro.core.problem import WASOProblem
from repro.core.willingness import (
    FastWillingnessEvaluator,
    WillingnessEvaluator,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import ExecutionContext

__all__ = ["CBASND", "cbas_nd_g"]


class CBASND(CBAS):
    """CBAS with cross-entropy neighbour differentiation.

    Parameters (beyond :class:`~repro.algorithms.cbas.CBAS`)
    ----------------------------------------------------------
    rho:
        Elite quantile ``ρ`` (paper default 0.3).
    smoothing:
        Smoothing weight ``w`` (paper default 0.9).
    backtrack_threshold:
        Enable §4.4.2 backtracking below this squared-movement threshold
        (``None`` = off).
    """

    name = "cbas-nd"

    def __init__(
        self,
        budget: int = 200,
        m: Optional[int] = None,
        stages: Optional[int] = None,
        pb: float = 0.7,
        alpha: float = 0.99,
        allocation: str = "uniform",
        start_selection: str = "potential",
        engine: Optional[str] = None,
        executor: Optional[StageExecutor] = None,
        context: "Optional[ExecutionContext]" = None,
        rho: float = 0.3,
        smoothing: float = 0.9,
        backtrack_threshold: Optional[float] = None,
        max_backtracks: int = 3,
    ) -> None:
        super().__init__(
            budget=budget,
            m=m,
            stages=stages,
            pb=pb,
            alpha=alpha,
            allocation=allocation,
            start_selection=start_selection,
            engine=engine,
            executor=executor,
            context=context,
        )
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {rho}")
        if not 0.0 <= smoothing <= 1.0:
            raise ValueError(f"smoothing must lie in [0, 1], got {smoothing}")
        self.rho = rho
        self.smoothing = smoothing
        self.backtrack_threshold = backtrack_threshold
        self.max_backtracks = max_backtracks
        self._vectors: list[SelectionProbabilities] = []
        self._vectors_warm: list[bool] = []
        self._controllers: list[BacktrackController] = []

    # ------------------------------------------------------------------
    # CBAS hooks
    # ------------------------------------------------------------------
    def _prepare(
        self,
        problem: WASOProblem,
        starts: list,
        evaluator: "WillingnessEvaluator | FastWillingnessEvaluator",
    ) -> None:
        # On the compiled engine the vectors live in the compiled int-id
        # domain: one float slot per graph node, shared index mapping, so
        # the sampler weights frontier draws by plain list indexing.
        compiled = getattr(evaluator, "compiled", None)
        index_of = compiled.index_of if compiled is not None else None
        warm = self.warm_state
        if warm is not None and warm.graph_state != self._graph_state(
            problem
        ):
            # Earned on a different (or since-mutated) graph: both
            # engines drop the vectors so seeded runs stay identical —
            # the compiled engine would rebuild anyway (new freeze, new
            # index_of), the reference engine has no other tripwire.
            warm = None
        template: Optional[SelectionProbabilities] = None
        vectors: list[SelectionProbabilities] = []
        warm_flags: list[bool] = []
        for start in starts:
            vector = warm.vectors.get(start) if warm is not None else None
            if vector is not None and vector.index_map is index_of:
                # Surviving vector from the previous re-planning round,
                # same id domain (same freeze or both local): keep
                # refining it instead of resetting to the homogeneous
                # prior (§4.4.1 — this is what makes replans converge
                # faster than cold solves).  The elite threshold does NOT
                # survive: it was earned against the previous problem's
                # willingness ceiling, and a decline may have lowered
                # that ceiling below γ, which would blank every elite set
                # and freeze the vector.
                vector.reset_threshold()
                vectors.append(vector)
                warm_flags.append(True)
                continue
            warm_flags.append(False)
            if template is None:
                template = SelectionProbabilities(
                    problem.candidates(),
                    problem.k,
                    index_of=index_of,
                    size=(
                        compiled.number_of_nodes
                        if compiled is not None
                        else None
                    ),
                    # The vector engine refits whole float64 arrays; the
                    # batch kernel reads them zero-copy and the eager
                    # numpy rounds stay IEEE-identical to the lazy chain.
                    backend=(
                        "numpy"
                        if getattr(evaluator, "is_vector", False)
                        else "list"
                    ),
                )
                vectors.append(template)
            else:
                vectors.append(template.replicate())
        self._vectors = vectors
        self._vectors_warm = warm_flags
        self._controllers = [
            BacktrackController(
                threshold=self.backtrack_threshold,
                max_backtracks=self.max_backtracks,
            )
            for _ in starts
        ]

    def _draw_batch(
        self,
        sampler: ExpansionSampler,
        seed: set,
        rng: random.Random,
        start_index: int,
        count: int,
        failures: int,
    ) -> list[Optional[Sample]]:
        vector = self._vectors[start_index]
        array = vector.array
        if array is not None and sampler.is_compiled:
            # Array-backed vector + int frontier: each frontier weight is
            # one list index, no per-slot dict probe.
            return sampler.draw_batch(
                seed,
                rng,
                count,
                weight_array=array,
                failures=failures,
                max_failures=MAX_CONSECUTIVE_FAILURES,
            )
        return sampler.draw_batch(
            seed,
            rng,
            count,
            weight_of=vector.probability,
            failures=failures,
            max_failures=MAX_CONSECUTIVE_FAILURES,
        )

    def _export_warm_state(self, starts: list) -> CBASWarmState:
        state = super()._export_warm_state(starts)
        state.vectors = dict(zip(starts, self._vectors))
        return state

    def _after_start_stage(
        self,
        start_index: int,
        samples: list[Sample],
        stats: SolveStats,
    ) -> None:
        if not samples:
            return
        vector = self._vectors[start_index]
        controller = self._controllers[start_index]
        controller.remember(vector)
        movement = vector.update(
            samples,
            rho=self.rho,
            smoothing=self.smoothing,
            # The movement signal only steers backtracking; without it
            # the O(n) distance accumulation is skipped.
            compute_movement=controller.enabled,
        )
        if controller.observe(vector, movement):
            stats.extra["backtracks"] = stats.extra.get("backtracks", 0) + 1

    # ------------------------------------------------------------------
    # Shard-protocol hooks (stage-sharded execution)
    # ------------------------------------------------------------------
    def _shard_mode(self) -> str:
        """Pool workers weight frontier draws by mirrored CE vectors."""
        return "ce"

    def _stage_weight_array(self, start_index: int):
        """The start's probability array for the vector kernel's CE mode."""
        return self._vectors[start_index].array

    def _shard_keep_rank(self, share: int) -> int:
        """Elite retention rank ``⌈ρ · share⌉`` for a stage share.

        The merged stream's elite quantile rank is ``⌈ρ·N_success⌉ ≤
        ⌈ρ·share⌉``, so shards retaining their top-``⌈ρ·share⌉`` samples
        (ties included) provably cover the merged elite set.
        """
        return max(1, math.ceil(self.rho * share))

    def _shard_initial_vectors(self) -> list:
        """Solve-start vector payloads: arrays for warm vectors only.

        Cold vectors are the homogeneous prior, which workers rebuild
        locally (bit-identically) from the problem spec — only vectors
        surviving from a previous re-planning round carry state worth
        shipping.
        """
        return [
            tuple(vector.snapshot()) if warm else None
            for vector, warm in zip(self._vectors, self._vectors_warm)
        ]

    def _merge_start_stage(
        self,
        start_index: int,
        successes: int,
        kept: "list[tuple[float, tuple[int, ...]]]",
        stats: SolveStats,
    ) -> "tuple | None":
        """One Eq. (4) refit from the merged shard evidence.

        The stage quantile is taken over the *full* merged stream (the
        per-shard retention rank guarantees the rank-``⌈ρ·N⌉`` value and
        every threshold-tied sample are among ``kept``), so the vector is
        refitted from exactly the elite set a serial run over the
        concatenated sample stream would produce.
        """
        if successes == 0:
            return None
        vector = self._vectors[start_index]
        rank = max(1, math.ceil(self.rho * successes))
        ordered = sorted((w for w, _ in kept), reverse=True)
        stage_gamma = ordered[min(rank, len(ordered)) - 1]
        gamma = vector.observe_stage_gamma(stage_gamma)
        elites = [(w, indices) for w, indices in kept if w >= gamma]
        if not elites:
            # Every sample fell below the historic threshold: keep the
            # vector unchanged rather than fitting to nothing.
            return None
        counts: dict[int, int] = {}
        for _, indices in elites:
            for slot in indices:
                counts[slot] = counts.get(slot, 0) + 1
        controller = self._controllers[start_index]
        controller.remember(vector)
        patch, movement = vector.update_from_counts(
            counts,
            len(elites),
            self.smoothing,
            compute_movement=controller.enabled,
        )
        if controller.observe(vector, movement):
            stats.extra["backtracks"] = stats.extra.get("backtracks", 0) + 1
            # The restore rewrote the whole array: mirrors need a full
            # resync, not the round patch.
            patch = ("full", tuple(vector.snapshot()))
        return patch


def cbas_nd_g(**kwargs) -> CBASND:
    """The paper's CBAS-ND-G: CBAS-ND with Gaussian budget allocation."""
    kwargs.setdefault("allocation", "gaussian")
    solver = CBASND(**kwargs)
    solver.name = "cbas-nd-g"
    return solver
