"""Online computation — adjusting the group as invitations come back.

Paper §4.4.1: after invitations go out, some candidates decline.  The
already-confirmed attendees are *kept* (they anchor the partial solution,
like entangled queries that must stay coordinated), the decliners are
removed from the graph, and the second phase of CBAS-ND re-runs with the
confirmed set as the initial partial solution.  The start nodes of phase 1
need not be recomputed, which is why the paper calls the online step fast.

:class:`OnlinePlanner` wraps that loop as a small state machine:

    plan → invite → record accept/decline → replan → ... → final group

Re-plans are **warm-started** (``warm_start=True``, the default) when the
solver supports it (:class:`~repro.algorithms.cbas.CBAS` and subclasses):
the planner feeds the previous solve's
:class:`~repro.algorithms.cbas.CBASWarmState` back into the solver, so a
re-plan reuses (1) the frozen compiled index — cached on the shared graph,
declines only grow the ``forbidden`` set — (2) the phase-1 start-node
ranking with confirmed attendees promoted and decliners dropped, and
(3) CBAS-ND's surviving cross-entropy vectors, which keep refining instead
of resetting to the homogeneous prior.  Each solve's
``SolveStats.extra`` records ``replans`` (count so far) and
``replan_samples`` (budget actually drawn per planning round) so the
"online is fast" claim is observable.

Runtime integration: the planner executes through an
:class:`~repro.runtime.context.ExecutionContext` — passed in, adopted
from the solver, or a private serial one — which owns the worker pool
and the stage-strategy choice; the planner keeps its own warm state
between rounds.  The pool is resident (:mod:`repro.parallel.
residency`): stage-sharded re-plans reuse the context's
:class:`~repro.parallel.pool.ResidentPool` *and* the graph arrays
already resident in it, including arrays a ``solve_many`` batch
installed there.  By
default declines only grow the ``forbidden`` set, which leaves the
frozen index (and therefore its payload token) unchanged, so each
re-plan ships an O(1) problem spec instead of the O(V+E) graph.  With
``prune_declined=True`` a decline additionally *removes the decliner's
incident edges* — the graph really shrinks, as in paper §4.4.1 — via
:meth:`~repro.graph.compiled.CompiledGraph.apply_deltas`: the frozen
index is patched in place (same payload token, bumped generation), the
resident pool ships only the O(|delta|) ``graph_patch`` record instead
of re-installing the arrays, and the planner's stored warm state is
re-stamped so start nodes and CE vectors survive the mutation.  The
shared accounting exposes this uniformly:
``SolveStats.extra["graph_shipped"]`` is ``True`` for the initial plan
and ``False`` for every warm re-plan (``graph_installs`` stays 0 and
``graph_patch_bytes`` records the patch traffic when pruning).
Use the planner as a context manager (or call :meth:`OnlinePlanner.
close`) to release the pool when the planning session ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.algorithms.base import RngLike, Solver, coerce_rng
from repro.core.problem import WASOProblem
from repro.core.solution import GroupSolution
from repro.exceptions import SolverError
from repro.graph.social_graph import NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import ExecutionContext

__all__ = ["OnlinePlanner", "Invitation", "ResponseState"]


class ResponseState(Enum):
    """Lifecycle of one invitation."""

    PENDING = "pending"
    ACCEPTED = "accepted"
    DECLINED = "declined"


@dataclass
class Invitation:
    """One person's invitation status."""

    node: NodeId
    state: ResponseState = ResponseState.PENDING


class OnlinePlanner:
    """Incremental group planner reacting to accepts / declines.

    Parameters
    ----------
    problem:
        The original WASO instance.
    solver:
        Solver used for the initial plan and each re-plan (default a
        CBAS-ND with a modest budget).
    rng:
        Seed / generator for reproducibility.
    warm_start:
        Re-plan from the previous round's start nodes and CE vectors
        instead of solving cold (ignored for solvers without warm-state
        support).
    prune_declined:
        When ``True``, :meth:`record_decline` removes the decliner's
        incident edges from the shared graph through
        :meth:`~repro.graph.compiled.CompiledGraph.apply_deltas`, so
        the frozen index is patched in place (payload token preserved,
        generation bumped) and warm resident workers receive a sparse
        ``graph_patch`` instead of a full re-install.  Off by default:
        pruning changes the potentials the samplers see, so pruned and
        forbidden-only re-plans are both valid but not bit-identical.
    context:
        The :class:`~repro.runtime.context.ExecutionContext` planning
        runs through.  When omitted the planner adopts the solver's
        context (or builds its default solver through a private serial
        one).  The context owns the resident pool, so replans and fresh
        solves share it.
    """

    def __init__(
        self,
        problem: WASOProblem,
        solver: Optional[Solver] = None,
        rng: RngLike = None,
        warm_start: bool = True,
        prune_declined: bool = False,
        context: "Optional[ExecutionContext]" = None,
    ) -> None:
        self.base_problem = problem
        if solver is None:
            if context is None:
                from repro.algorithms.cbas_nd import CBASND

                solver = CBASND(budget=200)
            else:
                solver = context.make_solver("cbas-nd", budget=200)
        self.solver = solver
        if context is None:
            context = getattr(solver, "context", None)
        if context is None:
            from repro.runtime.context import ExecutionContext

            context = ExecutionContext(mode="serial")
        # Co-own the context for the planning session: release() in
        # close() tears the pool down only once every owner is done.
        self.context = context.acquire()
        #: The last round's warm state, installed on the solver only for
        #: the duration of each re-plan.
        self._warm_state = None
        self.rng = coerce_rng(rng)
        self.warm_start = warm_start
        self.prune_declined = prune_declined
        self.invitations: dict[NodeId, Invitation] = {}
        self.declined: set[NodeId] = set()
        self.current: Optional[GroupSolution] = None
        #: Re-plans performed so far (the initial plan is not a re-plan).
        self.replan_count = 0
        #: Samples drawn by each planning round, in order.
        self.replan_samples: list[int] = []
        self.last_result = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def accepted(self) -> set[NodeId]:
        return {
            inv.node
            for inv in self.invitations.values()
            if inv.state is ResponseState.ACCEPTED
        }

    @property
    def pending(self) -> set[NodeId]:
        return {
            inv.node
            for inv in self.invitations.values()
            if inv.state is ResponseState.PENDING
        }

    def plan(self) -> GroupSolution:
        """Compute (or re-compute) the recommended group.

        Confirmed attendees are required; declined ones are forbidden.
        Re-plans run warm (previous start nodes + surviving CE vectors,
        frozen index shared via the graph cache) unless ``warm_start``
        is off.  Raises :class:`InfeasibleProblemError` when declines
        have made the target group size unreachable.
        """
        problem = self._current_problem()
        is_replan = self.current is not None
        supports_warm = hasattr(self.solver, "warm_state")
        if supports_warm:
            self.solver.warm_state = (
                self._warm_state if self.warm_start else None
            )
        try:
            result = self.context.solve(problem, self.solver, rng=self.rng)
        finally:
            if supports_warm:
                # Never leave the planner's state installed on the solver
                # (even when the solve raises): a later standalone
                # solver.solve() must stay a cold solve.
                self.solver.warm_state = None
        if supports_warm:
            self._warm_state = self.solver.last_warm_state
        if is_replan:
            self.replan_count += 1
        self.replan_samples.append(result.stats.samples_drawn)
        result.stats.extra["replans"] = self.replan_count
        result.stats.extra["replan_samples"] = list(self.replan_samples)
        self.last_result = result
        self.current = result.solution
        for node in self.current.members:
            if node not in self.invitations:
                self.invitations[node] = Invitation(node=node)
        return self.current

    def record_accept(self, node: NodeId) -> None:
        """Mark ``node`` as confirmed."""
        invitation = self._require_invited(node)
        if invitation.state is ResponseState.DECLINED:
            raise ValueError(f"{node!r} already declined")
        invitation.state = ResponseState.ACCEPTED

    def record_decline(self, node: NodeId) -> GroupSolution:
        """Mark ``node`` as declined and immediately re-plan.

        Returns the refreshed group (confirmed attendees preserved).
        With ``prune_declined`` the decliner's incident edges are first
        removed from the shared graph as an in-place delta patch, so
        the warm re-plan ships O(degree) bytes to resident workers
        instead of re-installing the frozen arrays.
        """
        invitation = self._require_invited(node)
        if invitation.state is ResponseState.ACCEPTED:
            raise ValueError(f"{node!r} already accepted")
        invitation.state = ResponseState.DECLINED
        self.declined.add(node)
        if self.prune_declined:
            self._prune_node(node)
        return self.plan()

    def finalize(self) -> GroupSolution:
        """Treat every pending invitation as accepted and return the group."""
        if self.current is None:
            self.plan()
        for node in list(self.pending):
            self.record_accept(node)
        assert self.current is not None
        return self.current

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release execution resources held for the planning session
        (idempotent).

        Stage-sharded re-plans keep the context's worker pool warm so
        the graph stays resident; closing the planner releases its
        co-ownership of that :class:`~repro.runtime.context.
        ExecutionContext` — the context's pool closes once the last
        owner lets go.
        """
        if self._closed:
            return
        self._closed = True
        self._warm_state = None
        self.context.release()

    def __enter__(self) -> "OnlinePlanner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _prune_node(self, node: NodeId) -> None:
        """Drop ``node``'s incident edges via an in-place delta patch.

        The compiled index keeps its payload token and bumps its
        generation, so the resident pool patches warm workers instead of
        re-shipping the arrays.  The planner's stored warm state is
        re-stamped afterwards — the mutation count moved, but the start
        nodes and CE vectors were earned on this very graph and stay
        valid (the decliner itself is filtered out by the ``forbidden``
        check on reuse).
        """
        graph = self.base_problem.graph
        neighbors = list(graph.neighbors(node))
        if not neighbors:
            return
        graph.compiled().apply_deltas(
            [("remove_edge", node, neighbor) for neighbor in neighbors]
        )
        state = self._warm_state
        if state is not None and getattr(state, "graph_state", None) is not None:
            from repro.algorithms.cbas import CBAS

            state.graph_state = CBAS._graph_state(self.base_problem)

    def _current_problem(self) -> WASOProblem:
        confirmed = self.accepted
        required = self.base_problem.required | frozenset(confirmed)
        forbidden = self.base_problem.forbidden | frozenset(self.declined)
        if len(required & forbidden) > 0:
            raise SolverError("a confirmed attendee later declined")
        problem = WASOProblem(
            graph=self.base_problem.graph,
            k=self.base_problem.k,
            connected=self.base_problem.connected,
            required=required,
            forbidden=forbidden,
        )
        problem.ensure_feasible()
        return problem

    def _require_invited(self, node: NodeId) -> Invitation:
        try:
            return self.invitations[node]
        except KeyError:
            raise ValueError(f"{node!r} was never invited") from None
