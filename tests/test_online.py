"""Tests for the online re-planning state machine (§4.4.1)."""

import pytest

from repro.algorithms.cbas_nd import CBASND
from repro.core.problem import WASOProblem
from repro.exceptions import InfeasibleProblemError
from repro.online import OnlinePlanner
from repro.online.replanning import ResponseState


def _planner(graph, k=5, rng=7):
    problem = WASOProblem(graph=graph, k=k)
    solver = CBASND(budget=60, m=6, stages=3)
    return OnlinePlanner(problem, solver=solver, rng=rng)


class TestPlanning:
    def test_initial_plan_feasible(self, small_facebook):
        planner = _planner(small_facebook)
        solution = planner.plan()
        assert len(solution.members) == 5
        assert small_facebook.is_connected_subset(solution.members)

    def test_everyone_invited(self, small_facebook):
        planner = _planner(small_facebook)
        solution = planner.plan()
        assert set(planner.invitations) >= set(solution.members)

    def test_accept_then_replan_keeps_confirmed(self, small_facebook):
        planner = _planner(small_facebook)
        solution = planner.plan()
        keeper = next(iter(solution.members))
        planner.record_accept(keeper)
        refreshed = planner.plan()
        assert keeper in refreshed.members

    def test_decline_removes_and_replans(self, small_facebook):
        planner = _planner(small_facebook)
        solution = planner.plan()
        victim = next(iter(solution.members))
        refreshed = planner.record_decline(victim)
        assert victim not in refreshed.members
        assert len(refreshed.members) == 5

    def test_decline_then_accept_conflicts(self, small_facebook):
        planner = _planner(small_facebook)
        solution = planner.plan()
        victim = next(iter(solution.members))
        planner.record_decline(victim)
        with pytest.raises(ValueError):
            planner.record_accept(victim)

    def test_accept_then_decline_conflicts(self, small_facebook):
        planner = _planner(small_facebook)
        solution = planner.plan()
        keeper = next(iter(solution.members))
        planner.record_accept(keeper)
        with pytest.raises(ValueError):
            planner.record_decline(keeper)

    def test_uninvited_person_rejected(self, small_facebook):
        planner = _planner(small_facebook)
        planner.plan()
        with pytest.raises(ValueError):
            planner.record_accept("nobody")

    def test_finalize_accepts_pending(self, small_facebook):
        planner = _planner(small_facebook)
        planner.plan()
        final = planner.finalize()
        assert len(final.members) == 5
        assert all(
            planner.invitations[node].state is ResponseState.ACCEPTED
            for node in final.members
        )

    def test_finalize_plans_if_needed(self, small_facebook):
        planner = _planner(small_facebook)
        final = planner.finalize()
        assert len(final.members) == 5

    def test_many_declines_eventually_infeasible(self, path_graph):
        problem = WASOProblem(graph=path_graph, k=4)
        planner = OnlinePlanner(
            problem, solver=CBASND(budget=20, m=2, stages=2), rng=1
        )
        solution = planner.plan()
        # Declining two of five path nodes leaves no connected 4-set.
        victims = list(solution.members)[:2]
        with pytest.raises(InfeasibleProblemError):
            for victim in victims:
                planner.record_decline(victim)

    def test_replan_stats_tracked(self, small_facebook):
        planner = _planner(small_facebook)
        solution = planner.plan()
        assert planner.replan_count == 0
        extra = planner.last_result.stats.extra
        assert extra["replans"] == 0
        assert len(extra["replan_samples"]) == 1
        victims = sorted(solution.members, key=repr)[:2]
        for victim in victims:
            planner.record_decline(victim)
        assert planner.replan_count == 2
        extra = planner.last_result.stats.extra
        assert extra["replans"] == 2
        assert len(extra["replan_samples"]) == 3
        assert extra["replan_samples"] == planner.replan_samples
        assert all(samples > 0 for samples in extra["replan_samples"])

    def test_replan_runs_warm(self, small_facebook):
        planner = _planner(small_facebook)
        solution = planner.plan()
        # The initial plan is cold...
        assert "warm_start" not in planner.last_result.stats.extra
        victim = next(iter(solution.members))
        planner.record_decline(victim)
        # ... the re-plan reuses the previous phase-1 starts.
        assert planner.last_result.stats.extra.get("warm_start") is True
        # The solver itself is left cold; the planner holds the state.
        assert planner.solver.warm_state is None
        warm = planner.solver.last_warm_state
        assert warm is not None
        assert victim not in warm.starts  # declined starts are dropped

    def test_warm_vectors_survive_replans(self, small_facebook):
        planner = _planner(small_facebook)
        solution = planner.plan()
        first_vectors = dict(planner.solver.last_warm_state.vectors)
        victim = next(iter(solution.members))
        planner.record_decline(victim)
        second = planner.solver.last_warm_state.vectors
        surviving = set(first_vectors) & set(second)
        assert surviving
        # Surviving starts keep refining the same vector objects instead
        # of resetting to the homogeneous prior.
        assert any(
            second[start] is first_vectors[start] for start in surviving
        )

    def test_warm_vectors_reset_elite_threshold(self, small_facebook):
        """Reused vectors keep probabilities but not the old problem's γ.

        A decline can lower the achievable willingness below the carried
        monotone threshold, which would blank every elite set and freeze
        the vector — replans must re-earn γ against the new ceiling.
        """
        import math

        from repro.core.willingness import evaluator_for

        problem = WASOProblem(graph=small_facebook, k=5)
        solver = CBASND(budget=60, m=6, stages=3)
        solver.solve(problem, rng=7)
        state = solver.last_warm_state
        assert any(
            vector.gamma > -math.inf for vector in state.vectors.values()
        )
        solver.warm_state = state
        evaluator = evaluator_for(problem.graph, solver.engine)
        solver._prepare(problem, state.starts, evaluator)
        for vector in solver._vectors:
            assert vector.gamma == -math.inf

    def test_planner_leaves_solver_cold_for_standalone_use(
        self, small_facebook
    ):
        """plan() must not leave its warm state installed on the solver."""
        problem = WASOProblem(graph=small_facebook, k=5)
        solver = CBASND(budget=60, m=6, stages=3)
        cold = solver.solve(problem, rng=9)
        planner = OnlinePlanner(problem, solver=solver, rng=7)
        solution = planner.plan()
        planner.record_decline(next(iter(solution.members)))
        assert solver.warm_state is None
        # A later standalone solve is a genuine cold solve again.
        again = solver.solve(problem, rng=9)
        assert again.members == cold.members
        assert "warm_start" not in again.stats.extra

    def test_stale_graph_warm_vectors_dropped_on_both_engines(
        self, small_facebook
    ):
        """Vectors earned on another graph are never reused (either engine).

        The compiled engine would rebuild anyway (fresh freeze, new
        index_of); the reference engine must drop them in lockstep or
        seeded runs would diverge across engines.
        """
        from repro.graph.generators import facebook_like

        other_graph = facebook_like(200, seed=5)
        other_problem = WASOProblem(graph=other_graph, k=5)
        problem = WASOProblem(graph=small_facebook, k=5)
        results = {}
        for engine in ("reference", "compiled"):
            solver = CBASND(budget=60, m=6, stages=3, engine=engine)
            solver.solve(other_problem, rng=3)
            stale = solver.last_warm_state
            stale_ids = {id(v) for v in stale.vectors.values()}
            solver.warm_state = stale
            warm = solver.solve(problem, rng=9)
            results[engine] = (warm.members, warm.willingness)
            # The stale vectors were discarded: the new solve exported
            # freshly-built vector objects, none reused from the stale
            # state.
            exported = solver.last_warm_state.vectors.values()
            assert all(id(v) not in stale_ids for v in exported)
            assert warm.solution.is_feasible(problem)
        assert results["reference"] == results["compiled"]

    @pytest.mark.parametrize("engine", ["reference", "compiled", "vector"])
    def test_warm_replan_falls_back_when_all_starts_pruned(self, engine):
        """Warm starts stranded in a sub-k region fall back to cold.

        Barbell graph: small component A joined to a big component B by a
        bridge node.  A warm state whose starts all sit in A, replanned
        after the bridge is declined, must re-rank cold (B still holds a
        feasible group) instead of raising BudgetExhaustedError, and
        report only the cold ranking's component skips (none).
        """
        from repro.algorithms.cbas import CBAS
        from repro.graph.social_graph import SocialGraph

        graph = SocialGraph()
        for node in range(16):
            graph.add_node(node, interest=1.0)
        for u in range(5):  # component A: clique over 0..4
            for v in range(u + 1, 5):
                graph.add_edge(u, v, 1.0)
        for u in range(6, 16):  # component B: clique over 6..15
            for v in range(u + 1, 16):
                graph.add_edge(u, v, 1.0)
        graph.add_edge(4, 5, 1.0)  # bridge node 5
        graph.add_edge(5, 6, 1.0)
        problem = WASOProblem(graph=graph, k=6)
        solver = CBAS(budget=40, m=4, stages=2, engine=engine)
        solver.solve(problem, rng=1)
        # Pretend the previous solution lived in A: starts 0..3 plus the
        # bridge; declining the bridge strands them all below k.
        solver.warm_state = solver.last_warm_state
        solver.warm_state.starts = [0, 1, 2, 3, 5]
        declined = problem.without_nodes({5})
        result = solver.solve(declined, rng=2)
        assert result.solution.is_feasible(declined)
        assert result.members <= set(range(6, 16))
        assert "warm_start" not in result.stats.extra
        assert "skipped_small_components" not in result.stats.extra

    def test_warm_start_disabled_runs_cold(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        planner = OnlinePlanner(
            problem,
            solver=CBASND(budget=60, m=6, stages=3),
            rng=7,
            warm_start=False,
        )
        solution = planner.plan()
        victim = next(iter(solution.members))
        refreshed = planner.record_decline(victim)
        assert "warm_start" not in planner.last_result.stats.extra
        assert victim not in refreshed.members

    @pytest.mark.parametrize("decline_count", [1, 2])
    def test_warm_replans_engine_equivalent(
        self, small_facebook, decline_count
    ):
        """Warm-started replans stay bit-identical across engines."""
        outcomes = {}
        for engine in ("reference", "compiled"):
            problem = WASOProblem(graph=small_facebook, k=5)
            planner = OnlinePlanner(
                problem,
                solver=CBASND(budget=60, m=6, stages=3, engine=engine),
                rng=7,
            )
            solution = planner.plan()
            groups = [frozenset(solution.members)]
            victims = sorted(solution.members, key=repr)[:decline_count]
            for victim in victims:
                groups.append(
                    frozenset(planner.record_decline(victim).members)
                )
            outcomes[engine] = (
                groups,
                planner.replan_samples,
                planner.last_result.willingness,
            )
        assert outcomes["reference"] == outcomes["compiled"]

    def test_base_required_nodes_preserved(self, small_facebook):
        anchor = next(iter(small_facebook.nodes()))
        problem = WASOProblem(
            graph=small_facebook, k=5, required=frozenset({anchor})
        )
        planner = OnlinePlanner(
            problem, solver=CBASND(budget=60, m=6, stages=3), rng=3
        )
        solution = planner.plan()
        assert anchor in solution.members
        victim = next(iter(solution.members - {anchor}))
        refreshed = planner.record_decline(victim)
        assert anchor in refreshed.members


class TestPrunedDeclines:
    """``prune_declined=True``: declines really shrink the graph, as an
    in-place delta patch (same frozen index, bumped generation)."""

    def _fresh_graph(self, seed=17, n=60):
        # Fresh per-test graph: pruning mutates it, so the session-scoped
        # fixtures must never be used here.
        from repro.graph.generators import random_social_graph

        return random_social_graph(n, average_degree=4.0, seed=seed)

    def test_decline_prunes_incident_edges_in_place(self):
        from repro.graph.compiled import CompiledGraph

        graph = self._fresh_graph()
        problem = WASOProblem(graph=graph, k=5)
        planner = OnlinePlanner(
            problem,
            solver=CBASND(budget=60, m=6, stages=3),
            rng=7,
            prune_declined=True,
        )
        compiled = graph.compiled()
        token = compiled.payload_token
        solution = planner.plan()
        victim = next(iter(solution.members))
        assert graph.degree(victim) > 0
        refreshed = planner.record_decline(victim)
        assert victim not in refreshed.members
        assert graph.degree(victim) == 0  # edges gone, not just forbidden
        # Patched in place: same index object, same token, new generation
        # — and bit-identical to a fresh refreeze of the pruned graph.
        assert graph.compiled() is compiled
        assert compiled.payload_token == token
        assert compiled.generation >= 1
        fresh = CompiledGraph.from_graph(graph)
        assert list(compiled.offsets) == list(fresh.offsets)
        assert list(compiled.targets) == list(fresh.targets)
        assert list(compiled.potential) == list(fresh.potential)
        planner.close()

    def test_pruned_replan_keeps_warm_state(self):
        graph = self._fresh_graph(seed=23)
        problem = WASOProblem(graph=graph, k=5)
        planner = OnlinePlanner(
            problem,
            solver=CBASND(budget=60, m=6, stages=3),
            rng=9,
            prune_declined=True,
        )
        solution = planner.plan()
        victim = next(iter(solution.members))
        planner.record_decline(victim)
        # The re-stamped warm state survived the mutation: the replan
        # ran warm (CE vectors / start ranking reused), not cold.
        assert planner.last_result.stats.extra.get("warm_start") is True
        assert planner.replan_count == 1
        planner.close()

    def test_warm_declining_replan_ships_patch_not_install(self):
        """The ISSUE's headline guarantee: a warm resident pool serves a
        declining replan with a sparse ``graph_patch`` — zero graph
        re-installs, patch bytes on the wire."""
        from repro.runtime import ExecutionContext

        graph = self._fresh_graph(seed=29, n=80)
        problem = WASOProblem(graph=graph, k=5)
        with ExecutionContext(workers=2, mode="stage") as context:
            with OnlinePlanner(
                problem,
                solver=context.make_solver(
                    "cbas-nd", budget=100, m=6, stages=2
                ),
                rng=3,
                prune_declined=True,
                context=context,
            ) as planner:
                solution = planner.plan()
                first_extra = planner.last_result.stats.extra
                assert first_extra["graph_shipped"]
                installs_before = context.pool().installs
                victim = next(iter(sorted(solution.members, key=repr)))
                planner.record_decline(victim)
                extra = planner.last_result.stats.extra
                assert context.pool().installs == installs_before
                assert extra.get("graph_installs", 0) == 0
                assert not extra["graph_shipped"]
                assert extra["graph_patch_bytes"] > 0
