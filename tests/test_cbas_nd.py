"""Tests for CBAS-ND (cross-entropy neighbour differentiation)."""

import random

import pytest

from repro.algorithms.base import SolveStats
from repro.algorithms.cbas import CBAS
from repro.algorithms.cbas_nd import CBASND, CBASNDG
from repro.algorithms.sampling import ExpansionSampler
from repro.algorithms.stage_exec import SerialStageExecutor, StageContext
from repro.algorithms.start_nodes import select_start_nodes
from repro.budget.ocba import StartNodeStats
from repro.core.problem import WASOProblem
from repro.core.willingness import evaluator_for


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CBASND(rho=0.0)
        with pytest.raises(ValueError):
            CBASND(rho=1.5)
        with pytest.raises(ValueError):
            CBASND(smoothing=-0.1)
        with pytest.raises(ValueError):
            CBASND(smoothing=1.1)

    def test_gaussian_variant_factory(self):
        solver = CBASNDG(budget=50)
        assert solver.allocation == "gaussian"
        assert solver.name == "cbas-nd-g"


class TestSolve:
    def test_feasible_solution(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=6)
        result = CBASND(budget=100, m=10, stages=4).solve(problem, rng=3)
        assert result.solution.is_feasible(problem)

    def test_finds_fig3_optimum(self, fig3):
        problem = WASOProblem(graph=fig3, k=5)
        result = CBASND(budget=100, m=2, stages=3).solve(problem, rng=3)
        assert result.willingness == pytest.approx(9.7)
        assert result.members == frozenset({3, 4, 5, 6, 7})

    def test_reproducible(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=6)
        first = CBASND(budget=100, m=10, stages=4).solve(problem, rng=11)
        second = CBASND(budget=100, m=10, stages=4).solve(problem, rng=11)
        assert first.members == second.members

    def test_smoothing_zero_behaves_like_cbas(self, small_facebook):
        """w = 0 keeps the vector homogeneous -> same search family as CBAS.

        (Theorem 6's proof equates CBAS with CBAS-ND at w = 0.)  We verify
        the weaker executable claim: the solver still works and explores.
        """
        problem = WASOProblem(graph=small_facebook, k=6)
        result = CBASND(budget=80, m=8, stages=4, smoothing=0.0).solve(
            problem, rng=5
        )
        assert result.solution.is_feasible(problem)

    def test_gaussian_allocation(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=6)
        result = CBASNDG(budget=100, m=10, stages=4).solve(problem, rng=3)
        assert result.solution.is_feasible(problem)

    def test_backtracking_counts(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=6)
        solver = CBASND(
            budget=150,
            m=5,
            stages=6,
            backtrack_threshold=10.0,  # huge threshold -> always backtrack
            max_backtracks=2,
        )
        result = solver.solve(problem, rng=3)
        assert result.stats.extra.get("backtracks", 0) >= 1

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_stage_without_elites_is_not_a_backtrack(
        self, small_facebook, engine
    ):
        """A stage whose samples all fall below γ leaves the vector as it
        is.  Nothing moved, so nothing is restored: no backtrack is
        counted and none of ``max_backtracks`` is used up."""
        problem = WASOProblem(graph=small_facebook, k=6)
        evaluator = evaluator_for(small_facebook, engine)
        starts = select_start_nodes(problem, evaluator, 3)
        solver = CBASND(
            backtrack_threshold=10.0, max_backtracks=2, engine=engine
        )
        solver._prepare(problem, starts, evaluator)
        for vector in solver._vectors:
            # An earlier stage's threshold no sample can reach.
            vector.observe_stage_gamma(1e9)
        before = [vector.snapshot() for vector in solver._vectors]
        context = StageContext(
            solver=solver,
            problem=problem,
            sampler=ExpansionSampler(problem, evaluator),
            rng=random.Random(5),
            starts=starts,
            node_stats=[StartNodeStats(node=start) for start in starts],
            failures=[0] * len(starts),
            stats=SolveStats(),
        )
        SerialStageExecutor().run_stage(context, [10] * len(starts))
        assert context.stats.samples_drawn == 30
        assert context.best_sample is not None
        assert "backtracks" not in context.stats.extra
        assert [c.backtracks_used for c in solver._controllers] == [0] * 3
        assert [vector.snapshot() for vector in solver._vectors] == before

    def test_no_backtracking_by_default(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=6)
        result = CBASND(budget=60, m=5, stages=3).solve(problem, rng=3)
        assert "backtracks" not in result.stats.extra

    def test_required_node(self, small_facebook):
        anchor = next(iter(small_facebook.nodes()))
        problem = WASOProblem(
            graph=small_facebook, k=5, required=frozenset({anchor})
        )
        result = CBASND(budget=60, m=6, stages=3).solve(problem, rng=1)
        assert anchor in result.members

    def test_wasodis(self, two_components_graph):
        problem = WASOProblem(
            graph=two_components_graph, k=4, connected=False
        )
        result = CBASND(budget=40, m=3, stages=2).solve(problem, rng=2)
        assert result.solution.is_feasible(problem)


class TestQualityVsCBAS:
    def test_cbasnd_beats_cbas_on_average(self, small_facebook):
        """Theorem 6's executable counterpart: at equal budget, CBAS-ND's
        mean quality over seeds is at least CBAS's (with slack for noise).
        """
        problem = WASOProblem(graph=small_facebook, k=10)
        seeds = range(6)
        cbas_mean = sum(
            CBAS(budget=200, m=10, stages=6).solve(problem, rng=s).willingness
            for s in seeds
        ) / 6
        nd_mean = sum(
            CBASND(budget=200, m=10, stages=6)
            .solve(problem, rng=s)
            .willingness
            for s in seeds
        ) / 6
        assert nd_mean >= cbas_mean * 0.95
