"""Tests for the simulated user study (§5.2)."""

import dataclasses
import random

import pytest

from repro.algorithms.exact import ExactBnB
from repro.algorithms.ip import IPSolver
from repro.core.problem import WASOProblem
from repro.graph.generators import random_social_graph
from repro.userstudy import (
    ManualCoordinator,
    Opinion,
    StudyConfig,
    UserStudy,
    judge_opinion,
    sample_lambda,
)
from repro.userstudy.study import LAMBDA_HIGH, LAMBDA_LOW


def _connected_graph(n, seed):
    graph = random_social_graph(n, average_degree=6.0, seed=seed)
    components = graph.connected_components()
    anchor = next(iter(components[0]))
    for component in components[1:]:
        graph.add_edge(anchor, next(iter(component)), 0.1)
    return graph


class TestManualCoordinator:
    def test_produces_feasible_group(self):
        graph = _connected_graph(25, seed=3)
        problem = WASOProblem(graph=graph, k=7)
        result = ManualCoordinator().coordinate(problem, rng=1)
        assert len(result.members) == 7
        assert graph.is_connected_subset(result.members)
        assert result.simulated_seconds > 0
        assert result.candidates_considered > 0

    def test_respects_required(self):
        graph = _connected_graph(25, seed=3)
        anchor = next(iter(graph.nodes()))
        problem = WASOProblem(
            graph=graph, k=7, required=frozenset({anchor})
        )
        result = ManualCoordinator().coordinate(problem, rng=1)
        assert anchor in result.members

    def test_quality_below_optimal_on_average(self):
        """The human model should trail the exact optimum."""
        from repro.algorithms.ip import IPSolver

        total_manual, total_optimal = 0.0, 0.0
        for seed in range(5):
            graph = _connected_graph(20, seed=seed)
            problem = WASOProblem(graph=graph, k=6)
            manual = ManualCoordinator().coordinate(problem, rng=seed)
            optimal = IPSolver().solve(problem)
            total_manual += manual.willingness
            total_optimal += optimal.willingness
        assert total_manual < total_optimal

    def test_fatigue_gives_up_on_large_instances(self):
        graph = _connected_graph(60, seed=2)
        problem = WASOProblem(graph=graph, k=13)
        impatient = ManualCoordinator(patience_seconds=10.0)
        result = impatient.coordinate(problem, rng=1)
        assert result.gave_up

    def test_patient_user_does_not_give_up_small(self):
        graph = _connected_graph(15, seed=2)
        problem = WASOProblem(graph=graph, k=4)
        patient = ManualCoordinator(patience_seconds=100000.0)
        result = patient.coordinate(problem, rng=1)
        assert not result.gave_up

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ManualCoordinator(perception_noise=-1.0)
        with pytest.raises(ValueError):
            ManualCoordinator(attention_span=0)
        with pytest.raises(ValueError):
            ManualCoordinator(patience_seconds=0)
        with pytest.raises(ValueError):
            ManualCoordinator(seconds_per_candidate=0)
        with pytest.raises(ValueError):
            ManualCoordinator(revision_rounds=-1)


class TestLambdaSampling:
    def test_within_measured_support(self):
        rng = random.Random(5)
        for _ in range(500):
            lam = sample_lambda(rng)
            assert LAMBDA_LOW <= lam <= LAMBDA_HIGH

    def test_mean_near_paper_value(self):
        rng = random.Random(5)
        values = [sample_lambda(rng) for _ in range(3000)]
        assert abs(sum(values) / len(values) - 0.503) < 0.01


class TestOpinions:
    def test_clear_improvement_is_better(self):
        assert judge_opinion(2.0, 1.0, rng=1) is Opinion.BETTER

    def test_tie_is_acceptable(self):
        assert judge_opinion(1.0, 1.0, rng=1) is Opinion.ACCEPTABLE

    def test_clear_regression_not_acceptable(self):
        assert judge_opinion(0.5, 1.0, rng=1) is Opinion.NOT_ACCEPTABLE

    def test_zero_manual_quality(self):
        assert judge_opinion(1.0, 0.0, rng=1) is Opinion.BETTER


class TestStudy:
    CONFIG = StudyConfig(
        participants=6,
        network_sizes=(15, 20),
        group_sizes=(5, 7),
        base_k=5,
        base_n=15,
        solver_budget=120,
        seed=11,
    )

    @pytest.fixture(scope="class")
    def outcome(self):
        # ExactBnB finds the same optima as the default IPSolver at these
        # sizes in a tenth of the time; test_exact_oracle_matches_ip_solver
        # keeps that swap checked.
        return UserStudy(config=self.CONFIG, optimum=ExactBnB()).run()

    def test_exact_oracle_matches_ip_solver(self, outcome):
        """The first participant's n=15 cell, re-run on the IPSolver oracle."""
        config = dataclasses.replace(
            self.CONFIG, participants=1, network_sizes=(15,), group_sizes=()
        )
        checked = UserStudy(config=config, optimum=IPSolver()).run()
        for mode in ("ip-i", "ip-ni"):
            assert checked.by_n[mode][15].quality[0] == pytest.approx(
                outcome.by_n[mode][15].quality[0], rel=1e-12
            )

    def test_lambda_histogram_sums_to_one(self, outcome):
        histogram = outcome.lambda_histogram()
        assert sum(histogram.values()) == pytest.approx(1.0)
        assert len(outcome.lambdas) == 6

    def test_all_modes_measured(self, outcome):
        for mode in ("manual-i", "cbasnd-i", "ip-i", "manual-ni"):
            for n in (15, 20):
                cell = outcome.by_n[mode][n]
                assert len(cell.quality) == 6
                assert cell.mean_quality() > 0

    def test_optimum_dominates_everyone(self, outcome):
        for suffix in ("i", "ni"):
            for n in (15, 20):
                ip = outcome.by_n[f"ip-{suffix}"][n].mean_quality()
                manual = outcome.by_n[f"manual-{suffix}"][n].mean_quality()
                cbasnd = outcome.by_n[f"cbasnd-{suffix}"][n].mean_quality()
                assert ip >= manual - 1e-9
                assert ip >= cbasnd - 1e-9

    def test_cbasnd_beats_manual(self, outcome):
        """The paper's headline: automation beats manual coordination."""
        for n in (15, 20):
            assert (
                outcome.by_n["cbasnd-ni"][n].mean_quality()
                >= outcome.by_n["manual-ni"][n].mean_quality()
            )

    def test_opinions_collected(self, outcome):
        assert sum(outcome.opinions_i.values()) == 6
        assert sum(outcome.opinions_ni.values()) == 6
        percentages = outcome.opinion_percentages(with_initiator=True)
        assert sum(percentages.values()) == pytest.approx(1.0)
