"""Tests for the expansion sampler shared by all randomized solvers."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.sampling import (
    ExpansionSampler,
    seed_for_start,
    weighted_pick,
)
from repro.core.problem import WASOProblem
from repro.core.willingness import (
    FastWillingnessEvaluator,
    WillingnessEvaluator,
)
from repro.graph.generators import random_social_graph
from repro.graph.social_graph import SocialGraph


def _sampler(problem):
    return ExpansionSampler(problem, WillingnessEvaluator(problem.graph))


class TestWeightedPick:
    def test_respects_weights(self, rng):
        counts = [0, 0]
        for _ in range(2000):
            counts[weighted_pick(rng, ["a", "b"], [3.0, 1.0])] += 1
        assert counts[0] > counts[1] * 2

    def test_zero_weights_uniform(self, rng):
        counts = [0, 0]
        for _ in range(1000):
            counts[weighted_pick(rng, ["a", "b"], [0.0, 0.0])] += 1
        assert counts[0] > 300 and counts[1] > 300

    def test_negative_treated_as_zero(self, rng):
        for _ in range(100):
            index = weighted_pick(rng, ["a", "b"], [-5.0, 1.0])
            assert index == 1

    def test_single_item(self, rng):
        assert weighted_pick(rng, ["only"], [0.7]) == 0


def _ce_draws(graph, k, weight_by_node, seed, draws, rng_seed, **problem_kw):
    """Compiled ``weight_array`` and reference ``weight_of`` batches.

    Returns, per engine and per array type (list, float64 array), the
    draw-ordered ``(members, willingness)`` pairs (``None`` for a
    stalled draw) and the next ``rng.random()``.
    """
    problem = WASOProblem(graph=graph, k=k, **problem_kw)
    compiled = graph.compiled()
    array = [0.0] * compiled.number_of_nodes
    for node, weight in weight_by_node.items():
        array[compiled.index_of[node]] = weight

    def run(sampler, **bias):
        rng = random.Random(rng_seed)
        batch = sampler.draw_batch(seed, rng, draws, **bias)
        pairs = [
            None if sample is None else (sample.members, sample.willingness)
            for sample in batch
        ]
        return pairs, rng.random()

    fast = ExpansionSampler(problem, FastWillingnessEvaluator(compiled))
    return (
        run(_sampler(problem), weight_of=lambda node: weight_by_node[node]),
        run(fast, weight_array=array),
        run(fast, weight_array=np.array(array, dtype=np.float64)),
    )


def _star(leaves: int) -> SocialGraph:
    """Node 0 joined to leaves 1..``leaves``: the frontier is the leaves."""
    graph = SocialGraph()
    graph.add_node(0, interest=1.0)
    for leaf in range(1, leaves + 1):
        graph.add_node(leaf, interest=0.5 * leaf)
        graph.add_edge(0, leaf, 0.25)
    return graph


class TestCompiledCEPick:
    """The compiled CE draw picks what ``weighted_pick`` picks, draw for
    draw and RNG read for RNG read, from lists and float64 arrays alike
    — including the degenerate weights it clamps or falls back on."""

    def _assert_same(self, graph, k, weights, draws, rng_seed=11):
        reference, listed, numpy_array = _ce_draws(
            graph, k, weights, {0}, draws, rng_seed
        )
        assert listed == reference
        assert numpy_array == reference
        return [pairs for pairs in reference[0] if pairs is not None]

    def test_matches_weighted_pick_stream(self):
        graph = _star(7)
        weights = dict(enumerate([0.3, 0.0, 0.4, 0.0, 1.3, 0.2, 0.0, 0.7]))
        samples = self._assert_same(graph, 4, weights, 500)
        assert len(samples) == 500

    def test_negative_weights_clamped_like_weighted_pick(self):
        graph = _star(6)
        weights = dict(enumerate([1.0, -5.0, 1.0, -2.0, 0.5, 2.0, -0.1]))
        for members, _ in self._assert_same(graph, 3, weights, 500):
            assert not members & {1, 3, 6}  # never a clamped slot

    def test_all_nonpositive_degrades_to_uniform(self):
        graph = _star(3)
        weights = {0: 1.0, 1: 0.0, 2: -1.0, 3: 0.0}
        counts = {1: 0, 2: 0, 3: 0}
        for members, _ in self._assert_same(graph, 2, weights, 900):
            (leaf,) = members - {0}
            counts[leaf] += 1
        assert all(count > 200 for count in counts.values())

    def test_nan_weight_treated_as_zero(self):
        graph = _star(4)
        weights = {0: 1.0, 1: math.nan, 2: 0.5, 3: 1.0, 4: 0.25}
        samples = self._assert_same(graph, 2, weights, 20)
        assert len(samples) == 20
        assert not any(1 in members for members, _ in samples)

    @given(st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_reference_on_generated_inputs(self, data):
        n = data.draw(st.integers(min_value=4, max_value=24), label="n")
        graph = random_social_graph(
            n,
            average_degree=data.draw(st.sampled_from([1.5, 3.0, 5.0])),
            seed=data.draw(st.integers(min_value=0, max_value=10**6)),
        )
        nodes = list(graph.nodes())
        k = data.draw(st.integers(min_value=1, max_value=min(8, n)), label="k")
        required = data.draw(
            st.sets(st.sampled_from(nodes), max_size=min(2, k)),
            label="required",
        )
        forbidden = data.draw(
            st.sets(
                st.sampled_from([node for node in nodes if node not in required]),
                max_size=n // 3,
            ),
            label="forbidden",
        )
        start = data.draw(
            st.sampled_from([node for node in nodes if node not in forbidden]),
            label="start",
        )
        kind = data.draw(
            st.sampled_from(["mixed", "zero", "nonpositive"]), label="kind"
        )
        values = {
            "mixed": [0.0, math.nan, -1.5, 5e-324, 1e-310, 0.25, 1.0, 3.5],
            "zero": [0.0],
            "nonpositive": [0.0, -0.0, -2.0, -5e-324],
        }[kind]
        weights = dict(
            zip(
                nodes,
                data.draw(
                    st.lists(
                        st.sampled_from(values), min_size=n, max_size=n
                    ),
                    label="weights",
                ),
            )
        )
        reference, listed, numpy_array = _ce_draws(
            graph,
            k,
            weights,
            {start} | required,
            draws=10,
            rng_seed=data.draw(st.integers(min_value=0, max_value=2**32)),
            connected=data.draw(st.booleans(), label="connected"),
            required=frozenset(required),
            forbidden=frozenset(forbidden),
        )
        assert listed == reference
        assert numpy_array == reference


class TestSeed:
    def test_seed_includes_required(self, path_graph):
        problem = WASOProblem(
            graph=path_graph, k=3, required=frozenset({4})
        )
        assert seed_for_start(problem, 0) == {0, 4}

    def test_seed_plain(self, path_graph):
        problem = WASOProblem(graph=path_graph, k=3)
        assert seed_for_start(problem, 2) == {2}


class TestDraw:
    def test_sample_size_and_connectivity(self, path_graph, rng):
        problem = WASOProblem(graph=path_graph, k=3)
        sampler = _sampler(problem)
        sample = sampler.draw({2}, rng)
        assert sample is not None
        assert len(sample.members) == 3
        assert path_graph.is_connected_subset(sample.members)

    def test_willingness_matches_recompute(self, small_facebook, rng):
        problem = WASOProblem(graph=small_facebook, k=6)
        evaluator = WillingnessEvaluator(small_facebook)
        sampler = ExpansionSampler(problem, evaluator)
        start = next(iter(small_facebook.nodes()))
        for _ in range(20):
            sample = sampler.draw({start}, rng)
            assert sample is not None
            assert sample.willingness == pytest.approx(
                evaluator.value(sample.members), abs=1e-9
            )

    def test_stall_returns_none(self, two_components_graph, rng):
        # k=4 from a triangle component: must stall.
        problem = WASOProblem(
            graph=two_components_graph, k=4, connected=False
        )
        connected_problem = WASOProblem.__new__(WASOProblem)
        # Build the k=4 connected problem bypassing ensure_feasible (the
        # solver would reject it); the sampler itself must cope.
        object.__setattr__(connected_problem, "graph", two_components_graph)
        object.__setattr__(connected_problem, "k", 4)
        object.__setattr__(connected_problem, "connected", True)
        object.__setattr__(connected_problem, "required", frozenset())
        object.__setattr__(connected_problem, "forbidden", frozenset())
        sampler = _sampler(connected_problem)
        assert sampler.draw({0}, rng) is None

    def test_forbidden_never_sampled(self, small_facebook, rng):
        banned = set(list(small_facebook.nodes())[:50])
        start = next(
            n for n in small_facebook.nodes() if n not in banned
        )
        problem = WASOProblem(
            graph=small_facebook, k=5, forbidden=frozenset(banned)
        )
        sampler = _sampler(problem)
        for _ in range(20):
            sample = sampler.draw({start}, rng)
            if sample is not None:
                assert not (sample.members & banned)

    def test_wasodis_frontier_is_everything(self, two_components_graph, rng):
        problem = WASOProblem(
            graph=two_components_graph, k=4, connected=False
        )
        sampler = _sampler(problem)
        saw_cross_component = False
        for _ in range(50):
            sample = sampler.draw({0}, rng)
            assert sample is not None
            if sample.members & {3, 4, 5}:
                saw_cross_component = True
        assert saw_cross_component

    def test_weight_of_biases_selection(self, path_graph, rng):
        problem = WASOProblem(graph=path_graph, k=2)
        sampler = _sampler(problem)
        # From node 2, neighbours are 1 and 3; weight node 3 overwhelmingly.
        weights = {1: 0.001, 3: 1000.0}
        picks = {1: 0, 3: 0}
        for _ in range(200):
            sample = sampler.draw(
                {2}, rng, weight_of=lambda n: weights.get(n, 0.0)
            )
            chosen = next(iter(sample.members - {2}))
            picks[chosen] += 1
        assert picks[3] > picks[1] * 5

    def test_greedy_bias_prefers_high_delta(self, rng):
        from repro.graph.social_graph import SocialGraph

        graph = SocialGraph()
        graph.add_node(0, interest=0.0)
        graph.add_node(1, interest=10.0)
        graph.add_node(2, interest=0.1)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(0, 2, 1.0)
        problem = WASOProblem(graph=graph, k=2)
        sampler = _sampler(problem)
        picks = {1: 0, 2: 0}
        for _ in range(300):
            sample = sampler.draw({0}, rng, greedy_bias=True)
            picks[next(iter(sample.members - {0}))] += 1
        assert picks[1] > picks[2] * 2

    def test_weight_and_greedy_mutually_exclusive(self, path_graph, rng):
        problem = WASOProblem(graph=path_graph, k=2)
        sampler = _sampler(problem)
        with pytest.raises(ValueError):
            sampler.draw({2}, rng, weight_of=lambda n: 1.0, greedy_bias=True)

    def test_oversized_seed_returns_none(self, path_graph, rng):
        problem = WASOProblem(graph=path_graph, k=2)
        sampler = _sampler(problem)
        assert sampler.draw({0, 1, 2}, rng) is None


class TestHypothesisInvariants:
    @given(
        st.integers(min_value=6, max_value=25),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_samples_always_feasible(self, n, k, seed):
        """Every successful draw is a connected k-set of allowed nodes."""
        graph = random_social_graph(n, average_degree=4.0, seed=seed)
        components = graph.connected_components()
        host = max(components, key=len)
        if len(host) < k:
            return  # no feasible instance this round
        problem = WASOProblem(graph=graph, k=k, connected=True)
        sampler = ExpansionSampler(
            problem, WillingnessEvaluator(graph)
        )
        rng = random.Random(seed)
        start = next(iter(host))
        for _ in range(5):
            sample = sampler.draw({start}, rng)
            assert sample is not None
            assert len(sample.members) == k
            assert graph.is_connected_subset(sample.members)
