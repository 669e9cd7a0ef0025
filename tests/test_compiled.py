"""Differential tests: compiled flat-array path vs dict-based reference.

The compiled index (:mod:`repro.graph.compiled`) and the fast evaluator /
sampler paths promise *bit-identical* results to the reference
implementation — same neighbour order, same floating-point expressions,
same RNG consumption.  These tests hold that line on random graphs with
asymmetric tightness and λ-weighted nodes, and on full seeded solver runs.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cbas import CBAS
from repro.algorithms.cbas_nd import CBASND
from repro.algorithms.rgreedy import RGreedy
from repro.algorithms.sampling import ExpansionSampler, seed_for_start
from repro.algorithms.start_nodes import select_start_nodes
from repro.core.problem import WASOProblem
from repro.core.willingness import (
    FastWillingnessEvaluator,
    WillingnessEvaluator,
    evaluator_for,
)
from repro.exceptions import EdgeNotFoundError, NodeNotFoundError
from repro.graph.compiled import CompiledGraph
from repro.graph.generators import facebook_like, random_social_graph
from repro.graph.social_graph import SocialGraph


def _general_graph(n: int, seed: int) -> SocialGraph:
    """Random graph with asymmetric tightness and mixed λ weights."""
    graph = random_social_graph(n, average_degree=3.5, seed=seed)
    rng = random.Random(seed + 1)
    for u, v in graph.edges():
        graph.set_tightness(u, v, rng.uniform(-1.0, 1.0))
        graph.set_tightness(v, u, rng.uniform(-1.0, 1.0))
    for node in graph.nodes():
        graph.set_lam(node, rng.choice([None, rng.random()]))
    return graph


class TestCompiledGraphStructure:
    def test_csr_mirrors_adjacency(self, triangle_graph):
        comp = CompiledGraph.from_graph(triangle_graph)
        assert comp.number_of_nodes == 3
        assert comp.number_of_directed_slots == 6
        for node in triangle_graph.nodes():
            index = comp.index(node)
            row = [
                comp.nodes[comp.targets[slot]]
                for slot in comp.neighbor_slots(index)
            ]
            assert row == list(triangle_graph.neighbors(node))
            assert comp.degree(index) == triangle_graph.degree(node)

    def test_pair_weights_match_graph(self, triangle_graph):
        comp = CompiledGraph.from_graph(triangle_graph)
        for u, v in triangle_graph.edges():
            iu = comp.index(u)
            for slot in comp.neighbor_slots(iu):
                if comp.targets[slot] == comp.index(v):
                    assert comp.pair_w[slot] == triangle_graph.pair_weight(u, v)

    def test_cache_reused_and_invalidated(self, triangle_graph):
        first = triangle_graph.compiled()
        assert triangle_graph.compiled() is first
        triangle_graph.set_interest("a", 9.0)
        rebuilt = triangle_graph.compiled()
        assert rebuilt is not first
        index = rebuilt.index("a")
        assert rebuilt.weighted_interest[index] == 9.0

    def test_problem_accessor_shares_graph_cache(self, triangle_graph):
        problem = WASOProblem(graph=triangle_graph, k=2)
        assert problem.compiled() is triangle_graph.compiled()

    def test_pickle_roundtrip(self):
        graph = _general_graph(30, seed=5)
        comp = graph.compiled()
        comp.component_size_by_index()
        clone = pickle.loads(pickle.dumps(comp))
        assert clone.nodes == comp.nodes
        assert clone.targets == comp.targets
        assert clone.pair_w == comp.pair_w
        assert clone.potential == comp.potential
        assert clone.row_edges == comp.row_edges
        assert clone.component_size_by_index() == (
            comp.component_size_by_index()
        )

    def test_pickled_problem_ships_frozen_index(self):
        graph = facebook_like(60, seed=3)
        problem = WASOProblem(graph=graph, k=4)
        problem.compiled()
        clone = pickle.loads(pickle.dumps(problem))
        # The unpickled graph must serve the shipped arrays without a
        # rebuild: same mutation count, cache present.
        assert clone.graph._compiled_cache is not None
        comp = clone.compiled()
        assert comp.potential == problem.compiled().potential

    def test_pickle_ships_irreducible_arrays_only(self):
        """pair_w / potential / index_of are rebuilt, not shipped."""
        graph = _general_graph(30, seed=5)
        comp = graph.compiled()
        state = comp.__getstate__()
        for derived in ("index_of", "pair_w", "potential", "row_edges"):
            assert derived not in state
        clone = pickle.loads(pickle.dumps(comp))
        # The rebuild is bit-identical (same expressions, same order).
        assert clone.pair_w == comp.pair_w
        assert clone.potential == comp.potential
        assert clone.index_of == comp.index_of

    def test_detached_problem_is_dict_free_and_equivalent(self):
        from repro.graph.compiled import ArrayBackedGraph

        graph = facebook_like(100, seed=9)
        banned = frozenset(list(graph.nodes())[:8])
        problem = WASOProblem(graph=graph, k=5, forbidden=banned)
        slim = pickle.loads(pickle.dumps(problem.detached()))
        assert isinstance(slim.graph, ArrayBackedGraph)
        # No adjacency dicts anywhere in the payload graph.
        with pytest.raises(AttributeError):
            slim.graph._adj
        with pytest.raises(AttributeError):
            slim.graph.interest
        # Topology facade mirrors the source graph.
        assert slim.graph.node_list() == graph.node_list()
        node = graph.node_list()[10]
        assert list(slim.graph.neighbors(node)) == list(graph.neighbors(node))
        assert slim.graph.degree(node) == graph.degree(node)
        with pytest.raises(NodeNotFoundError):
            slim.graph.neighbors("zzz")
        # Seeded compiled-engine solves are bit-identical to the original.
        full_run = CBASND(budget=100, m=6, stages=3).solve(problem, rng=8)
        slim_run = CBASND(budget=100, m=6, stages=3).solve(slim, rng=8)
        assert full_run.members == slim_run.members
        assert full_run.willingness == slim_run.willingness
        assert full_run.stats.samples_drawn == slim_run.stats.samples_drawn

    def test_component_sizes(self, two_components_graph):
        comp = two_components_graph.compiled()
        sizes = comp.component_size_by_index()
        assert sorted(sizes) == [3, 3, 3, 3, 3, 3]
        problem = WASOProblem(graph=two_components_graph, k=3)
        assert problem.allowed_component_sizes() == {
            node: 3 for node in two_components_graph.nodes()
        }


class TestEvaluatorEquivalence:
    @given(
        st.integers(min_value=2, max_value=25),
        st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_on_random_graphs(self, n, seed):
        graph = _general_graph(n, seed)
        reference = WillingnessEvaluator(graph)
        fast = FastWillingnessEvaluator(graph.compiled())
        nodes = graph.node_list()
        rng = random.Random(seed + 2)
        group = set(rng.sample(nodes, rng.randint(1, n)))
        outside = [node for node in nodes if node not in group]

        assert fast.value(group) == reference.value(group)
        for node in nodes:
            assert fast.node_potential(node) == reference.node_potential(node)
            assert fast.weighted_interest(node) == (
                reference.weighted_interest(node)
            )
        if outside:
            node = rng.choice(outside)
            assert fast.add_delta(node, group) == (
                reference.add_delta(node, group)
            )
        member = rng.choice(sorted(group, key=repr))
        assert fast.remove_delta(member, group) == (
            reference.remove_delta(member, group)
        )
        for u, v in graph.edges():
            assert fast.pair_weight(u, v) == reference.pair_weight(u, v)

    def test_error_parity(self, triangle_graph):
        reference = WillingnessEvaluator(triangle_graph)
        fast = FastWillingnessEvaluator(triangle_graph.compiled())
        for evaluator in (reference, fast):
            with pytest.raises(NodeNotFoundError):
                evaluator.value({"a", "zzz"})
            with pytest.raises(NodeNotFoundError):
                evaluator.add_delta("zzz", set())
            with pytest.raises(NodeNotFoundError):
                evaluator.node_potential("zzz")
            with pytest.raises(NodeNotFoundError):
                evaluator.pair_weight("a", "zzz")
        graph = SocialGraph()
        graph.add_node(1)
        graph.add_node(2)
        for evaluator in (
            WillingnessEvaluator(graph),
            FastWillingnessEvaluator(graph.compiled()),
        ):
            with pytest.raises(EdgeNotFoundError):
                evaluator.pair_weight(1, 2)

    def test_evaluator_for_dispatch(self, triangle_graph):
        assert isinstance(
            evaluator_for(triangle_graph, "compiled"),
            FastWillingnessEvaluator,
        )
        assert isinstance(
            evaluator_for(triangle_graph, "reference"), WillingnessEvaluator
        )
        with pytest.raises(ValueError):
            evaluator_for(triangle_graph, "magic")


class TestSamplerEquivalence:
    def _paired_samplers(self, problem):
        return (
            ExpansionSampler(problem, WillingnessEvaluator(problem.graph)),
            ExpansionSampler(
                problem, FastWillingnessEvaluator(problem.graph.compiled())
            ),
        )

    @pytest.mark.parametrize("connected", [True, False])
    def test_seeded_draws_identical(self, connected):
        graph = _general_graph(40, seed=11)
        problem = WASOProblem(graph=graph, k=5, connected=connected)
        reference, fast = self._paired_samplers(problem)
        rng_a, rng_b = random.Random(77), random.Random(77)
        starts = [node for node in graph.nodes()][:10]
        for start in starts:
            seed = seed_for_start(problem, start)
            for _ in range(10):
                a = reference.draw(seed, rng_a)
                b = fast.draw(seed, rng_b)
                if a is None:
                    assert b is None
                else:
                    assert a.members == b.members
                    assert a.willingness == b.willingness

    def test_biased_draws_identical(self):
        graph = facebook_like(120, seed=21)
        problem = WASOProblem(graph=graph, k=6)
        reference, fast = self._paired_samplers(problem)
        rng_a, rng_b = random.Random(5), random.Random(5)
        start = max(graph.nodes(), key=lambda n: graph.degree(n))
        seed = {start}
        weight_rng = random.Random(9)
        weights = {node: weight_rng.random() for node in graph.nodes()}
        for _ in range(15):
            a = reference.draw(seed, rng_a, weight_of=weights.get)
            b = fast.draw(seed, rng_b, weight_of=weights.get)
            assert a.members == b.members and a.willingness == b.willingness
        for _ in range(15):
            a = reference.draw(seed, rng_a, greedy_bias=True)
            b = fast.draw(seed, rng_b, greedy_bias=True)
            assert a.members == b.members and a.willingness == b.willingness

    def test_weight_array_matches_weight_of(self):
        """Array-indexed frontier weights draw the exact same samples."""
        graph = facebook_like(120, seed=21)
        problem = WASOProblem(graph=graph, k=6)
        reference, fast = self._paired_samplers(problem)
        compiled = graph.compiled()
        weight_rng = random.Random(9)
        weights = {node: weight_rng.random() for node in graph.nodes()}
        array = [0.0] * compiled.number_of_nodes
        for node, weight in weights.items():
            array[compiled.index_of[node]] = weight
        start = max(graph.nodes(), key=lambda n: graph.degree(n))
        seed = {start}
        rng_a, rng_b = random.Random(5), random.Random(5)
        for _ in range(15):
            a = reference.draw(seed, rng_a, weight_of=weights.get)
            b = fast.draw(seed, rng_b, weight_array=array)
            assert a.members == b.members and a.willingness == b.willingness
            assert b.indices is not None and len(b.indices) == 6

    def test_weight_array_rejected_on_reference_path(self):
        graph = facebook_like(40, seed=2)
        problem = WASOProblem(graph=graph, k=4)
        reference, fast = self._paired_samplers(problem)
        start = next(iter(graph.nodes()))
        with pytest.raises(ValueError):
            reference.draw({start}, random.Random(1), weight_array=[1.0])
        with pytest.raises(ValueError):
            fast.draw(
                {start},
                random.Random(1),
                weight_array=[1.0],
                greedy_bias=True,
            )

    def test_draw_batch_matches_single_draws(self):
        graph = _general_graph(50, seed=3)
        problem = WASOProblem(graph=graph, k=5)
        _, fast = self._paired_samplers(problem)
        _, fast_batch = self._paired_samplers(problem)
        start = next(iter(graph.nodes()))
        seed = seed_for_start(problem, start)
        rng_a, rng_b = random.Random(4), random.Random(4)
        singles = [fast.draw(seed, rng_a) for _ in range(12)]
        batch = fast_batch.draw_batch(seed, rng_b, 12)
        assert len(batch) == len(singles)
        for a, b in zip(singles, batch):
            if a is None:
                assert b is None
            else:
                assert a.members == b.members
                assert a.willingness == b.willingness

    def test_forbidden_respected_on_fast_path(self):
        graph = facebook_like(80, seed=4)
        banned = frozenset(list(graph.nodes())[:30])
        start = next(n for n in graph.nodes() if n not in banned)
        problem = WASOProblem(graph=graph, k=4, forbidden=banned)
        fast = ExpansionSampler(
            problem, FastWillingnessEvaluator(graph.compiled())
        )
        rng = random.Random(2)
        for _ in range(25):
            sample = fast.draw({start}, rng)
            if sample is not None:
                assert not (sample.members & banned)

    def test_disconnected_seed_bridge_check(self, two_components_graph):
        # Seed spans both triangles: no k=6 group can bridge them... but
        # WASO-dis accepts it; connected WASO must keep failing.
        problem = WASOProblem.__new__(WASOProblem)
        object.__setattr__(problem, "graph", two_components_graph)
        object.__setattr__(problem, "k", 6)
        object.__setattr__(problem, "connected", True)
        object.__setattr__(problem, "required", frozenset({0, 3}))
        object.__setattr__(problem, "forbidden", frozenset())
        fast = ExpansionSampler(
            problem,
            FastWillingnessEvaluator(two_components_graph.compiled()),
        )
        reference = ExpansionSampler(
            problem, WillingnessEvaluator(two_components_graph)
        )
        rng_a, rng_b = random.Random(1), random.Random(1)
        for _ in range(5):
            assert reference.draw({0, 3}, rng_a) is None
            assert fast.draw({0, 3}, rng_b) is None

    def test_start_ranking_identical(self):
        graph = _general_graph(60, seed=31)
        problem = WASOProblem(graph=graph, k=4)
        reference = select_start_nodes(
            problem, WillingnessEvaluator(graph), 12
        )
        fast = select_start_nodes(
            problem, FastWillingnessEvaluator(graph.compiled()), 12
        )
        assert reference == fast


class TestSolverEquivalence:
    @pytest.mark.parametrize(
        "make",
        [
            lambda engine: CBAS(budget=120, m=8, stages=4, engine=engine),
            lambda engine: CBAS(
                budget=120, m=8, stages=4, allocation="gaussian", engine=engine
            ),
            lambda engine: CBASND(budget=120, m=8, stages=4, engine=engine),
            lambda engine: CBASND(
                budget=120,
                m=8,
                stages=4,
                backtrack_threshold=0.05,
                engine=engine,
            ),
            lambda engine: RGreedy(budget=40, m=6, engine=engine),
        ],
        ids=["cbas", "cbas-gaussian", "cbas-nd", "cbas-nd-backtrack", "rgreedy"],
    )
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_seeded_solutions_bit_identical(self, small_facebook, make, seed):
        problem = WASOProblem(graph=small_facebook, k=6)
        reference = make("reference").solve(problem, rng=seed)
        fast = make("compiled").solve(problem, rng=seed)
        assert reference.members == fast.members
        assert reference.willingness == fast.willingness
        assert (
            reference.stats.samples_drawn == fast.stats.samples_drawn
        )
        assert (
            reference.stats.failed_samples == fast.stats.failed_samples
        )

    @pytest.mark.parametrize("forbidden", [0, 9], ids=["free", "forb9"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda engine: CBAS(budget=100, m=6, stages=3, engine=engine),
            lambda engine: CBASND(budget=100, m=6, stages=3, engine=engine),
            lambda engine: RGreedy(budget=40, m=6, engine=engine),
        ],
        ids=["cbas", "cbas-nd", "rgreedy"],
    )
    def test_lambda_weighted_runs_identical(self, make, forbidden):
        """WASO-dis (``connected=False``) on a lambda-weighted graph:
        the compiled uniform, CE and greedy draws equal the reference."""
        graph = _general_graph(80, seed=13)
        problem = WASOProblem(
            graph=graph,
            k=4,
            connected=False,
            forbidden=frozenset(graph.node_list()[10 : 10 + forbidden]),
        )
        reference = make("reference").solve(problem, rng=3)
        fast = make("compiled").solve(problem, rng=3)
        assert reference.members == fast.members
        assert reference.willingness == fast.willingness
        assert reference.stats.samples_drawn == fast.stats.samples_drawn

    def test_component_skip_reported(self, two_components_graph):
        # k=3 fits both triangles; shrink one by forbidding a node so its
        # two survivors cannot host a group.
        problem = WASOProblem(
            graph=two_components_graph, k=3, forbidden=frozenset({2})
        )
        result = CBAS(budget=60, m=6, stages=2).solve(problem, rng=1)
        assert result.stats.extra.get("skipped_small_components", 0) >= 1
        assert result.solution.is_feasible(problem)
        # The pruned starts' stage-0 share is redirected to viable starts,
        # not discarded: the full budget is still spent.
        assert result.stats.samples_drawn >= 55

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            CBAS(engine="nope")
        with pytest.raises(ValueError):
            RGreedy(engine="nope")
