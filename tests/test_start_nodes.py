"""Tests for start-node selection (CBAS phase 1)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.start_nodes import default_start_count, select_start_nodes
from repro.core.problem import WASOProblem
from repro.core.willingness import (
    FastWillingnessEvaluator,
    WillingnessEvaluator,
)
from repro.graph.compiled import CompiledGraph
from repro.graph.generators import facebook_like
from repro.graph.social_graph import SocialGraph
from repro.parallel.residency import ResidentGraphStore, apply_graph_patch
from repro.vector import VectorWillingnessEvaluator


class TestDefaultCount:
    def test_ceil_n_over_k(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=7)
        n = small_facebook.number_of_nodes()
        assert default_start_count(problem) == -(-n // 7)

    def test_at_least_one(self, fig3):
        problem = WASOProblem(graph=fig3, k=10)
        assert default_start_count(problem) == 1


class TestSelection:
    def test_orders_by_potential(self, fig3):
        problem = WASOProblem(graph=fig3, k=5)
        evaluator = WillingnessEvaluator(fig3)
        starts = select_start_nodes(problem, evaluator, 3)
        potentials = [evaluator.node_potential(node) for node in starts]
        # Required-free selection: strictly the top-m by potential.
        all_potentials = sorted(
            (evaluator.node_potential(n) for n in fig3.nodes()), reverse=True
        )
        assert sorted(potentials, reverse=True) == all_potentials[:3]

    def test_required_comes_first(self, fig3):
        problem = WASOProblem(graph=fig3, k=5, required=frozenset({9}))
        evaluator = WillingnessEvaluator(fig3)
        starts = select_start_nodes(problem, evaluator, 2)
        assert starts[0] == 9

    def test_required_fills_quota(self, fig3):
        problem = WASOProblem(
            graph=fig3, k=5, required=frozenset({1, 2, 9})
        )
        evaluator = WillingnessEvaluator(fig3)
        starts = select_start_nodes(problem, evaluator, 2)
        assert len(starts) == 2
        assert set(starts) <= {1, 2, 9}

    def test_forbidden_excluded(self, fig3):
        problem = WASOProblem(graph=fig3, k=5, forbidden=frozenset({5, 10}))
        evaluator = WillingnessEvaluator(fig3)
        starts = select_start_nodes(problem, evaluator, 8)
        assert 5 not in starts
        assert 10 not in starts

    def test_m_larger_than_graph(self, fig3):
        problem = WASOProblem(graph=fig3, k=5)
        evaluator = WillingnessEvaluator(fig3)
        starts = select_start_nodes(problem, evaluator, 50)
        assert len(starts) == 10
        assert len(set(starts)) == 10

    def test_m_validation(self, fig3):
        problem = WASOProblem(graph=fig3, k=5)
        evaluator = WillingnessEvaluator(fig3)
        with pytest.raises(ValueError):
            select_start_nodes(problem, evaluator, 0)

    def test_deterministic(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        evaluator = WillingnessEvaluator(small_facebook)
        first = select_start_nodes(problem, evaluator, 10)
        second = select_start_nodes(problem, evaluator, 10)
        assert first == second


# ----------------------------------------------------------------------
# The per-generation ranking of the compiled and vector engines
# ----------------------------------------------------------------------
#: Small value sets, so potentials tie exactly and often.
_INTERESTS = (0.0, 0.5, 1.0, 2.0)
_TIGHTNESS = (0.0, 0.25, 0.5, 1.0)


def _heap_order(problem, m):
    """The reference engine's selection: ``heapq.nlargest``, the oracle."""
    return select_start_nodes(problem, WillingnessEvaluator(problem.graph), m)


def _fast_order(compiled, problem, m, engine="compiled"):
    evaluator = (
        VectorWillingnessEvaluator(compiled)
        if engine == "vector"
        else FastWillingnessEvaluator(compiled)
    )
    return select_start_nodes(problem, evaluator, m)


@st.composite
def _graphs(draw):
    """Mixed int and str ids; isolated equal-interest nodes tie exactly,
    so ``repr`` (where "9" > "10" > "'a'") decides their order."""
    ints = draw(st.integers(min_value=0, max_value=14))
    strs = draw(st.integers(min_value=0, max_value=6))
    nodes = list(range(ints)) + [chr(ord("a") + i) for i in range(strs)]
    if len(nodes) < 2:
        nodes += [100, "z"]
    order = draw(st.permutations(nodes))
    graph = SocialGraph()
    for node in order:
        graph.add_node(node, interest=draw(st.sampled_from(_INTERESTS)))
    pairs = [(u, v) for i, u in enumerate(order) for v in order[i + 1 :]]
    chosen = draw(
        st.lists(st.sampled_from(pairs), max_size=2 * len(order), unique=True)
    )
    for u, v in chosen:
        graph.add_edge(
            u,
            v,
            draw(st.sampled_from(_TIGHTNESS)),
            draw(st.sampled_from(_TIGHTNESS)),
        )
    return graph


def _draw_batch(draw, graph, fresh):
    """One batch of all four delta ops, valid against ``graph``."""
    nodes = list(graph.nodes())
    edges = {frozenset(edge) for edge in graph.edges()}
    batch = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(("add_node", "add_edge", "set", "remove")))
        if kind == "add_node":
            fresh[0] += 1
            node = fresh[0] if fresh[0] % 2 else f"n{fresh[0]}"
            batch.append(("add_node", node, draw(st.sampled_from(_INTERESTS))))
            nodes.append(node)
        elif kind == "add_edge":
            u, v = draw(st.permutations(nodes))[:2]
            edges.add(frozenset((u, v)))
            batch.append(("add_edge", u, v, draw(st.sampled_from(_TIGHTNESS))))
        elif edges:
            pairs = sorted((sorted(edge, key=repr) for edge in edges), key=repr)
            u, v = draw(st.sampled_from(pairs))
            if kind == "set":
                batch.append(
                    ("set_tightness", u, v, draw(st.sampled_from(_TIGHTNESS)))
                )
            else:
                edges.discard(frozenset((u, v)))
                batch.append(("remove_edge", u, v))
    return batch


def _draw_problem(draw, graph):
    nodes = sorted(graph.nodes(), key=repr)
    k = draw(st.integers(min_value=1, max_value=min(4, len(nodes))))
    picked = draw(st.permutations(nodes))
    required = picked[: draw(st.integers(min_value=0, max_value=min(2, k)))]
    rest = picked[len(required) :]
    spare = max(0, len(rest) - (k - len(required)))
    forbidden = rest[: draw(st.integers(min_value=0, max_value=spare))]
    return WASOProblem(
        graph, k, required=frozenset(required), forbidden=frozenset(forbidden)
    )


class TestCachedRanking:
    """Compiled and vector selections walk a ranking kept per generation;
    after every span of deltas they must equal the reference heap."""

    def _check(self, draw, graph, resident):
        n = graph.number_of_nodes()
        compiled = graph.compiled()
        for _ in range(2):
            problem = _draw_problem(draw, graph)
            m = draw(st.integers(min_value=1, max_value=n + 2))
            expected = _heap_order(problem, m)
            assert _fast_order(compiled, problem, m) == expected
            assert _fast_order(compiled, problem, m, "vector") == expected
            # The worker-resident copy, patched through the wire protocol.
            remote = WASOProblem(
                resident.graph,
                problem.k,
                required=problem.required,
                forbidden=problem.forbidden,
            )
            assert _fast_order(resident, remote, m) == expected
        # The whole order, unconstrained.
        full = WASOProblem(graph, 1)
        expected = _heap_order(full, n)
        assert len(expected) == n
        assert _fast_order(compiled, full, n) == expected
        return expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_selection_matches_heap_across_delta_spans(self, data):
        draw = data.draw
        graph = draw(_graphs())
        compiled = graph.compiled()
        store = ResidentGraphStore()
        token = compiled.payload_token
        store.install(token, pickle.loads(pickle.dumps(compiled.detach())))
        fresh = [1000]
        self._check(draw, graph, store.get(token))
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                batch = _draw_batch(draw, graph, fresh)
                compiled.apply_deltas(batch)
                apply_graph_patch(store, token, compiled.generation, [batch])
                if draw(st.booleans()) and draw(st.booleans()):
                    # A span past compaction: the log no longer reaches
                    # an older ranking, which must then be rebuilt.
                    compiled.compact()
            expected = self._check(draw, graph, store.get(token))
            # Copies start without a ranking and build their own.
            full = WASOProblem(graph, 1)
            for copy in (compiled.detach(), pickle.loads(pickle.dumps(compiled))):
                assert copy._ranking is None
                problem = WASOProblem(copy.graph, 1)
                assert _fast_order(copy, problem, len(expected)) == expected
            assert _heap_order(full, len(expected)) == expected

    def test_repr_breaks_exact_ties(self):
        graph = SocialGraph()
        for node in (0, 1, 2, 10, "a", "b", 9):
            graph.add_node(node, interest=1.0)
        problem = WASOProblem(graph, 1)
        order = _fast_order(graph.compiled(), problem, 7)
        assert order == [9, 2, 10, 1, 0, "b", "a"]
        assert order == _heap_order(problem, 7)

    def test_endpoints_move_after_tightness_edit(self):
        graph = SocialGraph()
        for node in range(6):
            graph.add_node(node, interest=1.0)
        graph.add_edge(0, 1, 0.5)
        graph.add_edge(2, 3, 0.25)
        compiled = graph.compiled()
        problem = WASOProblem(graph, 2)
        assert _fast_order(compiled, problem, 6) == [1, 0, 3, 2, 5, 4]
        compiled.apply_deltas([("set_tightness", 3, 2, 2.0)])
        assert _fast_order(compiled, problem, 6) == [3, 2, 1, 0, 5, 4]
        assert _heap_order(problem, 6) == [3, 2, 1, 0, 5, 4]


class TestSetupWorkSkipped:
    """Work a solve no longer does: candidate scans on unconstrained
    problems, and ranking work inside ``apply_deltas``."""

    @pytest.mark.parametrize("engine", ["compiled", "vector"])
    def test_unconstrained_solve_never_lists_candidates(
        self, small_facebook, monkeypatch, engine
    ):
        from repro.algorithms.cbas_nd import CBASND

        problem = WASOProblem(small_facebook, 5)
        small_facebook.compiled()
        calls = []
        original = WASOProblem.candidates

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(WASOProblem, "candidates", counting)
        CBASND(budget=60, m=5, stages=2, engine=engine).solve(problem, rng=3)
        assert calls == []
        # A forbidden node still needs the allowed-node pass.
        constrained = problem.without_nodes([next(iter(small_facebook.nodes()))])
        CBASND(budget=60, m=5, stages=2, engine=engine).solve(
            constrained, rng=3
        )
        assert calls

    def test_deltas_do_no_ranking_work_until_the_next_selection(
        self, monkeypatch
    ):
        graph = facebook_like(120, seed=4)
        compiled = graph.compiled()
        edges = sorted(graph.edges(), key=repr)
        for u, v in edges[:5]:
            compiled.apply_deltas([("set_tightness", u, v, 0.125)])
        # Mutated but never solved: no ranking was ever built.
        assert compiled._ranking is None

        builds, refreshes = [], []
        build, refresh = (
            CompiledGraph._build_ranking,
            CompiledGraph._refresh_ranking,
        )
        monkeypatch.setattr(
            CompiledGraph,
            "_build_ranking",
            lambda self: builds.append(1) or build(self),
        )
        monkeypatch.setattr(
            CompiledGraph,
            "_refresh_ranking",
            lambda self, *args: refreshes.append(1) or refresh(self, *args),
        )
        problem = WASOProblem(graph, 4)
        evaluator = FastWillingnessEvaluator(compiled)
        select_start_nodes(problem, evaluator, 8)
        assert (builds, refreshes) == ([1], [])
        for u, v in edges[5:12]:
            compiled.apply_deltas([("set_tightness", v, u, 0.75)])
        assert (builds, refreshes) == ([1], [])
        first = select_start_nodes(problem, evaluator, 8)
        assert (builds, refreshes) == ([1], [1])
        assert select_start_nodes(problem, evaluator, 8) == first
        assert (builds, refreshes) == ([1], [1])
        assert first == _heap_order(problem, 8)
