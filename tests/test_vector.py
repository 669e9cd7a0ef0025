"""The vector engine: differential oracle, determinism, and kernels.

Contract under test (see ``repro/vector/``):

* the reference engine stays the bit-exact oracle; the vector engine
  matches it **exactly** on integer quantities — stage counts, sample
  counts, failure counts, group size — and **to tolerance** on
  willingness (its kernels reassociate floating-point sums);
* every reported vector willingness equals the reference evaluator's
  recomputation over the returned members (the engine never invents a
  value, it only re-orders the same additions);
* within the engine, seeded runs are bit-reproducible — serial, and
  stage-sharded at any worker count (positional Philox randomness);
* the float64 :class:`SelectionProbabilities` refit is IEEE-identical
  to the pure-Python refit chain.

The differential suite sweeps every scenario transformation (couples /
foes / themed / filters / separate-groups) through all three randomized
solvers.
"""

import math
import pickle
import random
from bisect import bisect_left
from itertools import accumulate

import numpy as np
import pytest

from repro.algorithms.cbas import CBAS
from repro.algorithms.cbas_nd import CBASND
from repro.algorithms.rgreedy import RGreedy
from repro.algorithms.sampling import ExpansionSampler, seed_for_start
from repro.ce.probability import SelectionProbabilities
from repro.core.problem import WASOProblem
from repro.core.willingness import (
    ENGINES,
    WillingnessEvaluator,
    evaluator_for,
    validate_engine,
)
from repro.graph.generators import facebook_like, random_social_graph
from repro.parallel.residency import ResidentGraphStore, apply_graph_patch
from repro.runtime.context import ExecutionContext
from repro.runtime.requests import SolveRequest
from repro.scenarios import (
    exhibition_problem,
    housewarming_problem,
    invitation_problem,
    mark_foes,
    merge_couple,
    reduce_wasodis,
    strip_virtual_node,
)
from repro.scenarios.filters import attribute_filter, filtered_problem
from repro.vector import VectorGraph, VectorWillingnessEvaluator, vector_graph_for
from repro.vector import arrays as vector_arrays
from repro.vector import kernel as vector_kernel
from repro.vector.rng import (
    PhiloxStreams,
    draw_uniforms,
    philox_key,
    uniform_width,
)

W_TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def scenario_graph():
    return facebook_like(150, seed=31)


def _check_vector_result(problem, result, *, expect_batched=True):
    """Feasibility + the W-recompute tolerance oracle for one result."""
    members = result.solution.members
    assert len(members) == problem.k
    assert not (members & problem.forbidden)
    assert problem.required <= members
    recomputed = WillingnessEvaluator(problem.graph).value(members)
    assert result.solution.willingness == pytest.approx(
        recomputed, rel=W_TOLERANCE, abs=W_TOLERANCE
    )
    if expect_batched:
        assert (
            result.stats.extra.get("vector_batch_draws", 0)
            == result.stats.samples_drawn
        )


def _solve_differential(
    problem, solver_cls=CBASND, seed=3, exact_counts=True, **kwargs
):
    """Reference vs vector solve; exact integer gates + tolerance oracle.

    ``exact_counts=False`` relaxes the draw-count equality for instances
    whose seeds can be disconnected (bridge-check failures then depend
    on the engine's randomness); stage counts and feasibility always
    hold.
    """
    kwargs.setdefault("budget", 120)
    kwargs.setdefault("stages", 3)
    kwargs.setdefault("m", 6)
    if solver_cls is RGreedy:
        kwargs.pop("stages", None)
        kwargs.pop("m", None)
    reference = solver_cls(engine="reference", **kwargs).solve(
        problem, rng=seed
    )
    vector = solver_cls(engine="vector", **kwargs).solve(problem, rng=seed)
    assert vector.stats.stages == reference.stats.stages
    if exact_counts:
        assert vector.stats.samples_drawn == reference.stats.samples_drawn
        assert vector.stats.failed_samples == reference.stats.failed_samples
    _check_vector_result(problem, vector)
    return vector


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
class TestEngineSeam:
    def test_vector_engine_registered(self):
        assert "vector" in ENGINES
        assert validate_engine("vector") == "vector"

    def test_unknown_engine_message_names_vector(self):
        with pytest.raises(ValueError, match="vector"):
            validate_engine("cuda")

    def test_evaluator_for_returns_vector_evaluator(self, scenario_graph):
        evaluator = evaluator_for(scenario_graph, "vector")
        assert isinstance(evaluator, VectorWillingnessEvaluator)
        assert evaluator.is_vector
        # Scalar entry points keep working (fallback paths rely on it).
        group = set(list(scenario_graph.nodes())[:4])
        assert evaluator.value(group) == pytest.approx(
            WillingnessEvaluator(scenario_graph).value(group)
        )

    def test_vector_graph_cached_by_payload_token(self, scenario_graph):
        compiled = scenario_graph.compiled()
        first = vector_graph_for(compiled)
        assert vector_graph_for(compiled) is first
        # detach() shares the arrays and the token: resident workers hit
        # the same cache entry instead of re-converting.
        assert vector_graph_for(compiled.detach()) is first
        assert first.number_of_nodes == compiled.number_of_nodes
        assert first.degrees.sum() == len(compiled.targets)


# ----------------------------------------------------------------------
# The mirror follows weight deltas
# ----------------------------------------------------------------------
_MIRROR_ARRAYS = ("offsets", "targets", "pair_w", "weighted_interest", "degrees")


def _mutable_graph(seed: int):
    """Random graph with asymmetric tightness and mixed λ weights."""
    graph = random_social_graph(60, average_degree=4.0, seed=seed)
    rng = random.Random(seed)
    for u, v in graph.edges():
        graph.set_tightness(u, v, rng.uniform(-1.0, 1.0))
        graph.set_tightness(v, u, rng.uniform(-1.0, 1.0))
    for node in graph.nodes():
        graph.set_lam(node, rng.choice([None, rng.random()]))
    return graph


def _tightness_batch(graph, rng: random.Random) -> list:
    ops = []
    for u, v in rng.sample(sorted(graph.edges(), key=repr), rng.randint(1, 6)):
        if rng.random() < 0.5:
            u, v = v, u
        ops.append(("set_tightness", u, v, rng.uniform(-1.0, 1.0)))
    return ops


def _assert_fresh(mirror, compiled) -> None:
    """``mirror`` is byte-equal to a fresh conversion of ``compiled``."""
    fresh = VectorGraph(compiled)
    assert mirror.generation == compiled.generation
    assert mirror.number_of_nodes == fresh.number_of_nodes
    for name in _MIRROR_ARRAYS:
        ours, theirs = getattr(mirror, name), getattr(fresh, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.tobytes() == theirs.tobytes(), name


class TestMirrorFollowsDeltas:
    @pytest.mark.parametrize("seed", range(6))
    def test_tightness_spans_patch_the_mirror(self, seed):
        graph = _mutable_graph(seed)
        compiled = graph.compiled()
        rng = random.Random(seed)
        mirror = vector_graph_for(compiled)
        for _ in range(5):
            # One or several batches behind the cached generation.
            for _ in range(rng.randint(1, 3)):
                compiled.apply_deltas(_tightness_batch(graph, rng))
            patched = vector_graph_for(compiled)
            assert patched.offsets is mirror.offsets  # no full conversion
            _assert_fresh(patched, compiled)
            mirror = patched

    @pytest.mark.parametrize("seed", range(3))
    def test_worker_patch_replay_patches_the_mirror(self, seed):
        graph = _mutable_graph(10 + seed)
        compiled = graph.compiled()
        token = compiled.payload_token
        store = ResidentGraphStore()
        store.install(token, pickle.loads(pickle.dumps(compiled.detach())))
        resident = store.get(token)
        rng = random.Random(seed)
        mirror = vector_graph_for(resident)
        for _ in range(4):
            held = resident.generation
            for _ in range(rng.randint(1, 3)):
                compiled.apply_deltas(_tightness_batch(graph, rng))
            apply_graph_patch(
                store, token, compiled.generation,
                compiled.delta_batches_since(held),
            )
            patched = vector_graph_for(resident)
            assert patched.offsets is mirror.offsets
            _assert_fresh(patched, resident)
            _assert_fresh(patched, compiled)
            mirror = patched

    @pytest.mark.parametrize("kind", ["add_node", "add_edge", "remove_edge"])
    def test_structural_span_converts_afresh(self, kind):
        graph = _mutable_graph(20)
        compiled = graph.compiled()
        rng = random.Random(20)
        mirror = vector_graph_for(compiled)
        nodes = list(graph.nodes())
        structural = {
            "add_node": ("add_node", "late", 1.5, 0.25),
            "add_edge": next(
                ("add_edge", u, v, 0.5, -0.25)
                for u in nodes for v in nodes
                if u != v and not graph.has_edge(u, v)
            ),
            "remove_edge": ("remove_edge", *sorted(graph.edges(), key=repr)[0]),
        }[kind]
        compiled.apply_deltas(_tightness_batch(graph, rng))
        compiled.apply_deltas(_tightness_batch(graph, rng) + [structural])
        rebuilt = vector_graph_for(compiled)
        assert rebuilt.offsets is not mirror.offsets
        _assert_fresh(rebuilt, compiled)

    def test_span_past_compact_converts_afresh(self):
        graph = _mutable_graph(21)
        compiled = graph.compiled()
        mirror = vector_graph_for(compiled)
        compiled.apply_deltas(_tightness_batch(graph, random.Random(21)))
        compiled.compact()
        rebuilt = vector_graph_for(compiled)
        assert rebuilt.offsets is not mirror.offsets
        _assert_fresh(rebuilt, compiled)

    def test_handed_out_mirror_unchanged_by_patch(self):
        graph = _mutable_graph(22)
        compiled = graph.compiled()
        held = vector_graph_for(compiled)
        before = VectorGraph(compiled)
        compiled.apply_deltas(_tightness_batch(graph, random.Random(22)))
        patched = vector_graph_for(compiled)
        assert patched is not held
        assert held.generation == 0
        for name in _MIRROR_ARRAYS:
            assert getattr(held, name).tobytes() == getattr(before, name).tobytes()
        assert held.pair_w.tobytes() != patched.pair_w.tobytes()

    def test_one_cache_entry_per_token(self):
        graph = _mutable_graph(23)
        compiled = graph.compiled()
        rng = random.Random(23)
        mirrors = [vector_graph_for(compiled)]
        for _ in range(10):
            compiled.apply_deltas(_tightness_batch(graph, rng))
            mirrors.append(vector_graph_for(compiled))
        cached = [
            mirror
            for mirror in vector_arrays._CACHE.values()
            if any(mirror is ours for ours in mirrors)
        ]
        assert len(cached) == 1 and cached[0] is mirrors[-1]


# ----------------------------------------------------------------------
# Positional randomness
# ----------------------------------------------------------------------
class TestPhiloxStreams:
    def test_width_padded_to_blocks(self):
        assert uniform_width(1) == 4
        assert uniform_width(4) == 4
        assert uniform_width(5) == 8
        assert uniform_width(10) == 12

    def test_key_packs_base_and_start(self):
        assert philox_key(1, 2) == (1 << 64) | 2
        assert philox_key(2**70, 2**70) == ((2**70 % 2**64) << 64) | (
            2**70 % 2**64
        )

    def test_subrange_rows_identical(self):
        whole = draw_uniforms(99, 7, 0, 20, 12)
        head = draw_uniforms(99, 7, 0, 5, 12)
        tail = draw_uniforms(99, 7, 5, 15, 12)
        assert np.array_equal(whole[:5], head)
        assert np.array_equal(whole[5:], tail)

    def test_streams_independent_by_start(self):
        assert not np.array_equal(
            draw_uniforms(99, 7, 0, 4, 8), draw_uniforms(99, 8, 0, 4, 8)
        )

    def test_width_must_align_to_blocks(self):
        with pytest.raises(ValueError):
            draw_uniforms(1, 1, 0, 1, 6)

    def test_draw_uniforms_pinned(self):
        """The stream behind every seeded vector result, pinned."""
        assert draw_uniforms(99, 7, 3, 1, 4).tolist() == [
            [
                0.8432423037530774,
                0.2797357024893441,
                0.08504406079611815,
                0.23527611562660677,
            ]
        ]
        assert draw_uniforms(2**64 - 3, 2**64 - 1, 2**70, 1, 4).tolist() == [
            [
                0.07078301161301193,
                0.7494100535291117,
                0.38131107362456396,
                0.4790623646973663,
            ]
        ]

    def test_rekeyed_generator_matches_fresh_philox(self):
        """One generator re-keyed per start emits what a freshly built
        ``Philox(key, counter)`` does, whatever it emitted before."""
        base = 2**64 - 3
        streams = PhiloxStreams(base, 12)
        for start_key, first, count in (
            (7, 0, 3),
            (2**64 - 1, 5, 2),
            (7, 2, 4),
            (0, 2**70, 1),
        ):
            fresh = np.random.Generator(
                np.random.Philox(
                    key=philox_key(base, start_key), counter=first * 3
                )
            ).random(count * 12)
            assert np.array_equal(
                streams.rows(start_key, first, count), fresh.reshape(count, 12)
            )
            assert np.array_equal(
                draw_uniforms(base, start_key, first, count, 12),
                fresh.reshape(count, 12),
            )


# ----------------------------------------------------------------------
# Exact kernel oracle
# ----------------------------------------------------------------------
def _oracle_weighted_pick(u, weights):
    """Sequential prefix sums, ``bisect_left`` capped at the last slot,
    uniform formula when the mass is not positive."""
    length = len(weights)
    cumulative = list(accumulate(weights))
    total = cumulative[-1]
    if total > 0.0:
        return min(bisect_left(cumulative, u * total), length - 1)
    return min(int(u * length), length - 1)


def _oracle_batch(sampler, entry, base_key, mode, weight_row, growth):
    """One entry's batch, one draw at a time, in plain Python.

    A transcription of the kernel's semantics on a swap-pop frontier:
    draw ``d`` reads row ``d`` of the start's Philox stream, one uniform
    per pick; a pick adds ``interest[c] + (0.0 + Σ member pair_w)`` with
    the pair weights summed in CSR order; fresh allowed neighbours join
    the frontier in CSR order.  ``growth`` collects the largest frontier
    each draw reached.
    """
    problem = sampler.problem
    k = problem.k
    vg = sampler.evaluator.vgraph
    offsets = vg.offsets.tolist()
    targets = vg.targets.tolist()
    pair_w = vg.pair_w.tolist()
    interest = vg.weighted_interest.tolist()
    allowed = sampler._allowed_mask
    weights_of = None if weight_row is None else weight_row.tolist()
    value, seed_connected, seed_members, seed_frontier = sampler._seed_state(
        entry["seed"]
    )
    uniforms = draw_uniforms(
        base_key,
        entry["start_key"],
        entry["first_draw"],
        entry["count"],
        uniform_width(k),
    ).tolist()

    def member_sum(node, member_set):
        total = 0.0
        for slot in range(offsets[node], offsets[node + 1]):
            if targets[slot] in member_set:
                total += pair_w[slot]
        return total

    batch = []
    for row in uniforms:
        if len(seed_members) > k:
            batch.append(None)
            continue
        members = list(seed_members)
        member_set = set(members)
        frontier = list(seed_frontier)
        seen = member_set | set(frontier)
        willingness = value
        stalled = False
        for u in row[: k - len(members)]:
            if not frontier:
                stalled = True
                break
            if mode == "uniform":
                pick = min(int(u * len(frontier)), len(frontier) - 1)
            elif mode == "ce":
                pick = _oracle_weighted_pick(
                    u, [max(weights_of[v], 0.0) for v in frontier]
                )
            else:
                pick = _oracle_weighted_pick(
                    u,
                    [
                        max(
                            0.0,
                            willingness
                            + (interest[v] + member_sum(v, member_set)),
                        )
                        for v in frontier
                    ],
                )
            node = frontier[pick]
            frontier[pick] = frontier[-1]
            frontier.pop()
            members.append(node)
            member_set.add(node)
            edges = 0.0
            for slot in range(offsets[node], offsets[node + 1]):
                other = targets[slot]
                if other in member_set:
                    edges += pair_w[slot]
                elif (
                    problem.connected
                    and other not in seen
                    and (allowed is None or allowed[other])
                ):
                    seen.add(other)
                    frontier.append(other)
            willingness += interest[node] + edges
            growth.append(len(frontier))
        if stalled:
            batch.append(None)
            continue
        group = frozenset(map(sampler._compiled.nodes.__getitem__, members))
        if (
            problem.connected
            and not seed_connected
            and not sampler.graph.is_connected_subset(group)
        ):
            batch.append(None)
            continue
        batch.append((tuple(members), group, willingness))
    return batch


def _oracle_truncate(batch, carry, max_failures):
    failures = carry
    for position, drawn in enumerate(batch):
        failures = failures + 1 if drawn is None else 0
        if failures >= max_failures:
            return batch[: position + 1]
    return batch


class TestKernelOracle:
    """``draw_stage_batch`` equals a row-at-a-time transcription exactly:
    member index tuples, willingness bits and failure positions."""

    #: (start position, first draw, count, carried failures) per entry.
    ENTRIES = ((0, 0, 5, 0), (3, 3, 9, 1), (40, 11, 4, 0), (77, 1, 7, 2),
               (121, 5, 6, 0))
    BASE_KEY = 0xC0FFEE_0123_4567_89AB
    MAX_FAILURES = 3

    @pytest.fixture(scope="class")
    def graph(self):
        # Sparse enough that some picks push no fresh neighbour (so a
        # stale tail weight would stay inside the pick window) and some
        # starts sit in components smaller than k (stalled draws).
        return random_social_graph(160, average_degree=4.0, seed=12)

    def _sampler(self, graph, connected, constrained):
        nodes = graph.node_list()
        extra = {}
        if constrained:
            extra = {
                "required": frozenset({nodes[3]}),
                "forbidden": frozenset(nodes[10:19]),
            }
        problem = WASOProblem(graph=graph, k=8, connected=connected, **extra)
        sampler = ExpansionSampler(problem, evaluator_for(graph, "vector"))
        sampler.vector_key = self.BASE_KEY
        return sampler

    @pytest.mark.parametrize("chunked", [False, True], ids=["one", "chunked"])
    @pytest.mark.parametrize(
        "constrained", [False, True], ids=["free", "req1-forb9"]
    )
    @pytest.mark.parametrize("connected", [True, False], ids=["conn", "dis"])
    @pytest.mark.parametrize("mode", ["uniform", "ce", "greedy"])
    def test_matches_row_oracle(
        self, graph, mode, connected, constrained, chunked, monkeypatch
    ):
        sampler = self._sampler(graph, connected, constrained)
        nodes = graph.node_list()
        index_of = graph.compiled().index_of
        entries = [
            {
                "start_key": index_of[nodes[start]],
                "seed": seed_for_start(sampler.problem, nodes[start]),
                "first_draw": first,
                "count": count,
                "failures": failures,
            }
            for start, first, count, failures in self.ENTRIES
        ]
        weight_rows = None
        if mode == "ce":
            rows = np.random.default_rng(5).random((len(entries), len(nodes)))
            rows -= 0.2  # negative weights clamp to zero
            rows[:, ::7] = 0.0
            rows[2] = 0.0  # all-zero row: the uniform fallback
            weight_rows = list(rows)
        chunks = []
        if chunked:
            run_chunk = vector_kernel._run_chunk

            def spy(sampler, chunk, *rest):
                chunks.append([spec[0] for spec in chunk])
                return run_chunk(sampler, chunk, *rest)

            monkeypatch.setattr(vector_kernel, "MAX_CHUNK_CELLS", 0)
            monkeypatch.setattr(vector_kernel, "MIN_CHUNK_ROWS", 7)
            monkeypatch.setattr(vector_kernel, "_run_chunk", spy)

        batches = vector_kernel.draw_stage_batch(
            sampler,
            entries,
            self.BASE_KEY,
            mode=mode,
            weight_rows=weight_rows,
            max_failures=self.MAX_FAILURES,
        )

        growth = []
        expected = [
            _oracle_truncate(
                _oracle_batch(
                    sampler,
                    entry,
                    self.BASE_KEY,
                    mode,
                    None if weight_rows is None else weight_rows[position],
                    growth,
                ),
                entry["failures"],
                self.MAX_FAILURES,
            )
            for position, entry in enumerate(entries)
        ]
        got = [
            [
                None
                if sample is None
                else (sample.indices, sample.members, sample.willingness)
                for sample in batch
            ]
            for batch in batches
        ]
        assert [
            [None if drawn is None else drawn[:2] for drawn in batch]
            for batch in got
        ] == [
            [None if drawn is None else drawn[:2] for drawn in batch]
            for batch in expected
        ]
        assert [
            [None if drawn is None else drawn[2].hex() for drawn in batch]
            for batch in got
        ] == [
            [None if drawn is None else drawn[2].hex() for drawn in batch]
            for batch in expected
        ]
        if connected:
            # The frontier outgrew every seed frontier, so the kernel's
            # frontier matrix had to grow.
            seed_frontier = max(
                len(sampler._seed_state(entry["seed"])[3])
                for entry in entries
            )
            assert max(growth) > max(8, seed_frontier)
            if constrained:
                # Some seeds fail to bridge to the required node.
                assert any(None in batch for batch in expected)
        if chunked:
            assert len(chunks) >= 3
            assert any(
                set(first) & set(second)
                for first, second in zip(chunks, chunks[1:])
            )


# ----------------------------------------------------------------------
# Differential suite: scenario transformations × solvers
# ----------------------------------------------------------------------
class TestDifferentialScenarios:
    def test_couples(self, scenario_graph):
        u, v = next(iter(scenario_graph.edges()))
        problem = WASOProblem(graph=scenario_graph, k=6)
        merged_problem, merged_node = merge_couple(problem, u, v)
        _solve_differential(merged_problem, seed=5)

    def test_foes(self, scenario_graph):
        edges = list(scenario_graph.edges())[:3]
        hostile = mark_foes(scenario_graph, edges)
        problem = WASOProblem(graph=hostile, k=6)
        result = _solve_differential(problem, seed=7)
        for u, v in edges:
            assert not {u, v} <= result.solution.members

    def test_themed_exhibition_wasodis(self, scenario_graph):
        # λ = 1, connected=False: the frontier is the full allowed set.
        problem = exhibition_problem(scenario_graph, k=5)
        assert not problem.connected
        _solve_differential(problem, seed=17)

    def test_themed_housewarming(self, scenario_graph):
        problem = housewarming_problem(scenario_graph, k=5)
        _solve_differential(problem, seed=19)

    def test_invitation(self, scenario_graph):
        host = max(
            scenario_graph.nodes(), key=lambda n: scenario_graph.degree(n)
        )
        problem = invitation_problem(scenario_graph, host=host, k=4)
        # Seeds are {start, host}: possibly disconnected, so the final
        # bridge check can fail draws — failure counts are then
        # engine-random, only the structural gates hold.
        result = _solve_differential(problem, seed=23, m=4, exact_counts=False)
        assert host in result.solution.members

    def test_filters(self, scenario_graph):
        rng = random.Random(5)
        for node in scenario_graph.nodes():
            scenario_graph.set_metadata(
                node, city=rng.choice(["north", "south"])
            )
        organizer = next(iter(scenario_graph.nodes()))
        problem = filtered_problem(
            scenario_graph,
            k=5,
            predicate=attribute_filter(city="north"),
            required={organizer},
        )
        result = _solve_differential(problem, seed=29, exact_counts=False)
        assert organizer in result.solution.members
        for node in result.solution.members - {organizer}:
            assert scenario_graph.metadata(node)["city"] == "north"

    def test_separate_groups_reduction(self, scenario_graph):
        base = WASOProblem(graph=scenario_graph, k=4, connected=False)
        reduced = reduce_wasodis(base)
        result = _solve_differential(reduced, seed=37)
        group = strip_virtual_node(result.solution.members)
        assert len(group) == base.k

    def test_cbas_uniform(self, scenario_graph):
        problem = WASOProblem(graph=scenario_graph, k=6)
        _solve_differential(problem, solver_cls=CBAS, seed=41)

    def test_rgreedy(self, scenario_graph):
        problem = WASOProblem(graph=scenario_graph, k=6)
        _solve_differential(problem, solver_cls=RGreedy, seed=43, budget=60)


# ----------------------------------------------------------------------
# Within-engine determinism
# ----------------------------------------------------------------------
class TestVectorDeterminism:
    @pytest.fixture(scope="class")
    def problem(self):
        return WASOProblem(graph=facebook_like(220, seed=77), k=8)

    def _solve(self, problem, mode, workers=None, solver="cbas-nd", **extra):
        with ExecutionContext(
            engine="vector", mode=mode, workers=workers
        ) as context:
            built = context.make_solver(
                solver, budget=240, stages=4, m=8, **extra
            )
            return built.solve(problem, rng=1234)

    @pytest.mark.parametrize("solver", ["cbas", "cbas-nd"])
    def test_serial_seeded_reproducible(self, problem, solver):
        first = self._solve(problem, "serial", solver=solver)
        second = self._solve(problem, "serial", solver=solver)
        assert first.solution.members == second.solution.members
        assert first.solution.willingness == second.solution.willingness
        assert first.stats.samples_drawn == second.stats.samples_drawn

    @pytest.mark.parametrize(
        "solver, extra, constrained",
        [
            pytest.param(solver, extra, constrained, id=label + suffix)
            for constrained, suffix in ((False, ""), (True, "-req1-forb9"))
            for label, solver, extra in (
                ("cbas", "cbas", {}),
                ("cbas-nd", "cbas-nd", {}),
                ("cbas-nd-g", "cbas-nd-g", {}),
                (
                    "cbas-nd-backtrack-1e-3",
                    "cbas-nd",
                    {"backtrack_threshold": 1e-3, "max_backtracks": 2},
                ),
                (
                    "cbas-nd-backtrack-10",
                    "cbas-nd",
                    {"backtrack_threshold": 10.0, "max_backtracks": 2},
                ),
            )
        ],
    )
    def test_serial_matches_sharded_any_worker_count(
        self, problem, solver, extra, constrained
    ):
        """Every executor folds its draws through one stage merge, so
        serial and stage-sharded vector runs agree — backtracking and
        Gaussian allocation included.  The constrained problem has
        starts that keep failing to bridge to the required node: they
        hit the write-off cap mid-stage, and shards that drew past the
        serial stop must not count."""
        if constrained:
            nodes = problem.graph.node_list()
            problem = WASOProblem(
                graph=problem.graph,
                k=problem.k,
                required=frozenset({nodes[3]}),
                forbidden=frozenset(nodes[10:19]),
            )
        serial = self._solve(problem, "serial", solver=solver, **extra)
        for workers in (2, 3):
            sharded = self._solve(
                problem, "stage", workers=workers, solver=solver, **extra
            )
            assert sharded.stats.extra["stage_best"] == (
                serial.stats.extra["stage_best"]
            )
            assert sharded.stats.extra.get("backtracks") == (
                serial.stats.extra.get("backtracks")
            )
            assert sharded.solution.members == serial.solution.members
            assert (
                sharded.solution.willingness == serial.solution.willingness
            )
            assert sharded.stats.samples_drawn == serial.stats.samples_drawn
            assert (
                sharded.stats.failed_samples == serial.stats.failed_samples
            )
            assert (
                sharded.stats.extra["vector_batch_draws"]
                == serial.stats.extra["vector_batch_draws"]
            )

    def test_solve_many_round_trip(self, problem):
        with ExecutionContext(engine="vector", mode="serial") as context:
            results = context.solve_many(
                [
                    SolveRequest(
                        problem=problem,
                        solver="cbas-nd",
                        rng=seed,
                        solver_kwargs={
                            "budget": 120,
                            "stages": 3,
                            "m": 6,
                            "engine": "vector",
                        },
                    )
                    for seed in (1, 2)
                ]
            )
        for result in results:
            _check_vector_result(problem, result)

    def test_non_vector_stats_carry_no_vector_keys(self, problem):
        result = CBASND(
            engine="compiled", budget=60, stages=2, m=4
        ).solve(problem, rng=5)
        assert "vector_batch_draws" not in result.stats.extra


# ----------------------------------------------------------------------
# Numpy-backed SelectionProbabilities
# ----------------------------------------------------------------------
class TestNumpyProbabilityBackend:
    N = 40
    K = 5

    def _vector(self):
        compiled = facebook_like(self.N, seed=13).compiled()
        return SelectionProbabilities(
            list(compiled.nodes),
            self.K,
            index_of=compiled.index_of,
            size=compiled.number_of_nodes,
        )

    def test_refit_rounds_bit_identical(self, eager_reference):
        vector = self._vector()
        rng = random.Random(3)
        rounds = []
        for _ in range(6):
            counts = {slot: rng.randrange(1, 4) for slot in rng.sample(range(30), 8)}
            vector.update_from_counts(counts, 10, smoothing=0.7)
            rounds.append((0.7, counts, 10))
        assert vector.snapshot() == eager_reference(rounds, self.N, k=self.K)

    def test_patches_bit_identical_and_plain_floats(self, eager_reference):
        vector = self._vector()
        counts = {3: 2, 7: 1}
        patch, _ = vector.update_from_counts(counts, 4, smoothing=0.6)
        expected = eager_reference([(0.6, counts, 4)], self.N, k=self.K)
        assert patch == (
            "round", 1.0 - 0.6, ((3, expected[3]), (7, expected[7]))
        )
        assert all(type(value) is float for _, value in patch[2])

    def test_movement_path_matches(self, eager_reference):
        vector = self._vector()
        before = vector.snapshot()
        counts = {1: 3, 9: 1}
        _, movement = vector.update_from_counts(
            counts, 5, smoothing=0.5, compute_movement=True
        )
        after = eager_reference([(0.5, counts, 5)], self.N, k=self.K)
        assert vector.snapshot() == after
        # Pure-Python sequential sums, grouped as the refit groups them:
        # w² · (Σ old² − Σ touched old²) + Σ touched (new − old)².
        total_sq = sum([value * value for value in before])
        touched_sq = 0.0
        touched_term = 0.0
        for slot in sorted(counts):
            touched_sq += before[slot] * before[slot]
            touched_term += (after[slot] - before[slot]) ** 2
        assert movement == 0.5 * 0.5 * (total_sq - touched_sq) + touched_term

    def test_replicate_and_restore(self, eager_reference):
        vector = self._vector()
        vector.update_from_counts({2: 1}, 2, smoothing=0.4)
        clone = vector.replicate()
        assert clone.snapshot() == vector.snapshot()
        assert clone.snapshot() == eager_reference(
            [(0.4, {2: 1}, 2)], self.N, k=self.K
        )
        clone.update_from_counts({4: 2}, 2, smoothing=0.4)
        assert clone.snapshot() != vector.snapshot()
        saved = vector.snapshot()
        vector.update_from_counts({5: 1}, 1, smoothing=0.9)
        vector.restore(saved)
        assert vector.snapshot() == saved

    def test_gamma_monotone_and_as_dict(self, eager_reference):
        vector = self._vector()
        assert vector.gamma == -math.inf
        vector.observe_stage_gamma(4.0)
        vector.observe_stage_gamma(2.0)
        assert vector.gamma == 4.0
        vector.update_from_counts({6: 1}, 3, smoothing=0.8)
        # Candidates are the compiled nodes in id order.
        assert list(vector.as_dict().values()) == eager_reference(
            [(0.8, {6: 1}, 3)], self.N, k=self.K
        )
