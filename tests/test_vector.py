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

import numpy as np
import pytest

from repro.algorithms.cbas import CBAS
from repro.algorithms.cbas_nd import CBASND
from repro.algorithms.rgreedy import RGreedy
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
from repro.vector.rng import draw_uniforms, philox_key, uniform_width

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
        assert "vector_fallback_draws" not in result.stats.extra


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
        "solver, extra",
        [
            pytest.param("cbas", {}, id="cbas"),
            pytest.param("cbas-nd", {}, id="cbas-nd"),
            pytest.param("cbas-nd-g", {}, id="cbas-nd-g"),
            pytest.param(
                "cbas-nd",
                {"backtrack_threshold": 1e-3, "max_backtracks": 2},
                id="cbas-nd-backtrack-1e-3",
            ),
            pytest.param(
                "cbas-nd",
                {"backtrack_threshold": 10.0, "max_backtracks": 2},
                id="cbas-nd-backtrack-10",
            ),
        ],
    )
    def test_serial_matches_sharded_any_worker_count(
        self, problem, solver, extra
    ):
        """Every executor folds its draws through one stage merge, so
        serial and stage-sharded vector runs agree — backtracking and
        Gaussian allocation included."""
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

    def test_scalar_fallback_counted(self, problem):
        sampler_eval = evaluator_for(problem.graph, "vector")
        from repro.algorithms.sampling import ExpansionSampler

        sampler = ExpansionSampler(problem, sampler_eval)
        rng = random.Random(9)
        seed = {next(iter(problem.candidates()))}
        assert sampler.vector_fallback_draws == 0
        sampler.draw(seed, rng)
        assert sampler.vector_fallback_draws == 1
        sampler.draw_batch(seed, rng, 3)
        assert sampler.vector_fallback_draws == 4

    def test_non_vector_stats_carry_no_vector_keys(self, problem):
        result = CBASND(
            engine="compiled", budget=60, stages=2, m=4
        ).solve(problem, rng=5)
        assert "vector_batch_draws" not in result.stats.extra
        assert "vector_fallback_draws" not in result.stats.extra


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
