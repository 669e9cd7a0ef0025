"""Differential tests for in-place graph deltas (``apply_deltas``).

The streaming-mutation contract: a compiled index patched through
:meth:`~repro.graph.compiled.CompiledGraph.apply_deltas` must be
**bit-identical** — every flat array, every cached view, every derived
component label — to a fresh freeze of the mutated source graph, and
seeded solver runs over the patched index must reproduce the refrozen
index's results exactly on both engines, serial and stage-sharded.
These tests hold that line on randomized delta sequences, through the
generation/patch-log machinery, the on-disk format, the residency wire
protocol, and a worker killed mid-patch-stream.
"""

import multiprocessing
import pickle
import random
import time

import pytest

from repro.algorithms.cbas_nd import CBASND
from repro.core.problem import WASOProblem, problem_from_payload_spec
from repro.exceptions import (
    DuplicateNodeError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
)
from repro.graph.compiled import CompiledGraph
from repro.graph.generators import random_social_graph
from repro.graph.social_graph import SocialGraph
from repro.parallel.faults import NEXT_RPC, FaultPlan
from repro.parallel.residency import (
    ResidencyLedger,
    ResidentGraphStore,
    apply_graph_patch,
    plan_graph_message,
)
from repro.parallel.pool import ResidentPool
from repro.parallel.stage_pool import ShardedStageExecutor
from repro.runtime import ExecutionContext


@pytest.fixture
def no_orphans():
    """Assert the test leaves no worker processes behind."""
    before = set(multiprocessing.active_children())
    yield
    deadline = time.monotonic() + 5.0
    while True:
        leaked = set(multiprocessing.active_children()) - before
        if not leaked:
            return
        if time.monotonic() >= deadline:
            raise AssertionError(f"orphan worker processes: {leaked}")
        time.sleep(0.02)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
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


def _random_batch(graph: SocialGraph, rng: random.Random, counter: list):
    """One randomized delta batch, valid against ``graph``'s current state.

    Tracks intra-batch edge/node changes so a batch never removes the
    same edge twice or re-adds an existing node.
    """
    nodes = list(graph.nodes())
    edges = {frozenset(edge) for edge in graph.edges()}
    batch = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        if kind < 0.15:
            counter[0] += 1
            name = f"new{counter[0]}"
            lam = rng.choice([None, rng.random()])
            batch.append(("add_node", name, rng.uniform(0.1, 2.0), lam))
            nodes.append(name)
        elif kind < 0.45 and len(nodes) >= 2:
            u, v = rng.sample(nodes, 2)
            if frozenset((u, v)) in edges:
                continue
            edges.add(frozenset((u, v)))
            if rng.random() < 0.5:
                batch.append(("add_edge", u, v, rng.uniform(-1.0, 1.0)))
            else:
                batch.append(
                    (
                        "add_edge", u, v,
                        rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                    )
                )
        elif kind < 0.75 and edges:
            u, v = rng.choice(
                sorted((tuple(sorted(e, key=repr)) for e in edges), key=repr)
            )
            if rng.random() < 0.5:
                u, v = v, u
            batch.append(("set_tightness", u, v, rng.uniform(-1.0, 1.0)))
        elif edges:
            u, v = rng.choice(
                sorted((tuple(sorted(e, key=repr)) for e in edges), key=repr)
            )
            edges.discard(frozenset((u, v)))
            batch.append(("remove_edge", u, v))
    return batch


def _assert_bit_identical(patched: CompiledGraph, fresh: CompiledGraph):
    """Every array and derived view of ``patched`` equals ``fresh``'s."""
    assert list(patched.nodes) == list(fresh.nodes)
    assert dict(patched.index_of) == dict(fresh.index_of)
    assert list(patched.offsets) == list(fresh.offsets)
    assert list(patched.targets) == list(fresh.targets)
    assert list(patched.out_w) == list(fresh.out_w)
    assert list(patched.pair_w) == list(fresh.pair_w)
    assert list(patched.weighted_interest) == list(fresh.weighted_interest)
    assert list(patched.tightness_weight) == list(fresh.tightness_weight)
    assert list(patched.potential) == list(fresh.potential)
    assert (
        patched.component_size_by_index() == fresh.component_size_by_index()
    )
    assert (
        patched.component_label_by_index() == fresh.component_label_by_index()
    )
    assert [list(row) for row in patched.row_targets] == [
        list(row) for row in fresh.row_targets
    ]
    assert patched.row_edges == fresh.row_edges
    assert patched.row_id_edges == fresh.row_id_edges


# ----------------------------------------------------------------------
# Core: randomized patched index == fresh refreeze, bit for bit
# ----------------------------------------------------------------------
class TestRandomizedDeltasBitIdentical:
    @pytest.mark.parametrize("seed", range(8))
    def test_patched_equals_refreeze(self, seed):
        graph = _general_graph(50, seed)
        compiled = graph.compiled()
        # Warm the lazy views so the patcher must keep them coherent.
        compiled.row_edges
        compiled.row_targets
        compiled.component_size_by_index()
        rng = random.Random(seed * 31 + 7)
        counter = [0]
        for round_no in range(6):
            batch = _random_batch(graph, rng, counter)
            if not batch:
                continue
            before = compiled.generation
            compiled.apply_deltas(batch)
            assert compiled.generation == before + 1
            _assert_bit_identical(compiled, CompiledGraph.from_graph(graph))

    @pytest.mark.parametrize("seed", range(6))
    def test_largest_component_follows_structural_spans(self, seed):
        """The stored largest component size is merged, grown and
        cleared with the labels: it always equals the max over the
        size array, also on an unpickled copy."""
        graph = random_social_graph(40, average_degree=1.2, seed=seed)
        compiled = graph.compiled()
        sizes = compiled.component_size_by_index()
        assert compiled.largest_component_size() == max(sizes)
        rng = random.Random(seed)
        counter = [0]
        for _ in range(12):
            batch = [
                op
                for op in _random_batch(graph, rng, counter)
                if op[0] != "set_tightness"
            ]
            if not batch:
                continue
            compiled.apply_deltas(batch)
            if compiled._component_labels is not None:
                # Merges and new nodes keep it without a rescan.
                assert compiled._largest_component is not None
            assert compiled.largest_component_size() == max(
                compiled.component_size_by_index()
            )
        copy = pickle.loads(pickle.dumps(compiled))
        assert copy.largest_component_size() == max(
            compiled.component_size_by_index()
        )

    def test_patched_index_stays_adopted_by_source(self):
        graph = _general_graph(30, 3)
        compiled = graph.compiled()
        token = compiled.payload_token
        compiled.apply_deltas([("add_node", "x", 1.25, 0.5)])
        # Same object, same token, bumped generation: the graph cache
        # re-adopts the patched index instead of minting a new freeze.
        assert graph.compiled() is compiled
        assert compiled.payload_token == token
        assert compiled.generation == 1

    def test_component_tracking_through_merges_and_splits(self):
        graph = SocialGraph()
        for name in "abcdef":
            graph.add_node(name, interest=1.0)
        graph.add_edge("a", "b", 0.5)
        graph.add_edge("c", "d", 0.5)
        compiled = graph.compiled()
        compiled.component_size_by_index()
        compiled.apply_deltas([("add_edge", "b", "c", 0.25)])
        _assert_bit_identical(compiled, CompiledGraph.from_graph(graph))
        # A removal can split a component: the cache is recomputed, not
        # patched, and must still match the refreeze.
        compiled.apply_deltas([("remove_edge", "b", "c")])
        _assert_bit_identical(compiled, CompiledGraph.from_graph(graph))

    def test_delta_validation_errors(self):
        graph = _general_graph(20, 5)
        compiled = graph.compiled()
        with pytest.raises(NodeNotFoundError):
            compiled.apply_deltas([("set_tightness", "zz", "zz2", 0.5)])
        u, v = next(iter(graph.edges()))
        with pytest.raises(DuplicateNodeError):
            compiled.apply_deltas([("add_node", u, 1.0, None)])
        with pytest.raises(EdgeNotFoundError):
            compiled.apply_deltas([("remove_edge", u, u)])
        with pytest.raises(GraphError):
            compiled.apply_deltas([("add_edge", u, u, 0.5)])
        with pytest.raises(GraphError):
            compiled.apply_deltas([("frobnicate", u)])

    def test_failed_batch_commits_applied_prefix(self):
        graph = _general_graph(20, 6)
        compiled = graph.compiled()
        u, v = next(iter(graph.edges()))
        with pytest.raises(EdgeNotFoundError):
            compiled.apply_deltas(
                [("add_node", "pfx", 1.0, None), ("remove_edge", "pfx", u)]
            )
        # The applied prefix is committed as its own generation, so the
        # arrays and the source dicts never diverge.
        assert compiled.generation == 1
        assert graph.has_node("pfx")
        _assert_bit_identical(compiled, CompiledGraph.from_graph(graph))


# ----------------------------------------------------------------------
# Generation / patch-log semantics
# ----------------------------------------------------------------------
class TestGenerationLog:
    def test_delta_batches_since(self):
        graph = _general_graph(20, 9)
        compiled = graph.compiled()
        compiled.apply_deltas([("add_node", "g1", 1.0, None)])
        compiled.apply_deltas([("add_node", "g2", 1.0, None)])
        assert compiled.delta_batches_since(2) == []
        batches = compiled.delta_batches_since(0)
        assert len(batches) == 2
        replayed = CompiledGraph.from_graph(_general_graph(20, 9))
        for batch in batches:
            replayed.apply_deltas(batch)
        _assert_bit_identical(replayed, compiled)
        assert compiled.delta_batches_since(3) is None  # future gen

    def test_compact_clears_log(self):
        graph = _general_graph(20, 10)
        compiled = graph.compiled()
        compiled.apply_deltas([("add_node", "c1", 1.0, None)])
        compiled.compact()
        assert compiled.delta_batches_since(1) == []
        assert compiled.delta_batches_since(0) is None  # log gone
        _assert_bit_identical(compiled, CompiledGraph.from_graph(graph))

    def test_log_overflow_drops_oldest(self):
        from repro.graph.compiled import _DELTA_LOG_LIMIT

        graph = _general_graph(10, 11)
        compiled = graph.compiled()
        for index in range(_DELTA_LOG_LIMIT + 3):
            compiled.apply_deltas([("add_node", f"o{index}", 1.0, None)])
        assert compiled.delta_batches_since(0) is None
        assert len(compiled.delta_batches_since(3)) == _DELTA_LOG_LIMIT

    def test_pickle_roundtrip_keeps_generation_drops_log(self):
        graph = _general_graph(20, 12)
        compiled = graph.compiled()
        compiled.apply_deltas([("add_node", "p1", 1.0, None)])
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.generation == 1
        assert clone.delta_batches_since(0) is None  # log does not travel
        assert clone.delta_batches_since(1) == []
        _assert_bit_identical(clone, CompiledGraph.from_graph(graph))

    def test_generation_zero_pickle_bytes_unchanged(self):
        # The conditional "generation" key keeps un-patched pickles
        # byte-identical to pre-delta builds (payload-size baselines).
        graph = _general_graph(20, 13)
        compiled = graph.compiled()
        state = compiled.__getstate__()
        assert "generation" not in state


# ----------------------------------------------------------------------
# Engine equivalence: solves over the patched index match the refreeze
# ----------------------------------------------------------------------
class TestEngineEquivalence:
    def _mutated_pair(self, seed):
        """Two identical graphs: one patched in place, one refrozen."""
        batchES = []
        rng = random.Random(seed + 100)
        counter = [0]
        patched_graph = _general_graph(40, seed)
        compiled = patched_graph.compiled()
        for _ in range(4):
            batch = _random_batch(patched_graph, rng, counter)
            if batch:
                compiled.apply_deltas(batch)
                batchES.append(batch)
        fresh_graph = _general_graph(40, seed)
        for batch in batchES:
            for op in batch:
                if op[0] == "add_node":
                    fresh_graph.add_node(op[1], interest=op[2], lam=op[3])
                elif op[0] == "add_edge":
                    fresh_graph.add_edge(op[1], op[2], *op[3:])
                elif op[0] == "set_tightness":
                    fresh_graph.set_tightness(op[1], op[2], op[3])
                else:
                    fresh_graph.remove_edge(op[1], op[2])
        assert compiled.generation > 0
        _assert_bit_identical(compiled, fresh_graph.compiled())
        return patched_graph, fresh_graph

    @pytest.mark.parametrize("engine", ["compiled", "vector"])
    def test_serial_solves_match(self, engine):
        patched_graph, fresh_graph = self._mutated_pair(21)
        results = []
        for graph in (patched_graph, fresh_graph):
            solver = CBASND(budget=150, m=6, stages=3, engine=engine)
            results.append(
                solver.solve(WASOProblem(graph=graph, k=5), rng=11)
            )
        patched, fresh = results
        assert patched.solution.members == fresh.solution.members
        assert patched.solution.willingness == fresh.solution.willingness
        assert patched.stats.samples_drawn == fresh.stats.samples_drawn
        assert patched.stats.stages == fresh.stats.stages

    @pytest.mark.parametrize("engine", ["compiled", "vector"])
    def test_stage_sharded_solves_match(self, engine, no_orphans):
        patched_graph, fresh_graph = self._mutated_pair(22)
        results = []
        for graph in (patched_graph, fresh_graph):
            with ResidentPool(2) as pool:
                executor = ShardedStageExecutor(pool=pool)
                solver = CBASND(
                    budget=120, m=6, stages=3, engine=engine,
                    context=ExecutionContext(executor=executor),
                )
                results.append(
                    solver.solve(WASOProblem(graph=graph, k=5), rng=13)
                )
        patched, fresh = results
        assert patched.solution.members == fresh.solution.members
        assert patched.solution.willingness == fresh.solution.willingness
        assert patched.stats.samples_drawn == fresh.stats.samples_drawn


# ----------------------------------------------------------------------
# Residency wire protocol
# ----------------------------------------------------------------------
class TestResidencyPatchProtocol:
    def test_plan_graph_message_patches_stale_resident(self):
        graph = _general_graph(30, 31)
        compiled = graph.compiled()
        token = compiled.payload_token
        ledger = ResidencyLedger(4)
        ship, evictions = ledger.plan(token)
        assert ship
        ledger.record_install(token, generation=0)
        compiled.apply_deltas([("add_node", "w1", 1.0, None)])
        ship, evictions = ledger.plan(token)
        assert not ship  # token still resident...
        message, kind = plan_graph_message(
            ledger, token, compiled, ship, evictions, compiled.detach
        )
        assert kind == "patch"  # ...but one generation behind
        assert message[0] == "graph_patch"
        assert message[2] == 1
        assert ledger.resident_generation(token) == 1
        # Same generation now: nothing to send at all.
        message, kind = plan_graph_message(
            ledger, token, compiled, False, (), compiled.detach
        )
        assert message is None

    def test_unservable_gap_demotes_to_full_install(self):
        graph = _general_graph(30, 32)
        compiled = graph.compiled()
        token = compiled.payload_token
        ledger = ResidencyLedger(4)
        ledger.plan(token)
        ledger.record_install(token, generation=0)
        compiled.apply_deltas([("add_node", "w2", 1.0, None)])
        compiled.compact()  # log cleared: gen 0 → 1 is unservable
        installs_before = ledger.installs
        message, kind = plan_graph_message(
            ledger, token, compiled, False, (), compiled.detach
        )
        assert kind == "install"
        assert message[0] == "graph"
        assert ledger.installs == installs_before + 1
        assert ledger.resident_generation(token) == 1

    def test_apply_graph_patch_replays_into_store(self):
        graph = _general_graph(30, 33)
        compiled = graph.compiled()
        token = compiled.payload_token
        store = ResidentGraphStore()
        store.install(token, pickle.loads(pickle.dumps(compiled.detach())))
        compiled.apply_deltas([("add_node", "w3", 1.5, 0.25)])
        compiled.apply_deltas([("add_edge", "w3", compiled.nodes[0], 0.3)])
        batches = compiled.delta_batches_since(0)
        apply_graph_patch(store, token, compiled.generation, batches)
        _assert_bit_identical(store.get(token), compiled)

    def test_apply_graph_patch_generation_mismatch_raises(self):
        graph = _general_graph(30, 34)
        compiled = graph.compiled()
        token = compiled.payload_token
        store = ResidentGraphStore()
        store.install(token, pickle.loads(pickle.dumps(compiled.detach())))
        with pytest.raises(RuntimeError):
            apply_graph_patch(
                store, token, 5, [[("add_node", "w4", 1.0, None)]]
            )


# ----------------------------------------------------------------------
# Warm pool under stage-sharded solves: sparse patch instead of re-install,
# chaos recovery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["compiled", "vector"])
class TestWarmPoolPatching:
    def _solve(self, graph, pool, rng, engine):
        executor = ShardedStageExecutor(pool=pool)
        solver = CBASND(
            budget=120, m=6, stages=3, engine=engine,
            context=ExecutionContext(executor=executor),
        )
        return solver.solve(WASOProblem(graph=graph, k=5), rng=rng)

    def test_warm_workers_receive_patch_not_install(self, engine, no_orphans):
        graph = _general_graph(40, 41)
        with ResidentPool(2) as pool:
            first = self._solve(graph, pool, 4, engine)
            assert pool.installs == 2
            graph.compiled().apply_deltas(
                [("add_node", "late", 1.1, 0.5),
                 ("add_edge", "late", next(iter(graph.nodes())), 0.4)]
            )
            second = self._solve(graph, pool, 4, engine)
            assert pool.installs == 2  # no re-install: patched in place
            assert second.stats.extra["graph_patch_bytes"] > 0
            assert not second.stats.extra["graph_shipped"]
        # And the patched solve matches a cold pool on the same graph.
        with ResidentPool(2) as pool:
            cold = self._solve(graph, pool, 4, engine)
        assert second.solution.members == cold.solution.members
        assert second.solution.willingness == cold.solution.willingness
        assert first.stats.extra["graph_shipped"]

    def test_tightness_patch_matches_cold_pool(self, engine, no_orphans):
        graph = _general_graph(40, 43)
        cold_graph = _general_graph(40, 43)
        (u, v), (x, y) = sorted(graph.edges(), key=repr)[:2]
        deltas = [("set_tightness", u, v, 0.9), ("set_tightness", y, x, -0.3)]
        with ResidentPool(2) as pool:
            self._solve(graph, pool, 4, engine)
            installs = pool.installs
            # Weight-only: warm vector mirrors are patched forward, in
            # the parent and in each worker, instead of rebuilt.
            graph.compiled().apply_deltas(deltas)
            warm = self._solve(graph, pool, 4, engine)
            assert pool.installs == installs
            assert warm.stats.extra["graph_patch_bytes"] > 0
        # A cold pool over a fresh freeze of the same weights: new
        # token, so every process converts its mirror from scratch.
        for _, a, b, tau in deltas:
            cold_graph.set_tightness(a, b, tau)
        with ResidentPool(2) as pool:
            cold = self._solve(cold_graph, pool, 4, engine)
        assert warm.solution.members == cold.solution.members
        assert warm.solution.willingness == cold.solution.willingness
        assert warm.stats.samples_drawn == cold.stats.samples_drawn

    @pytest.mark.chaos
    def test_worker_killed_mid_patch_stream_reconverges(
        self, engine, no_orphans
    ):
        graph = _general_graph(40, 42)
        clean_graph = _general_graph(40, 42)
        deltas = [
            ("add_node", "late", 1.1, 0.5),
            ("add_edge", "late", next(iter(graph.nodes())), 0.4),
        ]
        with ResidentPool(2) as pool:
            self._solve(clean_graph, pool, 4, engine)
            clean_graph.compiled().apply_deltas(list(deltas))
            clean = self._solve(clean_graph, pool, 4, engine)
        with ResidentPool(2) as pool:
            self._solve(graph, pool, 4, engine)
            graph.compiled().apply_deltas(list(deltas))
            # Kill worker 0 on its next send — the graph_patch record —
            # so recovery must reset its ledger and full-ship the
            # current generation before the solve proceeds.
            plan = FaultPlan(kills=[(0, NEXT_RPC)])
            pool.fault_plan = plan
            faulted = self._solve(graph, pool, 4, engine)
            assert plan.log, "the injected kill never fired"
            assert pool.worker_restarts == 1
            assert pool.healthy
        assert faulted.solution.members == clean.solution.members
        assert faulted.solution.willingness == clean.solution.willingness
        assert faulted.stats.samples_drawn == clean.stats.samples_drawn


# ----------------------------------------------------------------------
# Spec-level generation guard
# ----------------------------------------------------------------------
class TestPayloadSpecGeneration:
    def test_spec_carries_generation_and_guards_mismatch(self):
        graph = _general_graph(20, 51)
        problem = WASOProblem(graph=graph, k=4)
        assert "gen" not in problem.payload_spec()  # baseline bytes
        stale = pickle.loads(pickle.dumps(problem.compiled().detach()))
        graph.compiled().apply_deltas([("add_node", "s1", 1.0, None)])
        spec = problem.payload_spec()
        assert spec["gen"] == 1
        with pytest.raises(ValueError, match="generation"):
            problem_from_payload_spec(stale, spec)
        rebuilt = problem_from_payload_spec(graph.compiled(), spec)
        assert rebuilt.k == problem.k
