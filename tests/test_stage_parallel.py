"""Tests for stage-sharded parallel CE execution (repro.parallel.stage_pool).

The load-bearing property is *shard-merge correctness*: a stage-sharded
run with W shards and fixed per-shard seeds must produce the identical
per-stage elite sets and refit vectors as a serial run fed the same
concatenated sample stream.  The equivalence test below replays the
executor's trace — per stage, per funded start: the shard budgets and
RNG seeds — through a single in-process sampler and compares elite sets
and the final probability arrays bit-for-bit.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import SolveStats
from repro.algorithms.cbas import CBAS
from repro.algorithms.cbas_nd import CBASND
from repro.algorithms.sampling import (
    ExpansionSampler,
    Sample,
    seed_for_start,
    summarize_shard,
)
from repro.algorithms.stage_exec import (
    MAX_CONSECUTIVE_FAILURES,
    StageContext,
    merge_start_stage,
)
from repro.budget.ocba import StartNodeStats
from repro.graph.generators import facebook_like
from repro.ce.probability import SelectionProbabilities, elite_threshold
from repro.core.problem import WASOProblem
from repro.core.willingness import evaluator_for
from repro.online.replanning import OnlinePlanner
from repro.parallel import ResidentPool, ShardedStageExecutor
from repro.parallel.faults import FaultPlan
from repro.runtime import ExecutionContext


@pytest.fixture(scope="module")
def stage_pool():
    """One warm two-worker pool shared by the multiprocess tests."""
    with ResidentPool(2) as pool:
        yield pool


def _sample(indices, willingness):
    return Sample(
        members=frozenset(f"n{i}" for i in indices),
        willingness=willingness,
        indices=tuple(indices),
    )


class TestSummarizeShard:
    def test_counts_and_moments(self):
        batch = [_sample((0, 1), 5.0), None, _sample((1, 2), 3.0), None, None]
        summary = summarize_shard(batch, keep_rank=1)
        assert summary.attempts == 5
        # Every success's willingness, in draw order: the merge records
        # the OCBA moments from these exactly as a serial loop would.
        assert summary.willingness == (5.0, 3.0)
        assert summary.trailing_failures == 2
        # keep_rank=1 retains only the best sample.
        assert summary.kept == ((5.0, (0, 1)),)

    def test_kept_includes_threshold_ties(self):
        batch = [
            _sample((0,), 5.0),
            _sample((1,), 4.0),
            _sample((2,), 4.0),
            _sample((3,), 1.0),
        ]
        summary = summarize_shard(batch, keep_rank=2)
        # The rank-2 value is 4.0; both samples tied at it are kept.
        assert summary.kept == ((5.0, (0,)), (4.0, (1,)), (4.0, (2,)))

    def test_hit_cap_uses_carry(self):
        # Without a success every draw both leads and trails: the merge
        # adds them all to the carried counter when it checks the cap.
        summary = summarize_shard([None, None], keep_rank=1)
        assert summary.leading_failures == 2
        assert summary.trailing_failures == 2
        assert summary.willingness == ()

    def test_trailing_reset_by_success(self):
        batch = [None, None, _sample((0,), 2.0), None]
        summary = summarize_shard(batch, keep_rank=1)
        assert summary.leading_failures == 2
        assert summary.trailing_failures == 1


#: A small grid of willingness values: ties are frequent, and none of
#: the values is exact in binary.
_WILLINGNESS = st.integers(0, 6).map(lambda i: 0.1 + 0.7 * i)


def _bits(values):
    """Floats compared bit for bit."""
    return tuple(float.hex(float(value)) for value in values)


def _capped(planned, counter):
    """The draws one loop makes from ``planned``, starting at ``counter``
    consecutive failures, before the write-off cap stops it."""
    batch = []
    for sample in planned:
        batch.append(sample)
        counter = counter + 1 if sample is None else 0
        if counter >= MAX_CONSECUTIVE_FAILURES:
            break
    return batch


@st.composite
def _merge_case(draw):
    """One start's stage: its planned draws, drawn whole and in shards.

    The whole batch is what one serial loop draws from the carry-in
    failure counter: the plan, cut where the counter reaches the
    write-off cap.  Each shard draws its own slice of the plan on its
    own — the first from the carry, the others from zero — and stops at
    its own cap, so later shards can draw past the serial stop.
    Members are random 3-sets of compiled ids.
    """
    carry = draw(st.integers(0, MAX_CONSECUTIVE_FAILURES - 1))
    draws = draw(
        st.lists(
            st.one_of(
                st.none(),
                st.tuples(
                    _WILLINGNESS,
                    st.lists(
                        st.integers(0, 11), min_size=3, max_size=3,
                        unique=True,
                    ),
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    planned = [
        None
        if item is None
        else Sample(frozenset(item[1]), item[0], tuple(item[1]))
        for item in draws
    ]
    # A run of failures up to twice the cap somewhere in the plan: shard
    # cuts inside it make later shards draw past the serial stop.
    at = draw(st.integers(0, len(planned)))
    planned[at:at] = [None] * draw(
        st.integers(0, 2 * MAX_CONSECUTIVE_FAILURES)
    )
    cuts = draw(
        st.lists(st.integers(1, len(planned) - 1), max_size=3, unique=True)
        if len(planned) > 1
        else st.just([])
    )
    bounds = [0, *sorted(cuts), len(planned)]
    return {
        "carry": carry,
        "batch": _capped(planned, carry),
        "shards": [
            _capped(planned[low:high], carry if low == 0 else 0)
            for low, high in zip(bounds, bounds[1:])
        ],
        "share": len(planned),
        "prior": draw(st.lists(_WILLINGNESS, max_size=3)),
        "gamma": draw(st.sampled_from([-math.inf, 1.5, 2.9, 4.3])),
        "incumbent": draw(st.sampled_from([None, 2.2, 3.6, 9.9])),
        "backtrack": draw(st.sampled_from([None, 1e-3, 10.0])),
    }


class TestOneMerge:
    """Merging a start's shard summaries equals merging one summary of
    the serial batch: the stage merge every executor runs does not
    depend on how a stage's draws were cut up, and it writes a start
    off where the serial loop stops, however far the shards drew."""

    @pytest.fixture(scope="class")
    def graph(self):
        return facebook_like(30, seed=3)

    def _fold(self, graph, engine, case, pieces):
        problem = WASOProblem(graph=graph, k=3)
        evaluator = evaluator_for(graph, engine)
        sampler = ExpansionSampler(problem, evaluator)
        solver = CBASND(
            rho=0.3,
            smoothing=0.9,
            backtrack_threshold=case["backtrack"],
            max_backtracks=1,
            engine=engine,
        )
        start = graph.node_list()[0]
        solver._prepare(problem, [start], evaluator)
        vector = solver._vectors[0]
        vector.observe_stage_gamma(case["gamma"])
        node_stats = StartNodeStats(node=start)
        for willingness in case["prior"]:
            node_stats.record(willingness)
        incumbent = case["incumbent"]
        ctx = StageContext(
            solver=solver,
            problem=problem,
            sampler=sampler,
            rng=random.Random(0),
            starts=[start],
            node_stats=[node_stats],
            failures=[case["carry"]],
            stats=SolveStats(),
            best_sample=(
                None
                if incumbent is None
                else Sample(frozenset({"incumbent"}), incumbent)
            ),
        )
        nodes = graph.node_list()
        keep_rank = solver._shard_keep_rank(case["share"])
        summaries = []
        for piece in pieces:
            if engine == "reference":
                # Reference-path samples carry member sets, not ids.
                piece = [
                    None
                    if sample is None
                    else Sample(
                        frozenset(nodes[i] for i in sample.indices),
                        sample.willingness,
                    )
                    for sample in piece
                ]
            summaries.append(summarize_shard(piece, keep_rank))
        patch = merge_start_stage(ctx, 0, summaries)
        return {
            "counts": (
                ctx.stats.samples_drawn,
                ctx.stats.failed_samples,
                ctx.failures[0],
                node_stats.pruned,
            ),
            "stats": _bits(
                (node_stats.c, node_stats.d, node_stats.n, node_stats._mean,
                 node_stats._m2)
            ),
            "incumbent": ctx.best_sample,
            "vector": _bits([*vector.snapshot(), vector.gamma]),
            "patch": repr(patch),
            "backtracks": ctx.stats.extra.get("backtracks"),
        }

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_merge_case())
    def test_shards_merge_like_the_whole_batch(self, graph, engine, case):
        whole = self._fold(graph, engine, case, [case["batch"]])
        sharded = self._fold(graph, engine, case, case["shards"])
        assert sharded == whole


class TestUpdateFromCounts:
    """The pre-aggregated refit must equal the per-sample refit bitwise."""

    def _vectors(self):
        candidates = list(range(8))
        index_of = {node: node for node in candidates}
        build = lambda: SelectionProbabilities(  # noqa: E731
            candidates, 3, index_of=index_of, size=8
        )
        return build(), build()

    def test_matches_update(self):
        via_samples, via_counts = self._vectors()
        samples = [
            Sample(frozenset({0, 1, 2}), 9.0, indices=(0, 1, 2)),
            Sample(frozenset({1, 2, 3}), 8.0, indices=(1, 2, 3)),
            Sample(frozenset({4, 5, 6}), 1.0, indices=(4, 5, 6)),
        ]
        via_samples.update(samples, rho=0.5, smoothing=0.7)

        # rho=0.5 over 3 samples -> rank 2 -> gamma 8.0 -> two elites.
        stage_gamma = elite_threshold([s.willingness for s in samples], 0.5)
        via_counts.observe_stage_gamma(stage_gamma)
        counts = {0: 1, 1: 2, 2: 2, 3: 1}
        patch, movement = via_counts.update_from_counts(counts, 2, 0.7)
        assert movement == 0.0
        assert via_counts.snapshot() == via_samples.snapshot()
        assert via_counts.gamma == via_samples.gamma
        kind, keep, slot_values = patch
        assert kind == "round" and keep == pytest.approx(1.0 - 0.7)
        assert [slot for slot, _ in slot_values] == [0, 1, 2, 3]

    def test_patch_replay_keeps_mirror_identical(self):
        parent, mirror = self._vectors()
        rng = random.Random(3)
        for _ in range(4):
            members = tuple(sorted(rng.sample(range(8), 3)))
            counts = {slot: 1 for slot in members}
            parent.observe_stage_gamma(rng.random())
            patch, _ = parent.update_from_counts(counts, 1, 0.9)
            mirror.apply_round(patch[1], patch[2])
        assert mirror.snapshot() == parent.snapshot()

    def test_full_patch_resync(self):
        parent, mirror = self._vectors()
        patch, _ = parent.update_from_counts({0: 1, 1: 1, 2: 1}, 1, 0.5)
        # Mirror missed the round: a full restore resynchronizes it.
        mirror.restore(parent.snapshot())
        assert mirror.snapshot() == parent.snapshot()

    def test_validation(self):
        vector, _ = self._vectors()
        with pytest.raises(ValueError):
            vector.update_from_counts({}, 1, 0.5)
        with pytest.raises(ValueError):
            vector.update_from_counts({0: 1}, 0, 0.5)
        with pytest.raises(ValueError):
            vector.update_from_counts({0: 1}, 1, 1.5)


class TestShardMergeEquivalence:
    """Sharded stage merge == serial run over the concatenated stream."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_elites_and_refit_vectors_match_serial_reconstruction(
        self, small_facebook, workers
    ):
        self._assert_matches_serial_reconstruction(
            WASOProblem(graph=small_facebook, k=5),
            workers,
            budget=150,
            m=6,
            stages=4,
        )

    @pytest.mark.parametrize("workers", [2, 3])
    def test_low_share_stages_match_serial_reconstruction(
        self, small_facebook, workers
    ):
        # Shares of one to three draws: starts move between workers from
        # stage to stage, so each worker's CE mirrors catch up on the
        # patches of the stages it missed.
        self._assert_matches_serial_reconstruction(
            WASOProblem(graph=small_facebook, k=5),
            workers,
            budget=60,
            m=8,
            stages=5,
            allocation="gaussian",
        )

    @staticmethod
    def _assert_matches_serial_reconstruction(problem, workers, **kwargs):
        """Replay every stage's shards (budgets, seeds, failure carries)
        in shard order through one in-process sampler; the elite sets
        and the final refit vectors must match bit for bit."""
        rho, smoothing = 0.3, 0.9
        with ResidentPool(workers) as pool:
            executor = ShardedStageExecutor(pool=pool, trace=True)
            solver = CBASND(
                rho=rho,
                smoothing=smoothing,
                context=ExecutionContext(executor=executor),
                **kwargs,
            )
            result = solver.solve(problem, rng=11)
        starts = solver.last_warm_state.starts

        evaluator = evaluator_for(problem.graph, "compiled")
        sampler = ExpansionSampler(problem, evaluator)
        compiled = evaluator.compiled
        vectors: dict = {}

        def vector_for(index):
            if index not in vectors:
                vectors[index] = SelectionProbabilities(
                    problem.candidates(),
                    problem.k,
                    index_of=compiled.index_of,
                    size=compiled.number_of_nodes,
                )
            return vectors[index]

        checked_stages = 0
        for stage in executor.trace[0]["stages"]:
            for record in stage:
                index = record["start"]
                vector = vector_for(index)
                # Serial run fed the same concatenated sample stream:
                # draw each shard's budget with its seed, in shard order,
                # through one in-process sampler.
                samples = []
                for position, (count, seed_int) in enumerate(
                    record["shards"]
                ):
                    shard_rng = random.Random(seed_int)
                    carry = record["carry"] if position == 0 else 0
                    batch = sampler.draw_batch(
                        seed_for_start(problem, starts[index]),
                        shard_rng,
                        count,
                        weight_array=vector.array,
                        failures=carry,
                        max_failures=MAX_CONSECUTIVE_FAILURES,
                    )
                    samples.extend(s for s in batch if s is not None)
                assert len(samples) == record["successes"]
                if not samples:
                    continue
                # Identical elite set: the serial stream's monotone-γ
                # elites equal what the merge derived from shard `kept`s.
                stage_gamma = elite_threshold(
                    [s.willingness for s in samples], rho
                )
                gamma = max(vector.gamma, stage_gamma)
                serial_elites = sorted(
                    (s.willingness, s.indices)
                    for s in samples
                    if s.willingness >= gamma
                )
                merged_elites = sorted(
                    (w, ids) for w, ids in record["kept"] if w >= gamma
                )
                assert serial_elites == merged_elites
                vector.update(
                    samples, rho=rho, smoothing=smoothing,
                    compute_movement=False,
                )
                checked_stages += 1
        assert checked_stages > 0

        # Identical refit vectors, bit for bit.
        for index, vector in vectors.items():
            assert vector.snapshot() == solver._vectors[index].snapshot()
            assert vector.gamma == solver._vectors[index].gamma
        # And the solution itself is drawn from that same stream.
        assert result.solution.is_feasible(problem)

    def test_keep_rank_covers_merged_elite_rank(self):
        # ⌈ρ·share⌉ per shard is an upper bound for ⌈ρ·successes⌉ of the
        # merged stream — the inequality the retention protocol rests on.
        solver = CBASND(budget=10, rho=0.3)
        for share in (1, 2, 7, 33):
            assert solver._shard_keep_rank(share) >= max(
                1, math.ceil(0.3 * share)
            )


def _spy_stages(pool, monkeypatch) -> list:
    """Record every stage's per-worker ``(start, count)`` entries."""
    stages = []
    run_stage = pool.run_stage

    def spy(spec, graphs, worker_entries, *rest):
        stages.append(
            [
                [(entry["start"], entry["count"]) for entry in entries]
                for entries in worker_entries
            ]
        )
        return run_stage(spec, graphs, worker_entries, *rest)

    monkeypatch.setattr(pool, "run_stage", spy)
    return stages


def _low_share_solver(pool, budget: int) -> CBASND:
    """Six starts and ``budget / 3`` draws a stage, so shares are small:
    at ``budget=18`` every start has share 1 in stage 0; at ``36`` most
    shares of stages 1 and 2 are 1."""
    return CBASND(
        budget=budget,
        m=6,
        stages=3,
        allocation="gaussian",
        context=ExecutionContext(executor=ShardedStageExecutor(pool=pool)),
    )


class TestShardPlacement:
    """Each start's shards go to the least-loaded workers, largest first;
    only which process draws a shard changes, never what it draws."""

    def test_share_one_starts_alternate_workers(
        self, small_facebook, stage_pool, monkeypatch
    ):
        stages = _spy_stages(stage_pool, monkeypatch)
        problem = WASOProblem(graph=small_facebook, k=5)
        _low_share_solver(stage_pool, budget=18).solve(problem, rng=3)
        assert stages[0] == [
            [(0, 1), (2, 1), (4, 1)],
            [(1, 1), (3, 1), (5, 1)],
        ]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_loads_differ_by_at_most_one_shard(
        self, small_facebook, monkeypatch, workers
    ):
        problem = WASOProblem(graph=small_facebook, k=5)
        with ResidentPool(workers) as pool:
            stages = _spy_stages(pool, monkeypatch)
            CBASND(
                budget=200,
                m=10,
                stages=5,
                allocation="gaussian",
                context=ExecutionContext(
                    executor=ShardedStageExecutor(pool=pool)
                ),
            ).solve(problem, rng=5)
        assert len(stages) == 5
        for worker_entries in stages:
            loads = [
                sum(count for _, count in entries)
                for entries in worker_entries
            ]
            largest = max(
                count for entries in worker_entries for _, count in entries
            )
            assert max(loads) - min(loads) <= largest
            # A start's shards land on distinct workers.
            for entries in worker_entries:
                starts = [start for start, _ in entries]
                assert len(starts) == len(set(starts))

    def test_kill_before_low_share_stage_heals(self, small_facebook):
        # Per worker: seq 1 = graph install, seq 2 = solve spec, seq 3..5
        # = the three stage dispatches.  Stage 1 (seq 4) puts four
        # low-share starts on worker 1, whose rebuilt mirrors then need
        # the full patch history.
        problem = WASOProblem(graph=small_facebook, k=5)

        def snapshots(solver):
            vectors = solver.last_warm_state.vectors
            return {start: vectors[start].snapshot() for start in vectors}

        with ResidentPool(2) as pool:
            solver = _low_share_solver(pool, budget=36)
            clean = solver.solve(problem, rng=3)
            clean_vectors = snapshots(solver)
        plan = FaultPlan(kills=[(1, 4)])
        with ResidentPool(2) as pool:
            pool.fault_plan = plan
            solver = _low_share_solver(pool, budget=36)
            faulted = solver.solve(problem, rng=3)
            assert plan.log == [("kill", 1, 4)]
            assert pool.worker_restarts == 1
            assert pool.healthy
        assert snapshots(solver) == clean_vectors
        assert faulted.members == clean.members
        assert faulted.willingness == clean.willingness
        assert faulted.stats.samples_drawn == clean.stats.samples_drawn
        assert faulted.stats.extra["stage_best"] == (
            clean.stats.extra["stage_best"]
        )
        assert faulted.stats.extra["chunk_retries"] == 1


class TestShardedSolvers:
    def test_deterministic_and_feasible(self, small_facebook, stage_pool):
        problem = WASOProblem(graph=small_facebook, k=5)
        executor = ShardedStageExecutor(pool=stage_pool)
        solver = CBASND(
            budget=120, m=6, stages=3,
            context=ExecutionContext(executor=executor),
        )
        first = solver.solve(problem, rng=4)
        second = solver.solve(problem, rng=4)
        assert first.solution.is_feasible(problem)
        assert first.willingness == second.willingness
        assert first.members == second.members
        assert first.stats.extra["stage_workers"] == stage_pool.workers

    def test_shard_protocol_overhead_recorded(
        self, small_facebook, stage_pool
    ):
        """`extra` carries the overhead-curve inputs: RPCs + patch bytes."""
        problem = WASOProblem(graph=small_facebook, k=5)
        executor = ShardedStageExecutor(pool=stage_pool)
        solver = CBASND(
            budget=120, m=6, stages=3,
            context=ExecutionContext(executor=executor),
        )
        extra = solver.solve(problem, rng=4).stats.extra
        stages = 3
        workers = stage_pool.workers
        # One request/reply round per worker per stage, plus the solve
        # broadcast (and the graph install when it was not yet resident).
        assert extra["shard_rpcs"] >= (stages + 1) * workers
        assert extra["shard_rpcs"] <= (stages + 2) * workers
        # One entry per executed stage; stage 0 ships no CE patches (the
        # cold vectors are rebuilt worker-side), later stages do.
        patch_bytes = extra["shard_patch_bytes"]
        assert len(patch_bytes) == stages
        assert patch_bytes[0] == 0
        assert all(isinstance(b, int) and b >= 0 for b in patch_bytes)
        assert sum(patch_bytes[1:]) > 0

    def test_uniform_cbas_ships_no_patches(self, small_facebook, stage_pool):
        problem = WASOProblem(graph=small_facebook, k=5)
        executor = ShardedStageExecutor(pool=stage_pool)
        solver = CBAS(
            budget=90, m=6, stages=3,
            context=ExecutionContext(executor=executor),
        )
        extra = solver.solve(problem, rng=9).stats.extra
        # Uniform CBAS has no CE vectors to sync: every stage's patch
        # payload is empty.
        assert extra["shard_patch_bytes"] == [0, 0, 0]
        assert extra["shard_rpcs"] >= 3 * stage_pool.workers

    def test_full_budget_drawn(self, small_facebook, stage_pool):
        problem = WASOProblem(graph=small_facebook, k=5)
        executor = ShardedStageExecutor(pool=stage_pool)
        budget, stages = 120, 3
        solver = CBASND(
            budget=budget, m=6, stages=stages,
            context=ExecutionContext(executor=executor),
        )
        result = solver.solve(problem, rng=4)
        # Connected graph, no sub-k components: every attempt succeeds,
        # so the sharded run consumes the same budget as the serial loop.
        assert result.stats.samples_drawn == (budget // stages) * stages
        assert result.stats.failed_samples == 0

    def test_uniform_cbas_sharded(self, small_facebook, stage_pool):
        problem = WASOProblem(graph=small_facebook, k=5)
        executor = ShardedStageExecutor(pool=stage_pool)
        solver = CBAS(
            budget=90, m=6, stages=3,
            context=ExecutionContext(executor=executor),
        )
        result = solver.solve(problem, rng=9)
        assert result.solution.is_feasible(problem)
        assert result.stats.samples_drawn == 90

    def test_reference_engine_rejected(self, small_facebook, stage_pool):
        problem = WASOProblem(graph=small_facebook, k=5)
        executor = ShardedStageExecutor(pool=stage_pool)
        solver = CBASND(
            budget=60, m=4, stages=2, engine="reference",
            context=ExecutionContext(executor=executor),
        )
        with pytest.raises(ValueError, match="compiled.*vector"):
            solver.solve(problem, rng=1)

    def test_quality_comparable_to_serial(self, small_facebook, stage_pool):
        problem = WASOProblem(graph=small_facebook, k=6)
        serial = CBASND(budget=120, m=6, stages=4).solve(problem, rng=2)
        sharded = CBASND(
            budget=120,
            m=6,
            stages=4,
            context=ExecutionContext(
                executor=ShardedStageExecutor(pool=stage_pool)
            ),
        ).solve(problem, rng=2)
        # Same statistical computation (full-elite refit every stage):
        # quality must stay in the serial ballpark.
        assert sharded.willingness >= serial.willingness * 0.5


class TestResidency:
    def test_graph_resident_across_solves(self, small_facebook, stage_pool):
        problem = WASOProblem(graph=small_facebook, k=5)
        installs_before = stage_pool.installs
        executor = ShardedStageExecutor(pool=stage_pool)
        solver = CBASND(
            budget=60, m=4, stages=2,
            context=ExecutionContext(executor=executor),
        )
        first = solver.solve(problem, rng=1)
        second = solver.solve(problem, rng=2)
        assert stage_pool.installs <= installs_before + stage_pool.workers
        assert second.stats.extra["graph_shipped"] is False
        assert first.solution.is_feasible(problem)

    def test_mutation_invalidates_resident_graph(self, connectify):
        from repro.graph.generators import facebook_like

        graph = facebook_like(120, seed=5)
        connectify(graph)
        problem = WASOProblem(graph=graph, k=4)
        with ResidentPool(2) as pool:
            executor = ShardedStageExecutor(pool=pool)
            solver = CBASND(
                budget=60, m=4, stages=2,
                context=ExecutionContext(executor=executor),
            )
            solver.solve(problem, rng=1)
            assert pool.installs == 2
            token_before = pool.resident_token
            # Mutating the graph produces a fresh freeze with a fresh
            # payload token: the resident arrays must be re-shipped.
            nodes = graph.node_list()
            graph.set_interest(nodes[0], 3.21)
            result = solver.solve(problem, rng=1)
            assert pool.installs == 4
            assert pool.resident_token != token_before
            assert result.stats.extra["graph_shipped"] is True

    def test_bounded_cache_evicts_and_reships(self, small_facebook):
        """A capacity-1 pool alternating two graphs across stage solves
        re-ships the evicted arrays — and keeps solving correctly."""
        from repro.graph.generators import facebook_like

        problem_a = WASOProblem(graph=small_facebook, k=5)
        problem_b = WASOProblem(graph=facebook_like(120, seed=8), k=4)
        with ResidentPool(2, resident_graphs=1) as pool:
            executor = ShardedStageExecutor(pool=pool)
            solver_a = CBASND(
                budget=60, m=4, stages=2,
                context=ExecutionContext(executor=executor),
            )
            solver_b = CBASND(
                budget=60, m=4, stages=2,
                context=ExecutionContext(executor=executor),
            )
            solver_a.solve(problem_a, rng=1)
            assert pool.installs == 2
            solver_b.solve(problem_b, rng=2)  # evicts A
            assert pool.installs == 4
            result = solver_a.solve(problem_a, rng=3)  # re-ship
            assert pool.installs == 6
            assert result.stats.extra["graph_shipped"] is True
            assert result.stats.extra["batch_payload_bytes"] > 0
            again = solver_a.solve(problem_a, rng=4)  # warm
            assert pool.installs == 6
            assert again.stats.extra["graph_shipped"] is False
            assert again.stats.extra["batch_payload_bytes"] == 0
            assert pool.resident_token == problem_a.payload_token()

    def test_problem_spec_roundtrip(self, small_facebook):
        from repro.core.problem import problem_from_payload_spec

        nodes = small_facebook.node_list()
        problem = WASOProblem(
            graph=small_facebook,
            k=5,
            required=frozenset({nodes[0]}),
            forbidden=frozenset({nodes[1]}),
        )
        spec = problem.payload_spec()
        rebuilt = problem_from_payload_spec(problem.compiled().detach(), spec)
        assert rebuilt.k == problem.k
        assert rebuilt.required == problem.required
        assert rebuilt.forbidden == problem.forbidden
        assert rebuilt.candidates() == problem.candidates()
        with pytest.raises(ValueError):
            problem_from_payload_spec(
                problem.compiled().detach(), {**spec, "token": "cg-0-999999"}
            )

    def test_payload_token_survives_detach_and_pickle(self, small_facebook):
        import pickle

        compiled = small_facebook.compiled()
        token = compiled.payload_token
        assert compiled.detach().payload_token == token
        assert pickle.loads(pickle.dumps(compiled.detach())).payload_token == token


class TestOnlineReplanningResident:
    def test_replans_reuse_resident_pool(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        with ResidentPool(2) as pool:
            executor = ShardedStageExecutor(pool=pool)
            solver = CBASND(
                budget=80, m=5, stages=2,
                context=ExecutionContext(executor=executor),
            )
            with OnlinePlanner(problem, solver=solver, rng=6) as planner:
                group = planner.plan()
                assert pool.installs == 2
                assert planner.last_result.stats.extra["graph_shipped"]
                # Two decline rounds: forbidden grows, graph unchanged —
                # replans ship only the O(1) problem spec.
                for _ in range(2):
                    victim = next(
                        iter(sorted(group.members - planner.accepted))
                    )
                    group = planner.record_decline(victim)
                assert planner.replan_count == 2
                assert pool.installs == 2
                assert (
                    planner.last_result.stats.extra["graph_shipped"] is False
                )
                assert group.is_feasible(planner._current_problem())
