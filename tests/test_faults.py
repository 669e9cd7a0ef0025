"""Chaos differential suite for the self-healing worker pool.

Every test here injects a *deterministic* fault — a worker SIGKILLed
before a named RPC, a reply dropped or delayed past a deadline — through
:class:`repro.parallel.faults.FaultPlan`, and asserts the recovery
machinery's exact behaviour:

* results after an injected crash are **bit-identical** to the
  fault-free run at every dispatch position (the seeds travel with the
  work, so a retried dispatch redraws the same samples);
* recovery accounting (``worker_restarts`` / ``chunk_retries`` /
  ``degraded_to_serial`` / ``deadline_missed``) reports the exact event
  counts, not just "something happened";
* an expired deadline fails its request cleanly into
  :class:`~repro.exceptions.BatchExecutionError` while the rest of the
  batch completes;
* ``close()`` stays idempotent and hang-free with every worker dead,
  and no orphan processes survive it.

The suite is part of tier 1 (small graphs, small budgets) and is also
re-runnable standalone via the registered ``chaos`` marker::

    PYTHONPATH=src python -m pytest tests/test_faults.py -m chaos
"""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest

from repro.algorithms.cbas_nd import CBASND
from repro.cli import main
from repro.core.problem import WASOProblem
from repro.exceptions import BatchExecutionError, RequestFailure
from repro.graph.io import save_json
from repro.graph.social_graph import SocialGraph
from repro.parallel import (
    NEXT_RPC,
    ArrivalScript,
    FaultPlan,
    ResidentPool,
    ShardedStageExecutor,
)
from repro.runtime import ExecutionContext, SolveRequest
from repro.runtime.router import MIN_STAGE_BUDGET, STAGE_WORK_THRESHOLD

pytestmark = pytest.mark.chaos

#: extra-dict keys that describe pool warmth, shipping, or recovery
#: rather than the solve itself — under fault injection the re-shipping
#: bytes and recovery counters legitimately differ from the fault-free
#: run, while everything else must stay bit-identical.
_VOLATILE_KEYS = frozenset(
    {
        "graph_shipped",
        "graph_installs",
        "batch_payload_bytes",
        "shard_rpcs",
        "shard_patch_bytes",
        "graph_patch_bytes",
        "stage_workers",
        "failed_requests",
        "worker_restarts",
        "chunk_retries",
        "degraded_to_serial",
        "deadline_missed",
    }
)


def _assert_same_result(faulted, clean) -> None:
    """``faulted`` must be bit-identical to ``clean`` (volatile keys aside)."""
    assert faulted.solution.members == clean.solution.members
    assert faulted.willingness == clean.willingness
    assert faulted.stats.samples_drawn == clean.stats.samples_drawn
    assert faulted.stats.failed_samples == clean.stats.failed_samples
    assert faulted.stats.stages == clean.stats.stages
    strip = lambda extra: {  # noqa: E731
        key: value
        for key, value in extra.items()
        if key not in _VOLATILE_KEYS
    }
    assert strip(faulted.stats.extra) == strip(clean.stats.extra)


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


def _requests(graph, engine: str = "compiled") -> "list[SolveRequest]":
    problem = WASOProblem(graph=graph, k=5)
    kwargs = {"budget": 40, "m": 4, "stages": 2, "engine": engine}
    return [
        SolveRequest(problem, "cbas-nd", seed, dict(kwargs))
        for seed in (11, 12, 13, 14)
    ]


def _solve_many(graph, plan=None, engine="compiled", **context_kwargs):
    """One forced solve-mode batch on a fresh 2-worker context."""
    requests = _requests(graph, engine)
    with ExecutionContext(workers=2, cpu_count=4, **context_kwargs) as context:
        if plan is not None:
            context.pool().fault_plan = plan
        results = context.solve_many(requests, mode="solve")
    return results


# ----------------------------------------------------------------------
# FaultPlan itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_faults_fire_exactly_once(self):
        plan = FaultPlan(kills=[(0, NEXT_RPC)], drops=[(1, 3)])
        assert not plan.kill_before_send(1, 1)
        assert plan.kill_before_send(0, 5)
        assert not plan.kill_before_send(0, 6)  # already fired
        assert plan.reply_disposition(1, 3) == "drop"
        assert plan.reply_disposition(1, 3) is None
        assert plan.log == [("kill", 0, 5), ("drop", 1, 3)]

    def test_delay_disposition(self):
        plan = FaultPlan(delays={(0, 2): 1.5})
        assert plan.reply_disposition(0, 1) is None
        assert plan.reply_disposition(0, 2) == 1.5
        assert plan.reply_disposition(0, 2) is None
        assert plan.log == [("delay", 0, 2)]

    def test_seeded_plans_are_reproducible(self):
        first = FaultPlan.seeded(7, workers=4, rpcs=6, kills=2, drops=1)
        second = FaultPlan.seeded(7, workers=4, rpcs=6, kills=2, drops=1)
        assert first._kills == second._kills
        assert first._drops == second._drops
        other = FaultPlan.seeded(8, workers=4, rpcs=6, kills=2, drops=1)
        assert (first._kills, first._drops) != (other._kills, other._drops)

    def test_seeded_rejects_overfull_plans(self):
        with pytest.raises(ValueError, match="cannot place"):
            FaultPlan.seeded(1, workers=2, rpcs=2, kills=5)

    def test_queue_stalls_fire_exactly_once(self):
        plan = FaultPlan(stalls={1: 0.25, NEXT_RPC: 0.5})
        # NEXT_RPC matches any batch; specific keys win their own batch.
        assert plan.queue_stall(1) in (0.25, 0.5)
        remaining = plan.queue_stall(1)
        assert remaining in (0.25, 0.5)
        assert plan.queue_stall(1) is None  # both entries consumed
        assert [event[0] for event in plan.log] == ["stall", "stall"]

    def test_queue_stall_ignores_other_batches(self):
        plan = FaultPlan(stalls={3: 1.0})
        assert plan.queue_stall(1) is None
        assert plan.queue_stall(2) is None
        assert plan.queue_stall(3) == 1.0
        assert plan.queue_stall(3) is None
        assert plan.log == [("stall", "queue", 3)]


# ----------------------------------------------------------------------
# ArrivalScript: deterministic open-loop arrival schedules
# ----------------------------------------------------------------------
class TestArrivalScript:
    def test_burst_arrives_at_once(self):
        script = ArrivalScript.burst(4)
        assert script.offsets == (0.0, 0.0, 0.0, 0.0)
        assert len(script) == 4

    def test_uniform_spacing(self):
        script = ArrivalScript.uniform(3, rate=10.0)
        assert script.offsets == pytest.approx((0.0, 0.1, 0.2))

    def test_poisson_is_seeded_and_sorted(self):
        first = ArrivalScript.poisson(7, count=20, rate=50.0)
        second = ArrivalScript.poisson(7, count=20, rate=50.0)
        assert first.offsets == second.offsets
        assert list(first.offsets) == sorted(first.offsets)
        other = ArrivalScript.poisson(8, count=20, rate=50.0)
        assert first.offsets != other.offsets

    def test_offsets_validated(self):
        with pytest.raises(ValueError, match="non-negative"):
            ArrivalScript([0.0, -0.1])


# ----------------------------------------------------------------------
# Structured failure records
# ----------------------------------------------------------------------
class TestRequestFailure:
    def test_string_compatible(self):
        failure = RequestFailure(
            "Traceback ...\nInfeasibleProblemError: no component",
            kind="solver_error",
            retries=0,
            index=3,
        )
        assert "Infeasible" in failure  # historical str treatment
        assert failure.splitlines()[-1].startswith("Infeasible")
        assert failure.kind == "solver_error"
        assert failure.retries == 0
        assert failure.index == 3

    def test_kind_is_validated(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            RequestFailure("boom", kind="cosmic_rays")

    def test_batch_error_coerces_and_labels(self):
        late = RequestFailure("expired", kind="deadline", retries=2, index=0)
        error = BatchExecutionError({0: late, 1: "plain traceback"}, [None, None])
        assert error.failures[0].kind == "deadline"
        assert error.failures[0].retries == 2
        assert error.failures[1].kind == "solver_error"  # coerced default
        assert error.failures[1].index == 1
        assert "[deadline]" in str(error)


# ----------------------------------------------------------------------
# Solve-level pool: crash recovery is invisible in results
# ----------------------------------------------------------------------
class TestSolvePoolRecovery:
    # With 2 workers and 4 forced-solve requests, each worker receives
    # exactly two RPCs: seq 1 = graph install, seq 2 = its chunk.
    @pytest.mark.parametrize("worker", [0, 1])
    @pytest.mark.parametrize("rpc", [1, 2])
    def test_kill_at_every_dispatch_position_is_bit_identical(
        self, small_facebook, no_orphans, worker, rpc
    ):
        clean = _solve_many(small_facebook)
        plan = FaultPlan(kills=[(worker, rpc)])
        faulted = _solve_many(small_facebook, plan=plan)
        assert plan.log == [("kill", worker, rpc)]
        for index, (fault_result, clean_result) in enumerate(
            zip(faulted, clean)
        ):
            _assert_same_result(fault_result, clean_result)
            extra = fault_result.stats.extra
            if index % 2 == worker:
                # Exact recovery accounting of the lost chunk: one
                # respawn, one retry, and its cold install plus the
                # re-ship to the respawned worker.
                assert extra["worker_restarts"] == 1
                assert extra["chunk_retries"] == 1
                assert extra["graph_installs"] == 2
            else:
                # The other worker's chunk was never lost.
                assert "worker_restarts" not in extra
                assert "chunk_retries" not in extra
                assert extra["graph_installs"] == 1
        for clean_result in clean:
            assert "worker_restarts" not in clean_result.stats.extra
            assert clean_result.stats.extra["graph_installs"] == 1

    def test_reference_engine_recovers_too(self, small_facebook, no_orphans):
        clean = _solve_many(small_facebook, engine="reference")
        plan = FaultPlan(kills=[(0, NEXT_RPC)])
        faulted = _solve_many(small_facebook, plan=plan, engine="reference")
        assert plan.log, "the injected kill never fired"
        for index, (fault_result, clean_result) in enumerate(
            zip(faulted, clean)
        ):
            _assert_same_result(fault_result, clean_result)
            # Requests 0 and 2 share worker 0's lost chunk.
            lost = index % 2 == 0
            extra = fault_result.stats.extra
            assert extra.get("worker_restarts") == (1 if lost else None)
            assert extra.get("chunk_retries") == (1 if lost else None)

    def test_vector_engine_recovers_too(self, small_facebook, no_orphans):
        """The numpy stage-batched engine rides the same recovery path:
        a killed worker's chunk retries bit-identically (the vector
        engine is bit-reproducible within the engine for any worker
        count, so the redraw matches)."""
        clean = _solve_many(small_facebook, engine="vector")
        plan = FaultPlan(kills=[(0, NEXT_RPC)])
        faulted = _solve_many(small_facebook, plan=plan, engine="vector")
        assert plan.log, "the injected kill never fired"
        for index, (fault_result, clean_result) in enumerate(
            zip(faulted, clean)
        ):
            _assert_same_result(fault_result, clean_result)
            # Requests 0 and 2 share worker 0's lost chunk.
            lost = index % 2 == 0
            extra = fault_result.stats.extra
            assert extra.get("worker_restarts") == (1 if lost else None)
            assert extra.get("chunk_retries") == (1 if lost else None)
            # Still a vector-engine solve end to end, not a silent
            # fallback to another engine during recovery.
            assert fault_result.stats.extra.get("vector_batch_draws", 0) == (
                clean_result.stats.extra.get("vector_batch_draws", 0)
            )

    def test_exhausted_retries_degrade_to_serial(
        self, small_facebook, no_orphans
    ):
        """Two kills against a 1-retry budget: the chunk's requests fall
        back to in-parent execution, bit-identically, and the router goes
        serial until the pool is discarded."""
        clean = _solve_many(small_facebook)
        # Two NEXT_RPC kills would both fire during the *initial*
        # dispatch (install then chunk, the worker already dead), so the
        # second kill is pinned to the retry's install re-send: seqs 1-2
        # are the first install+chunk, seq 3 the recovery install.
        plan = FaultPlan(kills=[(0, 1), (0, 3)])
        requests = _requests(small_facebook)
        problem = requests[0].problem
        with ExecutionContext(workers=2, cpu_count=4, max_retries=1) as context:
            context.pool().fault_plan = plan
            results = context.solve_many(requests, mode="solve")
            assert len(plan.log) == 2
            for fault_result, clean_result in zip(results, clean):
                _assert_same_result(fault_result, clean_result)
            # Worker 0's chunk held requests 0 and 2 (round-robin): both
            # re-ran serially in-parent after the second kill.
            for index in (0, 2):
                extra = results[index].stats.extra
                assert extra["worker_restarts"] == 2
                assert extra["chunk_retries"] == 1
                assert extra["degraded_to_serial"] == 2
            assert not context.pool().healthy
            # Degraded context: the auto-router refuses the pool...
            assert (
                context.resolve_mode(problem, budget=10_000, batch_size=4)
                == "serial"
            )
            context.close()
            # ... until close() discards them and trust is restored.
            assert (
                context.resolve_mode(problem, budget=10_000, batch_size=4)
                != "serial"
            )


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    @pytest.mark.parametrize("disposition", ["delay", "drop"])
    def test_expired_dispatch_fails_cleanly(
        self, small_facebook, no_orphans, disposition
    ):
        """A reply held (or lost) past the deadline cancels only the
        expired request; its live chunk-mate is retried and the batch
        completes around the failure."""
        clean = _solve_many(small_facebook)
        requests = _requests(small_facebook)
        requests[0].deadline_s = 0.5  # worker 0's chunk: requests 0 and 2
        if disposition == "delay":
            plan = FaultPlan(delays={(0, NEXT_RPC): 30.0})
        else:
            plan = FaultPlan(drops=[(0, NEXT_RPC)])
        with ExecutionContext(workers=2, cpu_count=4) as context:
            context.pool().fault_plan = plan
            with pytest.raises(BatchExecutionError) as excinfo:
                context.solve_many(requests, mode="solve")
        error = excinfo.value
        assert plan.log, "the injected fault never fired"
        assert sorted(error.failures) == [0]
        assert error.failures[0].kind == "deadline"
        assert "[deadline]" in str(error)
        assert error.results[0] is None
        # The rest of the batch completed, bit-identically.
        for index in (1, 2, 3):
            _assert_same_result(error.results[index], clean[index])
        extra = error.results[2].stats.extra
        assert extra["deadline_missed"] == 1
        assert extra["worker_restarts"] == 1  # the cancellation kill
        assert extra["chunk_retries"] == 1  # request 2 was re-dispatched

    def test_settle_any_cancels_an_expired_chunk(
        self, small_facebook, no_orphans
    ):
        """Waiting on every worker at once still enforces deadlines: a
        reply held past its request's deadline cancels that request
        alone, and the other worker's chunk lands untouched."""
        clean = _solve_many(small_facebook)
        requests = _requests(small_facebook)[:2]
        requests[0].deadline_s = 0.3  # worker 0's chunk
        plan = FaultPlan(delays={(0, NEXT_RPC): 30.0})
        with ExecutionContext(workers=2, cpu_count=4) as context:
            context.pool().fault_plan = plan
            tickets = context.submit(requests, mode="solve")
            settled = []
            while len(settled) < 2:
                settled += context.settle_any()
        assert plan.log, "the injected delay never fired"
        assert tickets[0].failure.kind == "deadline"
        assert tickets[0].result is None
        _assert_same_result(tickets[1].result, clean[1])
        assert "deadline_missed" not in tickets[1].result.stats.extra

    def test_predispatch_expiry_on_the_serial_path(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        requests = [
            SolveRequest(problem, "dgreedy", None, {}, deadline_s=1e-9),
            SolveRequest(problem, "dgreedy", None, {}),
        ]
        with ExecutionContext(workers=1) as context:
            with pytest.raises(BatchExecutionError) as excinfo:
                context.solve_many(requests)
        error = excinfo.value
        assert sorted(error.failures) == [0]
        assert error.failures[0].kind == "deadline"
        assert error.results[1] is not None

    def test_deadline_must_be_positive(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        with pytest.raises(ValueError, match="deadline_s"):
            SolveRequest(problem, "dgreedy", None, {}, deadline_s=0.0)


# ----------------------------------------------------------------------
# Stage-level pool: mid-stage crashes and in-parent fallback
# ----------------------------------------------------------------------
def _stage_solve(graph, pool, engine: str = "compiled") -> "tuple":
    problem = WASOProblem(graph=graph, k=5)
    executor = ShardedStageExecutor(pool=pool)
    solver = CBASND(
        budget=120, m=6, stages=3, engine=engine,
        context=ExecutionContext(executor=executor),
    )
    return solver.solve(problem, rng=4)


class TestStagePoolRecovery:
    # A fresh 2-worker pool sees, per worker: seq 1 = graph install,
    # seq 2 = solve spec, seq 3..5 = the three stage dispatches.
    @pytest.mark.parametrize("worker", [0, 1])
    @pytest.mark.parametrize("rpc", [1, 2, 3, 4, 5])
    def test_kill_at_every_rpc_position_is_bit_identical(
        self, small_facebook, no_orphans, worker, rpc
    ):
        with ResidentPool(2) as pool:
            clean = _stage_solve(small_facebook, pool)
        plan = FaultPlan(kills=[(worker, rpc)])
        with ResidentPool(2) as pool:
            pool.fault_plan = plan
            faulted = _stage_solve(small_facebook, pool)
            assert plan.log == [("kill", worker, rpc)]
            assert pool.worker_restarts == 1
            assert pool.healthy
        _assert_same_result(faulted, clean)
        if rpc >= 3:  # mid-stage: the shard retry is visible in stats
            assert faulted.stats.extra["worker_restarts"] == 1
            assert faulted.stats.extra["chunk_retries"] == 1
        assert "worker_restarts" not in clean.stats.extra

    def test_vector_engine_shard_recovery_is_bit_identical(
        self, small_facebook, no_orphans
    ):
        """A worker killed mid-stage under ``engine="vector"`` respawns,
        re-installs the vector graph, and redraws its shard to the same
        bits — the numpy residency path heals like the compiled one."""
        with ResidentPool(2) as pool:
            clean = _stage_solve(small_facebook, pool, engine="vector")
        plan = FaultPlan(kills=[(0, 3)])  # first stage dispatch
        with ResidentPool(2) as pool:
            pool.fault_plan = plan
            faulted = _stage_solve(small_facebook, pool, engine="vector")
            assert plan.log == [("kill", 0, 3)]
            assert pool.worker_restarts == 1
            assert pool.healthy
        _assert_same_result(faulted, clean)
        assert faulted.stats.extra["worker_restarts"] == 1
        assert faulted.stats.extra["chunk_retries"] == 1
        assert faulted.stats.extra.get("vector_batch_draws", 0) == (
            clean.stats.extra.get("vector_batch_draws", 0)
        )

    def test_exhausted_shard_falls_back_in_parent(
        self, small_facebook, no_orphans
    ):
        """With a zero retry budget a mid-stage crash runs the worker's
        shards in the parent — still bit-identical — and the worker is
        healed lazily before the next stage."""
        with ResidentPool(2) as pool:
            clean = _stage_solve(small_facebook, pool)
        plan = FaultPlan(kills=[(0, 3)])  # first stage dispatch
        with ResidentPool(2, max_retries=0) as pool:
            pool.fault_plan = plan
            faulted = _stage_solve(small_facebook, pool)
            assert plan.log == [("kill", 0, 3)]
            # Worker 0 owed six shards of the first stage; each one
            # finished in the parent counts.
            assert pool.fallbacks == 6
            assert not pool.healthy
        _assert_same_result(faulted, clean)
        assert faulted.stats.extra["worker_restarts"] == 1
        assert faulted.stats.extra["degraded_to_serial"] == 6
        assert "chunk_retries" not in faulted.stats.extra

    def test_exhausted_shard_degrades_the_context(
        self, small_facebook, no_orphans
    ):
        """A stage shard past its retry budget degrades the context just
        as an exhausted chunk does: the router goes serial until close()
        discards the pool."""
        problem = WASOProblem(graph=small_facebook, k=5)
        kwargs = dict(budget=120, m=6, stages=3)
        with ExecutionContext(workers=2, cpu_count=4) as context:
            clean = context.solve(
                problem, "cbas-nd", rng=4, mode="stage", **kwargs
            )
        plan = FaultPlan(kills=[(0, 3)])  # first stage dispatch
        with ExecutionContext(workers=2, cpu_count=4, max_retries=0) as context:
            context.pool().fault_plan = plan
            faulted = context.solve(
                problem, "cbas-nd", rng=4, mode="stage", **kwargs
            )
            assert plan.log == [("kill", 0, 3)]
            _assert_same_result(faulted, clean)
            assert faulted.stats.extra["degraded_to_serial"] > 0
            assert context.degraded
            assert (
                context.resolve_mode(problem, budget=10_000, batch_size=4)
                == "serial"
            )
            context.close()
            assert not context.degraded
            assert (
                context.resolve_mode(problem, budget=10_000, batch_size=4)
                != "serial"
            )


# ----------------------------------------------------------------------
# Both dispatch shapes on one worker's reply stream
# ----------------------------------------------------------------------
class TestMixedBatchRecovery:
    def test_kill_under_a_mixed_batch_is_bit_identical(
        self, small_facebook, no_orphans
    ):
        """A chunk and a stage-routed solve share worker 0's reply stream;
        one kill there is recovered once for both, and every reply still
        lands on its own waiter."""
        problem = WASOProblem(graph=small_facebook, k=5)
        big = max(
            MIN_STAGE_BUDGET,
            -(-STAGE_WORK_THRESHOLD // small_facebook.number_of_nodes()),
        )

        def run(plan):
            small = dict(budget=40, m=4, stages=2)
            requests = [
                SolveRequest(problem, "cbas-nd", 1, dict(small)),
                SolveRequest(
                    problem, "cbas-nd", 2, dict(budget=big, m=6, stages=3)
                ),
                SolveRequest(problem, "cbas-nd", 3, dict(small)),
            ]
            with ExecutionContext(workers=2, cpu_count=4) as context:
                if plan is not None:
                    context.pool().fault_plan = plan
                return context.solve_many(requests)

        clean = run(None)
        # Worker 0: seq 1 = install and seq 2 = the chunk holding request
        # 0; seq 3 = the stage-routed solve's spec, sent while the chunk
        # may still be in flight.
        plan = FaultPlan(kills=[(0, 3)])
        faulted = run(plan)
        assert plan.log == [("kill", 0, 3)]
        for fault_result, clean_result in zip(faulted, clean):
            _assert_same_result(fault_result, clean_result)
        assert "shard_rpcs" in faulted[1].stats.extra  # stage-routed
        assert "shard_rpcs" not in faulted[0].stats.extra  # chunk
        assert faulted[1].stats.extra["worker_restarts"] == 1
        assert faulted[0].stats.extra["worker_restarts"] == 1

    def test_exhaustion_under_a_mixed_batch_finishes_both_shapes(
        self, small_facebook, no_orphans
    ):
        """With no retry budget, one kill loses both the chunk and the
        stage shards worker 0 owes; the pool finishes both in the parent,
        bit-identically, and the context goes degraded."""
        problem = WASOProblem(graph=small_facebook, k=5)
        big = max(
            MIN_STAGE_BUDGET,
            -(-STAGE_WORK_THRESHOLD // small_facebook.number_of_nodes()),
        )
        small = dict(budget=40, m=4, stages=2)
        requests = [
            SolveRequest(problem, "cbas-nd", 1, dict(small)),
            SolveRequest(
                problem, "cbas-nd", 2, dict(budget=big, m=6, stages=3)
            ),
            SolveRequest(problem, "cbas-nd", 3, dict(small)),
        ]
        with ExecutionContext(workers=2, cpu_count=4) as context:
            clean = context.solve_many(requests)
        # Worker 0: seq 1 = install, seq 2 = the chunk holding request 0.
        # Killed before the chunk is sent, it also owes the stage-routed
        # solve's spec and first-stage shards, sent after it.
        plan = FaultPlan(kills=[(0, 2)])
        with ExecutionContext(workers=2, cpu_count=4, max_retries=0) as context:
            context.pool().fault_plan = plan
            faulted = context.solve_many(requests)
            assert plan.log == [("kill", 0, 2)]
            assert context.degraded
            # Worker 0's chunk request and its six first-stage shards
            # finished in the parent.
            assert context.pool().counters()["fallbacks"] == 7
        for fault_result, clean_result in zip(faulted, clean):
            _assert_same_result(fault_result, clean_result)
        assert "shard_rpcs" in faulted[1].stats.extra  # stage-routed
        assert "shard_rpcs" not in faulted[0].stats.extra  # chunk
        # Each result reports its own records: request 0's lost chunk
        # and the stage solve's lost first-stage shards count the kill
        # and what finished in the parent; request 2's chunk, on worker
        # 1, was never lost.  No record was retried.
        extras = [result.stats.extra for result in faulted]
        assert extras[0]["worker_restarts"] == 1
        assert extras[0]["degraded_to_serial"] == 1
        assert extras[1]["worker_restarts"] == 1
        assert extras[1]["degraded_to_serial"] == 6
        assert "worker_restarts" not in extras[2]
        assert "degraded_to_serial" not in extras[2]
        for extra in extras:
            assert "chunk_retries" not in extra


# ----------------------------------------------------------------------
# Shutdown hygiene
# ----------------------------------------------------------------------
class TestCloseHygiene:
    # Each case serves one dispatch shape before its workers die and is
    # named for the pool role that shape plays: solve chunks or stage shards.
    @pytest.mark.parametrize(
        "shape",
        [
            pytest.param("chunk", id="ResidentSolvePool"),
            pytest.param("stage", id="StagePool"),
        ],
    )
    def test_close_is_idempotent_with_all_workers_dead(
        self, small_facebook, no_orphans, shape
    ):
        pool = ResidentPool(2)
        if shape == "chunk":
            with ExecutionContext(workers=2, cpu_count=4, pool=pool) as context:
                context.solve_many(_requests(small_facebook), mode="solve")
        else:
            _stage_solve(small_facebook, pool)
        for proc in pool._procs:
            proc.kill()
        for proc in pool._procs:
            proc.join(timeout=5.0)
        start = time.monotonic()
        pool.close()
        pool.close()  # idempotent
        assert time.monotonic() - start < 5.0  # never hangs

    def test_context_close_with_dead_workers(self, no_orphans):
        context = ExecutionContext(workers=2)
        pool = context.pool()
        for proc in pool._procs:
            proc.kill()
        context.close()
        context.close()


# ----------------------------------------------------------------------
# CLI: --timeout-s / --max-retries and partial-failure records
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture
    def two_triangles_file(self, tmp_path):
        graph = SocialGraph()
        for node, interest in enumerate([1.0, 1.0, 1.0, 5.0, 5.0, 5.0]):
            graph.add_node(node, interest=interest)
        for u, v in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            graph.add_edge(u, v, 1.0)
        path = tmp_path / "g.json"
        save_json(graph, str(path))
        return path

    def test_partial_failure_prints_jsonl_records(
        self, two_triangles_file, tmp_path, capsys
    ):
        requests = tmp_path / "r.jsonl"
        requests.write_text(
            '{"k": 3, "solver": "dgreedy", "seed": 1}\n'
            '{"k": 5, "solver": "dgreedy", "seed": 2}\n'  # infeasible
        )
        code = main(
            [
                "solve-many",
                str(two_triangles_file),
                str(requests),
                "--mode",
                "serial",
                "--timeout-s",
                "30",
                "--max-retries",
                "1",
            ]
        )
        assert code == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("#0 dgreedy k=3:")
        record = json.loads(lines[1])
        assert record["index"] == 1
        assert record["error"] == "solver_error"
        assert record["retries"] == 0
        assert "Infeasible" in record["message"]

    def test_all_green_exit_zero(self, two_triangles_file, tmp_path, capsys):
        requests = tmp_path / "r.jsonl"
        requests.write_text('{"k": 3, "solver": "dgreedy", "seed": 1}\n')
        code = main(
            [
                "solve-many",
                str(two_triangles_file),
                str(requests),
                "--mode",
                "serial",
                "--timeout-s",
                "30",
            ]
        )
        assert code == 0
        assert "#0 dgreedy" in capsys.readouterr().out

    def test_flag_validation(self, two_triangles_file, tmp_path):
        requests = tmp_path / "r.jsonl"
        requests.write_text('{"k": 3, "solver": "dgreedy"}\n')
        with pytest.raises(SystemExit, match="timeout-s"):
            main(
                [
                    "solve-many",
                    str(two_triangles_file),
                    str(requests),
                    "--timeout-s",
                    "-1",
                ]
            )
        with pytest.raises(SystemExit, match="max-retries"):
            main(
                [
                    "solve-many",
                    str(two_triangles_file),
                    str(requests),
                    "--max-retries",
                    "-1",
                ]
            )
