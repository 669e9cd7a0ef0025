"""Tests for the unified runtime layer (repro.runtime).

The load-bearing properties:

* the auto-router always returns a valid mode and degrades to serial on
  a single CPU;
* ``ExecutionContext.solve_many`` results (and RNG consumption) are
  bit-identical to looped single ``solve()`` calls, across scenario
  transforms and both engines;
* pools are lazy, resident, and never leak worker processes — including
  after a mid-solve exception.
"""

import multiprocessing
import random

import pytest

from repro.algorithms.cbas_nd import CBASND
from repro.core.problem import WASOProblem
from repro.online import OnlinePlanner
from repro.runtime import (
    ExecutionContext,
    MODES,
    SolveRequest,
    choose_mode,
    request_from_spec,
    validate_mode,
)
from repro.runtime.router import (
    MIN_SOLVE_WORK,
    MIN_STAGE_BUDGET,
    STAGE_WORK_THRESHOLD,
)
from repro.scenarios import exhibition_problem, mark_foes, merge_couple
from repro.scenarios.filters import filtered_problem


def _children() -> set:
    return set(multiprocessing.active_children())


#: extra-dict keys that describe pool warmth rather than the solve
#: itself (a resident graph is shipped once per (graph, worker) pair,
#: so the second of two otherwise-identical solves legitimately reports
#: different residency bookkeeping).
_POOL_WARMTH_KEYS = frozenset(
    {
        "graph_shipped",
        "graph_installs",
        "batch_payload_bytes",
        "shard_rpcs",
        "failed_requests",
    }
)


def _assert_same_result(lhs, rhs) -> None:
    """Bit-identity check between two SolveResults (timing excepted)."""
    assert lhs.members == rhs.members
    assert lhs.willingness == rhs.willingness
    assert lhs.stats.samples_drawn == rhs.stats.samples_drawn
    assert lhs.stats.failed_samples == rhs.stats.failed_samples
    assert lhs.stats.stages == rhs.stats.stages
    strip = lambda extra: {  # noqa: E731
        key: value
        for key, value in extra.items()
        if key not in _POOL_WARMTH_KEYS
    }
    assert strip(lhs.stats.extra) == strip(rhs.stats.extra)


class TestRouter:
    def test_always_returns_a_valid_mode(self):
        """Property: every input combination resolves to a concrete mode."""
        rng = random.Random(7)
        for _ in range(300):
            mode = choose_mode(
                n=rng.randrange(0, 100_000),
                budget=rng.randrange(0, 10_000),
                batch_size=rng.randrange(1, 50),
                workers=rng.choice([None, 1, 2, 4, 8, 64]),
                cpu_count=rng.randrange(1, 65),
            )
            assert mode in MODES and mode != "auto"

    def test_degrades_to_serial_on_one_cpu(self):
        """Property: a 1-CPU machine always routes serial."""
        rng = random.Random(8)
        for _ in range(200):
            assert (
                choose_mode(
                    n=rng.randrange(0, 100_000),
                    budget=rng.randrange(0, 10_000),
                    batch_size=rng.randrange(1, 50),
                    workers=rng.choice([None, 1, 4, 16]),
                    cpu_count=1,
                )
                == "serial"
            )

    def test_one_big_solve_routes_stage(self):
        assert choose_mode(10_000, 3200, 1, None, 8) == "stage"

    def test_big_solve_in_a_batch_still_routes_stage(self):
        assert choose_mode(10_000, 3200, 12, None, 8) == "stage"

    def test_many_small_solves_route_solve_level(self):
        assert choose_mode(500, 200, 16, None, 8) == "solve"

    def test_one_small_solve_routes_serial(self):
        assert choose_mode(200, 120, 1, None, 8) == "serial"

    def test_thresholds_are_the_documented_ones(self):
        budget = MIN_STAGE_BUDGET
        n = -(-STAGE_WORK_THRESHOLD // budget)  # ceil division
        assert choose_mode(n, budget, 1, None, 4) == "stage"
        assert choose_mode(n - 1, budget, 1, None, 4) == "serial"
        assert choose_mode(n, budget - 1, 1, None, 4) == "serial"

    def test_workers_cap_parallelism(self):
        assert choose_mode(10_000, 3200, 1, workers=1, cpu_count=8) == "serial"

    def test_tiny_batched_solves_stay_serial(self):
        """Recalibration for the resident path: a request whose work
        volume is below the fixed dispatch round trip runs inline even
        inside a batch (the old model multiplexed any batch, because
        batching had to amortize a per-chunk graph pickle that the
        resident protocol no longer pays)."""
        budget = 50
        n = -(-MIN_SOLVE_WORK // budget)  # ceil division
        assert choose_mode(n, budget, 16, None, 8) == "solve"
        assert choose_mode(n - 1, budget, 16, None, 8) == "serial"

    def test_budget_less_solvers_stay_serial_in_batches(self):
        """T=0 (DGreedy-style) hides the work volume from the model, so
        it conservatively runs inline."""
        assert choose_mode(50_000, 0, 16, None, 8) == "serial"

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_mode(-1, 10)
        with pytest.raises(ValueError):
            choose_mode(10, -1)
        with pytest.raises(ValueError):
            choose_mode(10, 10, batch_size=0)
        with pytest.raises(ValueError):
            choose_mode(10, 10, workers=0)
        with pytest.raises(ValueError):
            validate_mode("threads")
        assert validate_mode("auto") == "auto"


class TestExecutionContext:
    def test_context_solve_matches_direct_solver(self, small_facebook):
        """The runtime front door reproduces a bare solver.solve exactly."""
        problem = WASOProblem(graph=small_facebook, k=5)
        direct = CBASND(budget=60, m=6, stages=3).solve(problem, rng=4)
        with ExecutionContext() as context:
            routed = context.solve(
                problem, "cbas-nd", rng=4, budget=60, m=6, stages=3
            )
        _assert_same_result(direct, routed)

    def test_make_solver_injects_context_and_engine(self):
        context = ExecutionContext(engine="reference")
        solver = context.make_solver("cbas-nd", budget=50)
        assert solver.context is context
        assert solver.engine == "reference"
        # An explicit engine kwarg still overrides the context default.
        assert context.make_solver("cbas", engine="compiled").engine == (
            "compiled"
        )
        # Solvers without execution state build fine too.
        assert context.make_solver("exact-bnb").name == "exact-bnb"

    def test_private_context_is_serial(self):
        solver = CBASND(budget=50)
        assert solver.context.mode == "serial"
        assert solver.engine == "compiled"
        assert CBASND(budget=50, engine="reference").engine == "reference"

    def test_serial_solves_create_no_pools(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        before = _children()
        with ExecutionContext(workers=2) as context:
            context.solve(problem, "cbas-nd", rng=1, budget=40, m=4, stages=2)
            assert context._pool is None
        assert _children() == before

    def test_solver_pickles_without_its_context(self, small_facebook):
        import pickle

        problem = WASOProblem(graph=small_facebook, k=5)
        with ExecutionContext(workers=2) as context:
            solver = context.make_solver("cbas-nd", budget=40, m=4, stages=2)
            context.pool()  # pools must never cross the pickle
            clone = pickle.loads(pickle.dumps(solver))
        assert clone.context is not solver.context
        assert clone.context.mode == "serial"
        assert clone.engine == solver.engine
        _assert_same_result(
            clone.solve(problem, rng=3), solver.solve(problem, rng=3)
        )

    def test_instance_with_kwargs_rejected(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        with ExecutionContext() as context:
            with pytest.raises(ValueError, match="by name"):
                context.solve(problem, CBASND(budget=40), budget=50)

    def test_forced_solve_mode_single_solve_runs_serially(
        self, small_facebook
    ):
        """``mode="solve"`` multiplexes batches; a single solve has nothing
        to multiplex, so it runs in-parent, bit-identical to a serial
        solve, and starts no worker process."""
        problem = WASOProblem(graph=small_facebook, k=5)
        direct = CBASND(budget=60, m=5, stages=3).solve(problem, rng=3)
        before = _children()
        with ExecutionContext(workers=2, cpu_count=4) as context:
            routed = context.solve(
                problem, "cbas-nd", rng=3, mode="solve",
                budget=60, m=5, stages=3,
            )
            assert _children() == before
            assert context._pool is None
        _assert_same_result(direct, routed)

    def test_mode_solve_runs_instances_serially(self, small_facebook):
        """A solver *instance* under an explicit ``mode="solve"`` runs
        serially too, instead of raising."""
        problem = WASOProblem(graph=small_facebook, k=5)
        direct = CBASND(budget=40, m=4, stages=2).solve(problem, rng=3)
        with ExecutionContext(workers=2, cpu_count=4) as context:
            routed = context.solve(
                problem, CBASND(budget=40, m=4, stages=2), rng=3,
                mode="solve",
            )
            assert context._pool is None
        _assert_same_result(direct, routed)

    def test_foreign_instances_adopt_the_calling_context(
        self, small_facebook
    ):
        """Regression: a solver built outside the context must still honor
        the routed mode — its private context is swapped out for the
        call (and restored afterwards)."""
        problem = WASOProblem(graph=small_facebook, k=5)
        solver = CBASND(budget=40, m=4, stages=2)
        with ExecutionContext(workers=2) as context:
            result = context.solve(problem, solver, rng=1, mode="stage")
            assert result.stats.extra["stage_workers"] == 2
        assert solver.context is not context
        assert solver.context.mode == "serial"

    def test_solve_mode_context_degrades_for_instances(self, small_facebook):
        """A solver *instance* under a mode='solve' context default runs
        serially, exactly like an explicit mode='solve' argument."""
        problem = WASOProblem(graph=small_facebook, k=5)
        direct = CBASND(budget=40, m=4, stages=2).solve(problem, rng=3)
        with ExecutionContext(workers=2, mode="solve") as context:
            routed = context.solve(
                problem, CBASND(budget=40, m=4, stages=2), rng=3
            )
        _assert_same_result(direct, routed)

    def test_explicit_executor_override_wins(self, small_facebook):
        from repro.algorithms.stage_exec import SerialStageExecutor

        problem = WASOProblem(graph=small_facebook, k=5)
        pinned = SerialStageExecutor()
        context = ExecutionContext(
            mode="stage", workers=2, executor=pinned
        )
        solver = context.make_solver("cbas-nd", budget=40, m=4, stages=2)
        assert context.executor_for(solver, problem) is pinned
        context.close()

    def test_resolve_mode_precedence(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        context = ExecutionContext(mode="stage", cpu_count=8)
        assert context.resolve_mode(problem, 40) == "stage"
        assert context.resolve_mode(problem, 40, mode="serial") == "serial"
        assert context.resolve_mode(problem, 40, mode="auto") == "serial"
        with pytest.raises(ValueError):
            context.resolve_mode(problem, 40, mode="openmp")

    def test_stage_mode_degrades_for_unshardable_solvers(
        self, small_facebook
    ):
        """Reference engines / hook-less solvers stay serial even when the
        routing says stage — the workers hold only compiled arrays."""
        problem = WASOProblem(graph=small_facebook, k=5)
        context = ExecutionContext(mode="stage", workers=2)
        reference = context.make_solver(
            "cbas-nd", budget=40, m=4, stages=2, engine="reference"
        )
        serial = context.executor_for(reference, problem)
        assert not hasattr(serial, "pool")
        assert context._pool is None  # lazily skipped, too
        context.close()


@pytest.fixture(scope="module")
def runtime_graph():
    from repro.graph.generators import facebook_like

    return facebook_like(150, seed=31)


def _scenario_requests(graph, engine):
    """Heterogeneous batch over one graph: every §2.2/§4.4.3 transform."""
    kwargs = dict(budget=40, m=4, stages=2, engine=engine)
    plain = WASOProblem(graph=graph, k=5)
    u, v = next(iter(graph.edges()))
    couples, _merged = merge_couple(WASOProblem(graph=graph, k=6), u, v)
    foes = WASOProblem(graph=mark_foes(graph, [next(iter(graph.edges()))]), k=5)
    themed = exhibition_problem(graph, 5)  # WASO-dis by construction
    filtered = filtered_problem(
        graph, 4, lambda _graph, node: hash(node) % 5 != 0
    )
    return [
        SolveRequest(plain, "cbas-nd", 11, dict(kwargs)),
        SolveRequest(couples, "cbas-nd", 12, dict(kwargs)),
        SolveRequest(foes, "cbas-nd", 13, dict(kwargs)),
        SolveRequest(themed, "cbas", 14, dict(kwargs)),
        SolveRequest(filtered, "cbas-nd", 15, dict(kwargs)),
        SolveRequest(plain, "dgreedy", 16, {"engine": engine}),
        SolveRequest(plain, "rgreedy", 17, {"budget": 30, "engine": engine}),
    ]


class TestSolveMany:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_bit_identical_to_looped_solves_across_scenarios(
        self, runtime_graph, engine
    ):
        """The differential suite: batch == loop, per scenario, per engine."""
        from repro.algorithms.registry import make_solver

        requests = _scenario_requests(runtime_graph, engine)
        looped = [
            make_solver(request.solver, **request.solver_kwargs).solve(
                request.problem, rng=request.rng
            )
            for request in requests
        ]
        with ExecutionContext(workers=2) as context:
            batched = context.solve_many(requests, mode="solve")
        assert len(batched) == len(looped)
        for lhs, rhs in zip(looped, batched):
            _assert_same_result(lhs, rhs)

    def test_auto_routing_matches_looped_context_solves(self, runtime_graph):
        """Mixed batch under auto routing: a stage-sized request and small
        ones resolve exactly like the same requests solved one by one."""
        small = WASOProblem(graph=runtime_graph, k=5)
        big_budget = max(
            MIN_STAGE_BUDGET,
            -(-STAGE_WORK_THRESHOLD // runtime_graph.number_of_nodes()),
        )
        requests = [
            SolveRequest(small, "cbas-nd", 3, dict(budget=40, m=4, stages=2)),
            SolveRequest(
                small, "cbas-nd", 4, dict(budget=big_budget, m=6, stages=3)
            ),
            SolveRequest(small, "cbas", 5, dict(budget=30, m=3, stages=2)),
        ]
        # Pretend 4 CPUs so auto routing engages on the 1-CPU container.
        with ExecutionContext(workers=2, cpu_count=4) as context:
            routes = [
                context.resolve_mode(
                    r.problem, r.budget, batch_size=len(requests)
                )
                for r in requests
            ]
            assert routes == ["solve", "stage", "solve"]
            looped = [
                context.solve(r.problem, r.solver, rng=r.rng, **r.solver_kwargs)
                for r in requests
            ]
            batched = context.solve_many(requests)
        for lhs, rhs in zip(looped, batched):
            _assert_same_result(lhs, rhs)

    def test_unshardable_large_requests_demote_to_the_multiplexer(
        self, runtime_graph
    ):
        """Regression: a batch of large solves whose solver cannot shard
        (no shard hooks / reference engine) must multiplex onto the
        pool as chunks, not run sequentially inline via a dead stage route."""
        problem = WASOProblem(graph=runtime_graph, k=5)
        big_budget = max(
            MIN_STAGE_BUDGET,
            -(-STAGE_WORK_THRESHOLD // runtime_graph.number_of_nodes()),
        )
        requests = [
            SolveRequest(problem, "rgreedy", seed, {"budget": big_budget})
            for seed in (1, 2)
        ] + [
            SolveRequest(
                problem,
                "cbas-nd",
                3,
                {"budget": big_budget, "m": 4, "engine": "reference"},
            )
        ]
        from repro.algorithms.registry import make_solver

        looped = [
            make_solver(r.solver, **r.solver_kwargs).solve(
                r.problem, rng=r.rng
            )
            for r in requests
        ]
        with ExecutionContext(workers=2, cpu_count=4) as context:
            batched = context.solve_many(requests)
            assert context._pool is not None
        # Nothing took the dead route: every result is a multiplexed one.
        assert all("shard_rpcs" not in r.stats.extra for r in batched)
        for lhs, rhs in zip(looped, batched):
            _assert_same_result(lhs, rhs)

    def test_serial_routed_requests_run_inline_in_mixed_batches(
        self, runtime_graph
    ):
        """Regression: the router's 'serial' verdict (tiny or budget-less
        requests) must be honoured inside a mixed batch — those requests
        run in-parent, are never shipped to the pool, and the results
        still match a plain loop."""
        from repro.algorithms.registry import make_solver

        problem = WASOProblem(graph=runtime_graph, k=5)
        requests = [
            SolveRequest(problem, "cbas-nd", 1, dict(budget=40, m=4, stages=2)),
            SolveRequest(problem, "dgreedy", 2, {}),  # budget-less: serial
            SolveRequest(problem, "cbas-nd", 3, dict(budget=40, m=4, stages=2)),
        ]
        looped = [
            make_solver(r.solver, **r.solver_kwargs).solve(
                r.problem, rng=r.rng
            )
            for r in requests
        ]
        with ExecutionContext(workers=2, cpu_count=4) as context:
            routes = [
                context.resolve_mode(
                    r.problem, r.budget, batch_size=len(requests)
                )
                for r in requests
            ]
            assert routes == ["solve", "serial", "solve"]
            batched = context.solve_many(requests)
        for lhs, rhs in zip(looped, batched):
            _assert_same_result(lhs, rhs)
        # The inline request carries no pool-shipping accounting — it
        # never touched the pool; the multiplexed ones do.
        assert "graph_installs" not in batched[1].stats.extra
        assert "graph_installs" in batched[0].stats.extra

    def test_pool_routed_results_report_their_solve_time(self, runtime_graph):
        """A chunk reply carries the worker's whole result, wall clock
        included, so the serving layer's latency model can learn from
        pool-routed solves."""
        problem = WASOProblem(graph=runtime_graph, k=5)
        kwargs = dict(budget=40, m=4, stages=2)
        requests = [
            SolveRequest(problem, "cbas-nd", seed, dict(kwargs))
            for seed in (1, 2, 3, 4)
        ]
        with ExecutionContext(workers=2, cpu_count=4) as context:
            results = context.solve_many(requests, mode="solve")
        for result in results:
            assert "graph_installs" in result.stats.extra  # pool-routed
            assert result.stats.elapsed_seconds > 0

    def test_shared_rng_instance_runs_serially_in_order(self, runtime_graph):
        """A shared generator's stream consumption matches a plain loop."""
        problem = WASOProblem(graph=runtime_graph, k=5)
        kwargs = dict(budget=40, m=4, stages=2)

        loop_rng = random.Random(9)
        looped = [
            CBASND(**kwargs).solve(problem, rng=loop_rng) for _ in range(3)
        ]
        batch_rng = random.Random(9)
        requests = [
            SolveRequest(problem, "cbas-nd", batch_rng, dict(kwargs))
            for _ in range(3)
        ]
        with ExecutionContext(workers=2) as context:
            batched = context.solve_many(requests, mode="solve")
            # The serial override still validates the requested mode.
            with pytest.raises(ValueError, match="mode"):
                context.solve_many(requests, mode="bogus")
        for lhs, rhs in zip(looped, batched):
            _assert_same_result(lhs, rhs)

    def test_empty_batch(self):
        with ExecutionContext() as context:
            assert context.solve_many([]) == []

    def test_rejects_non_requests(self, runtime_graph):
        with ExecutionContext() as context:
            with pytest.raises(TypeError, match="SolveRequest"):
                context.solve_many([{"k": 5}])

    def test_request_from_spec(self, runtime_graph):
        request = request_from_spec(
            runtime_graph,
            {"k": 5, "solver": "cbas", "seed": 3, "budget": 77, "m": 4},
        )
        assert request.problem.k == 5
        assert request.solver == "cbas"
        assert request.rng == 3
        assert request.budget == 77
        assert request.solver_kwargs == {"budget": 77, "m": 4}
        request = request_from_spec(
            runtime_graph,
            {"k": 5, "connected": False, "seed": None, "deadline_s": 2,
             "required": [], "forbidden": []},
        )
        assert request.problem.connected is False
        assert request.rng is None
        assert request.deadline_s == 2.0
        with pytest.raises(ValueError, match="'k'"):
            request_from_spec(runtime_graph, {"solver": "cbas"})
        with pytest.raises(TypeError, match="registry name"):
            SolveRequest(WASOProblem(graph=runtime_graph, k=3), CBASND())

    def test_request_from_spec_rejects_unknown_keys(self, runtime_graph):
        """A typo'd spec key fails at the front door, naming the valid
        keys, instead of being silently dropped into the request."""
        with pytest.raises(ValueError, match="'budgett'") as excinfo:
            request_from_spec(runtime_graph, {"k": 5, "budgett": 77})
        message = str(excinfo.value)
        assert "valid keys" in message
        assert "budget" in message and "deadline_s" in message
        # Execution-state parameters are never spec keys.
        with pytest.raises(ValueError, match="'executor'"):
            request_from_spec(runtime_graph, {"k": 5, "executor": None})
        with pytest.raises(ValueError, match="unknown solver"):
            request_from_spec(runtime_graph, {"k": 5, "solver": "nope"})

    def test_request_from_spec_validates_cbas_nd_g_keys(
        self, runtime_graph
    ):
        """``cbas-nd-g`` validates at the front door like every solver: a
        mistyped key (``deadline`` for ``deadline_s``) is rejected before
        a request exists, not failed later inside the batch."""
        from repro.runtime import valid_spec_keys

        assert valid_spec_keys("cbas-nd-g") == valid_spec_keys("cbas-nd")
        assert "budget" in valid_spec_keys("cbas-nd")
        assert "context" not in valid_spec_keys("cbas-nd")
        with pytest.raises(ValueError, match="'deadline'"):
            request_from_spec(
                runtime_graph,
                {"k": 5, "solver": "cbas-nd-g", "budget": 40,
                 "deadline": 1.0},
            )
        request = request_from_spec(
            runtime_graph, {"k": 5, "solver": "cbas-nd-g", "budget": 50}
        )
        assert request.budget == 50

    @pytest.mark.parametrize(
        "key, value",
        [
            ("k", 5.7),
            ("k", True),
            ("k", "5"),
            ("connected", "false"),
            ("connected", 0),
            ("seed", [1, 2]),
            ("seed", True),
            ("seed", 2.5),
            ("required", "ab"),
            ("forbidden", 3),
            ("deadline_s", True),
            ("deadline_s", "5"),
            ("budget", "abc"),
            ("budget", True),
            ("budget", 60.5),
            ("m", "3"),
            ("stages", 2.5),
            ("rho", "0.3"),
            ("smoothing", False),
            ("max_backtracks", 2.0),
            ("backtrack_threshold", "1e-3"),
            ("allocation", 1),
            ("engine", 3),
        ],
    )
    def test_request_from_spec_rejects_mistyped_values(
        self, runtime_graph, key, value
    ):
        """A value of the wrong type is rejected, naming its key, instead
        of being converted into a different request (``int(5.7)``,
        ``bool("false")``, a bool deadline counted as one second)."""
        spec = {"k": 5, "budget": 40}
        spec[key] = value
        with pytest.raises(ValueError, match=f"'{key}'"):
            request_from_spec(runtime_graph, spec)

    def test_request_from_spec_accepts_declared_kwarg_types(
        self, runtime_graph
    ):
        """Solver kwargs follow the constructor's declared types: an int
        is a number, and the ``Optional`` ones take null."""
        spec = {
            "k": 5, "budget": 40, "m": None, "stages": 2, "rho": 1,
            "smoothing": 0.5, "backtrack_threshold": None,
            "allocation": "gaussian", "engine": None,
        }
        request = request_from_spec(runtime_graph, spec)
        assert request.budget == 40
        assert request.solver_kwargs["rho"] == 1
        ip = request_from_spec(
            runtime_graph, {"k": 5, "solver": "ip", "time_limit": 2}
        )
        assert ip.solver_kwargs == {"time_limit": 2}


class TestServingSessionResidency:
    """The tentpole differential suite: a long serving session — several
    ``solve_many`` batches, interleaved replans, two distinct graphs,
    forced cache eviction — ships each graph exactly once per (graph,
    worker) pair and stays bit-identical to serial loops."""

    def _looped(self, requests):
        from repro.algorithms.registry import make_solver

        return [
            make_solver(request.solver, **request.solver_kwargs).solve(
                request.problem, rng=request.rng
            )
            for request in requests
        ]

    def _requests(self, problem, seeds, engine):
        return [
            SolveRequest(
                problem, "cbas-nd", seed,
                dict(budget=40, m=4, stages=2, engine=engine),
            )
            for seed in seeds
        ]

    def test_session_ships_graph_once_per_worker(self, runtime_graph):
        """Acceptance: ``solve_many`` twice plus a replan over the same
        problem pickles the detached arrays at most once per worker."""
        from repro.parallel import ResidentPool, worker_payload_bytes

        problem = WASOProblem(graph=runtime_graph, k=5)
        slim = worker_payload_bytes(problem)["compiled_arrays_bytes"]
        looped = self._looped(self._requests(problem, (11, 12, 13), "compiled"))
        with ResidentPool(2) as pool:
            with ExecutionContext(workers=2, pool=pool) as context:
                first = context.solve_many(
                    self._requests(problem, (11, 12, 13), "compiled"),
                    mode="solve",
                )
                # Cold batch: one install per worker, graph bytes on the
                # wire.
                assert pool.installs == 2
                assert first[0].stats.extra["graph_shipped"] is True
                # Requests 0 and 2 share worker 0's chunk, request 1
                # has worker 1's: each chunk installed the graph once.
                assert [
                    r.stats.extra["graph_installs"] for r in first
                ] == [1, 1, 1]
                assert first[0].stats.extra["batch_payload_bytes"] > slim

                # An interleaved replan on the same problem must not
                # re-ship anything to the pool.
                with OnlinePlanner(
                    problem,
                    solver=context.make_solver(
                        "cbas-nd", budget=60, m=5, stages=2
                    ),
                    rng=6,
                    context=context,
                ) as planner:
                    group = planner.plan()
                    planner.record_decline(next(iter(sorted(group.members))))
                assert pool.installs == 2

                second = context.solve_many(
                    self._requests(problem, (11, 12, 13), "compiled"),
                    mode="solve",
                )
                # Warm batch: zero installs, only specs + seeds shipped.
                assert pool.installs == 2
                assert second[0].stats.extra["graph_shipped"] is False
                assert second[0].stats.extra["graph_installs"] == 0
                assert second[0].stats.extra["batch_payload_bytes"] < slim

                # Non-vacuous warm-path check: a stage-sharded single
                # solve dispatches to every worker (the planner's small
                # replans route serial by design) and must find the
                # graph already resident everywhere.
                warm = context.solve(
                    problem, "cbas-nd", rng=9, mode="stage",
                    budget=40, m=4, stages=2,
                )
                assert warm.stats.extra["stage_workers"] == 2
                assert warm.stats.extra["graph_shipped"] is False
                assert warm.stats.extra["batch_payload_bytes"] == 0
                assert pool.installs == 2
        for lhs, batch in ((looped, first), (looped, second)):
            for expected, got in zip(lhs, batch):
                _assert_same_result(expected, got)

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_two_graph_session_with_eviction(self, runtime_graph, engine):
        """Three-plus batches over two graphs with a capacity-1 cache:
        eviction forces a re-ship, and every batch stays bit-identical
        to its serial loop — on both engines."""
        from repro.graph.generators import facebook_like
        from repro.parallel import ResidentPool

        problem_a = WASOProblem(graph=runtime_graph, k=5)
        problem_b = WASOProblem(graph=facebook_like(120, seed=32), k=4)
        batches = [
            self._requests(problem_a, (1, 2, 3), engine),
            self._requests(problem_b, (4, 5), engine),
            self._requests(problem_a, (6, 7, 8), engine),
            self._requests(problem_a, (6, 7, 8), engine),
        ]
        looped = [self._looped(batch) for batch in batches]
        with ResidentPool(2, resident_graphs=1) as pool:
            with ExecutionContext(workers=2, pool=pool) as context:
                outcomes = [
                    context.solve_many(batch, mode="solve")
                    for batch in batches
                ]
                if engine == "compiled":
                    # A cold, B evicts A, A re-ships, A warm: 2 installs
                    # per worker switch — and the fourth batch is free.
                    assert pool.installs == 6
                    shipped = [
                        batch[0].stats.extra["graph_shipped"]
                        for batch in outcomes
                    ]
                    assert shipped == [True, True, True, False]
                else:
                    # The dict path has no resident representation.
                    assert pool.installs == 0
        for expected_batch, got_batch in zip(looped, outcomes):
            for expected, got in zip(expected_batch, got_batch):
                _assert_same_result(expected, got)


class TestSolveManyFailures:
    """A failing request must never discard its batch-mates (the batch
    drains, partial results ride on the raised error)."""

    def _infeasible(self, graph):
        nodes = graph.node_list()
        return WASOProblem(graph=graph, k=5, forbidden=frozenset(nodes[3:]))

    def test_worker_failure_drains_batch_and_reraises(self, runtime_graph):
        from repro.exceptions import BatchExecutionError

        good = WASOProblem(graph=runtime_graph, k=5)
        kwargs = dict(budget=40, m=4, stages=2)
        requests = [
            SolveRequest(good, "cbas-nd", 1, dict(kwargs)),
            SolveRequest(self._infeasible(runtime_graph), "cbas-nd", 2,
                         dict(kwargs)),
            SolveRequest(good, "cbas-nd", 3, dict(kwargs)),
        ]
        with ExecutionContext(workers=2) as context:
            with pytest.raises(BatchExecutionError) as info:
                context.solve_many(requests, mode="solve")
        error = info.value
        assert sorted(error.failures) == [1]
        assert "Infeasible" in error.failures[1]
        # Both healthy requests completed, bit-identical to solo solves.
        assert error.results[1] is None
        solo = CBASND(**kwargs).solve(good, rng=1)
        _assert_same_result(solo, error.results[0])
        assert error.results[2] is not None
        # And each survivor records which batch-mates failed.
        assert error.results[0].stats.extra["failed_requests"] == [1]
        assert error.results[2].stats.extra["failed_requests"] == [1]

    def test_stage_routed_failure_does_not_abandon_chunks(
        self, runtime_graph
    ):
        """An in-flight stage-routed failure must still collect the
        multiplexed chunks' results instead of tearing down mid-batch."""
        from repro.exceptions import BatchExecutionError

        good = WASOProblem(graph=runtime_graph, k=5)
        big_budget = max(
            MIN_STAGE_BUDGET,
            -(-STAGE_WORK_THRESHOLD // runtime_graph.number_of_nodes()),
        )
        requests = [
            SolveRequest(good, "cbas-nd", 1, dict(budget=40, m=4, stages=2)),
            SolveRequest(
                self._infeasible(runtime_graph), "cbas-nd", 2,
                dict(budget=big_budget, m=6, stages=3),
            ),
            SolveRequest(good, "cbas-nd", 3, dict(budget=40, m=4, stages=2)),
        ]
        with ExecutionContext(workers=2, cpu_count=4) as context:
            routes = [
                context.resolve_mode(
                    r.problem, r.budget, batch_size=len(requests)
                )
                for r in requests
            ]
            assert routes == ["solve", "stage", "solve"]
            with pytest.raises(BatchExecutionError) as info:
                context.solve_many(requests)
        error = info.value
        assert sorted(error.failures) == [1]
        assert error.results[0] is not None
        assert error.results[2] is not None

    def test_serial_batch_failure_drains_too(self, runtime_graph):
        from repro.exceptions import BatchExecutionError

        good = WASOProblem(graph=runtime_graph, k=5)
        rng = random.Random(9)  # shared generator: serial in-order path
        requests = [
            SolveRequest(good, "cbas-nd", rng, dict(budget=30, m=3)),
            SolveRequest(self._infeasible(runtime_graph), "cbas-nd", rng,
                         dict(budget=30, m=3)),
            SolveRequest(good, "cbas-nd", rng, dict(budget=30, m=3)),
        ]
        with ExecutionContext(workers=2) as context:
            with pytest.raises(BatchExecutionError) as info:
                context.solve_many(requests, mode="solve")
        error = info.value
        assert sorted(error.failures) == [1]
        assert error.results[0] is not None and error.results[2] is not None


class TestPoolHygiene:
    def test_no_workers_leak_after_with_exit(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        before = _children()
        with ExecutionContext(workers=2) as context:
            context.solve(
                problem, "cbas-nd", rng=1, mode="stage",
                budget=40, m=4, stages=2,
            )
            requests = [
                SolveRequest(problem, "cbas-nd", s, dict(budget=30, m=3))
                for s in (1, 2)
            ]
            context.solve_many(requests, mode="solve")
            assert _children() - before  # the pool actually spawned
        assert _children() == before

    def test_no_workers_leak_after_close(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        before = _children()
        context = ExecutionContext(workers=2)
        context.solve(
            problem, "cbas-nd", rng=1, mode="stage", budget=40, m=4, stages=2
        )
        context.close()
        assert _children() == before
        # The context stays usable: a later solve recreates the pool.
        result = context.solve(
            problem, "cbas-nd", rng=1, mode="stage", budget=40, m=4, stages=2
        )
        assert result.solution.is_feasible(problem)
        context.close()
        assert _children() == before

    def test_no_workers_leak_after_mid_solve_exception(self, small_facebook):
        class Exploding(CBASND):
            def _merge_start_stage(self, *args, **kwargs):
                raise RuntimeError("boom mid-stage")

        problem = WASOProblem(graph=small_facebook, k=5)
        before = _children()
        with ExecutionContext(workers=2) as context:
            solver = Exploding(budget=40, m=4, stages=2, context=context)
            with pytest.raises(RuntimeError, match="boom"):
                context.solve(problem, solver, rng=1, mode="stage")
            # The pool survived the failed solve and serves the next one.
            good = context.solve(
                problem, "cbas-nd", rng=2, mode="stage",
                budget=40, m=4, stages=2,
            )
            assert good.solution.is_feasible(problem)
        assert _children() == before

    def test_shared_pools_are_not_closed(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        before = _children()
        with ExecutionContext(workers=2) as owner:
            owner.solve(
                problem, "cbas-nd", rng=1, mode="stage",
                budget=40, m=4, stages=2,
            )
            with ExecutionContext(workers=2, pool=owner.pool()) as borrower:
                borrower.solve(
                    problem, "cbas-nd", rng=2, mode="stage",
                    budget=40, m=4, stages=2,
                )
            # The borrower's exit must leave the owner's pool running.
            again = owner.solve(
                problem, "cbas-nd", rng=3, mode="stage",
                budget=40, m=4, stages=2,
            )
            assert again.solution.is_feasible(problem)
        assert _children() == before


class TestOnePool:
    """Chunks and stage shards run on the same W resident workers."""

    def _batch(self, problem):
        return [
            SolveRequest(problem, "cbas-nd", seed, dict(budget=30, m=3))
            for seed in (1, 2)
        ]

    def test_both_dispatch_shapes_run_on_w_processes(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        before = _children()
        with ExecutionContext(workers=2, cpu_count=4) as context:
            context.solve_many(self._batch(problem), mode="solve")
            context.solve(
                problem, "cbas-nd", rng=1, mode="stage",
                budget=40, m=4, stages=2,
            )
            assert len(_children() - before) == 2
        assert _children() == before

    def test_chunk_installs_serve_stage_solves(self, small_facebook):
        """A graph a chunk batch installed is already resident for a
        stage-sharded solve: nothing is shipped twice."""
        problem = WASOProblem(graph=small_facebook, k=5)
        with ExecutionContext(workers=2, cpu_count=4) as context:
            batch = context.solve_many(self._batch(problem), mode="solve")
            # One request per worker, each chunk with its own install.
            assert [r.stats.extra["graph_installs"] for r in batch] == [1, 1]
            installs = context.pool().installs
            staged = context.solve(
                problem, "cbas-nd", rng=1, mode="stage",
                budget=40, m=4, stages=2,
            )
            assert staged.stats.extra["graph_shipped"] is False
            assert context.pool().installs == installs


class TestOnlinePlannerRuntime:
    def test_planner_runs_through_a_shared_context(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        before = _children()
        with ExecutionContext(workers=2, mode="stage") as context:
            solver = context.make_solver("cbas-nd", budget=80, m=5, stages=2)
            with OnlinePlanner(
                problem, solver=solver, rng=6, context=context
            ) as planner:
                group = planner.plan()
                assert planner.last_result.stats.extra["graph_shipped"]
                assert context._pool is not None
                installs = context._pool.installs
                victim = next(iter(sorted(group.members)))
                planner.record_decline(victim)
                # The replan reused the resident pool: no second install,
                # no re-shipped graph.
                assert context._pool.installs == installs
                assert (
                    planner.last_result.stats.extra["graph_shipped"] is False
                )
            # Planner closed, but the caller's context must stay alive.
            result = context.solve(
                problem, "cbas-nd", rng=9, mode="stage",
                budget=40, m=4, stages=2,
            )
            assert result.solution.is_feasible(problem)
        assert _children() == before

    def test_planner_keeps_its_own_warm_state(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        with ExecutionContext() as context:
            planner = OnlinePlanner(
                problem,
                solver=context.make_solver("cbas-nd", budget=60, m=6, stages=3),
                rng=7,
                context=context,
            )
            solution = planner.plan()
            assert planner._warm_state is not None
            # Installed on the solver only for the duration of a solve.
            assert planner.solver.warm_state is None
            planner.record_decline(next(iter(sorted(solution.members))))
            assert (
                planner.last_result.stats.extra.get("warm_start") is True
            )
            planner.close()
            assert planner._warm_state is None

    def test_planner_survives_a_solve_mode_context(self, small_facebook):
        """Regression: a forced-solve-mode context must not break online
        planning — the planner's instance solves degrade to serial."""
        problem = WASOProblem(graph=small_facebook, k=5)
        with ExecutionContext(workers=2, mode="solve") as context:
            with OnlinePlanner(problem, rng=6, context=context) as planner:
                group = planner.plan()
                refreshed = planner.record_decline(
                    next(iter(sorted(group.members)))
                )
                assert len(refreshed.members) == 5

    def test_default_planner_still_serial_and_warm(self, small_facebook):
        """No context anywhere: the planner behaves exactly as before."""
        problem = WASOProblem(graph=small_facebook, k=5)
        planner = OnlinePlanner(
            problem, solver=CBASND(budget=60, m=6, stages=3), rng=7
        )
        solution = planner.plan()
        planner.record_decline(next(iter(solution.members)))
        assert planner.last_result.stats.extra.get("warm_start") is True
        assert planner.context.mode == "serial"
