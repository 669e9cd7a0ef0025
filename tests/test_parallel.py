"""Tests for the resident pool's chunk path and its residency protocol."""

import pickle

import pytest

from repro.algorithms.cbas_nd import CBASND
from repro.core.problem import WASOProblem
from repro.parallel import (
    ParallelSolver,
    ResidentPool,
    parallel_solve,
    split_budget,
    worker_payload_bytes,
)


class TestBudgetSplit:
    def test_even_split(self):
        assert split_budget(60, 3) == [20, 20, 20]

    def test_remainder_spread_over_first_workers(self):
        assert split_budget(61, 2) == [31, 30]
        assert split_budget(65, 4) == [17, 16, 16, 16]

    @pytest.mark.parametrize(
        "total,workers", [(7, 3), (100, 7), (13, 13), (999, 8)]
    )
    def test_shares_always_sum_to_total(self, total, workers):
        shares = split_budget(total, workers)
        assert sum(shares) == total
        assert max(shares) - min(shares) <= 1


class TestParallelSolve:
    def test_single_worker_inline(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        result = parallel_solve(
            problem,
            lambda budget: CBASND(budget=budget, m=5, stages=3),
            total_budget=60,
            workers=1,
            rng=4,
        )
        assert result.solution.is_feasible(problem)

    def test_two_workers(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        result = parallel_solve(
            problem,
            lambda budget: CBASND(budget=budget, m=5, stages=3),
            total_budget=60,
            workers=2,
            rng=4,
        )
        assert result.solution.is_feasible(problem)
        assert result.stats.extra["workers"] == 2
        assert result.stats.samples_drawn > 0

    def test_remainder_budget_not_dropped(self, small_facebook):
        """total_budget % workers lands on the first workers."""
        problem = WASOProblem(graph=small_facebook, k=5)
        result = parallel_solve(
            problem,
            lambda budget: CBASND(budget=budget, m=5, stages=3),
            total_budget=61,
            workers=2,
            rng=4,
        )
        assert result.stats.extra["worker_budgets"] == [31, 30]
        assert sum(result.stats.extra["worker_budgets"]) == 61

    def test_compiled_workers_get_slim_payload(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        result = parallel_solve(
            problem,
            lambda budget: CBASND(budget=budget, m=5, stages=3),
            total_budget=60,
            workers=2,
            rng=4,
        )
        assert result.stats.extra["payload"] == "compiled-arrays"
        assert result.solution.is_feasible(problem)

    def test_reference_workers_fall_back_to_dict_payload(
        self, small_facebook
    ):
        problem = WASOProblem(graph=small_facebook, k=5)
        result = parallel_solve(
            problem,
            lambda budget: CBASND(
                budget=budget, m=5, stages=3, engine="reference"
            ),
            total_budget=60,
            workers=2,
            rng=4,
        )
        assert result.stats.extra["payload"] == "dict-graph"
        assert result.solution.is_feasible(problem)

    def test_slim_payload_smaller_than_dict_graph(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        problem.compiled()
        sizes = worker_payload_bytes(problem)
        assert sizes["compiled_arrays_bytes"] < sizes["dict_graph_bytes"]
        # And strictly below what the pool used to ship (dict graph with
        # the frozen-index cache riding along).
        with_cache = len(pickle.dumps(problem))
        assert sizes["compiled_arrays_bytes"] < with_cache

    def test_payload_bytes_on_detached_problem(self, small_facebook):
        """Regression: an already array-backed problem — exactly what the
        resident pool ships — must report its slim size instead of
        raising (``dict_graph_bytes`` has nothing left to measure)."""
        problem = WASOProblem(graph=small_facebook, k=5)
        both = worker_payload_bytes(problem)
        detached_only = worker_payload_bytes(problem.detached())
        assert detached_only["dict_graph_bytes"] is None
        assert detached_only["compiled_arrays_bytes"] > 0
        # The detached problem *is* the slim payload: same bytes.
        assert (
            detached_only["compiled_arrays_bytes"]
            == both["compiled_arrays_bytes"]
        )

    def test_validation(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        factory = lambda budget: CBASND(budget=budget)  # noqa: E731
        with pytest.raises(ValueError):
            parallel_solve(problem, factory, total_budget=10, workers=0)
        with pytest.raises(ValueError):
            parallel_solve(problem, factory, total_budget=1, workers=4)


class TestResidentSolvePool:
    def _factory(self, **kwargs):
        merged = dict(m=5, stages=3)
        merged.update(kwargs)
        return lambda budget: CBASND(budget=budget, **merged)

    def test_graph_ships_once_per_worker_across_calls(self, small_facebook):
        """The tentpole property: repeated best-of solves on one graph
        install the detached arrays exactly once per worker."""
        problem = WASOProblem(graph=small_facebook, k=5)
        with ResidentPool(2) as pool:
            first = parallel_solve(
                problem, self._factory(), total_budget=60, workers=2,
                rng=4, pool=pool,
            )
            assert pool.installs == 2  # one per (graph, worker) pair
            assert first.stats.extra["graph_shipped"] is True
            assert first.stats.extra["graph_installs"] == 2
            second = parallel_solve(
                problem, self._factory(), total_budget=60, workers=2,
                rng=5, pool=pool,
            )
            assert pool.installs == 2  # nothing re-shipped
            assert second.stats.extra["graph_shipped"] is False
            assert second.stats.extra["graph_installs"] == 0
            # The warm call ships only specs + seeds + solver configs.
            slim = worker_payload_bytes(problem)["compiled_arrays_bytes"]
            assert second.stats.extra["batch_payload_bytes"] < slim
            assert first.stats.extra["batch_payload_bytes"] > slim

    def test_owned_and_shared_pools_match(self, small_facebook):
        """Bit-identity between a per-call owned pool and a shared one."""
        problem = WASOProblem(graph=small_facebook, k=5)
        owned = parallel_solve(
            problem, self._factory(), total_budget=60, workers=2, rng=4
        )
        with ResidentPool(2) as pool:
            resident = parallel_solve(
                problem, self._factory(), total_budget=60, workers=2,
                rng=4, pool=pool,
            )
        assert resident.members == owned.members
        assert resident.willingness == owned.willingness
        assert resident.stats.samples_drawn == owned.stats.samples_drawn

    def test_eviction_forces_reshipping(self, small_facebook):
        """A capacity-1 cache alternating two graphs re-ships on every
        switch — and still solves correctly afterwards."""
        from repro.graph.generators import facebook_like

        problem_a = WASOProblem(graph=small_facebook, k=5)
        problem_b = WASOProblem(graph=facebook_like(120, seed=9), k=4)
        with ResidentPool(2, resident_graphs=1) as pool:
            for expected_installs, problem, seed in (
                (2, problem_a, 1),   # cold: ship A
                (2, problem_a, 2),   # warm: nothing
                (4, problem_b, 3),   # B evicts A
                (6, problem_a, 4),   # A must be re-shipped
            ):
                result = parallel_solve(
                    problem, self._factory(), total_budget=40, workers=2,
                    rng=seed, pool=pool,
                )
                assert result.solution.is_feasible(problem)
                assert pool.installs == expected_installs
            token_a = problem_a.payload_token()
            assert pool.resident_tokens(0) == (token_a,)

    def test_reference_solvers_ship_dict_problems(self, small_facebook):
        """The dict path has no resident representation: reference-engine
        workers get the full problem, and no graph is installed."""
        problem = WASOProblem(graph=small_facebook, k=5)
        with ResidentPool(2) as pool:
            result = parallel_solve(
                problem,
                self._factory(engine="reference"),
                total_budget=60,
                workers=2,
                rng=4,
                pool=pool,
            )
            assert result.stats.extra["payload"] == "dict-graph"
            assert result.stats.extra["graph_installs"] == 0
            assert pool.installs == 0
            assert result.solution.is_feasible(problem)

    def test_multiple_chunks_per_worker_parse_correctly(
        self, small_facebook
    ):
        """Regression: a worker shipped several chunks in one batch must
        have its interleaved install-ack / chunk-reply stream parsed by
        send-order tags, not by draining all acks first."""
        from repro.graph.generators import facebook_like

        problem_a = WASOProblem(graph=small_facebook, k=5)
        problem_b = WASOProblem(graph=facebook_like(120, seed=9), k=4)
        solver = CBASND(budget=30, m=4, stages=2)
        with ResidentPool(1) as pool:
            for index, problem in enumerate((problem_a, problem_b)):
                spec = problem.payload_spec()
                pool.ship(
                    0,
                    [{
                        "index": index,
                        "problem": spec,
                        "solver_obj": solver,
                        "seed": 7,
                    }],
                    {spec["token"]: problem.compiled().detach()},
                )
            outcomes = pool.collect()
        assert len(outcomes) == 2
        for index, (chunk, problem) in enumerate(
            zip(outcomes, (problem_a, problem_b))
        ):
            status, echoed, members, value = chunk[0][:4]
            assert status == "ok" and echoed == index
            direct = solver.solve(problem, rng=7)
            assert members == direct.members and value == direct.willingness

    def test_pool_smaller_than_workers_rejected(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        with ResidentPool(1) as pool:
            with pytest.raises(ValueError, match="workers"):
                parallel_solve(
                    problem, self._factory(), total_budget=60, workers=2,
                    rng=4, pool=pool,
                )

    def test_closed_pool_rejected(self, small_facebook):
        pool = ResidentPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.ship(0, [], {})

    def test_validation(self):
        with pytest.raises(ValueError):
            ResidentPool(0)
        with pytest.raises(ValueError):
            ResidentPool(1, resident_graphs=0)


class TestParallelSolver:
    def test_solver_interface(self, small_facebook):
        problem = WASOProblem(graph=small_facebook, k=5)
        solver = ParallelSolver(budget=60, workers=2, m=5, stages=3)
        result = solver.solve(problem, rng=9)
        assert result.solution.is_feasible(problem)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ParallelSolver(budget=0)
        with pytest.raises(ValueError):
            ParallelSolver(budget=10, workers=0)

    def test_quality_comparable_to_serial(self, small_facebook):
        """Splitting the budget must not collapse quality (statistical)."""
        problem = WASOProblem(graph=small_facebook, k=6)
        serial = CBASND(budget=120, m=6, stages=4).solve(problem, rng=2)
        parallel = ParallelSolver(
            budget=120, workers=2, m=6, stages=4
        ).solve(problem, rng=2)
        assert parallel.willingness >= serial.willingness * 0.5
