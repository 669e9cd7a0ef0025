"""Tests for the resident pool's chunk path and its residency protocol."""

import pickle

import pytest

from repro.algorithms.cbas_nd import CBASND
from repro.core.problem import WASOProblem
from repro.parallel import ResidentPool, split_budget, worker_payload_bytes
from repro.runtime import ExecutionContext, SolveRequest


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
    """``worker_payload_bytes``: the payload sizes the pool accounts for."""

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


class TestResidentSolvePool:
    def _solve_many(self, pool, problem, seeds, **kwargs):
        """One ``solve_many(mode="solve")`` batch on ``pool``; with one
        request per worker, every worker gets a chunk."""
        merged = dict(budget=30, m=5, stages=3)
        merged.update(kwargs)
        requests = [
            SolveRequest(problem, "cbas-nd", seed, dict(merged))
            for seed in seeds
        ]
        with ExecutionContext(workers=pool.workers, pool=pool) as context:
            return context.solve_many(requests, mode="solve")

    def test_graph_ships_once_per_worker_across_calls(self, small_facebook):
        """The residency property: repeated batches on one graph install
        the detached arrays exactly once per worker."""
        problem = WASOProblem(graph=small_facebook, k=5)
        with ResidentPool(2) as pool:
            batch = self._solve_many(pool, problem, (4, 5))
            first = batch[0]
            assert pool.installs == 2  # one per (graph, worker) pair
            assert first.stats.extra["graph_shipped"] is True
            # Each request's chunk installed the graph on its worker.
            assert [r.stats.extra["graph_installs"] for r in batch] == [1, 1]
            second = self._solve_many(pool, problem, (6, 7))[0]
            assert pool.installs == 2  # nothing re-shipped
            assert second.stats.extra["graph_shipped"] is False
            assert second.stats.extra["graph_installs"] == 0
            # The warm batch ships only specs + seeds + solver configs.
            slim = worker_payload_bytes(problem)["compiled_arrays_bytes"]
            assert second.stats.extra["batch_payload_bytes"] < slim
            assert first.stats.extra["batch_payload_bytes"] > slim

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
                for result in self._solve_many(
                    pool, problem, (seed, seed + 10)
                ):
                    assert result.solution.is_feasible(problem)
                assert pool.installs == expected_installs
            token_a = problem_a.payload_token()
            assert pool.resident_tokens(0) == (token_a,)

    def test_reference_solvers_ship_dict_problems(self, small_facebook):
        """The dict path has no resident representation: reference-engine
        workers get the full problem, and no graph is installed."""
        problem = WASOProblem(graph=small_facebook, k=5)
        with ResidentPool(2) as pool:
            results = self._solve_many(
                pool, problem, (4, 5), engine="reference"
            )
            assert pool.installs == 0
        for result in results:
            assert result.stats.extra["graph_shipped"] is False
            assert result.stats.extra["graph_installs"] == 0
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
        kwargs = dict(budget=30, m=4, stages=2, engine="compiled")
        with ResidentPool(1) as pool:
            for index, problem in enumerate((problem_a, problem_b)):
                spec = problem.payload_spec()
                pool.ship(
                    0,
                    [{
                        "index": index,
                        "problem": spec,
                        "solver": "cbas-nd",
                        "kwargs": kwargs,
                        "seed": 7,
                    }],
                    {spec["token"]: problem.compiled().detach()},
                )
            outcomes = pool.collect()
        assert len(outcomes) == 2
        for index, (chunk, problem) in enumerate(
            zip(outcomes, (problem_a, problem_b))
        ):
            ((status, echoed, result),) = chunk
            assert status == "ok" and echoed == index
            direct = CBASND(**kwargs).solve(problem, rng=7)
            assert result.members == direct.members
            assert result.willingness == direct.willingness

    def test_submit_places_on_the_least_loaded_worker(self, small_facebook):
        """Each entry goes to the worker with the fewest requests in
        flight (ties to the lowest slot); one call's entries for one
        worker share a chunk, and ``settle_any`` hands every chunk back
        once, as its reply lands."""
        problem = WASOProblem(graph=small_facebook, k=5)
        spec = problem.payload_spec()
        graphs = {spec["token"]: problem.compiled().detach()}
        kwargs = dict(budget=30, m=4, stages=2, engine="compiled")

        def entry(index):
            return {"index": index, "problem": spec, "solver": "cbas-nd",
                    "kwargs": kwargs, "seed": index}

        with ResidentPool(2) as pool:
            singles = [pool.submit([entry(i)], graphs) for i in range(3)]
            assert [r["worker"] for (r,) in singles] == [0, 1, 0]
            # Loads 2 and 1: entries 3 and 5 fill worker 1, 4 worker 0.
            mixed = pool.submit([entry(3), entry(4), entry(5)], graphs)
            assert [(r["worker"], [e["index"] for e in r["entries"]])
                    for r in mixed] == [(0, [4]), (1, [3, 5])]
            settled = []
            while len(settled) < 5:
                settled += pool.settle_any()
            assert pool.settle_any() == []
        outcomes = {
            index: result
            for record in settled
            for status, index, result in record["outcomes"]
        }
        assert sorted(outcomes) == [0, 1, 2, 3, 4, 5]
        for index, result in outcomes.items():
            direct = CBASND(**kwargs).solve(problem, rng=index)
            assert result.members == direct.members
            assert result.willingness == direct.willingness

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
