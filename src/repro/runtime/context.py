"""The unified runtime layer: one object owns everything between a
request and a :class:`~repro.core.solution.GroupSolution`.

Before this layer existed the execution machinery was scattered: engine
selection lived on every solver constructor, worker pools behind the
solvers, warm states on the :class:`~repro.online.replanning.
OnlinePlanner`, and the choice between the parallel modes in a
rule-of-thumb comment.  :class:`ExecutionContext` consolidates all of
it:

* **engine selection** — ``engine="compiled"|"reference"``, inherited by
  every solver the context builds;
* **pool lifecycle** — one :class:`~repro.parallel.pool.ResidentPool`
  serves both parallel modes: it is created lazily, stays resident
  across solves, batches, and re-planning rounds — each graph's
  detached arrays are shipped **at most once per (graph, worker)
  pair**, whichever mode uses them, per the residency protocol in
  :mod:`repro.parallel.residency` — is reference-counted across
  co-owners (:meth:`acquire` / :meth:`release`), and is torn down by
  :meth:`close` or ``with``-exit;
* **mode routing** — ``mode="auto"`` resolves per request through the
  cost model in :mod:`repro.runtime.router`; ``"serial"`` / ``"solve"``
  / ``"stage"`` force a mode.  There is one parallel path per request
  shape: ``"solve"`` sends a batch's requests to the pool as whole-solve
  chunks (a single solve has nothing to multiplex and runs serially),
  and ``"stage"`` shards one large solve's stages.  The context is the
  only place a solve's stage strategy is picked;
* **warm-state storage** — :class:`~repro.algorithms.cbas.CBASWarmState`
  snapshots keyed by caller token, so online re-planning and repeated
  requests share one place (and one resident pool) for cross-solve
  state;
* **the batched front door** — :meth:`solve_many` multiplexes a list of
  heterogeneous :class:`~repro.runtime.requests.SolveRequest`\\ s over
  one shared compiled graph, with results bit-identical to solving the
  requests one by one.

Construction stays cheap: a context created and never used for parallel
work starts no processes.  Solvers constructed *without* a context get a
private serial one, which keeps the historical direct-call behaviour —
``CBASND().solve(problem, rng=7)`` remains bit-identical to every
previous release.

The context is not thread-safe: like its pool it serves one solve at a
time (concurrency comes from the worker processes underneath).
"""

from __future__ import annotations

import os
import time
import traceback
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional

from repro.algorithms.base import (
    ContextSolver,
    RngLike,
    Solver,
    SolveResult,
    SolveStats,
)
from repro.algorithms.stage_exec import SerialStageExecutor, StageExecutor
from repro.core.problem import WASOProblem
from repro.core.solution import GroupSolution
from repro.core.willingness import evaluator_for as _evaluator_for
from repro.core.willingness import validate_engine
from repro.exceptions import BatchExecutionError, RequestFailure
from repro.parallel.residency import record_recovery, record_shipping
from repro.runtime.requests import SolveRequest
from repro.runtime.router import choose_mode, validate_mode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.pool import ResidentPool

__all__ = ["ExecutionContext"]


class ExecutionContext:
    """Owns engine, pool, routing, and warm state for a serving session.

    Parameters
    ----------
    engine:
        Default execution engine for solvers built through the context.
    mode:
        Routing policy: ``"auto"`` (cost-model router, the default),
        or a forced ``"serial"`` / ``"solve"`` / ``"stage"``.
    workers:
        Worker count for the pool (``None`` = one per CPU).  The
        auto-router caps it by the CPU count; an explicit mode honours
        it as given (oversubscription is the caller's choice).
    executor:
        Explicit :class:`~repro.algorithms.stage_exec.StageExecutor`
        override — every staged solve through this context runs on it,
        bypassing the router.  This is the one way to pin a stage
        strategy (e.g. a :class:`~repro.parallel.stage_pool.
        ShardedStageExecutor` over a caller's pool).
    pool:
        A caller-owned :class:`~repro.parallel.pool.ResidentPool` to run
        on instead of lazily creating an owned one; a shared pool is
        never closed by this context.
    cpu_count:
        Override for ``os.cpu_count()`` (tests).
    max_retries:
        Crash-retry budget for the owned pool (``None`` = the pool's
        default, :data:`~repro.parallel.residency.DEFAULT_MAX_RETRIES`).
        Once the pool exhausts it, the context goes *degraded*: the
        affected requests re-run serially in-parent
        (``degraded_to_serial`` in their stats) and the router sends
        everything serial until :meth:`close` discards the pool.
    """

    def __init__(
        self,
        engine: str = "compiled",
        mode: str = "auto",
        workers: Optional[int] = None,
        executor: Optional[StageExecutor] = None,
        pool: "Optional[ResidentPool]" = None,
        cpu_count: Optional[int] = None,
        max_retries: Optional[int] = None,
    ) -> None:
        self.engine = validate_engine(engine)
        self.mode = validate_mode(mode)
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_retries is not None and max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.workers = workers
        self.max_retries = max_retries
        self._cpu_count = cpu_count
        self._executor_override = executor
        self._serial_executor = SerialStageExecutor()
        self._pool = pool
        self._owns_pool = pool is None
        self._warm_states: dict = {}
        self._mode_force: Optional[str] = None
        self._degraded = False
        self._refs = 1

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def cpu_count(self) -> int:
        return self._cpu_count or os.cpu_count() or 1

    @property
    def effective_workers(self) -> int:
        """Worker count the pool is sized with."""
        return self.workers if self.workers is not None else self.cpu_count

    @property
    def degraded(self) -> bool:
        """Has the pool exhausted its crash-retry budget?

        While degraded the router sends everything serial (in-parent
        execution is the floor dying workers cannot take out); the
        serving daemon reports the flag on its health endpoint.
        :meth:`close` discards the pool and clears it.
        """
        return self._degraded

    # ------------------------------------------------------------------
    # Engine
    # ------------------------------------------------------------------
    def evaluator_for(self, problem: WASOProblem, engine: Optional[str] = None):
        """Willingness evaluator for ``problem`` on the context's engine."""
        return _evaluator_for(problem.graph, engine or self.engine)

    # ------------------------------------------------------------------
    # Pool (lazy, resident, shared)
    # ------------------------------------------------------------------
    def pool(self) -> "ResidentPool":
        """The resident worker pool, created on first use.

        Both parallel modes run on it — multiplexed chunks and
        stage-sharded solves — and its workers cache detached
        compiled-graph arrays keyed by payload token
        (:mod:`repro.parallel.residency`), so a serving session ships
        each graph at most once per worker.
        """
        if self._pool is None:
            from repro.parallel.pool import ResidentPool

            kwargs = {}
            if self.max_retries is not None:
                kwargs["max_retries"] = self.max_retries
            self._pool = ResidentPool(max(1, self.effective_workers), **kwargs)
            self._owns_pool = True
        return self._pool

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def resolve_mode(
        self,
        problem: WASOProblem,
        budget: int,
        batch_size: int = 1,
        mode: Optional[str] = None,
        engine: Optional[str] = None,
    ) -> str:
        """Resolve the execution mode for one request.

        Precedence: explicit ``mode`` argument, then the mode pinned by
        an enclosing :meth:`solve` call, then the context default; an
        ``"auto"`` outcome runs the cost-model router with the request's
        engine (the vector engine shifts the serial-vs-parallel
        break-even).
        """
        choice = mode if mode is not None else (self._mode_force or self.mode)
        validate_mode(choice)
        if choice != "auto":
            return choice
        return choose_mode(
            n=problem.graph.number_of_nodes(),
            budget=budget,
            batch_size=batch_size,
            workers=self.workers,
            cpu_count=self.cpu_count,
            healthy=not self._degraded,
            engine=engine or self.engine,
        )

    def executor_for(
        self,
        solver: Solver,
        problem: WASOProblem,
        mode: Optional[str] = None,
    ) -> StageExecutor:
        """Stage-execution strategy for one solve.

        Called by the staged solvers (:class:`~repro.algorithms.cbas.
        CBAS` and subclasses) once per solve.  A pinned ``executor``
        wins; otherwise routes to the stage-sharded strategy only when
        the resolved mode is ``"stage"`` and the solver can actually
        shard (compiled or vector engine, shard-protocol hooks);
        everything else runs the in-process strategy.
        """
        if self._executor_override is not None:
            return self._executor_override
        solver_engine = getattr(solver, "engine", None)
        resolved = self.resolve_mode(
            problem,
            getattr(solver, "budget", 0) or 0,
            mode=mode,
            engine=solver_engine,
        )
        if (
            resolved == "stage"
            and solver_engine in ("compiled", "vector")
            and hasattr(solver, "_shard_mode")
        ):
            from repro.parallel.stage_pool import ShardedStageExecutor

            return ShardedStageExecutor(pool=self.pool())
        return self._serial_executor

    @contextmanager
    def _forced_mode(self, mode: str):
        """Pin the resolved mode for the duration of one solve call."""
        previous = self._mode_force
        self._mode_force = mode
        try:
            yield
        finally:
            self._mode_force = previous

    # ------------------------------------------------------------------
    # Solver construction
    # ------------------------------------------------------------------
    def make_solver(self, name: str, **kwargs) -> Solver:
        """Build a registry solver wired to this context.

        Context-aware solvers receive ``context=self`` (and therefore
        the context's engine and routing); solvers without execution
        state (exact / IP) are built as-is.
        """
        from repro.algorithms.registry import solver_factory

        factory = solver_factory(name)
        if issubclass(factory, ContextSolver):
            kwargs.setdefault("context", self)
        return factory(**kwargs)

    def _stage_capable(self, name: str, kwargs: dict) -> bool:
        """Can a ``name`` solver actually run stage-sharded?

        Stage mode needs the compiled or vector engine plus the
        shard-protocol hooks; a request routed "stage" without them
        would degrade to a sequential inline solve, so :meth:`solve_many`
        demotes it to the multiplexer instead.
        """
        from repro.algorithms.registry import solver_factory

        if not hasattr(solver_factory(name), "_shard_mode"):
            return False
        return kwargs.get("engine", self.engine) in ("compiled", "vector")

    def _dispatch_engine(self, name: str, kwargs: dict) -> Optional[str]:
        """Engine a worker-side build of ``name`` would run, or ``None``.

        Workers build solvers from ``(name, kwargs)`` without a context,
        so the context's engine must be made explicit in the shipped
        kwargs for context solvers; solvers with no engine knob (exact /
        IP) return ``None`` and ship the full dict graph.
        """
        from repro.algorithms.registry import solver_factory

        if not issubclass(solver_factory(name), ContextSolver):
            return None
        kwargs.setdefault("engine", self.engine)
        return kwargs["engine"]

    # ------------------------------------------------------------------
    # Warm-state storage (online re-planning, repeated requests)
    # ------------------------------------------------------------------
    def store_warm_state(self, key, state) -> None:
        """Remember cross-solve warm state under ``key``."""
        self._warm_states[key] = state

    def warm_state(self, key):
        """Warm state previously stored under ``key`` (or ``None``)."""
        return self._warm_states.get(key)

    def clear_warm_state(self, key) -> None:
        self._warm_states.pop(key, None)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        problem: WASOProblem,
        solver: "str | Solver" = "cbas-nd",
        rng: RngLike = None,
        mode: Optional[str] = None,
        **solver_kwargs,
    ) -> SolveResult:
        """Solve one problem through the runtime layer.

        ``solver`` is a registry name (built through the context) or a
        pre-configured :class:`~repro.algorithms.base.Solver` instance.
        ``mode`` overrides the context's routing for this call.  A single
        solve routed ``"solve"`` runs serially in this process: that mode
        multiplexes a :meth:`solve_many` batch onto the pool, and one
        solve has nothing to multiplex.
        """
        if isinstance(solver, str):
            instance = self.make_solver(solver, **solver_kwargs)
        else:
            instance = solver
            if solver_kwargs:
                raise ValueError(
                    "solver kwargs only apply when the solver is built by "
                    "name; configure the instance instead"
                )
        budget = getattr(instance, "budget", 0) or 0
        resolved = self.resolve_mode(problem, budget, mode=mode)
        if resolved == "solve":
            resolved = "serial"
        with self._forced_mode(resolved):
            foreign = (
                getattr(instance, "context", None) is not None
                and instance.context is not self
            )
            if not foreign:
                return instance.solve(problem, rng=rng)
            # A pre-built solver carries its own (usually private serial)
            # context; it must execute through *this* one for the call,
            # or the routed mode would be silently ignored.
            previous = instance.context
            instance.context = self
            try:
                return instance.solve(problem, rng=rng)
            finally:
                instance.context = previous

    # ------------------------------------------------------------------
    def solve_many(
        self,
        requests,
        mode: Optional[str] = None,
    ) -> list[SolveResult]:
        """Solve a batch of heterogeneous requests; the serving front door.

        ``requests`` is a list of :class:`~repro.runtime.requests.
        SolveRequest` (or plain ``(problem, solver-name)``-style dicts
        are *not* accepted here — build them with
        :func:`~repro.runtime.requests.request_from_spec`).  Routing is
        per request: large solves are stage-sharded across the resident
        pool, pool-worthy ones multiplex onto it as chunks — each inside
        one worker as a plain serial solve — while requests
        the router judges too small to win their dispatch round trip
        run inline in the parent (on one CPU, everything does).  Compiled-engine requests ship only their O(1)
        payload spec once a worker holds the graph's detached arrays,
        so a serving session pickles each graph at most once per
        (graph, worker) pair; every multiplexed result records the
        batch's shipping in ``stats.extra`` (``graph_shipped`` /
        ``graph_installs`` / ``batch_payload_bytes``).

        Results come back in request order and are bit-identical to
        calling :meth:`solve` once per request (stats excepted only in
        ``elapsed_seconds`` and the pool-warmth accounting keys).  A
        failing request never discards the rest of the batch: the batch
        drains fully, completed results record the failed indices in
        ``stats.extra["failed_requests"]``, and a
        :class:`~repro.exceptions.BatchExecutionError` carrying the
        partial ``results`` and per-request ``failures`` is raised.

        The dispatch layer is self-healing (see :mod:`repro.parallel.
        residency`): a worker crash respawns the worker and retries its
        chunk bit-identically; exhausted retries degrade the affected
        requests to in-parent serial execution instead of failing them;
        a request whose :attr:`~repro.runtime.requests.SolveRequest.
        deadline_s` expires mid-dispatch is cancelled and fails with a
        ``kind="deadline"`` :class:`~repro.exceptions.RequestFailure`.
        Recovery events surface in the surviving results'
        ``stats.extra`` (``worker_restarts`` / ``chunk_retries`` /
        ``degraded_to_serial`` / ``deadline_missed``), written only
        when non-zero.
        """
        requests = [self._coerce_request(r) for r in requests]
        if not requests:
            return []
        import random as _random

        shared_rng = any(isinstance(r.rng, _random.Random) for r in requests)
        batch = len(requests)
        # Per-request deadlines, as absolute monotonic instants from the
        # moment the batch starts executing.
        batch_start = time.monotonic()
        deadlines = [
            batch_start + r.deadline_s if r.deadline_s is not None else None
            for r in requests
        ]
        predispatch_missed = 0
        routed = []
        for request in requests:
            route = self.resolve_mode(
                request.problem,
                request.budget,
                batch_size=batch,
                mode=mode,
                engine=request.solver_kwargs.get("engine"),
            )
            if shared_rng:
                # Stateful generators must consume their streams in
                # request order: the whole batch runs inline.
                route = "serial"
            elif route == "stage" and not self._stage_capable(
                request.solver, request.solver_kwargs
            ):
                # Large but unshardable (reference engine, no shard
                # hooks): multiplexing is the only parallelism it has.
                route = "solve"
            routed.append(route)
        failures: dict[int, str] = {}
        results: list[Optional[SolveResult]] = [None] * batch

        # Distinct graphs are frozen and detached at most once (lazily —
        # an all-stage or all-reference batch never pays the detach);
        # detached clones share the frozen arrays, and the resident pool
        # pickles them only into workers that do not hold them yet.
        detached_graphs: dict[int, object] = {}
        graphs: dict = {}  # payload token -> detached CompiledGraph
        entries = []  # multiplexed requests, as chunk entry dicts
        stage_indices = []
        inline_indices = []
        for index, (request, route) in enumerate(zip(requests, routed)):
            if route == "stage":
                stage_indices.append(index)
                continue
            if route == "serial":
                # The router judged this request too small (or too
                # opaque — budget-less) to win its dispatch round trip:
                # honour that and solve it in-parent while the chunks
                # are in flight, instead of multiplexing it anyway.
                inline_indices.append(index)
                continue
            kwargs = dict(request.solver_kwargs)
            engine = self._dispatch_engine(request.solver, kwargs)
            problem = request.problem
            if engine in ("compiled", "vector"):
                detached = detached_graphs.get(id(problem.graph))
                if detached is None:
                    detached = problem.compiled().detach()
                    detached_graphs[id(problem.graph)] = detached
                payload = problem.payload_spec()
                graphs[payload["token"]] = detached
            else:
                # Reference / engine-less solvers have no resident
                # representation: the dict problem ships per request.
                payload = problem
            entries.append(
                {
                    "index": index,
                    "problem": payload,
                    "solver": request.solver,
                    "kwargs": kwargs,
                    "seed": request.rng,
                    "deadline": deadlines[index],
                }
            )

        dispatched = bool(entries)
        if dispatched:
            pool = self.pool()
            before = pool.counters()
            workers = max(
                1, min(self.effective_workers, pool.workers, len(entries))
            )
            # Round-robin chunking: one chunk per worker; each graph is
            # installed only where the worker's residency ledger says it
            # is missing, then referenced by token.
            for worker in range(workers):
                pool.ship(worker, entries[worker::workers], graphs)

        # Large solves are stage-sharded, then serial-routed ones run
        # inline (in request order), while the chunks are in flight; the
        # pool settles each reply on its own record, so stage waits never
        # consume a chunk's reply.  A failure here must not abandon the
        # in-flight chunks (they are collected below regardless).
        for index in stage_indices + inline_indices:
            expired = self._expired_failure(requests[index], deadlines[index])
            if expired is not None:
                failures[index] = expired
                predispatch_missed += 1
                continue
            try:
                results[index] = self._solve_request(
                    requests[index], routed[index]
                )
            except Exception:
                failures[index] = traceback.format_exc()

        if dispatched:
            for chunk_outcomes in pool.collect():
                for outcome in chunk_outcomes:
                    if outcome[0] == "error":
                        failures[outcome[1]] = outcome[2]
                        continue
                    (_, index, members, willingness, drawn, failed,
                     stages, extra) = outcome
                    results[index] = SolveResult(
                        solution=GroupSolution(
                            members=members, willingness=willingness
                        ),
                        stats=SolveStats(
                            samples_drawn=drawn,
                            failed_samples=failed,
                            stages=stages,
                            extra=extra,
                        ),
                    )
            # Graceful degradation: a request whose dispatch died with
            # the retry budget exhausted is not lost — it re-runs
            # serially in-parent (bit-identically: the seed is in the
            # request), the pool is flagged unhealthy, and the router
            # sends everything serial until close() discards the pool.
            degraded = 0
            if not pool.healthy:
                self._degraded = True
                crashed = [
                    index
                    for index, failure in failures.items()
                    if getattr(failure, "kind", None) == "worker_crash"
                ]
                for index in crashed:
                    try:
                        results[index] = self._solve_request(requests[index])
                    except Exception:
                        failures[index] = traceback.format_exc()
                    else:
                        del failures[index]
                        degraded += 1
            # Per-batch shipping and recovery accounting on every
            # multiplexed result, through the shared residency module
            # (the stage path records the same keys from its executor).
            # Recovery keys appear only when something actually happened,
            # so fault-free stats are unchanged.
            window = pool.counters() - before
            for entry in entries:
                result = results[entry["index"]]
                if result is not None:
                    record_shipping(
                        result.stats.extra,
                        shipped=window["installs"] > 0,
                        payload_bytes=window["payload_bytes"],
                        installs=window["installs"],
                        patch_bytes=window["patch_bytes"],
                    )
                    record_recovery(
                        result.stats.extra,
                        restarts=window["worker_restarts"],
                        retries=window["retries"],
                        degraded=degraded,
                        deadline_missed=window["deadline_missed"]
                        + predispatch_missed,
                    )
        return self._finish_batch(results, failures)

    @staticmethod
    def _expired_failure(
        request: SolveRequest, deadline: "Optional[float]"
    ) -> "Optional[RequestFailure]":
        """A ``kind="deadline"`` failure when ``deadline`` already passed.

        The in-parent loop (stage-routed and inline-routed requests)
        cannot cancel a solve mid-flight, so its deadline enforcement
        happens here, at the dispatch boundary — matching the pool,
        which likewise never abandons a reply that already arrived.
        """
        if deadline is None or time.monotonic() < deadline:
            return None
        return RequestFailure(
            f"request deadline of {request.deadline_s}s expired before "
            "dispatch",
            kind="deadline",
        )

    @staticmethod
    def _finish_batch(
        results: "list[Optional[SolveResult]]", failures: "dict[int, str]"
    ) -> list[SolveResult]:
        """Return a fully-solved batch, or raise after it has drained."""
        if failures:
            failed = sorted(failures)
            for result in results:
                if result is not None:
                    result.stats.extra["failed_requests"] = failed
            raise BatchExecutionError(failures, results)
        assert all(result is not None for result in results)
        return results

    @staticmethod
    def _coerce_request(request) -> SolveRequest:
        if isinstance(request, SolveRequest):
            return request
        raise TypeError(
            "solve_many takes SolveRequest objects; build them with "
            "repro.runtime.request_from_spec "
            f"(got {type(request).__name__})"
        )

    def _solve_request(
        self, request: SolveRequest, mode: str = "serial"
    ) -> SolveResult:
        return self.solve(
            request.problem,
            solver=request.solver,
            rng=request.rng,
            mode=mode,
            **request.solver_kwargs,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def acquire(self) -> "ExecutionContext":
        """Register a co-owner; pair every call with :meth:`release`."""
        self._refs += 1
        return self

    def release(self) -> None:
        """Drop one ownership reference; the last one closes the pool."""
        self._refs -= 1
        if self._refs <= 0:
            self.close()

    def close(self) -> None:
        """Tear down the owned pool (idempotent; the context stays usable
        — a later parallel solve lazily recreates it).  Discarding the
        pool also clears the degraded flag: a fresh pool is trusted
        again."""
        pool, self._pool = self._pool, None
        if pool is not None and self._owns_pool:
            pool.close()
        self._owns_pool = True
        self._degraded = False

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionContext(engine={self.engine!r}, mode={self.mode!r}, "
            f"workers={self.effective_workers}, "
            f"pool={'up' if self._pool is not None else 'none'})"
        )
