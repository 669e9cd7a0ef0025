"""The resident worker pool: one set of W processes for both parallel
dispatch shapes.

CBAS spends its budget on sample draws, and the parallel modes run those
draws in worker processes (CPython threads cannot exploit the paper's
OpenMP parallelism — the GIL).  One :class:`ResidentPool` runs them in
two shapes on the same W processes, one per request shape:

* **chunks** — a batch of whole solves, each running serially at full
  statistical strength inside one worker.  :meth:`ResidentPool.ship`
  and :meth:`ResidentPool.collect` carry :meth:`~repro.runtime.context.
  ExecutionContext.solve_many`'s multiplexed requests.
* **stage shards** — one large solve's per-stage draws split across the
  workers and merged at stage boundaries, the paper's Fig. 5(d) loop:
  :meth:`ResidentPool.ensure_resident`, :meth:`ResidentPool.start_solve`
  and :meth:`ResidentPool.run_stage`, driven by :class:`~repro.parallel.
  stage_pool.ShardedStageExecutor`.

Every worker runs one loop (:func:`_solve_worker_main`) against one
:class:`~repro.parallel.residency.ResidentGraphStore`, and the parent
mirrors each worker's cache in one :class:`~repro.parallel.residency.
ResidencyLedger`, so a session pickles each frozen graph **at most once
per (graph, worker) pair** whichever shape uses it — every later chunk,
stage, or re-plan on that graph ships only the O(1) :meth:`~repro.core.
problem.WASOProblem.payload_spec` plus seeds and budgets.  Only requests
explicitly configured with ``engine="reference"`` (or for solvers
without an engine knob at all) pickle the full dict problem per
request — the dict path has no resident representation.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
import time
import traceback
from collections import Counter, deque
from typing import Optional

from repro.algorithms.sampling import (
    ExpansionSampler,
    seed_for_start,
    summarize_shard,
)
from repro.ce.probability import SelectionProbabilities
from repro.core.problem import WASOProblem, problem_from_payload_spec
from repro.core.willingness import FastWillingnessEvaluator
from repro.graph.compiled import CompiledGraph
from repro.exceptions import (
    DeadlineExpiredError,
    RequestFailure,
    WorkerCrashError,
)
from repro.parallel.residency import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_RESIDENT_GRAPHS,
    ResidencyLedger,
    ResidentGraphStore,
    apply_graph_patch,
    plan_graph_message,
)

__all__ = ["ResidentPool", "split_budget", "worker_payload_bytes"]


def split_budget(total_budget: int, workers: int) -> list[int]:
    """Per-worker budget shares summing exactly to ``total_budget``.

    The remainder of ``total_budget // workers`` lands one sample at a
    time on the first workers instead of being silently dropped.
    """
    share, remainder = divmod(total_budget, workers)
    shares = [share + 1 if index < remainder else share for index in range(workers)]
    assert sum(shares) == total_budget, (shares, total_budget)
    return shares


def worker_payload_bytes(problem: WASOProblem) -> dict:
    """Pickled payload sizes: slim compiled arrays vs the dict graph.

    ``compiled_arrays_bytes`` measures the detached flat-array payload —
    what the resident pool installs into a worker exactly once per
    session; ``dict_graph_bytes`` measures the problem over the plain
    dict-backed graph (compiled cache excluded), i.e. the historical
    payload.  An already array-backed (detached) problem *is* the slim
    payload, so it reports its own pickled size with
    ``dict_graph_bytes=None`` — there is no dict graph left to measure
    (this is exactly the shape the resident pool accounts for, so
    raising here would break payload accounting on the resident path).
    Benchmarks gate on the slim number only.
    """
    graph = problem.graph
    if not hasattr(graph, "_compiled_cache"):
        # Already detached: the problem is the compiled-arrays payload.
        slim = len(pickle.dumps(problem))
        return {"compiled_arrays_bytes": slim, "dict_graph_bytes": None}
    slim = len(pickle.dumps(problem.detached()))
    cache = graph._compiled_cache
    graph._compiled_cache = None
    try:
        full = len(pickle.dumps(problem))
    finally:
        graph._compiled_cache = cache
    return {"compiled_arrays_bytes": slim, "dict_graph_bytes": full}


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _run_solve_entry(store: ResidentGraphStore, entry: dict):
    """Execute one whole-solve entry; failures are captured per entry.

    Returns ``("ok", index, members, willingness, samples_drawn,
    failed_samples, stages, extra)`` or ``("error", index, traceback)``
    so one failing request never discards its chunk-mates' results
    (the parent re-raises after the batch drains).
    """
    index = entry["index"]
    try:
        problem = entry["problem"]
        if isinstance(problem, dict):
            compiled = store.get(problem["token"])
            problem = problem_from_payload_spec(compiled, problem)
        from repro.algorithms.registry import make_solver

        solver = make_solver(entry["solver"], **entry["kwargs"])
        result = solver.solve(problem, rng=entry["seed"])
        return (
            "ok",
            index,
            result.solution.members,
            result.solution.willingness,
            result.stats.samples_drawn,
            result.stats.failed_samples,
            result.stats.stages,
            result.stats.extra,
        )
    except BaseException:
        return ("error", index, traceback.format_exc())


def _apply_patch(vector: SelectionProbabilities, patch: tuple) -> None:
    """Replay one parent-side vector change on a worker mirror."""
    kind = patch[0]
    if kind == "round":
        vector.apply_round(patch[1], patch[2])
    elif kind == "full":
        vector.restore(patch[1])
    else:  # pragma: no cover - protocol guard
        raise ValueError(f"unknown vector patch kind {kind!r}")


class _WorkerSolveState:
    """One stage-sharded solve's worker-resident execution state.

    Rebuilt per solve from the resident compiled arrays plus the small
    solve spec: the problem, the shared sampler (whose per-seed cache
    amortizes across all stages of the solve), and — for CBAS-ND — one
    mirror probability vector per start node, kept in sync with the
    parent by replaying refit patches.  The stage executor's in-parent
    fallback builds the same state, so its summaries are bit-identical
    to a worker's.
    """

    def __init__(self, compiled, spec: dict) -> None:
        self.solve_id = spec["solve_id"]
        problem = problem_from_payload_spec(compiled, spec["problem"])
        vector_engine = spec.get("engine") == "vector"
        if vector_engine:
            from repro.vector import VectorWillingnessEvaluator

            evaluator = VectorWillingnessEvaluator(compiled)
        else:
            evaluator = FastWillingnessEvaluator(compiled)
        self.sampler = ExpansionSampler(problem, evaluator)
        if vector_engine:
            # Shared solve-level Philox base key: every shard's uniforms
            # are a pure function of (key, start, planned draw ordinal),
            # not of which worker draws them.
            self.sampler.vector_key = spec["vector_key"]
        self.seeds = [seed_for_start(problem, start) for start in spec["starts"]]
        self.mode = spec["mode"]
        self.max_failures = spec["max_failures"]
        self.vectors: "list[SelectionProbabilities] | None" = None
        if self.mode == "ce":
            # Bit-identical to the parent's cold vectors: same candidate
            # order (compiled node order minus forbidden, or every slot
            # when nothing is forbidden), same k, same rebuilt index_of.
            # Warm vectors ship their arrays.
            template = SelectionProbabilities(
                problem.candidates() if problem.forbidden else None,
                problem.k,
                index_of=compiled.index_of,
                size=compiled.number_of_nodes,
            )
            vectors = []
            for initial in spec["vectors"]:
                vector = template.replicate()
                if initial is not None:
                    vector.restore(initial)
                vectors.append(vector)
            self.vectors = vectors

    def run_entry(self, entry: dict):
        """Draw one shard and reduce it to a :class:`ShardSummary`."""
        index = entry["start"]
        vectors = None
        if self.vectors is not None:
            vector = self.vectors[index]
            for patch in entry["sync"]:
                _apply_patch(vector, patch)
            vectors = [vector]
        # The compiled engine draws from the shard's own seeded RNG; the
        # vector engine reads none (its shards ship no seed) and
        # addresses the start's Philox stream at ``first_draw`` (shipped
        # on vector entries only).
        (batch,) = self.sampler.draw_stage(
            [
                {
                    "start_key": index,
                    "seed": self.seeds[index],
                    "first_draw": entry.get("first_draw", 0),
                    "count": entry["count"],
                    "failures": entry["failures"],
                }
            ],
            self.mode,
            vectors,
            random.Random(entry["seed"]),
            self.max_failures,
        )
        return summarize_shard(batch, entry["keep_rank"])


def _solve_worker_main(conn) -> None:
    """The worker loop: resident graphs, whole-solve chunks, stage shards."""
    store = ResidentGraphStore()
    solve: "Optional[_WorkerSolveState]" = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "close":
            break
        try:
            if kind == "graph":
                _, token, compiled, evict = message
                store.install(token, compiled, evict)
                reply = ("ok", token)
            elif kind == "graph_path":
                # Zero-copy install: the parent sent a frozen index's
                # manifest path (O(1) bytes); map the shared arrays
                # here.  verify=False — the parent checked the manifest
                # when it loaded the graph, and the path round-trips a
                # content-derived token, so a mismatch is impossible
                # short of on-disk corruption mid-session.
                _, token, path, evict = message
                compiled = CompiledGraph.load(path, mmap=True, verify=False)
                if compiled.payload_token != token:
                    raise RuntimeError(
                        f"frozen index at {path!r} resolves to token "
                        f"{compiled.payload_token!r}, expected {token!r}"
                    )
                store.install(token, compiled, evict)
                reply = ("ok", token)
            elif kind == "graph_patch":
                # Sparse upgrade of a resident graph: replay the
                # parent's delta batches against the arrays already
                # here — O(|delta|) bytes instead of a full re-install.
                _, token, generation, batches = message
                apply_graph_patch(store, token, generation, batches)
                reply = ("ok", token)
            elif kind == "chunk":
                _, entries = message
                reply = (
                    "ok",
                    [_run_solve_entry(store, entry) for entry in entries],
                )
            elif kind == "solve":
                _, spec = message
                token = spec["problem"]["token"]
                solve = _WorkerSolveState(store.get(token), spec)
                reply = ("ok", solve.solve_id)
            elif kind == "stage":
                _, solve_id, entries = message
                if solve is None or solve.solve_id != solve_id:
                    raise RuntimeError(
                        f"stage request for unknown solve {solve_id!r}"
                    )
                reply = ("ok", [solve.run_entry(entry) for entry in entries])
            else:
                raise RuntimeError(f"unknown pool message {kind!r}")
        except BaseException:
            reply = ("error", traceback.format_exc())
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _entries_deadline(entries: "list[dict]") -> "Optional[float]":
    return min(
        (
            entry["deadline"]
            for entry in entries
            if entry.get("deadline") is not None
        ),
        default=None,
    )


class ResidentPool:
    """W persistent workers with resident graphs, for chunks and shards.

    Create it once per serving session, dispatch any number of chunk
    batches and stage-sharded solves, and :meth:`close` it when done
    (also usable as a context manager).  Each worker caches detached
    compiled-graph arrays keyed by payload token, bounded to
    ``resident_graphs`` entries with parent-driven LRU eviction
    (:mod:`repro.parallel.residency`).

    Every message travels with a *record* on its worker's in-flight
    queue, in send order; replies come back in the same order, so the
    head record is what the next reply answers.  One install planner
    (:meth:`_plan_installs`) puts whatever graph installs, generation
    patches and solve spec a record needs ahead of it, and one wait
    (:meth:`_await`) settles each reply on its own record — chunk and
    stage replies share a worker's stream, and neither kind of waiter
    ever consumes the other's reply.

    The pool is *self-healing* through one recovery path
    (:meth:`_recover`).  A worker that dies — or that outlives a chunk
    entry's ``"deadline"`` (an absolute ``time.monotonic()`` instant)
    and is killed to cancel it — is respawned, its ledger reset, and
    every record it owed is re-sent bit-identically (the seeds travel
    with the work) through the install planner, up to ``max_retries``
    times with bounded backoff.  Expired entries fail as
    ``kind="deadline"`` :class:`~repro.exceptions.RequestFailure`\\ s.  A
    record past its retry budget takes its own exhaustion path — chunk
    entries fail as ``kind="worker_crash"``, a stage shard runs in the
    parent through the caller's ``fallback`` — and the pool goes
    ``healthy = False`` so callers can route around it.  Only *protocol*
    errors (a live worker replying with a message-level error, i.e. a
    bug rather than a crash) are terminal: the pool closes itself and
    raises.

    Accounting is lifetime-only: :meth:`counters` snapshots the totals
    and each consumer diffs two snapshots around its own dispatch.
    """

    def __init__(
        self,
        workers: int,
        resident_graphs: int = DEFAULT_RESIDENT_GRAPHS,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries
        self._ledgers = [
            ResidencyLedger(resident_graphs) for _ in range(workers)
        ]
        #: Solve id whose spec each worker holds (``None`` after a
        #: respawn: the fresh worker has no stage state).
        self._solve_ids: "list[Optional[int]]" = [None] * workers
        #: Records awaiting replies, per worker, in send order.  Setup
        #: records (installs, patches, specs) are ``{"kind": "setup"}``;
        #: chunk and stage records carry everything recovery needs to
        #: re-send them (entries with their seeds, the graphs and spec
        #: they reference, the retry count, the exhaustion hooks).
        self._inflight: "list[deque]" = [deque() for _ in range(workers)]
        #: Messages sent per worker slot (1-based; monotone across
        #: respawns, so a fault plan can name any point in the session).
        self._sends = [0] * workers
        #: Shipped chunks awaiting :meth:`collect`, in shipping order.
        self._chunks: "list[tuple[int, dict]]" = []
        #: Test-only :class:`~repro.parallel.faults.FaultPlan` hook,
        #: consulted wherever a message is sent or a reply received.
        self.fault_plan = None
        #: Sticky health flag: cleared when a record exhausts its retry
        #: budget.  Callers should route around an unhealthy pool
        #: (``ExecutionContext`` degrades the remainder to serial).
        self.healthy = True
        #: Lifetime totals (see :meth:`counters`).
        self.worker_restarts = 0
        self.retries = 0
        self.fallback_shards = 0
        self.deadline_missed = 0
        self.payload_bytes = 0
        self.patch_bytes = 0
        self._mp = multiprocessing.get_context()
        self._procs = []
        self._conns = []
        self._closed = False
        for _ in range(workers):
            proc, conn = self._spawn()
            self._procs.append(proc)
            self._conns.append(conn)

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return len(self._procs)

    @property
    def installs(self) -> int:
        """Total (graph, worker) installs performed over the session."""
        return sum(ledger.installs for ledger in self._ledgers)

    def resident_tokens(self, worker: int) -> tuple:
        """Tokens resident in ``worker`` (least recently used first)."""
        return self._ledgers[worker].resident_tokens()

    @property
    def resident_token(self) -> Optional[str]:
        """Most recently used graph token resident in worker 0."""
        return self._ledgers[0].most_recent()

    def counters(self) -> Counter:
        """Lifetime totals; diff two snapshots to account one dispatch.

        ``installs`` counts (graph, worker) installs, ``payload_bytes``
        every pickled byte sent (installs, patches, specs, work),
        ``patch_bytes`` the sparse ``graph_patch`` share of it,
        ``retries`` re-sent chunks and shards, ``fallback_shards`` shards
        run in the parent after exhausting their retries, and
        ``deadline_missed`` chunk entries cancelled by their deadline.
        """
        return Counter(
            installs=self.installs,
            payload_bytes=self.payload_bytes,
            patch_bytes=self.patch_bytes,
            worker_restarts=self.worker_restarts,
            retries=self.retries,
            fallback_shards=self.fallback_shards,
            deadline_missed=self.deadline_missed,
        )

    # ------------------------------------------------------------------
    # Chunks
    # ------------------------------------------------------------------
    def ship(self, worker: int, entries: "list[dict]", graphs: dict) -> None:
        """Send one chunk of whole-solve entries to ``worker``.

        ``entries`` is a list of entry dicts (``index`` / ``problem`` /
        ``solver`` registry name / ``kwargs`` / ``seed``, plus an
        optional ``deadline`` — an absolute ``time.monotonic()``
        instant); an entry whose ``problem`` is a payload-spec dict
        references ``graphs[token]`` — the detached compiled arrays —
        which are installed first *only* where the worker's ledger says
        they are missing.  Replies are deferred: call :meth:`collect`
        after every chunk of the batch has been shipped.
        """
        entries = list(entries)
        record = {
            "kind": "chunk",
            "entries": entries,
            "graphs": {
                entry["problem"]["token"]: graphs[entry["problem"]["token"]]
                for entry in entries
                if isinstance(entry["problem"], dict)
            },
            "retries": 0,
            "deadline": _entries_deadline(entries),
            "outcomes": [],
            "done": False,
        }
        self._dispatch(worker, record)
        self._chunks.append((worker, record))

    def collect(self) -> "list[list]":
        """Settle every shipped chunk; one outcome list per chunk, in
        shipping order.

        Per-request solve failures come back inside the outcomes as
        ``("error", index, failure)``, where ``failure`` is the
        worker-side traceback string or — for a crash that exhausted its
        retries or an expired deadline — a structured
        :class:`~repro.exceptions.RequestFailure`.
        """
        chunks, self._chunks = self._chunks, []
        for worker, record in chunks:
            self._await(worker, record)
        return [record["outcomes"] for _, record in chunks]

    # ------------------------------------------------------------------
    # Stage shards
    # ------------------------------------------------------------------
    def ensure_resident(self, problem) -> bool:
        """Install ``problem``'s frozen graph in every worker lacking it.

        Returns ``True`` when full graph arrays were shipped, ``False``
        when every worker already held this freeze (re-plans, repeated
        solves) — including when stale-but-resident copies were brought
        current with sparse ``graph_patch`` messages (a patch is not an
        install).  Replies are settled by the next wait on each worker.
        """
        if self._closed:
            raise RuntimeError("resident pool is closed")
        installs = self.installs
        graphs = {problem.payload_token(): problem.compiled().detach()}
        pickles: dict = {}
        for worker in range(self.workers):
            self._plan_installs(worker, graphs, pickles=pickles)
        return self.installs > installs

    def start_solve(self, spec: dict) -> None:
        """Set up per-solve worker state (problem spec, CE mirrors)."""
        data = pickle.dumps(("solve", spec))
        for worker in range(self.workers):
            self._send(worker, data, {"kind": "setup"})
            self._solve_ids[worker] = spec["solve_id"]

    def run_stage(
        self,
        spec: dict,
        graphs: dict,
        worker_entries: "list[list[dict]]",
        rebuild,
        fallback,
    ):
        """Execute one stage: ``worker_entries[w]`` goes to worker ``w``.

        Returns, per worker, the list of :class:`~repro.algorithms.
        sampling.ShardSummary` results aligned with that worker's
        entries.  ``spec`` and ``graphs`` (token → detached compiled
        graph) are the solve's; the install planner re-sends either to a
        worker that lost them.  Before a crashed shard is re-sent,
        ``rebuild(worker, entries)`` refreshes it (the rebuilt CE mirrors
        need the full sync-patch history); a shard past its retry budget
        runs in the parent as ``fallback(worker, entries)``.
        """
        if len(worker_entries) != self.workers:
            raise ValueError(
                f"expected entries for {self.workers} workers, "
                f"got {len(worker_entries)}"
            )
        records = [
            {
                "kind": "stage",
                "spec": spec,
                "graphs": graphs,
                "entries": entries,
                "rebuild": rebuild,
                "fallback": fallback,
                "retries": 0,
                "done": False,
            }
            for entries in worker_entries
        ]
        for worker, record in enumerate(records):
            self._dispatch(worker, record)
        for worker, record in enumerate(records):
            self._await(worker, record)
        return [record["reply"] for record in records]

    # ------------------------------------------------------------------
    # Dispatch: the install planner and the one send path
    # ------------------------------------------------------------------
    def _plan_installs(
        self,
        worker: int,
        graphs: dict,
        spec: "Optional[dict]" = None,
        pickles: "Optional[dict]" = None,
    ) -> None:
        """Send ``worker`` whatever of ``graphs`` and ``spec`` it lacks.

        Per graph (payload token → detached compiled graph), its ledger
        resolves a full install, a sparse generation patch, or nothing
        (:func:`~repro.parallel.residency.plan_graph_message`; on-disk
        indexes install as their manifest path — O(1) bytes at any size);
        then ``spec`` follows unless the worker already holds that solve.
        Chunk shipping, stage set-up and crash recovery all come through
        here, so a respawned worker (reset ledger, no solve id) gets
        exactly what its next record needs.  Every token in ``graphs`` is
        pinned against eviction: the installs all travel ahead of the
        work, so a later install must never displace arrays an earlier
        one delivered.  ``pickles`` lets a caller installing one graph on
        several workers pickle it once.
        """
        ledger = self._ledgers[worker]
        for token, graph in graphs.items():
            ship, evictions = ledger.plan(token, pinned=graphs)
            message, kind = plan_graph_message(
                ledger, token, graph, ship, evictions, lambda: graph
            )
            if message is None:
                continue
            if kind == "install" and pickles is not None:
                # Identical installs share one pickle, keyed by the
                # eviction list (the only per-worker part).
                key = (token, message[3])
                if key not in pickles:
                    pickles[key] = pickle.dumps(message)
                data = pickles[key]
            else:
                data = pickle.dumps(message)
            if kind == "patch":
                self.patch_bytes += len(data)
            self._send(worker, data, {"kind": "setup"})
        if spec is not None and self._solve_ids[worker] != spec["solve_id"]:
            data = pickle.dumps(("solve", spec))
            self._send(worker, data, {"kind": "setup"})
            self._solve_ids[worker] = spec["solve_id"]

    def _dispatch(self, worker: int, record: dict) -> None:
        """Send a chunk or stage record, preceded by what it needs."""
        if record["kind"] == "chunk":
            self._plan_installs(worker, record["graphs"])
            message = ("chunk", record["entries"])
        else:
            spec = record["spec"]
            self._plan_installs(worker, record["graphs"], spec)
            message = ("stage", spec["solve_id"], record["entries"])
        self._send(worker, pickle.dumps(message), record)

    def _send(self, worker: int, data: bytes, record: dict) -> None:
        """Send one pickled message; ``record`` awaits its reply in order.

        Never raises on a dead worker: a send into its pipe either lands
        in the OS buffer or fails outright, both leave the same state —
        no reply will ever come — and the crash surfaces at the next
        :meth:`_recv`'s liveness check, keeping one recovery path.
        """
        if self._closed:
            raise RuntimeError("resident pool is closed")
        self._sends[worker] += 1
        record["seq"] = self._sends[worker]
        plan = self.fault_plan
        if plan is not None and plan.kill_before_send(worker, record["seq"]):
            self._procs[worker].kill()
            self._procs[worker].join(timeout=5.0)
        self._inflight[worker].append(record)
        self.payload_bytes += len(data)
        try:
            self._conns[worker].send_bytes(data)
        except (BrokenPipeError, OSError):
            pass

    # ------------------------------------------------------------------
    # Replies and recovery
    # ------------------------------------------------------------------
    def _await(self, worker: int, record: dict) -> None:
        """Settle ``worker``'s replies in send order until ``record`` is
        settled; a dead or deadline-cancelled worker is recovered."""
        if self._closed and not record["done"]:
            raise RuntimeError("resident pool is closed")
        queue = self._inflight[worker]
        while not record["done"]:
            try:
                status, payload = self._recv(worker)
            except WorkerCrashError:
                self._recover(worker, expired=False)
                continue
            except DeadlineExpiredError:
                self._recover(worker, expired=True)
                continue
            head = queue.popleft()
            if status == "error":
                self._fail(
                    f"pool worker {worker} replied with a protocol error; "
                    f"the pool has been closed:\n{payload}"
                )
            if head["kind"] == "chunk":
                head["outcomes"].extend(payload)
            else:
                head["reply"] = payload
            head["done"] = True

    def _recv(self, worker: int):
        """Wait for ``worker``'s next reply with liveness and deadline.

        Raises :class:`~repro.exceptions.WorkerCrashError` when the
        process is dead with no buffered reply, and
        :class:`~repro.exceptions.DeadlineExpiredError` when the earliest
        deadline among the worker's in-flight chunks passes first.  A
        reply that is already available is delivered even at or past the
        deadline — the work is done; only a *missing* reply expires.
        """
        conn = self._conns[worker]
        queue = self._inflight[worker]
        deadline = min(
            (r["deadline"] for r in queue if r.get("deadline") is not None),
            default=None,
        )
        disposition = None
        if self.fault_plan is not None:
            disposition = self.fault_plan.reply_disposition(
                worker, queue[0]["seq"]
            )
        held = None
        hold_until = 0.0
        while True:
            ready = held is None and conn.poll(0)
            if not ready:
                now = time.monotonic()
                if held is not None and now >= hold_until:
                    return held
                if deadline is not None and now >= deadline:
                    raise DeadlineExpiredError(worker)
                if held is None:
                    if not self._procs[worker].is_alive() and not conn.poll(0):
                        raise WorkerCrashError(worker)
                    if not conn.poll(0.02):
                        continue
                else:
                    time.sleep(min(0.02, hold_until - now))
                    continue
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                raise WorkerCrashError(worker) from None
            if disposition == "drop":
                # Injected reply loss: the message is gone; the wait
                # continues (and starves into its deadline, if any).
                disposition = None
                continue
            if disposition is not None:
                # Injected delay: hold the reply, then deliver — unless
                # the deadline fires first, in which case the dispatch
                # is cancelled exactly as with a genuinely late worker.
                held = reply
                hold_until = time.monotonic() + float(disposition)
                disposition = None
                continue
            return reply

    def _recover(self, worker: int, expired: bool) -> None:
        """Respawn ``worker`` and re-send (or settle) every record it owed.

        The one recovery path for both dispatch shapes.  ``expired``
        distinguishes a deadline cancellation (the worker may still be
        alive, wedged past an entry's deadline — the respawn kills it)
        from a crash.  Setup records are dropped: re-sending a record
        goes through the install planner, which ships whatever graphs
        and spec that record needs to the fresh, empty worker.
        """
        records = list(self._inflight[worker])
        self._respawn(worker)
        now = time.monotonic()
        for record in records:
            if record["kind"] == "setup":
                continue
            if record["kind"] == "chunk":
                live = []
                for entry in record["entries"]:
                    deadline = entry.get("deadline")
                    if expired and deadline is not None and now >= deadline:
                        self.deadline_missed += 1
                        self._fail_entry(
                            record,
                            entry,
                            "deadline",
                            f"request deadline expired mid-dispatch "
                            f"(worker {worker}); the dispatch was cancelled",
                        )
                    else:
                        live.append(entry)
                record["entries"] = live
                record["deadline"] = _entries_deadline(live)
                if not live:
                    record["done"] = True
                    continue
            if record["retries"] >= self.max_retries:
                self.healthy = False
                if record["kind"] == "chunk":
                    for entry in record["entries"]:
                        self._fail_entry(
                            record,
                            entry,
                            "worker_crash",
                            f"pool worker died mid-dispatch and the retry "
                            f"budget is exhausted ({record['retries']} of "
                            f"{self.max_retries} retries used)",
                        )
                else:
                    self.fallback_shards += 1
                    record["reply"] = record["fallback"](
                        worker, record["entries"]
                    )
                record["done"] = True
                continue
            record["retries"] += 1
            self.retries += 1
            # Bounded backoff: enough to let a transient cause (memory
            # pressure, a dying sibling) clear, never enough to wedge.
            time.sleep(min(0.01 * (2 ** (record["retries"] - 1)), 0.1))
            if record["kind"] == "stage":
                record["entries"] = record["rebuild"](
                    worker, record["entries"]
                )
            self._dispatch(worker, record)

    @staticmethod
    def _fail_entry(record: dict, entry: dict, kind: str, message: str):
        record["outcomes"].append(
            (
                "error",
                entry["index"],
                RequestFailure(
                    message,
                    kind=kind,
                    retries=record["retries"],
                    index=entry["index"],
                ),
            )
        )

    def _respawn(self, worker: int) -> None:
        """Replace ``worker``'s process with a fresh one holding nothing.

        Used both for dead workers and as the cancellation path for an
        expired deadline (the only way to cancel a dispatch already
        executing in a worker is to kill it).  The old process is killed
        and joined (no zombies) and the worker's mirrors are forgotten:
        the fresh :class:`ResidentGraphStore` is empty, so the reset
        ledger answers "ship" for every token the next record needs.
        """
        old = self._procs[worker]
        if old.is_alive():
            old.kill()
        old.join(timeout=5.0)
        try:
            self._conns[worker].close()
        except OSError:  # pragma: no cover - already broken
            pass
        self._procs[worker], self._conns[worker] = self._spawn()
        self._inflight[worker].clear()
        self._ledgers[worker].reset()
        self._solve_ids[worker] = None
        self.worker_restarts += 1

    def _spawn(self):
        parent_conn, child_conn = self._mp.Pipe()
        proc = self._mp.Process(
            target=_solve_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _fail(self, reason: str) -> None:
        """Tear the pool down after a protocol-level failure and raise."""
        self.close()
        raise RuntimeError(reason)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down (idempotent, hang-free).

        Dead or wedged workers must never block shutdown: the graceful
        ``("close",)`` send is best-effort, the join budget is shared
        across all workers rather than paid per process, and stragglers
        are escalated terminate → kill.  Safe to call any number of
        times, including when every worker already crashed.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError, ValueError):
                pass
        deadline = time.monotonic() + 2.0
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        deadline = time.monotonic() + 2.0
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.join(timeout=max(0.05, deadline - time.monotonic()))
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "ResidentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"ResidentPool(workers={self.workers}, {state})"


# perfbench/tracing.py looks up ship/collect under this name.
ResidentSolvePool = ResidentPool
