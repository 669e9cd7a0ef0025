"""Parallel execution of the randomized solvers (paper Fig. 5(d)).

One parallel path per request shape — chunks for a batch, stage shards
for one large solve — both process-based (CPython's GIL rules out the
paper's OpenMP threads) and both on **one resident worker pool**,
:class:`ResidentPool`: W persistent processes that cache detached
:class:`~repro.graph.compiled.CompiledGraph` arrays keyed by
:attr:`~repro.graph.compiled.CompiledGraph.payload_token`, so a serving
session ships each frozen graph at most once per (graph, worker) pair —
whichever mode uses it; follow-up solves, batches, and online
re-planning rounds send only the O(1) problem spec plus seeds and
budgets.  The protocol (generation-tagged payloads, parent-driven LRU
eviction for long sessions over many graphs, uniform
``SolveStats.extra`` shipping accounting) lives in one place:
:mod:`repro.parallel.residency`.

Resident graphs are *mutable in place*: :meth:`~repro.graph.compiled.
CompiledGraph.apply_deltas` patches the frozen CSR arrays and bumps the
graph's generation, and the wire protocol ships warm workers a sparse
``("graph_patch", token, gen, batches)`` record — the O(|delta|) tail
of the graph's bounded delta log — instead of a full re-install
(:func:`~repro.parallel.residency.plan_graph_message` decides which;
:func:`~repro.parallel.residency.apply_graph_patch` replays it
worker-side).  Workers behind a compacted log, path-installed (mmap)
graphs, and freshly respawned workers all demote to a full install at
the current generation, and every problem spec carries the generation
it was built against — patching is an optimisation, never a
correctness hazard (``tests/test_graph_deltas.py`` holds patched
residents bit-identical to a full refreeze of the mutated source).

* **A batch of solves → chunks** (``mode="solve"``; :mod:`repro.
  parallel.pool`, :meth:`ResidentPool.ship` / :meth:`ResidentPool.
  collect`): ``solve_many`` multiplexes many independent requests onto
  the pool, each one a full-strength serial solve inside one worker.
  A single solve has nothing to multiplex, so ``mode="solve"`` on one
  solve runs it serially in the parent.
* **One large solve → stage shards** (``mode="stage"``; :mod:`repro.
  parallel.stage_pool`, :class:`ShardedStageExecutor` over
  :meth:`ResidentPool.run_stage`): the draws *inside* each
  CBAS/CBAS-ND stage are sharded across the pool and merged at stage
  boundaries, so every Eq. (4) refit sees the *full* elite set —
  exactly the paper's OpenMP loop.

Both shapes share each worker's reply stream: every message is matched
to its reply by send order, so a batch can mix them — chunks in flight
while a stage-routed solve runs — without either waiter consuming the
other's reply.

Which mode when?  That decision lives in the runtime layer: the cost
model in :mod:`repro.runtime.router` resolves ``mode="auto"`` per
request (``choose_mode`` — thresholds recalibrated for the resident
wire protocol), and :class:`~repro.runtime.context.ExecutionContext`
owns the pool's lifecycle and is the only place a solve's stage
strategy is picked (``ExecutionContext(executor=...)`` pins one).  The
modes compose with everything else (engines, warm starts); residency
requires ``engine="compiled"`` because workers hold only the detached
flat arrays — reference-engine solvers fall back to shipping the dict
graph per task.

Fault tolerance
---------------
The pool is *self-healing* — built for the long-lived serving sessions
the runtime layer targets, where a worker OOM or segfault must not take
down the process — through one recovery path for both modes:

* **Supervision** — every reply wait polls worker liveness, so a dead
  worker surfaces as a typed crash instead of a hung ``recv``.  The
  worker is respawned and its residency ledger reset (the fresh process
  holds nothing; the payload-token generation tags make re-shipping
  exactly as cheap as it needs to be).
* **Deterministic retry** — every record the dead worker owed (a chunk,
  a stage shard) is re-sent through the same install planner as a first
  dispatch, which re-ships whatever graphs and solve spec it needs, up
  to ``max_retries`` times with bounded backoff.  Every dispatch
  carries its explicit seeds, so a retried dispatch is
  **bit-identical** to the original: crash recovery is provably
  invisible in results (the chaos suite, ``tests/test_faults.py``,
  asserts equality against fault-free runs at every dispatch position).
* **Deadlines** — a :class:`~repro.runtime.requests.SolveRequest` with
  ``deadline_s`` bounds its wall-clock: an RPC wait that outlives the
  deadline cancels the dispatch (the worker is killed and respawned)
  and the request fails cleanly into
  :class:`~repro.exceptions.BatchExecutionError` with a
  ``kind="deadline"`` :class:`~repro.exceptions.RequestFailure` — the
  rest of the batch is unaffected, and a reply that already arrived is
  always delivered.
* **Graceful degradation** — one path for both shapes: a record past
  its retry budget is finished by the pool in the parent, through the
  code a worker runs and from the same seeds (still bit-identical).  A
  chunk's entries run through the worker's own entry runner over the
  record's graphs; a stage shard runs through the stage executor's
  fallback.  The pool goes ``healthy = False``, which is what
  :attr:`~repro.runtime.context.ExecutionContext.degraded` reports, and
  the router sends subsequent work serial until the pool is discarded.
* **Accounting** — recovery events surface uniformly in
  ``SolveStats.extra`` via :func:`~repro.parallel.residency.
  record_recovery`: ``worker_restarts``, ``chunk_retries``,
  ``degraded_to_serial`` (chunk requests and stage shards finished in
  the parent), ``deadline_missed`` — written only when non-zero, so
  fault-free stats are byte-identical to pre-supervision builds.  A
  result reports only its own records: its chunk, or its stage shards.
* **Fault injection** — :class:`~repro.parallel.faults.FaultPlan`
  (test-only, via the pool's ``fault_plan`` attribute) deterministically
  kills a worker before its Nth RPC, drops a reply, or delays one past
  a deadline, so recovery behaviour is asserted exactly rather than
  observed anecdotally.  The same plans target the serving daemon
  (:mod:`repro.serving`): ``stalls`` hold its dispatch loop to force
  deterministic overload, and :class:`~repro.parallel.faults.
  ArrivalScript` replays seeded open-loop arrival schedules against it.
"""

from repro.parallel.faults import NEXT_RPC, ArrivalScript, FaultPlan
from repro.parallel.pool import ResidentPool, split_budget, worker_payload_bytes
from repro.parallel.residency import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_RESIDENT_GRAPHS,
    ResidencyLedger,
    ResidentGraphStore,
    apply_graph_patch,
    plan_graph_message,
    record_recovery,
    record_shipping,
)
from repro.parallel.stage_pool import ShardedStageExecutor

__all__ = [
    "ArrivalScript",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_RESIDENT_GRAPHS",
    "FaultPlan",
    "NEXT_RPC",
    "ResidencyLedger",
    "ResidentGraphStore",
    "ResidentPool",
    "ShardedStageExecutor",
    "apply_graph_patch",
    "plan_graph_message",
    "record_recovery",
    "record_shipping",
    "split_budget",
    "worker_payload_bytes",
]
