"""The overload-safe serving daemon: WASO planning as a *process*.

``ExecutionContext.solve_many`` is a batch call; a production system for
millions of users is a long-lived process that strangers throw traffic
at.  :class:`ServingDaemon` is that process, built entirely from the
stdlib ``asyncio`` server on top of the self-healing runtime:

* **wire protocol** — newline-delimited JSON over TCP.  Each request
  line is a ``solve-many`` spec (see :func:`~repro.runtime.requests.
  request_from_spec`) plus the daemon-level keys ``id`` (echoed on the
  reply; defaults to the line number), ``tenant`` (which registered
  graph to plan over), and ``slo_s`` (latency objective; the daemon
  picks the budget — see below).  Replies stream back *in completion
  order*, tagged with the request's ``id``, one JSON object per line.
  A line with ``"kind": "mutate"`` carries no solve spec but a
  ``deltas`` list (``["add_node", ...]`` / ``["add_edge", ...]`` /
  ``["set_tightness", ...]`` / ``["remove_edge", ...]`` records, see
  :meth:`~repro.graph.compiled.CompiledGraph.apply_deltas`): the
  tenant's graph is patched **once none of its solves is in flight** —
  a per-tenant barrier: while its mutations wait, that tenant's queued
  solves are held (and then see the mutation), other tenants keep
  flowing, and the tenant's queued mutations apply together in arrival
  order in one worker-thread hop.  The barrier keeps every record in
  flight on one graph generation, so a record re-sent after a worker
  crash runs on the arrays it shipped against.  Because the patch
  preserves the payload token and bumps the index generation, warm
  pool workers are refreshed by a sparse ``graph_patch`` record ahead
  of the tenant's next solve instead of a full re-install.  The same
  port answers plain HTTP ``GET /healthz`` / ``/readyz`` /
  ``/metrics`` for probes.

* **admission control** (:mod:`repro.serving.admission`) — a bounded
  queue with typed ``kind="shed"`` / ``kind="queue_timeout"``
  rejections, per-tenant in-flight limits, and dispatch-boundary
  deadline sweeps.  Backpressure is explicit and immediate: the daemon
  never buffers beyond its bound, never leaves a connection hanging
  without a reply, and which requests are shed under a fixed arrival
  script is deterministic.

* **SLO-inverted routing** (:mod:`repro.serving.slo`) — a request may
  carry ``slo_s`` instead of ``budget``: the daemon buys the largest
  budget its online-calibrated work-rate model predicts will fit the
  SLO, and stamps the whole contract (``slo_s`` / ``slo_budget`` /
  ``slo_promised_s`` / ``slo_achieved_s``) into the reply's ``extra``.
  Every completed solve — SLO-routed or not — feeds the calibration.

* **continuous dispatch** — one loop owns the context (it is not
  thread-safe; every call runs on a worker thread, one at a time).
  Whenever a pool worker has a free slot (at most
  :data:`~repro.parallel.pool.MAX_INFLIGHT_PER_WORKER` requests each)
  it takes admitted requests — one *dispatch round* — and submits each
  to the least-loaded worker (``context.submit``); each reply settles
  its request the moment it arrives (``context.settle_any``).  While
  the pool is healthy in ``auto`` mode the parent process runs no
  chunk-shaped solve: it does I/O, admission and scheduling, and
  drives the shards of stage-routed solves.  Each graph's arrays ship
  to each pool worker at most once per session, however many tenants
  multiplex over it and whichever parallel mode serves them.

* **self-healing + graceful degradation** — worker crashes, retries,
  and deadlines are the runtime's problem (PR 6) and stay invisible in
  results; if the pool exhausts its retry budget the context degrades to
  in-parent serial and the daemon *keeps serving* (slower, alive),
  reporting ``"degraded"`` on ``/healthz``.

* **graceful lifecycle** — :meth:`ServingDaemon.shutdown` stops
  accepting, sheds new arrivals, drains the queue (every admitted
  request gets its reply), flushes connections, and tears down the
  pool — no orphan processes, no hung clients.

Chaos plans (:class:`~repro.parallel.faults.FaultPlan`) target the
daemon end to end: worker kills/drops/delays are installed on the
context's pool and fire underneath served requests — chunk-routed and
stage-routed alike — and queue ``stalls`` hold the dispatch loop before
a round to force deterministic shed/timeout scenarios —
the chaos suite in ``tests/test_serving.py`` proves seeded results
served through the daemon are bit-identical to direct ``solve_many``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
import weakref
from collections import deque
from typing import Optional

from repro.exceptions import ReproError, RequestFailure
from repro.graph.io import resolve_graph_source
from repro.graph.social_graph import SocialGraph
from repro.parallel.pool import MAX_INFLIGHT_PER_WORKER
from repro.runtime import ExecutionContext, request_from_spec, valid_spec_keys
from repro.serving.admission import AdmissionController, PendingRequest
from repro.serving.slo import LatencyCalibrator

__all__ = ["ServingDaemon", "run_daemon"]

#: Spec keys consumed by the daemon before the runtime sees the spec.
_DAEMON_KEYS = ("id", "tenant", "slo_s")

#: Longest request line (bytes, newline excluded) the daemon buffers.
#: A longer line is answered with one ``kind="too_large"`` reply and
#: discarded through its newline; the connection keeps serving.
MAX_LINE_BYTES = 64 * 1024


def _json_line(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


#: Daemons with live sockets, so forked pool workers can disown them.
#:
#: The resident pool forks its workers *while the daemon is serving*
#: — lazily on the first pool-routed batch, and again on every
#: crash-respawn — and a forked child inherits every open file
#: descriptor, including the listening socket and the live client
#: connections.  A kernel socket stays open until the *last* process
#: holding it closes, so an inherited connection fd means the daemon's
#: ``close()`` never reaches the client as EOF while a pool worker is
#: alive.  The ``os.register_at_fork`` hook below closes the daemon's
#: tracked fds in every forked child, restoring single-owner semantics.
_LIVE_DAEMONS: "weakref.WeakSet[ServingDaemon]" = weakref.WeakSet()
_AT_FORK_INSTALLED = False


def _disown_daemon_sockets() -> None:
    """Close (in a forked child) every live daemon's socket fds."""
    for daemon in list(_LIVE_DAEMONS):
        for fd in list(daemon._tracked_fds):
            try:
                os.close(fd)
            except OSError:
                pass


def _install_at_fork_guard() -> None:
    global _AT_FORK_INSTALLED
    if not _AT_FORK_INSTALLED:
        os.register_at_fork(after_in_child=_disown_daemon_sockets)
        _AT_FORK_INSTALLED = True


class _InvalidRequest(ValueError):
    """A request line the daemon rejects before admission."""


async def _read_line(reader) -> "bytes | None":
    """The next line from ``reader`` (``b""`` at EOF), or ``None`` when
    it overran the stream's limit.

    An oversized line is discarded through its newline (or EOF), so the
    next call resynchronizes on the line after it.  ``readuntil`` leaves
    an overrunning chunk buffered and reports how many bytes precede the
    newline (or, without one, how many are buffered): drop those, then
    read on.
    """
    oversized = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as error:
            line = error.partial
        except asyncio.LimitOverrunError as error:
            await reader.readexactly(error.consumed)
            oversized = True
            continue
        return None if oversized else line


class ServingDaemon:
    """Overload-safe asyncio serving daemon over an execution context.

    Parameters
    ----------
    graphs:
        One :class:`~repro.graph.social_graph.SocialGraph` (registered
        as tenant ``"default"``) or a mapping of tenant name → graph.
        Either form also accepts a *path* in place of a graph object: a
        saved frozen-index directory (mmap-backed out-of-core serving)
        or a JSON graph file — see
        :func:`~repro.graph.io.resolve_graph_source`.
    engine / mode / workers / max_retries / cpu_count:
        Forwarded to the owned :class:`~repro.runtime.context.
        ExecutionContext` (ignored when ``context`` is given).
    context:
        Adopt a caller-owned context instead (acquired for the
        daemon's lifetime, released on shutdown, never closed here).
    max_queue / max_inflight_per_tenant / queue_timeout_s:
        Admission knobs (:class:`~repro.serving.admission.
        AdmissionController`).
    default_deadline_s:
        Deadline applied to requests that do not carry their own
        ``deadline_s``.
    calibrator:
        SLO work-rate model (a fresh default one when omitted).
    fault_plan:
        Test-only chaos hook — installed on the context's pool (worker
        kills/drops/delays) and consulted by the dispatch loop for
        queue stalls before each dispatch round.  Production code must
        never set it.
    """

    def __init__(
        self,
        graphs,
        engine: str = "compiled",
        mode: str = "auto",
        workers: Optional[int] = None,
        max_retries: Optional[int] = None,
        cpu_count: Optional[int] = None,
        context: Optional[ExecutionContext] = None,
        max_queue: int = 64,
        max_inflight_per_tenant: Optional[int] = None,
        queue_timeout_s: Optional[float] = None,
        default_deadline_s: Optional[float] = None,
        calibrator: Optional[LatencyCalibrator] = None,
        fault_plan=None,
    ) -> None:
        if isinstance(graphs, SocialGraph) or not hasattr(graphs, "items"):
            # One graph object — or one path to a saved frozen index /
            # JSON graph file — becomes the sole "default" tenant.
            graphs = {"default": graphs}
        if not graphs:
            raise ValueError("the daemon needs at least one tenant graph")
        # A tenant value may be a path: a saved compiled-graph index
        # directory (loaded mmap-backed, O(1) resident bytes here and
        # O(1) install bytes per worker) or a JSON graph file.  Typed
        # storage errors (unsupported version, corruption) surface at
        # construction — a misconfigured tenant must fail loudly, not
        # per request.
        self.graphs = {
            tenant: resolve_graph_source(graph)
            for tenant, graph in dict(graphs).items()
        }
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be positive, got {default_deadline_s}"
            )
        self.default_deadline_s = default_deadline_s
        self.admission = AdmissionController(
            max_queue=max_queue,
            max_inflight_per_tenant=max_inflight_per_tenant,
            queue_timeout_s=queue_timeout_s,
        )
        self.calibrator = calibrator or LatencyCalibrator()
        self.fault_plan = fault_plan
        if context is not None:
            self._context = context.acquire()
            self._owns_context = False
        else:
            self._context = ExecutionContext(
                engine=engine,
                mode=mode,
                workers=workers,
                max_retries=max_retries,
                cpu_count=cpu_count,
            )
            self._owns_context = True
        #: Daemon-level counters (admission keeps its own);
        #: ``batches`` counts dispatch rounds that took work.
        self.counters = {"invalid": 0, "batches": 0, "connections": 0}
        self._server: Optional[asyncio.base_events.Server] = None
        self._work = asyncio.Event()
        self._dispatcher: Optional[asyncio.Task] = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        #: ``kind="mutate"`` requests, in arrival order, waiting for
        #: their graph to have no solve in flight (the dispatch loop is
        #: the tenant graphs' only writer).
        self._mutations: "deque[PendingRequest]" = deque()
        #: Pool-routed solves awaiting their replies: ticket -> entry.
        self._inflight: dict = {}
        #: Requests the pool takes at once; rounds never take more.
        self._slots = MAX_INFLIGHT_PER_WORKER * max(
            1, self._context.effective_workers
        )
        #: Self-pipe that cuts a blocked wait for replies short when an
        #: arrival can be dispatched at once.
        self._wake_fds: "tuple[int, int] | None" = None
        self._settling = False
        self._draining = False
        self._started = False
        self._tracked_fds: "set[int]" = set()
        self.address: "tuple[str, int] | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def context(self) -> ExecutionContext:
        return self._context

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "tuple[str, int]":
        """Bind, warm the pool, and begin serving; returns the address."""
        if self._started:
            raise RuntimeError("daemon already started")
        # Forked pool workers must not inherit (and thereby hold open)
        # the daemon's sockets — see ``_LIVE_DAEMONS``.
        _install_at_fork_guard()
        _LIVE_DAEMONS.add(self)
        # Warm the pool before the first connection exists: a ready
        # daemon should answer its first request at full speed, not pay
        # the worker spawn on it, and forking before any client socket
        # is open keeps early workers free of inherited connections.
        if self._context.effective_workers > 1:
            pool = await asyncio.to_thread(self._context.pool)
            if self.fault_plan is not None:
                pool.fault_plan = self.fault_plan
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=host,
            port=port,
            limit=MAX_LINE_BYTES,
        )
        for sock in self._server.sockets:
            self._tracked_fds.add(sock.fileno())
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        self._wake_fds = os.pipe()
        for fd in self._wake_fds:
            os.set_blocking(fd, False)
        # No await since start_server: no connection has run yet.
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._started = True
        return self.address

    async def shutdown(self) -> None:
        """Drain and stop: every admitted request is answered first.

        Stops accepting (new arrivals on still-open connections shed
        with ``kind="shed"``), lets the dispatch loop finish the queue,
        flushes every connection's pending replies, then releases the
        context — closing the pool when the daemon owns it, so no
        worker processes outlive the daemon.
        """
        if not self._started:
            return
        self._draining = True
        # Untrack the listening fds before close() — the pool still
        # respawns workers during the drain, and the at-fork hook must
        # not close whatever the kernel recycles these numbers into.
        for sock in self._server.sockets:
            self._tracked_fds.discard(sock.fileno())
        self._server.close()
        await self._server.wait_closed()
        self._work.set()  # wake the dispatcher so it can observe draining
        if self._dispatcher is not None:
            await self._dispatcher
        for fd in self._wake_fds:
            os.close(fd)
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._owns_context:
            await asyncio.to_thread(self._context.close)
        else:
            await asyncio.to_thread(self._context.release)
        _LIVE_DAEMONS.discard(self)
        self._tracked_fds.clear()
        self._started = False

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.counters["connections"] += 1
        sock = writer.get_extra_info("socket")
        conn_fd = sock.fileno() if sock is not None else None
        if conn_fd is not None:
            self._tracked_fds.add(conn_fd)
        write_lock = asyncio.Lock()
        reply_tasks: "list[asyncio.Task]" = []
        try:
            first = await _read_line(reader)
            if first is not None and first.startswith((b"GET ", b"HEAD ")):
                await self._handle_http(first, reader, writer)
                return
            sequence = 0
            line = first
            while line != b"":
                if line is None:
                    # Oversized: its id is unreadable, so the reply is
                    # keyed by line number like any id-less request.
                    sequence += 1
                    self.counters["invalid"] += 1
                    await self._write(
                        writer,
                        write_lock,
                        self._error_payload(
                            sequence,
                            "too_large",
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        ),
                    )
                elif line.strip():
                    sequence += 1
                    await self._handle_line(
                        line.strip(), sequence, writer, write_lock, reply_tasks
                    )
                line = await _read_line(reader)
            # EOF: the client is done sending; flush every reply it is
            # still owed before closing our side.
            if reply_tasks:
                await asyncio.gather(*reply_tasks)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; admitted work still completes
        finally:
            for pending in reply_tasks:
                if not pending.done():
                    pending.cancel()
            # Untrack the fd *before* close(): the kernel may recycle
            # the fd number the instant the transport closes it, and a
            # concurrent pool fork must not close an unrelated file
            # that happens to reuse it.
            if conn_fd is not None:
                self._tracked_fds.discard(conn_fd)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._conn_tasks.discard(task)

    async def _handle_line(
        self, raw: bytes, sequence: int, writer, write_lock, reply_tasks
    ) -> None:
        """Parse, admit, and schedule the reply for one request line."""
        request_id: object = sequence
        try:
            spec = json.loads(raw)
            if not isinstance(spec, dict):
                raise _InvalidRequest("request line must be a JSON object")
            request_id = spec.get("id", sequence)
            if spec.get("kind") == "mutate":
                entry = self._admit_mutation(spec, request_id)
            else:
                entry = self._admit(spec, request_id)
        except _InvalidRequest as error:
            self.counters["invalid"] += 1
            await self._write(
                writer,
                write_lock,
                self._error_payload(request_id, "invalid", str(error)),
            )
            return
        except json.JSONDecodeError as error:
            self.counters["invalid"] += 1
            await self._write(
                writer,
                write_lock,
                self._error_payload(
                    request_id, "invalid", f"invalid JSON: {error}"
                ),
            )
            return
        if isinstance(entry, RequestFailure):
            # Typed admission rejection — written immediately, so the
            # client learns about shed load at arrival, not at drain.
            await self._write(
                writer,
                write_lock,
                self._error_payload(request_id, entry.kind, str(entry)),
            )
            return
        self._work.set()
        if self._settling and (
            id(self.graphs[entry.tenant]) not in self._busy_graphs()
            if spec.get("kind") == "mutate"
            else len(self._inflight) < self._slots
        ):
            # The dispatcher is blocked on replies, yet could act on
            # this arrival now: a free slot, or an idle graph to patch.
            try:
                os.write(self._wake_fds[1], b"\0")
            except BlockingIOError:
                pass  # a full pipe already wakes it

        async def _deliver() -> None:
            # Shield the future: it is shared with the dispatch loop,
            # and cancelling this delivery task (connection cleanup
            # after a client disconnect) must not cancel the admitted
            # work's result slot out from under the dispatcher.
            payload = await asyncio.shield(entry.future)
            await self._write(writer, write_lock, payload)

        reply_tasks.append(asyncio.create_task(_deliver()))

    def _admit(self, spec: dict, request_id):
        """Validate one spec and run admission; returns the pending
        entry, or the typed :class:`RequestFailure` rejection."""
        spec = dict(spec)
        spec.pop("id", None)
        tenant = spec.pop("tenant", "default")
        slo_s = spec.pop("slo_s", None)
        graph = self.graphs.get(tenant)
        if graph is None:
            raise _InvalidRequest(
                f"unknown tenant {tenant!r}; serving: {sorted(self.graphs)}"
            )
        if slo_s is not None:
            if (
                isinstance(slo_s, bool)
                or not isinstance(slo_s, (int, float))
                or slo_s <= 0
            ):
                raise _InvalidRequest(
                    f"slo_s must be a positive number, got {slo_s!r}"
                )
            if "budget" in spec:
                raise _InvalidRequest(
                    "slo_s and budget are mutually exclusive: the SLO "
                    "buys the budget"
                )
            try:
                accepted = valid_spec_keys(spec.get("solver", "cbas-nd"))
            except ValueError as error:  # unknown solver name
                raise _InvalidRequest(str(error)) from None
            if "budget" not in accepted:
                raise _InvalidRequest(
                    f"solver {spec.get('solver')!r} takes no budget; "
                    "slo_s needs a budgeted solver"
                )
            # Placeholder budget so the spec validates fully at the
            # front door; the dispatch loop replaces it with the
            # SLO-planned budget against fresh calibration.
            spec["budget"] = self.calibrator.min_budget
        try:
            request = request_from_spec(graph, spec)
        except (TypeError, ValueError, ReproError) as error:
            raise _InvalidRequest(str(error)) from None
        now = time.monotonic()
        deadline_s = request.deadline_s
        if deadline_s is None and self.default_deadline_s is not None:
            deadline_s = self.default_deadline_s
        entry = PendingRequest(
            id=request_id,
            tenant=tenant,
            spec=spec,
            future=asyncio.get_running_loop().create_future(),
            arrived_at=now,
            deadline_at=now + deadline_s if deadline_s is not None else None,
            slo_s=float(slo_s) if slo_s is not None else None,
        )
        entry.extra["request"] = request
        rejection = self.admission.admit(entry, draining=self._draining)
        return rejection if rejection is not None else entry

    def _admit_mutation(self, spec: dict, request_id):
        """Validate one ``kind="mutate"`` line and queue it until its
        graph has no solve in flight; returns the pending entry or a
        typed rejection (draining daemons shed mutations like solves)."""
        spec = dict(spec)
        spec.pop("id", None)
        spec.pop("kind", None)
        tenant = spec.pop("tenant", "default")
        if tenant not in self.graphs:
            raise _InvalidRequest(
                f"unknown tenant {tenant!r}; serving: {sorted(self.graphs)}"
            )
        deltas = spec.pop("deltas", None)
        if spec:
            raise _InvalidRequest(
                f"unexpected mutate keys: {sorted(spec)}; a mutate line "
                'takes only "id", "tenant" and "deltas"'
            )
        if (
            not isinstance(deltas, list)
            or not deltas
            or not all(
                isinstance(op, (list, tuple)) and op and isinstance(op[0], str)
                for op in deltas
            )
        ):
            raise _InvalidRequest(
                'mutate needs "deltas": a non-empty list of '
                '["op", node(s), weight(s)...] records'
            )
        if self._draining:
            return RequestFailure("daemon is draining", kind="shed")
        entry = PendingRequest(
            id=request_id,
            tenant=tenant,
            spec={"deltas": [tuple(op) for op in deltas]},
            future=asyncio.get_running_loop().create_future(),
            arrived_at=time.monotonic(),
        )
        self._mutations.append(entry)
        return entry

    @staticmethod
    async def _write(writer, write_lock, payload: dict) -> None:
        async with write_lock:
            writer.write(_json_line(payload))
            await writer.drain()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Apply ready mutations, fill free slots, settle replies."""
        while True:
            ready = self._ready_mutations()
            if ready:
                payloads = await asyncio.to_thread(
                    self._apply_mutations, ready
                )
                for entry, payload in zip(ready, payloads):
                    self._settle_future(entry, payload)
                continue
            free = len(self._inflight) < self._slots
            if free and self.admission.dispatchable(self._held_tenants()):
                await self._dispatch_round()
                continue
            if self._inflight:
                await self._hop(lambda: ({}, self._settle_next()))
                continue
            idle = not (self.admission.depth or self._mutations)
            if self._draining and idle:
                return
            await self._work.wait()
            self._work.clear()

    def _busy_graphs(self) -> "set[int]":
        """``id`` of each tenant graph with a solve in flight (tenants
        registered over one graph object share its barrier)."""
        return {id(self.graphs[e.tenant]) for e in self._inflight.values()}

    def _ready_mutations(self) -> "list[PendingRequest]":
        """Dequeue the mutations whose graph has no solve in flight."""
        busy = self._busy_graphs()
        ready, waiting = [], deque()
        for entry in self._mutations:
            graph = id(self.graphs[entry.tenant])
            (waiting if graph in busy else ready).append(entry)
        self._mutations = waiting
        return ready

    def _held_tenants(self) -> "set[str]":
        """Tenants whose graph has a mutation waiting: their solves wait
        behind it, so they see it."""
        pending = {id(self.graphs[entry.tenant]) for entry in self._mutations}
        return {t for t, graph in self.graphs.items() if id(graph) in pending}

    async def _dispatch_round(self) -> None:
        """Take admitted requests into the free slots and submit them."""
        if self.fault_plan is not None:
            hold = self.fault_plan.queue_stall(self.counters["batches"] + 1)
            if hold:
                await asyncio.sleep(hold)
        batch, rejected = self.admission.take_batch(
            self._slots - len(self._inflight), held=self._held_tenants()
        )
        for entry, failure in rejected:
            self._settle_future(
                entry,
                self._error_payload(
                    entry.id,
                    failure.kind,
                    str(failure),
                    retries=failure.retries,
                ),
            )
        if batch:
            self.counters["batches"] += 1
            await self._hop(self._submit, batch)

    async def _hop(self, step, *args) -> None:
        """Run one dispatcher step on a worker thread, then answer what
        it settled.

        ``step`` returns ``(pending, replies)``: the requests it left in
        pool workers (ticket -> entry) and ``(ticket, entry, payload)``
        for each answered one.  An arrival the dispatcher could act on
        now writes the wake pipe, cutting a wait for replies short.
        """
        self._settling = True
        try:
            pending, replies = await asyncio.to_thread(step, *args)
        finally:
            self._settling = False
            try:
                while os.read(self._wake_fds[0], 64):
                    pass
            except BlockingIOError:
                pass
        self._inflight.update(pending)
        for ticket, entry, payload in replies:
            self._inflight.pop(ticket, None)
            self.admission.settle(entry, ok=payload.get("ok", False))
            self._settle_future(entry, payload)

    @staticmethod
    def _settle_future(entry, payload: dict) -> None:
        """Set ``entry``'s result without ever raising into the loop.

        The future is shared with the owning connection's delivery
        task; delivery shields it, but the dispatch loop must survive
        even if the future was somehow cancelled (a dead dispatcher
        stops the daemon answering *all* clients, which is the one
        failure mode worse than a dropped reply).
        """
        if not entry.future.done():
            entry.future.set_result(payload)

    def _route(self, request, budget: Optional[int] = None) -> str:
        """The mode the dispatcher runs ``request`` in at ``budget``.

        The context's route for a request on its own, except that a
        healthy pool in ``auto`` mode takes every chunk-shaped solve:
        the parent's time is every client's, so it runs none itself.
        """
        context = self._context
        route = context.route(request, budget=budget)
        if (
            route == "serial"
            and context.mode == "auto"
            and context.effective_workers > 1
            and not context.degraded
        ):
            return "solve"
        return route

    def _submit(self, batch) -> "tuple[dict, list]":
        """Submit one round on the context (worker thread).

        Stage-routed solves, whose shards this thread drives, and
        serial ones (a degraded pool, or no pool) run here; the rest go
        to pool workers, and the step then waits for the next replies,
        as :meth:`_settle_next` does.  Never raises: a failure of any
        shape becomes that entry's typed error payload, because a
        dropped reply is the one outcome the daemon must not produce.
        """
        now = time.monotonic()
        pending, parent, replies = {}, [], []
        for entry in batch:
            request = entry.extra["request"]
            if entry.slo_s is not None:
                plan = self.calibrator.plan(
                    n=request.problem.graph.number_of_nodes(),
                    slo_s=entry.slo_s,
                    engine=request.solver_kwargs.get(
                        "engine", self._context.engine
                    ),
                    route=lambda budget: self._route(request, budget),
                )
                request.solver_kwargs["budget"] = plan.budget
                entry.extra["plan"] = plan
            if entry.deadline_at is not None:
                # Absolute deadline → the budget left as of submission.
                request.deadline_s = max(entry.deadline_at - now, 1e-9)
            try:
                (ticket,) = self._context.submit(
                    [request], mode=self._route(request)
                )
            except Exception as error:
                failed = self._failure_payload(entry, error)
                replies.append((None, entry, failed))
                continue
            if ticket.route == "solve":
                pending[ticket] = entry
            else:
                parent.append((ticket, entry))
        for ticket, entry in parent:
            self._context.settle([ticket])
            replies.append((ticket, entry, self._reply(entry, ticket)))
        return pending, replies + self._settle_next(pending)

    def _settle_next(self, fresh: "dict | None" = None) -> list:
        """``(ticket, entry, payload)`` for the next pool replies (worker
        thread), or none when woken.  ``fresh`` holds the requests this
        step submitted, not yet in flight on the loop's books.  Never
        raises, like :meth:`_submit`."""
        entries = {**self._inflight, **(fresh or {})}
        if not entries:
            return []
        try:
            tickets = self._context.settle_any(self._wake_fds[0])
        except Exception as error:
            # The pool is gone (a protocol error closes it): no reply
            # will come for anything in flight, so answer it all now.
            return [
                (ticket, entry, self._failure_payload(entry, error))
                for ticket, entry in entries.items()
            ]
        return [
            (ticket, entries[ticket], self._reply(entries[ticket], ticket))
            for ticket in tickets
        ]

    def _reply(self, entry, ticket) -> dict:
        """The reply payload for one settled ticket (worker thread)."""
        result = ticket.result
        if result is None:
            failure = ticket.failure
            message = str(failure).strip()
            return self._error_payload(
                entry.id,
                getattr(failure, "kind", "solver_error"),
                message.splitlines()[-1] if message else "",
                retries=getattr(failure, "retries", 0),
            )
        plan = entry.extra.get("plan")
        if plan is not None:
            plan.record(result.stats.extra)
            result.stats.extra["slo_achieved_s"] = (
                time.monotonic() - entry.arrived_at
            )
            if plan.overrun:
                result.stats.extra["slo_overrun"] = True
        self._observe(ticket, result)
        return self._ok_payload(entry, result)

    def _failure_payload(self, entry, error: Exception) -> dict:
        return self._error_payload(
            entry.id, "solver_error", f"{type(error).__name__}: {error}"
        )

    def _apply_mutations(self, entries) -> "list[dict]":
        """:meth:`_apply_mutation` on each ready entry in arrival order,
        in one worker-thread hop."""
        return [self._apply_mutation(entry) for entry in entries]

    def _apply_mutation(self, entry) -> dict:
        """Apply one tenant's delta batch (worker thread, no solve of the
        graph in flight).

        The tenant's compiled index is patched in place through
        :meth:`~repro.graph.compiled.CompiledGraph.apply_deltas` —
        payload token preserved, generation bumped — so the resident
        pool refreshes warm workers with O(|delta|) ``graph_patch``
        records ahead of the tenant's next solve instead of full
        re-installs.  An mmap-backed tenant (a ``graphs=`` path) is
        materialized into memory by the first patch.  Never raises: a
        bad delta becomes the entry's typed ``mutate_error`` reply.
        """
        deltas = entry.spec["deltas"]
        try:
            compiled = self.graphs[entry.tenant].compiled()
            generation = compiled.apply_deltas(deltas)
        except Exception as error:
            return self._error_payload(
                entry.id, "mutate_error", f"{type(error).__name__}: {error}"
            )
        return {
            "id": entry.id,
            "ok": True,
            "tenant": entry.tenant,
            "kind": "mutate",
            "generation": generation,
            "applied": len(deltas),
        }

    def _observe(self, ticket, result) -> None:
        """Feed one completed solve into the SLO work-rate calibration,
        filed under the route it actually ran."""
        request = ticket.request
        budget = request.budget
        if budget <= 0:
            return  # budget-less solver: no work volume to learn from
        self.calibrator.observe(
            engine=request.solver_kwargs.get("engine", self._context.engine),
            mode=ticket.route,
            n=request.problem.graph.number_of_nodes(),
            budget=budget,
            elapsed_s=result.stats.elapsed_seconds,
        )

    # ------------------------------------------------------------------
    # Payloads
    # ------------------------------------------------------------------
    @staticmethod
    def _ok_payload(entry, result) -> dict:
        stats = result.stats
        return {
            "id": entry.id,
            "ok": True,
            "tenant": entry.tenant,
            "members": sorted(map(str, result.solution.members)),
            "willingness": result.solution.willingness,
            "stats": {
                "samples_drawn": stats.samples_drawn,
                "failed_samples": stats.failed_samples,
                "stages": stats.stages,
                "elapsed_s": stats.elapsed_seconds,
            },
            "extra": dict(stats.extra),
        }

    @staticmethod
    def _error_payload(
        request_id, kind: str, message: str, retries: int = 0
    ) -> dict:
        return {
            "id": request_id,
            "ok": False,
            "error": {"kind": kind, "message": message, "retries": retries},
        }

    # ------------------------------------------------------------------
    # Health / readiness / metrics (plain HTTP on the same port)
    # ------------------------------------------------------------------
    def status(self) -> dict:
        state = (
            "draining"
            if self._draining
            else ("degraded" if self._context.degraded else "ok")
        )
        return {
            "status": state,
            "degraded": self._context.degraded,
            "draining": self._draining,
            "tenants": sorted(self.graphs),
            "engine": self._context.engine,
            "workers": self._context.effective_workers,
            "admission": self.admission.snapshot(),
            **self.counters,
        }

    async def _handle_http(self, first_line: bytes, reader, writer) -> None:
        head_only = first_line.startswith(b"HEAD ")
        try:
            path = first_line.split()[1].decode("latin-1")
        except (IndexError, UnicodeDecodeError):
            path = "/"
        while True:  # discard request headers
            header = await _read_line(reader)
            if header in (b"", b"\r\n", b"\n"):
                break
        if path == "/healthz":
            code, body = 200, self.status()
        elif path == "/readyz":
            ready = self._started and not self._draining
            code = 200 if ready else 503
            body = {"ready": ready, "status": self.status()["status"]}
        elif path == "/metrics":
            code = 200
            body = {
                **self.status(),
                "calibration": self.calibrator.snapshot(),
            }
        else:
            code, body = 404, {"error": f"unknown path {path!r}"}
        encoded = json.dumps(body, sort_keys=True).encode()
        reason = {200: "OK", 404: "Not Found", 503: "Service Unavailable"}
        writer.write(
            f"HTTP/1.1 {code} {reason.get(code, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(encoded)}\r\n"
            "Connection: close\r\n\r\n".encode()
            # A HEAD reply carries GET's headers (including the
            # Content-Length the body *would* have) but no body.
            + (b"" if head_only else encoded)
        )
        await writer.drain()


async def _serve(daemon: ServingDaemon, host: str, port: int, announce) -> None:
    import signal

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    bound_host, bound_port = await daemon.start(host=host, port=port)
    announce(f"serving on {bound_host}:{bound_port}")
    await stop.wait()
    announce("draining...")
    await daemon.shutdown()
    announce("drained; bye")


def run_daemon(
    daemon: ServingDaemon,
    host: str = "127.0.0.1",
    port: int = 0,
    announce=None,
) -> int:
    """Run ``daemon`` until SIGINT/SIGTERM, then drain and exit cleanly.

    The CLI's ``waso serve`` entry point.  ``announce`` receives
    human-readable lifecycle lines; the bound address is announced
    first and flushed, so a script driving the daemon as a subprocess
    can discover an ephemeral port by reading one stdout line.
    """
    if announce is None:
        def announce(line: str) -> None:
            print(line, flush=True)

    asyncio.run(_serve(daemon, host, port, announce))
    return 0
