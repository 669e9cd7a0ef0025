"""Graph-residency machinery for the resident worker pool.

Both parallel dispatch shapes keep the O(V+E) detached
:class:`~repro.graph.compiled.CompiledGraph` arrays *resident* in the
worker processes so a serving session ships each frozen graph **exactly
once per (graph, worker) pair** — follow-up solves, batches, and online
re-planning rounds send only the O(1)
:meth:`~repro.core.problem.WASOProblem.payload_spec` plus per-request
seeds and budgets.  This module is the protocol's data side: the worker
cache, the parent's per-worker mirror of it, the install-or-patch
decision, and the ``SolveStats.extra`` accounting;
:class:`~repro.parallel.pool.ResidentPool` is its only user.

The protocol has three parts:

* **generation tags** — every freeze of a graph mints a fresh
  :attr:`~repro.graph.compiled.CompiledGraph.payload_token`; the token
  survives pickling and :meth:`~repro.graph.compiled.CompiledGraph.
  detach`, so "the arrays already resident in a worker" and "a new
  freeze that must be shipped" are distinguishable without comparing
  arrays.  An out-of-band graph mutation produces a new freeze and
  therefore a new tag, transparently invalidating stale residency;
  a mutation routed through :meth:`~repro.graph.compiled.CompiledGraph.
  apply_deltas` instead keeps the token and bumps its integer
  *generation*.  The ledger mirrors the generation each worker holds,
  and :func:`plan_graph_message` upgrades a stale-but-resident worker
  with a sparse ``("graph_patch", token, gen, batches)`` message —
  O(|delta|) bytes replayed against the resident arrays — falling back
  to a full re-install when the worker is too far behind the bounded
  replay log or holds a read-only path-installed (mmap) copy.
* **parent-driven eviction** — long serving sessions touch many graphs,
  so each worker's resident cache is bounded
  (:data:`DEFAULT_RESIDENT_GRAPHS` per worker) with least-recently-used
  eviction.  The parent holds one :class:`ResidencyLedger` per worker (a
  mirror of that worker's cache) and *decides* the evictions itself,
  attaching them to the install message — both sides therefore agree on
  the resident set without any handshake, and the parent can answer
  "would shipping be needed?" locally.
* **uniform accounting** — :func:`record_shipping` writes the same
  ``SolveStats.extra`` keys (``graph_shipped``, ``graph_installs``,
  ``batch_payload_bytes``) for both consumers, so stage-sharded solves
  and multiplexed ``solve_many`` chunks are comparable in one overhead
  curve (the benches persist these series).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

from repro.graph.compiled import discard_vector_mirror

__all__ = [
    "DEFAULT_RESIDENT_GRAPHS",
    "DEFAULT_MAX_RETRIES",
    "ResidentGraphStore",
    "ResidencyLedger",
    "plan_graph_message",
    "apply_graph_patch",
    "record_shipping",
    "record_recovery",
]

#: How many distinct graphs' frozen arrays a worker keeps resident
#: before the least-recently-used one is evicted.  Payloads are O(V+E),
#: so the bound exists to keep long multi-tenant serving sessions (many
#: graphs cycling through one pool) from pinning unbounded memory in
#: every worker; sessions over fewer graphs never evict at all.
DEFAULT_RESIDENT_GRAPHS = 4

#: How many times a crashed dispatch (a chunk, a stage shard) is re-sent
#: to a respawned worker before the failure is reported (chunk) or the
#: work falls back to in-parent execution (stage shard).  Every
#: dispatch carries explicit seeds, so a retry is
#: bit-identical to the original — the bound exists only to stop a
#: deterministically-crashing dispatch (e.g. a worker OOM reproduced by
#: its own payload) from respawn-looping forever.
DEFAULT_MAX_RETRIES = 2


class ResidentGraphStore:
    """Worker-side cache of detached compiled-graph arrays, by token.

    The store itself is a plain mapping: capacity and LRU order live in
    the parent's :class:`ResidencyLedger`, which sends explicit eviction
    lists with each install, so the two sides can never disagree about
    what is resident.
    """

    def __init__(self) -> None:
        self._graphs: dict = {}

    def install(self, token: str, compiled, evict: Iterable[str] = ()) -> None:
        """Make ``compiled`` resident under ``token``, dropping ``evict``.

        An evicted graph that is mmap-backed (path-installed from a
        frozen on-disk index) is explicitly closed so the worker's
        mapping is released immediately rather than at whatever point
        the garbage collector notices — resident-set bytes stay bounded
        by the ledger capacity even for out-of-core graphs.  Every
        evicted graph's vector-engine mirror is dropped too, so the
        mirror cache never pins arrays of a graph the worker no longer
        holds.
        """
        for stale in evict:
            old = self._graphs.pop(stale, None)
            if old is not None and getattr(old, "is_mmap_backed", False):
                old.close()
            discard_vector_mirror(stale)
        # A re-install over the same token (e.g. a path-installed graph
        # demoted to arrays because it was patched in the parent) must
        # release the old copy's mappings immediately too.
        old = self._graphs.get(token)
        if (
            old is not None
            and old is not compiled
            and getattr(old, "is_mmap_backed", False)
        ):
            old.close()
        self._graphs[token] = compiled

    def get(self, token: str):
        """The resident arrays for ``token`` (protocol error when absent)."""
        try:
            return self._graphs[token]
        except KeyError:
            raise RuntimeError(
                f"graph {token!r} is not resident in this worker "
                f"(resident: {sorted(self._graphs)})"
            ) from None

    def __contains__(self, token: str) -> bool:
        return token in self._graphs

    def __len__(self) -> int:
        return len(self._graphs)

    def tokens(self) -> tuple:
        return tuple(self._graphs)


class ResidencyLedger:
    """Parent-side mirror of one worker's resident-graph cache.

    :meth:`plan` is the single decision point: it marks the token as
    just-used and answers whether the arrays must be shipped, and which
    resident tokens the worker must evict to make room.  Because every
    install the parent performs goes through here, the mirror is exact.
    """

    def __init__(self, capacity: int = DEFAULT_RESIDENT_GRAPHS) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        #: Number of installs planned so far (monotone; tests / stats).
        self.installs = 0
        #: Per-token ``(generation, by_path)`` of what the worker holds:
        #: the generation its resident arrays were last installed at or
        #: patched to, and whether the install mapped a read-only on-disk
        #: index (path installs cannot be patched in place).
        self._meta: dict = {}

    def plan(
        self, token: str, pinned: "Iterable[str]" = ()
    ) -> "tuple[bool, tuple[str, ...]]":
        """Record a use of ``token``; return ``(ship, evictions)``.

        ``ship`` is ``True`` when the worker does not hold the arrays
        and they must be sent; ``evictions`` lists the least-recently
        used tokens the install must displace to respect the capacity.
        ``pinned`` tokens are never selected for eviction — a dispatch
        touching several graphs pins the whole set it is about to
        reference, because installs are shipped ahead of the work that
        uses them (the cache may transiently exceed its capacity when
        one dispatch references more graphs than fit; it shrinks back
        on later plans).
        """
        if token in self._lru:
            self._lru.move_to_end(token)
            return False, ()
        pinned = set(pinned)
        evictions = []
        for candidate in list(self._lru):  # least recently used first
            if len(self._lru) - len(evictions) < self.capacity:
                break
            if candidate in pinned:
                continue
            evictions.append(candidate)
        for stale in evictions:
            del self._lru[stale]
            self._meta.pop(stale, None)
        self._lru[token] = None
        self.installs += 1
        return True, tuple(evictions)

    # ------------------------------------------------------------------
    # Generation mirror — what epoch of the arrays the worker holds.
    # ------------------------------------------------------------------
    def record_install(
        self, token: str, generation: int = 0, by_path: bool = False
    ) -> None:
        """Record a full install of ``token`` at ``generation``."""
        self._meta[token] = (int(generation), bool(by_path))

    def record_patch(self, token: str, generation: int) -> None:
        """Record that the worker's resident copy was patched forward."""
        self._meta[token] = (int(generation), False)

    def resident_generation(self, token: str) -> "Optional[int]":
        """Generation the worker's resident copy sits at (None if unknown)."""
        entry = self._meta.get(token)
        return None if entry is None else entry[0]

    def installed_by_path(self, token: str) -> bool:
        """Whether the resident copy maps a read-only on-disk index."""
        entry = self._meta.get(token)
        return False if entry is None else entry[1]

    def reset(self) -> None:
        """Forget the mirror: the worker's cache is gone (respawn).

        A respawned worker starts with an empty
        :class:`ResidentGraphStore`, so its ledger must forget every
        resident token and any pinned-payload accounting with it — the
        next :meth:`plan` for any token then answers "ship", which is
        exactly how the generation-tag protocol re-converges.  The
        monotone ``installs`` counter is deliberately kept: it counts
        work performed, not work still resident.
        """
        self._lru.clear()
        self._meta.clear()

    def is_resident(self, token: str) -> bool:
        return token in self._lru

    def resident_tokens(self) -> tuple:
        """Tokens currently resident, least recently used first."""
        return tuple(self._lru)

    def most_recent(self) -> Optional[str]:
        """The most recently used resident token (``None`` when empty)."""
        return next(reversed(self._lru)) if self._lru else None


def plan_graph_message(ledger, token, compiled, ship, evictions, payload):
    """Resolve one worker's graph message after ``ledger.plan``.

    The single decision point of the pool's install planner for the
    mutable-graph protocol.  ``ship``/``evictions`` are
    :meth:`ResidencyLedger.plan`'s answer; ``payload()`` lazily produces
    the full-install pickle object
    (a detached :class:`~repro.graph.compiled.CompiledGraph`), called
    only when an array install is actually needed.

    Returns ``(message, kind)``:

    * ``(None, None)`` — the worker is resident at the current
      generation; nothing to send.
    * ``(("graph_patch", token, gen, batches), "patch")`` — resident but
      stale; the O(|delta|) replay batches bring it current.  Recorded
      via :meth:`ResidencyLedger.record_patch`; *not* counted as an
      install.
    * ``(("graph"|"graph_path", ...), "install")`` — a full install:
      cold worker, or a stale one demoted because it maps a read-only
      path-installed index or has fallen behind the bounded replay log.
      A demotion bumps ``ledger.installs`` (the plan did not).
    """
    generation = getattr(compiled, "generation", 0)
    home = getattr(compiled, "disk_home", None)
    if not ship:
        held = ledger.resident_generation(token)
        if held == generation:
            return None, None
        batches = None
        if not ledger.installed_by_path(token):
            since = getattr(compiled, "delta_batches_since", None)
            if since is not None:
                batches = since(held)
        if batches:
            ledger.record_patch(token, generation)
            return ("graph_patch", token, generation, batches), "patch"
        # Demotion to a full re-install: a path-installed worker maps
        # the saved read-only arrays (unpatchable in place), and a
        # worker behind the compacted replay log has nothing to replay
        # from.  The resident slot is reused, so no evictions.
        ledger.installs += 1
        evictions = ()
    if home is not None:
        ledger.record_install(token, generation, by_path=True)
        return ("graph_path", token, home, evictions), "install"
    ledger.record_install(token, generation, by_path=False)
    return ("graph", token, payload(), evictions), "install"


def apply_graph_patch(store: "ResidentGraphStore", token, generation, batches):
    """Worker-side handler for a ``("graph_patch", ...)`` install.

    Replays the delta batches against the resident arrays (one
    generation bump per batch, mirroring the parent's commits) and
    verifies the copy lands exactly on the advertised generation — a
    mismatch is a protocol error the worker reports instead of serving
    silently-diverged arrays.
    """
    compiled = store.get(token)
    for batch in batches:
        compiled.apply_deltas(batch)
    if getattr(compiled, "generation", None) != generation:
        raise RuntimeError(
            f"graph_patch for {token!r} landed at generation "
            f"{getattr(compiled, 'generation', None)!r}, expected "
            f"{generation!r}"
        )


def record_shipping(
    extra: dict,
    shipped: bool,
    payload_bytes: "Optional[int]" = None,
    installs: "Optional[int]" = None,
    patch_bytes: "Optional[int]" = None,
) -> None:
    """Uniform ``SolveStats.extra`` accounting for residency shipping.

    Both consumers of the resident pool — the stage-sharded executor and
    the ``solve_many`` multiplexer — record their shipping through this
    one function so the keys (and therefore the bench overhead curves)
    stay comparable:

    * ``graph_shipped`` — whether this solve / batch installed resident
      graph arrays into any worker (``False`` on every warm follow-up,
      and always ``False`` on the dict-graph reference path, which has
      no resident representation — its per-request problem pickles show
      up in the byte count below instead);
    * ``graph_installs`` — how many (graph, worker) installs it
      performed (omitted when the caller does not track per-worker
      installs);
    * ``batch_payload_bytes`` — total pickled bytes put on the wire for
      the solve / batch: graph installs, problem specs, *and* any
      full dict problems shipped for reference-engine requests;
    * ``graph_patch_bytes`` — bytes of sparse ``graph_patch`` upgrades
      sent to stale-but-resident workers (written only when non-zero,
      so patch-free stats stay byte-identical to the committed
      baselines; patches are deliberately *not* counted in
      ``graph_installs`` — that key keeps meaning full array installs).
    """
    extra["graph_shipped"] = shipped
    if installs is not None:
        extra["graph_installs"] = installs
    if payload_bytes is not None:
        extra["batch_payload_bytes"] = payload_bytes
    if patch_bytes:
        extra["graph_patch_bytes"] = patch_bytes


def record_recovery(
    extra: dict,
    restarts: int = 0,
    retries: int = 0,
    degraded: int = 0,
    deadline_missed: int = 0,
) -> None:
    """Uniform ``SolveStats.extra`` accounting for recovery events.

    The self-healing counterpart of :func:`record_shipping`: every
    consumer (the ``solve_many`` multiplexer, the stage-sharded
    executor) reports what its pool had to survive through the same
    keys —

    * ``worker_restarts`` — worker processes respawned during the solve
      / batch;
    * ``chunk_retries`` — chunks or stage shards re-dispatched after a
      crash (each retry is bit-identical to the original dispatch: the
      seeds travel with the work);
    * ``degraded_to_serial`` — entries the pool finished in the parent
      after their record exhausted its retry budget: one per chunk
      request and one per stage shard;
    * ``deadline_missed`` — dispatches cancelled because a request's
      deadline expired.

    Keys are written only when non-zero, so a fault-free solve's stats
    are byte-identical to what they were before the supervision layer
    existed — the differential suites stay strict.
    """
    if restarts:
        extra["worker_restarts"] = restarts
    if retries:
        extra["chunk_retries"] = retries
    if degraded:
        extra["degraded_to_serial"] = degraded
    if deadline_missed:
        extra["deadline_missed"] = deadline_missed
