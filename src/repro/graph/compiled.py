"""Compiled flat-array graph index — the performance architecture.

Performance architecture
------------------------
Every randomized WASO solver spends essentially all of its time in two
kernels: the frontier expansion of :class:`~repro.algorithms.sampling.
ExpansionSampler` and the incremental willingness delta of the evaluator.
On the dict-of-dict :class:`~repro.graph.social_graph.SocialGraph` those
kernels pay, per visited neighbour, two hash probes plus a *reverse*
inner-dict probe (``neighbor_tightness(neighbour)[node]``) to pick up the
opposite-direction tightness.  The access pattern, however, is completely
regular: scan one node's incident edges, test membership, accumulate a
per-edge constant.

:class:`CompiledGraph` specializes the data layout to that access pattern.
A one-shot ``freeze`` of a :class:`SocialGraph` produces int-indexed CSR
arrays:

* ``offsets`` / ``targets`` — the adjacency structure.  The directed slot
  range of node ``i`` is ``offsets[i]:offsets[i + 1]``, and the slot order
  is exactly the adjacency-dict insertion order, so array scans visit
  neighbours in the same sequence (and produce bit-identical floating-point
  sums) as the dict-based reference path;
* ``weighted_interest`` (``a_i·η_i``) and ``tightness_weight`` (``b_i``) —
  the per-node constants of the Eq. (1) objective with footnote-7 weights;
* ``pair_w`` — the per-edge *combined* pair weight ``b_u·τ_uv + b_v·τ_vu``.
  With it the willingness delta of adding node ``u`` to a group ``S``
  collapses to ``a_u·η_u + Σ_{slots e of u : targets[e] ∈ S} pair_w[e]`` —
  a single array scan against a stamp/mask membership test, with no
  reverse probe at all;
* ``out_w`` — the directed contribution ``b_u·τ_uv`` (used by full
  re-evaluation, which mirrors the reference accumulation order);
* ``potential`` — the CBAS phase-1 start-node ranking score
  ``a_i·η_i + Σ pair_w``, precomputed so ranking is an array lookup.

The index is built in one pass over the adjacency dicts, is reused across
repeated solves and re-planning rounds on the same graph (it is cached on
the graph keyed by a mutation counter — see ``SocialGraph.compiled()``),
and is plain-picklable so :mod:`repro.parallel.pool` workers receive the
frozen arrays instead of re-hashing the dicts.

The dict-based :class:`~repro.core.willingness.WillingnessEvaluator`
remains the reference implementation; the compiled path is engineered to
reproduce its results bit-for-bit (same neighbour order, same
floating-point expression per term) so seeded solver runs are identical on
both engines — differential tests in ``tests/test_compiled.py`` hold that
line.

Streaming mutation
------------------
A freeze is no longer one-shot: :meth:`CompiledGraph.apply_deltas`
patches the CSR arrays, pair weights, potentials, and cached component
labels in place for edge inserts/deletes, weight updates, and node adds,
bumping an integer :attr:`CompiledGraph.generation` instead of minting a
new ``payload_token``.  Each applied batch is kept in a bounded replay
log so resident pool workers holding an older generation can be brought
current with an O(|delta|) ``("graph_patch", ...)`` wire message instead
of a full re-install (see :mod:`repro.parallel`).  Every patch recipe
reproduces, bit-for-bit, the arrays a fresh :meth:`from_graph` of the
mutated source would build — ``tests/test_graph_deltas.py`` holds that
line on both engines.

Start-node ranking
------------------
:meth:`CompiledGraph.start_ranking` keeps every node in CBAS phase-1
order (potential descending, then ``repr`` descending, then id), so a
solve's start selection reads the top of a list instead of scanning n
potentials.  Like the vector engine's numpy mirror it is derived state
that follows the delta log: ``apply_deltas`` does no ranking work, and
the next call moves only the endpoints of the ops logged since the
generation it was built at, or rebuilds when the log no longer covers
that span.  It is never pickled or saved: unpickled, loaded and
detached copies start without one, and :meth:`close` drops it.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from repro.exceptions import (
    DuplicateNodeError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
)
from repro.graph.social_graph import NodeId, SocialGraph

__all__ = ["CompiledGraph", "ArrayBackedGraph"]

#: The irreducible pickled state: everything else (``index_of``,
#: ``pair_w``, ``potential``, the row views) is rebuilt bit-identically
#: by ``__setstate__``, so worker payloads ship roughly half the floats.
_PICKLED_SLOTS = (
    "graph",
    "nodes",
    "offsets",
    "targets",
    "out_w",
    "weighted_interest",
    "tightness_weight",
    "payload_token",
    "_component_sizes",
    "_component_labels",
)

#: Source of :attr:`CompiledGraph.payload_token` values — one fresh token
#: per freeze, namespaced by pid so tokens minted by different processes
#: never collide.
_PAYLOAD_COUNTER = itertools.count()

#: Replayable delta batches kept per graph.  The log exists so resident
#: workers a few generations behind can be patched instead of re-shipped;
#: older batches are compacted away (a worker further behind than the log
#: reaches is demoted to a full re-install by the residency ledger), which
#: bounds both parent memory and the worst-case patch message.
_DELTA_LOG_LIMIT = 64


def discard_vector_mirror(token: str) -> None:
    """Drop the vector engine's cached numpy mirror of ``token``, if any."""
    # Imported here: repro.vector imports this module.
    from repro.vector.arrays import discard_vector_graph

    discard_vector_graph(token)


def _new_payload_token() -> str:
    # Fixed-width fields: the token rides in every resident-pool wire
    # spec, and the tier-2 payload-byte gates compare those pickles
    # byte-exactly against a committed baseline — a token whose length
    # varied with the PID's digit count made "deterministic" payload
    # sizes depend on which PID the bench process happened to get.
    # (7 digits covers Linux's largest default pid_max, 4194304.)
    return f"cg-{os.getpid():07d}-{next(_PAYLOAD_COUNTER):05d}"


class CompiledGraph:
    """Frozen CSR view of a :class:`SocialGraph`, patchable in place.

    Build with :meth:`from_graph` (or the cached ``graph.compiled()`` /
    ``problem.compiled()`` accessors).  Out-of-band mutation of the
    source graph still invalidates the graph-side cache and produces a
    fresh freeze on next access; routing the same mutations through
    :meth:`apply_deltas` instead patches this instance's arrays
    incrementally and bumps :attr:`generation`, keeping the
    ``payload_token`` (and therefore every resident-pool cache entry
    keyed by it) alive.
    """

    __slots__ = (
        "graph",
        "nodes",
        "index_of",
        "offsets",
        "targets",
        "out_w",
        "pair_w",
        "weighted_interest",
        "tightness_weight",
        "potential",
        "payload_token",
        "disk_home",
        "generation",
        "_delta_log",
        "_log_from",
        "_mmaps",
        "_row_targets",
        "_row_edges",
        "_row_id_edges",
        "_component_sizes",
        "_component_labels",
        "_largest_component",
        "_ranking",
    )

    def __init__(
        self,
        graph: SocialGraph,
        nodes: list,
        index_of: dict,
        offsets: list,
        targets: list,
        out_w: list,
        pair_w: list,
        weighted_interest: list,
        tightness_weight: list,
        potential: list,
    ) -> None:
        self.graph = graph
        self.nodes = nodes
        self.index_of = index_of
        self.offsets = offsets
        self.targets = targets
        self.out_w = out_w
        self.pair_w = pair_w
        self.weighted_interest = weighted_interest
        self.tightness_weight = tightness_weight
        self.potential = potential
        #: Identity tag of this freeze.  A re-freeze (graph mutation)
        #: mints a new token while pickling, :meth:`detach`, and worker
        #: unpickling all preserve it — so a pool worker can tell
        #: "the arrays already resident here" from "a new graph I must be
        #: sent" without comparing the arrays themselves.
        self.payload_token = _new_payload_token()
        #: Directory of this graph's saved on-disk index (set by
        #: ``save``/``load``, see :mod:`repro.graph.storage`), or
        #: ``None`` for a purely in-memory freeze.  A graph with a disk
        #: home is *path-installable*: the resident pool ships workers
        #: the path instead of the array pickle.
        self.disk_home: "str | None" = None
        #: Mutation epoch of this freeze under :meth:`apply_deltas`.  A
        #: fresh freeze is generation 0; every applied delta batch bumps
        #: it by one while the ``payload_token`` stays put — residency
        #: ledgers track ``(token, generation)`` pairs so a stale-but-
        #: resident worker can be patched rather than re-shipped.
        self.generation: int = 0
        #: Replay log of normalized delta batches (``_log_from`` is the
        #: generation the first retained batch upgrades *from*); bounded
        #: by ``_DELTA_LOG_LIMIT``, see :meth:`delta_batches_since`.
        self._delta_log: list = []
        self._log_from: int = 0
        #: Open ``mmap`` objects backing the arrays (empty for in-memory
        #: graphs).  Non-empty means the instance must not be pickled.
        self._mmaps: tuple = ()
        self._row_targets: "list | None" = None
        self._row_edges: "list | None" = None
        self._row_id_edges: "list | None" = None
        self._component_sizes: "list[int] | None" = None
        self._component_labels: "list[int] | None" = None
        self._largest_component: "int | None" = None
        #: ``(generation, order, ranked)`` of the start-node ranking, or
        #: ``None`` until the first :meth:`start_ranking` call.
        self._ranking: "tuple | None" = None
        # An in-memory freeze warms the row views now, at compile time —
        # the sampler's first draw must not pay the O(V+E) build.  Only
        # mmap-backed loads (constructed via ``__new__`` in
        # repro.graph.storage) leave them lazy.
        self.row_id_edges

    # ------------------------------------------------------------------
    # Row views — per-row slices of the CSR arrays.
    #
    # Direct iteration over a prebuilt list/tuple is the cheapest scan
    # CPython offers, so the sampler's hot kernels use these instead of
    # offsets/targets index arithmetic.  They are cached properties:
    # in-memory freezes warm them at compile/unpickle time (keeping the
    # build out of the timed solve path), while mmap-backed loads leave
    # them lazy — an index of a million nodes must not materialize
    # O(V+E) Python objects just to answer a batch of solves that touch
    # a few thousand rows, and each view is independent, so the vector
    # path (which needs only ``row_targets`` for seed frontiers) never
    # pays for the scalar kernels' ``row_edges`` tuples.
    # ------------------------------------------------------------------
    @property
    def row_targets(self) -> list:
        """Per-row slices of ``targets`` (list/memoryview per node)."""
        rows = self._row_targets
        if rows is None:
            offsets, targets = self.offsets, self.targets
            rows = [
                targets[offsets[i] : offsets[i + 1]]
                for i in range(len(self.nodes))
            ]
            self._row_targets = rows
        return rows

    @property
    def row_edges(self) -> list:
        """Per-row ``(target, pair_w)`` tuples — the merged
        delta-and-extend pass touches each slot exactly once."""
        rows = self._row_edges
        if rows is None:
            offsets, pair_w = self.offsets, self.pair_w
            rows = [
                tuple(zip(row_t, pair_w[offsets[i] : offsets[i + 1]]))
                for i, row_t in enumerate(self.row_targets)
            ]
            self._row_edges = rows
        return rows

    @property
    def row_id_edges(self) -> list:
        """Id-space twin of ``row_edges`` for callers whose groups are
        node-id sets (the evaluator API): no per-slot index→id
        conversion."""
        rows = self._row_id_edges
        if rows is None:
            nodes = self.nodes
            rows = [
                tuple((nodes[target], pair) for target, pair in row)
                for row in self.row_edges
            ]
            self._row_id_edges = rows
        return rows

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: SocialGraph) -> "CompiledGraph":
        """Freeze ``graph`` into flat arrays (one pass over the adjacency)."""
        nodes = list(graph.nodes())
        index_of = {node: index for index, node in enumerate(nodes)}
        n = len(nodes)

        weighted_interest = [0.0] * n
        tightness_weight = [0.0] * n
        adjacencies = []
        for index, node in enumerate(nodes):
            a, b = graph.weights(node)
            weighted_interest[index] = a * graph.interest(node)
            tightness_weight[index] = b
            adjacencies.append(graph.neighbor_tightness(node))

        offsets = [0] * (n + 1)
        targets: list[int] = []
        out_w: list[float] = []
        pair_w: list[float] = []
        potential = [0.0] * n
        for index, node in enumerate(nodes):
            b_node = tightness_weight[index]
            total = weighted_interest[index]
            for neighbour, tau in adjacencies[index].items():
                other = index_of[neighbour]
                outgoing = b_node * tau
                # Same expression (and evaluation order) as the reference
                # evaluator's cached pair weight: bit-identical sums.
                combined = outgoing + tightness_weight[other] * (
                    adjacencies[other][node]
                )
                targets.append(other)
                out_w.append(outgoing)
                pair_w.append(combined)
                total += combined
            offsets[index + 1] = len(targets)
            potential[index] = total

        return cls(
            graph=graph,
            nodes=nodes,
            index_of=index_of,
            offsets=offsets,
            targets=targets,
            out_w=out_w,
            pair_w=pair_w,
            weighted_interest=weighted_interest,
            tightness_weight=tightness_weight,
            potential=potential,
        )

    # ------------------------------------------------------------------
    @property
    def number_of_nodes(self) -> int:
        return len(self.nodes)

    @property
    def number_of_directed_slots(self) -> int:
        return len(self.targets)

    def neighbor_slots(self, index: int) -> range:
        """Directed slot range of node ``index`` (CSR row)."""
        return range(self.offsets[index], self.offsets[index + 1])

    def degree(self, index: int) -> int:
        return self.offsets[index + 1] - self.offsets[index]

    def component_size_by_index(self) -> list[int]:
        """Connected-component size of every node, indexed by int id.

        Computed lazily with one index-space BFS pass and cached; CBAS
        uses it to skip start nodes whose component cannot hold a
        ``k``-group, and ``WASOProblem.ensure_feasible`` to validate
        unconstrained instances, without re-deriving components per solve.
        """
        if self._component_sizes is None:
            self._compute_components()
        return self._component_sizes

    def component_label_by_index(self) -> list[int]:
        """Component representative (root id) of every node, by int id.

        Two nodes share a connected component iff their labels are equal;
        cached alongside :meth:`component_size_by_index` from the same
        BFS pass.
        """
        if self._component_labels is None:
            self._compute_components()
        return self._component_labels

    def largest_component_size(self) -> int:
        """Size of the largest connected component (0 when empty).

        Kept next to the component labels and updated by the deltas
        that keep those labels, so the per-solve feasibility check of an
        unconstrained problem reads one int instead of taking ``max``
        over n sizes.
        """
        if self._largest_component is None:
            if self._component_sizes is None:
                self._compute_components()
            else:
                # Labels that arrived without it (unpickled or loaded).
                self._largest_component = max(
                    self._component_sizes, default=0
                )
        return self._largest_component

    def _compute_components(self) -> None:
        n = len(self.nodes)
        sizes = [0] * n
        label = [-1] * n
        largest = 0
        row_targets = self.row_targets
        for root in range(n):
            if label[root] != -1:
                continue
            stack = [root]
            label[root] = root
            component = [root]
            while stack:
                current = stack.pop()
                for other in row_targets[current]:
                    if label[other] == -1:
                        label[other] = root
                        stack.append(other)
                        component.append(other)
            size = len(component)
            for index in component:
                sizes[index] = size
            if size > largest:
                largest = size
        self._component_sizes = sizes
        self._component_labels = label
        self._largest_component = largest

    # ------------------------------------------------------------------
    # Start-node ranking — derived state that follows the delta log.
    # ------------------------------------------------------------------
    def start_ranking(self) -> list[int]:
        """Every compiled id in CBAS phase-1 order, best first.

        The order is ``potential`` descending, then ``repr(node)``
        descending, then id ascending: what ``heapq.nlargest`` keyed on
        ``(potential, repr(node))`` gives over the nodes in id order.
        It is built on first use and kept per generation.  After
        :meth:`apply_deltas`, the next call moves only the endpoints of
        the ops logged since the cached generation, each with binary
        searches and one list rotation, and rebuilds in full only when
        the delta log no longer covers the span.  The list is live:
        read it, but do not keep it across mutations.
        """
        ranking = self._ranking
        if ranking is not None and ranking[0] != self.generation:
            batches = self.delta_batches_since(ranking[0])
            if batches is None:
                ranking = None
            else:
                ranking = self._refresh_ranking(ranking[1], ranking[2], batches)
        if ranking is None:
            ranking = self._build_ranking()
        self._ranking = ranking
        return ranking[1]

    def _build_ranking(self) -> tuple:
        """Full ranking: one stable sort, then ``repr`` inside tie runs."""
        potential = np.asarray(self.potential, dtype=np.float64)
        # A stable sort leaves equal potentials in ascending id order.
        order_array = np.argsort(-potential, kind="stable")
        values = potential[order_array]
        order = order_array.tolist()
        # Runs of equal potentials, as ``order[start : stop + 1]``: only
        # these nodes ever need their repr.
        tied = np.concatenate(([False], values[1:] == values[:-1], [False]))
        edges = np.flatnonzero(tied[1:] != tied[:-1]).tolist()
        nodes = self.nodes
        for start, stop in zip(edges[0::2], edges[1::2]):
            # reverse=True keeps the sort stable: equal reprs stay in
            # ascending id order.
            order[start : stop + 1] = sorted(
                order[start : stop + 1],
                key=lambda index: repr(nodes[index]),
                reverse=True,
            )
        return (self.generation, order, potential.tolist())

    def _refresh_ranking(self, order: list, ranked: list, batches) -> tuple:
        """Move the endpoints touched by ``batches`` to their new ranks.

        ``ranked`` holds each ranked node's potential as of its last
        placement, so ``order`` stays sorted by it while the touched
        nodes are moved one at a time.
        """
        index_of = self.index_of
        touched = set()
        for batch in batches:
            for op in batch:
                if op[0] != "add_node":
                    touched.add(index_of[op[1]])
                    touched.add(index_of[op[2]])
        potential = self.potential
        placed = len(order)
        for index in touched:
            if index < placed:
                self._move_in_ranking(order, ranked, index, potential[index])
        for index in range(placed, len(self.nodes)):
            ranked.append(potential[index])
            order.insert(self._rank_position(order, ranked, index, 0, placed), index)
            placed += 1
        return (self.generation, order, ranked)

    def _move_in_ranking(
        self, order: list, ranked: list, index: int, value: float
    ) -> None:
        position = self._rank_position(order, ranked, index, 0, len(order))
        ranked[index] = value
        target = self._rank_position(order, ranked, index, 0, position)
        if target < position:
            # It now ranks before nodes it used to follow: rotate it up.
            order[target + 1 : position + 1] = order[target:position]
            order[target] = index
            return
        # Rotate it down past every node that now ranks before it (a
        # no-op when there is none).
        stop = self._rank_position(order, ranked, index, position + 1, len(order))
        order[position : stop - 1] = order[position + 1 : stop]
        order[stop - 1] = index

    def _rank_position(
        self, order: list, ranked: list, index: int, lo: int, hi: int
    ) -> int:
        """First position in ``order[lo:hi]`` whose node does not rank
        before ``index`` under the ``ranked`` potentials (``hi`` when
        every node there does)."""
        value = ranked[index]
        nodes = self.nodes
        label = None
        while lo < hi:
            mid = (lo + hi) // 2
            other = order[mid]
            other_value = ranked[other]
            if other_value != value:
                before = other_value > value
            else:
                if label is None:
                    label = repr(nodes[index])
                other_label = repr(nodes[other])
                if other_label != label:
                    before = other_label > label
                else:
                    before = other < index
            if before:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------
    # Streaming deltas — patch the freeze in place instead of refreezing.
    # ------------------------------------------------------------------
    def apply_deltas(self, deltas) -> int:
        """Apply a batch of graph mutations to the frozen arrays in place.

        ``deltas`` is an iterable of op tuples:

        * ``("add_node", node, interest)`` or
          ``("add_node", node, interest, lam)``
        * ``("add_edge", u, v, tightness)`` or
          ``("add_edge", u, v, tightness, reverse_tightness)``
        * ``("set_tightness", u, v, tightness)`` (one direction)
        * ``("remove_edge", u, v)``

        When ``self.graph`` is the source :class:`SocialGraph`, each op
        is applied to the adjacency dicts through the validating mutators
        *first* and the arrays are patched to match, after which this
        instance is re-adopted as the graph's compiled cache — dicts and
        arrays never diverge.  On an :class:`ArrayBackedGraph` clone (a
        pool worker's resident copy) only the arrays are patched.

        The patched arrays are bit-identical to a fresh
        :meth:`from_graph` of the mutated source: inserts append to the
        row tail (matching adjacency-dict insertion order), weight edits
        land in the existing slot, and potentials are re-accumulated in
        slot order.  CPython's over-allocated lists give row edits
        amortized slack (a single ``insert`` is one memmove, no
        reallocation in the common case), and the bounded replay log
        (:func:`delta_batches_since`) is compacted automatically as it
        overflows — or explicitly via :meth:`compact`.

        Bumps :attr:`generation` by one per call (the batch is the unit
        of replay) and returns the new generation.  A failing op raises
        after committing the already-applied prefix, so a parent and its
        workers can still be reconverged by replay or re-ship.

        An mmap-backed instance is materialized into plain in-memory
        lists first (its read-only mappings cannot be patched); it stops
        being path-installable once a delta lands (``disk_home`` is
        cleared because the arrays diverge from the saved index).
        """
        if self._mmaps:
            self._materialize()
        source = self.graph if isinstance(self.graph, SocialGraph) else None
        batch = [self._normalize_delta(op, source) for op in deltas]
        applied: list = []
        try:
            for op in batch:
                self._apply_one(op, source)
                applied.append(op)
        finally:
            if applied:
                self._commit_batch(applied, source)
        return self.generation

    def delta_batches_since(self, generation) -> "list | None":
        """Replayable batches upgrading ``generation`` → current, or None.

        Returns ``[]`` when ``generation`` is already current, and
        ``None`` when the request cannot be served from the bounded log
        (unknown/future generation, or batches already compacted away) —
        the caller must then fall back to a full re-install.
        """
        if generation == self.generation:
            return []
        if not isinstance(generation, int):
            return None
        start = generation - self._log_from
        if start < 0 or start > len(self._delta_log):
            return None
        batches = list(self._delta_log[start:])
        # Defensive length check: detached clones share the log list but
        # snapshot ``_log_from``, so a compaction through another handle
        # could desync the offset — never serve a short replay.
        if len(batches) != self.generation - generation:
            return None
        return batches

    def compact(self) -> None:
        """Materialize mmap-backed arrays and drop the replay log.

        After compacting, the instance is plain-picklable again (the
        typed pickle error on mmap-backed graphs names this method) and
        workers behind the current generation are demoted to a full
        re-install by the residency ledger.
        """
        self._materialize()
        self._delta_log.clear()
        self._log_from = self.generation

    def _materialize(self) -> None:
        """Copy mmap-backed arrays into plain lists and unmap the files.

        Patching mutates the flat arrays, which read-only shared
        mappings cannot support; the vector cache's views over the maps
        are discarded first so the buffers actually release.
        """
        maps, self._mmaps = self._mmaps, ()
        if not maps:
            return
        discard_vector_mirror(self.payload_token)
        self.offsets = list(self.offsets)
        self.targets = list(self.targets)
        self.out_w = list(self.out_w)
        self.pair_w = list(self.pair_w)
        self.weighted_interest = list(self.weighted_interest)
        self.tightness_weight = list(self.tightness_weight)
        self.potential = list(self.potential)
        if self._component_sizes is not None:
            self._component_sizes = list(self._component_sizes)
        if self._component_labels is not None:
            self._component_labels = list(self._component_labels)
        # Row views may hold memoryview slices over the maps: rebuild
        # lazily from the materialized lists.
        self._row_targets = None
        self._row_edges = None
        self._row_id_edges = None
        for mapped in maps:
            try:
                mapped.close()
            except BufferError:  # pragma: no cover - external view alive
                pass

    @staticmethod
    def _normalize_delta(op, source) -> tuple:
        """Canonical wire form of one delta op (idempotent)."""
        kind = op[0]
        if kind == "add_node":
            if len(op) == 3:
                lam = source.default_lambda if source is not None else None
            elif len(op) == 4:
                lam = op[3]
            else:
                raise GraphError(f"malformed add_node delta: {op!r}")
            return ("add_node", op[1], float(op[2]), lam)
        if kind == "add_edge":
            if len(op) == 4:
                tau = rev = float(op[3])
            elif len(op) == 5:
                tau, rev = float(op[3]), float(op[4])
            else:
                raise GraphError(f"malformed add_edge delta: {op!r}")
            return ("add_edge", op[1], op[2], tau, rev)
        if kind == "set_tightness":
            if len(op) != 4:
                raise GraphError(f"malformed set_tightness delta: {op!r}")
            return ("set_tightness", op[1], op[2], float(op[3]))
        if kind == "remove_edge":
            if len(op) != 3:
                raise GraphError(f"malformed remove_edge delta: {op!r}")
            return ("remove_edge", op[1], op[2])
        raise GraphError(f"unknown delta op kind {kind!r}")

    def _apply_one(self, op, source) -> None:
        kind = op[0]
        if kind == "add_node":
            _, node, interest, lam = op
            if source is not None:
                source.add_node(node, interest, lam)
            elif node in self.index_of:
                raise DuplicateNodeError(node)
            self._patch_add_node(node, interest, lam)
            return
        if kind == "add_edge":
            _, u, v, tau, rev = op
            iu, iv = self._require_index(u), self._require_index(v)
            # Overwrite-vs-insert must be decided from the arrays before
            # the dict mutation erases the distinction.
            slot_uv = self._find_slot(iu, iv)
            if source is not None:
                source.add_edge(u, v, tau, rev)
            elif iu == iv:
                raise GraphError(f"self-loops are not allowed (node {u!r})")
            if slot_uv >= 0:
                self._patch_weight(iu, iv, slot_uv, tau)
                self._patch_weight(iv, iu, self._find_slot(iv, iu), rev)
            else:
                self._patch_insert_edge(iu, iv, tau, rev)
            return
        if kind == "set_tightness":
            _, u, v, tau = op
            iu, iv = self._require_index(u), self._require_index(v)
            slot_uv = self._find_slot(iu, iv)
            if slot_uv < 0:
                raise EdgeNotFoundError(u, v)
            if source is not None:
                source.set_tightness(u, v, tau)
            self._patch_weight(iu, iv, slot_uv, tau)
            return
        # remove_edge
        _, u, v = op
        iu, iv = self._require_index(u), self._require_index(v)
        slot_uv = self._find_slot(iu, iv)
        slot_vu = self._find_slot(iv, iu)
        if slot_uv < 0 or slot_vu < 0:
            raise EdgeNotFoundError(u, v)
        if source is not None:
            source.remove_edge(u, v)
        self._patch_remove_edge(iu, iv, slot_uv, slot_vu)

    def _commit_batch(self, applied: list, source) -> None:
        self.generation += 1
        self._delta_log.append(tuple(applied))
        overflow = len(self._delta_log) - _DELTA_LOG_LIMIT
        if overflow > 0:
            del self._delta_log[:overflow]
            self._log_from += overflow
        # The arrays now diverge from any saved on-disk index: drop the
        # disk home so the resident pool ships arrays (or patches)
        # instead of pointing workers at stale files.
        self.disk_home = None
        if source is not None:
            # Dicts and arrays were mutated in lockstep: re-adopt this
            # instance as the graph's compiled cache so the next
            # ``graph.compiled()`` returns the patched freeze instead of
            # refreezing O(V+E).
            source._compiled_cache = (source._mutation_count, self)

    def _require_index(self, node) -> int:
        try:
            return self.index_of[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def _find_slot(self, iu: int, iv: int) -> int:
        """Directed slot of edge ``iu → iv``, or ``-1``."""
        targets = self.targets
        for slot in range(self.offsets[iu], self.offsets[iu + 1]):
            if targets[slot] == iv:
                return slot
        return -1

    def _resum_potential(self, index: int) -> None:
        # Full row re-accumulation in slot order: FP addition is not
        # associative, so a mid-row pair-weight edit cannot be patched
        # into the cached sum — only the freeze's own left-to-right
        # accumulation is bit-exact.
        total = self.weighted_interest[index]
        pair_w = self.pair_w
        for slot in range(self.offsets[index], self.offsets[index + 1]):
            total += pair_w[slot]
        self.potential[index] = total

    def _patch_add_node(self, node, interest, lam) -> None:
        index = len(self.nodes)
        self.nodes.append(node)
        self.index_of[node] = index
        a, b = (1.0, 1.0) if lam is None else (lam, 1.0 - lam)
        weighted = a * interest
        self.weighted_interest.append(weighted)
        self.tightness_weight.append(b)
        self.offsets.append(self.offsets[-1])
        self.potential.append(weighted)
        if self._component_labels is not None:
            # A fresh node is its own singleton component, and its index
            # (the largest so far) is trivially the component's minimum —
            # exactly the label a recomputed BFS would assign.
            self._component_labels.append(index)
            self._component_sizes.append(1)
            if self._largest_component == 0:
                self._largest_component = 1
        if self._row_targets is not None:
            self._row_targets.append([])
        if self._row_edges is not None:
            self._row_edges.append(())
        if self._row_id_edges is not None:
            self._row_id_edges.append(())

    def _patch_insert_edge(self, iu: int, iv: int, tau, rev) -> None:
        out_uv = self.tightness_weight[iu] * tau
        out_vu = self.tightness_weight[iv] * rev
        # Both directed slots freeze to the same combined weight (IEEE
        # addition is commutative, so ``out_uv + out_vu`` matches the
        # reverse slot's ``out_vu + out_uv`` bit-for-bit).
        combined = out_uv + out_vu
        offsets = self.offsets
        for index, target, out in ((iu, iv, out_uv), (iv, iu, out_vu)):
            pos = offsets[index + 1]
            self.targets.insert(pos, target)
            self.out_w.insert(pos, out)
            self.pair_w.insert(pos, combined)
            for j in range(index + 1, len(offsets)):
                offsets[j] += 1
            # Appending at the row tail extends the cached left-to-right
            # potential sum without re-associating earlier terms.
            self.potential[index] = self.potential[index] + combined
        self._merge_components(iu, iv)
        self._refresh_row(iu)
        self._refresh_row(iv)

    def _patch_weight(self, iu: int, iv: int, slot_uv: int, tau) -> None:
        slot_vu = self._find_slot(iv, iu)
        self.out_w[slot_uv] = self.tightness_weight[iu] * tau
        combined = self.out_w[slot_uv] + self.out_w[slot_vu]
        self.pair_w[slot_uv] = combined
        self.pair_w[slot_vu] = combined
        self._resum_potential(iu)
        self._resum_potential(iv)
        self._refresh_row(iu)
        self._refresh_row(iv)

    def _patch_remove_edge(
        self, iu: int, iv: int, slot_uv: int, slot_vu: int
    ) -> None:
        for slot in sorted((slot_uv, slot_vu), reverse=True):
            del self.targets[slot]
            del self.out_w[slot]
            del self.pair_w[slot]
        offsets = self.offsets
        for j in range(iu + 1, len(offsets)):
            offsets[j] -= 1
        for j in range(iv + 1, len(offsets)):
            offsets[j] -= 1
        self._resum_potential(iu)
        self._resum_potential(iv)
        # A deletion can split a component; recompute lazily on demand,
        # exactly as a refreeze of the mutated source would.
        self._component_sizes = None
        self._component_labels = None
        self._largest_component = None
        self._refresh_row(iu)
        self._refresh_row(iv)

    def _merge_components(self, iu: int, iv: int) -> None:
        labels = self._component_labels
        sizes = self._component_sizes
        if labels is None or sizes is None:
            self._component_sizes = None
            self._component_labels = None
            self._largest_component = None
            return
        lu, lv = labels[iu], labels[iv]
        if lu == lv:
            return
        # BFS labels components by their minimum node index (roots are
        # visited in ascending order), so the merged label is the smaller
        # of the two old roots.
        merged_label = lu if lu < lv else lv
        merged_size = sizes[iu] + sizes[iv]
        largest = self._largest_component
        if largest is not None and merged_size > largest:
            self._largest_component = merged_size
        for i in range(len(labels)):
            if labels[i] == lu or labels[i] == lv:
                labels[i] = merged_label
                sizes[i] = merged_size

    def _refresh_row(self, index: int) -> None:
        """Rebuild the warmed row views of one patched row.

        Untouched rows keep their existing slices (list slicing copies
        values, so earlier rows are unaffected by tail edits); ``None``
        views stay lazy.
        """
        if (
            self._row_targets is None
            and self._row_edges is None
            and self._row_id_edges is None
        ):
            return
        start, stop = self.offsets[index], self.offsets[index + 1]
        row_t = self.targets[start:stop]
        if self._row_targets is not None:
            self._row_targets[index] = row_t
        if self._row_edges is not None or self._row_id_edges is not None:
            row_e = tuple(zip(row_t, self.pair_w[start:stop]))
            if self._row_edges is not None:
                self._row_edges[index] = row_e
            if self._row_id_edges is not None:
                nodes = self.nodes
                self._row_id_edges[index] = tuple(
                    (nodes[target], pair) for target, pair in row_e
                )

    # ------------------------------------------------------------------
    # Pickle support: __slots__ classes need explicit state handling.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Ship only the irreducible arrays.  ``pair_w`` is the slot-wise
        # sum of the two directed ``out_w`` contributions, ``potential``
        # a row sum over ``pair_w``, and ``index_of`` the enumeration of
        # ``nodes`` — all reproduced bit-for-bit on unpickle, so the
        # payload sent to pool workers carries no redundant floats.
        if self._mmaps:
            raise TypeError(
                "an mmap-backed CompiledGraph cannot be pickled: its "
                "arrays are views over shared file mappings.  Ship its "
                f"disk_home path ({self.disk_home!r}) and load it in the "
                "receiving process instead — the resident pool does this "
                "automatically — or call compact() first to materialize "
                "the arrays in memory (required before pickling a loaded "
                "index that has pending apply_deltas patches)."
            )
        state = {name: getattr(self, name) for name in _PICKLED_SLOTS}
        # Only graphs with a disk home / non-zero generation carry the
        # extra keys, so payload bytes of purely in-memory generation-0
        # graphs stay byte-identical to the committed tier-2 baselines.
        if self.disk_home is not None:
            state["disk_home"] = self.disk_home
        if self.generation:
            state["generation"] = self.generation
        return state

    def __setstate__(self, state: dict) -> None:
        self.disk_home = None
        self._mmaps = ()
        self.generation = 0
        self._largest_component = None
        self._ranking = None
        for name, value in state.items():
            setattr(self, name, value)
        # The replay log does not travel: an unpickled copy starts its
        # own log at the current generation, so a worker-resident graph
        # can still be patched forward from the generation it arrived at.
        self._delta_log = []
        self._log_from = self.generation
        self._rebuild_derived()

    def _rebuild_derived(self) -> None:
        """Recompute ``index_of`` / ``pair_w`` / ``potential`` / row views.

        ``pair_w[slot]`` was frozen as ``out_uv + b_v·τ_vu`` where the
        second term is exactly the reverse slot's ``out_w`` (same floats,
        same product), and ``potential`` accumulates ``weighted_interest``
        plus the row's pair weights in slot order — repeating both here
        reproduces the original arrays bit-identically.
        """
        nodes = self.nodes
        self.index_of = {node: index for index, node in enumerate(nodes)}
        n = len(nodes)
        offsets, targets, out_w = self.offsets, self.targets, self.out_w
        slot_of_pair: dict[int, int] = {}
        for index in range(n):
            for slot in range(offsets[index], offsets[index + 1]):
                slot_of_pair[index * n + targets[slot]] = slot
        pair_w = [0.0] * len(targets)
        potential = [0.0] * n
        weighted_interest = self.weighted_interest
        for index in range(n):
            total = weighted_interest[index]
            for slot in range(offsets[index], offsets[index + 1]):
                other = targets[slot]
                combined = out_w[slot] + out_w[slot_of_pair[other * n + index]]
                pair_w[slot] = combined
                total += combined
            potential[index] = total
        self.pair_w = pair_w
        self.potential = potential
        self._row_targets = None
        self._row_edges = None
        self._row_id_edges = None
        # Unpickling happens at install time in a pool worker: warm the
        # row views here so the worker's first dispatched solve doesn't
        # pay the build (mirrors the freeze-time warm in ``__init__``).
        self.row_id_edges

    # ------------------------------------------------------------------
    # Out-of-core persistence (see :mod:`repro.graph.storage`)
    # ------------------------------------------------------------------
    def save(self, path) -> "str":
        """Write this freeze to directory ``path`` as an on-disk index.

        Adopts the manifest's content-derived ``payload_token`` and sets
        ``disk_home`` on this instance, so subsequent pool installs ship
        the path instead of the arrays.  Returns the directory path.
        """
        from repro.graph.storage import save_compiled

        return str(save_compiled(self, path))

    @classmethod
    def load(
        cls, path, mmap: bool = True, verify: bool = True
    ) -> "CompiledGraph":
        """Load a saved index (mmap-backed by default; bit-identical).

        The returned instance's ``graph`` is an :class:`ArrayBackedGraph`
        facade, exactly like :meth:`detach` — build problems over
        ``loaded.graph``.  See :func:`repro.graph.storage.load_compiled`.
        """
        from repro.graph.storage import load_compiled

        return load_compiled(path, mmap=mmap, verify=verify)

    @property
    def is_mmap_backed(self) -> bool:
        """Whether the arrays are views over open file mappings."""
        return bool(self._mmaps)

    def close(self) -> None:
        """Release the file mappings of an mmap-backed instance.

        After closing, the arrays are gone (any access raises); the
        worker-side residency store calls this when evicting a mapped
        graph so the address space is actually unmapped instead of
        waiting on GC.  On an in-memory graph it only drops the derived
        start-node ranking; idempotent.
        """
        self._ranking = None
        maps, self._mmaps = self._mmaps, ()
        if not maps:
            return
        # Drop the numpy views the vector engine may hold over the maps
        # (the module-level cache would otherwise pin the buffers).
        discard_vector_mirror(self.payload_token)
        # Release every exported buffer before closing the mappings.
        empty: tuple = ()
        self.offsets = empty
        self.targets = empty
        self.out_w = empty
        self.pair_w = empty
        self.weighted_interest = empty
        self.tightness_weight = empty
        self.potential = empty
        self._component_sizes = None
        self._component_labels = None
        self._largest_component = None
        self._row_targets = None
        self._row_edges = None
        self._row_id_edges = None
        for mapped in maps:
            try:
                mapped.close()
            except BufferError:  # pragma: no cover - external view alive
                # Someone still holds a view (e.g. a numpy array that
                # escaped the cache); the mapping closes when it dies.
                pass

    # ------------------------------------------------------------------
    def detach(self) -> "CompiledGraph":
        """Self-contained copy backed by an :class:`ArrayBackedGraph`.

        The clone shares every array with this index but its ``graph``
        is the dict-free facade instead of the source
        :class:`SocialGraph`, so pickling it (or a problem built over
        ``clone.graph`` — see ``WASOProblem.detached``) ships only the
        flat arrays.  This is the slim payload
        :mod:`repro.parallel.pool` sends to compiled-engine workers.
        """
        clone = CompiledGraph.__new__(CompiledGraph)
        for name in self.__slots__:
            if name not in ("graph", "_ranking"):
                setattr(clone, name, getattr(self, name))
        clone.graph = ArrayBackedGraph(clone)
        clone._ranking = None
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledGraph(nodes={len(self.nodes)}, "
            f"directed_slots={len(self.targets)})"
        )

    def index(self, node: NodeId) -> int:
        """Int index of ``node`` (KeyError when unknown)."""
        return self.index_of[node]


class ArrayBackedGraph:
    """Topology-only :class:`SocialGraph` facade over a compiled index.

    Implements exactly the subset of the graph API the compiled execution
    stack touches between ``WASOProblem.compiled()`` and the returned
    solution — node membership/iteration, neighbourhoods, connectivity,
    and ``compiled()`` itself — straight off the flat arrays.  Score
    accessors and mutators are deliberately absent: the facade exists so
    :mod:`repro.parallel.pool` can ship workers a payload with **no
    adjacency dicts at all**; anything needing the dict-based reference
    path must keep the full :class:`SocialGraph`.
    """

    def __init__(self, compiled: CompiledGraph) -> None:
        self._compiled = compiled

    # -- node / topology subset ----------------------------------------
    def compiled(self) -> CompiledGraph:
        return self._compiled

    def compiled_if_cached(self) -> CompiledGraph:
        """The backing index (always 'cached' — it is the graph)."""
        return self._compiled

    def has_node(self, node: NodeId) -> bool:
        return node in self._compiled.index_of

    def __contains__(self, node: NodeId) -> bool:
        return node in self._compiled.index_of

    def __len__(self) -> int:
        return len(self._compiled.nodes)

    def nodes(self):
        return iter(self._compiled.nodes)

    def node_list(self) -> list[NodeId]:
        return list(self._compiled.nodes)

    def number_of_nodes(self) -> int:
        return len(self._compiled.nodes)

    def neighbors(self, node: NodeId):
        comp = self._compiled
        try:
            index = comp.index_of[node]
        except KeyError:
            raise NodeNotFoundError(node) from None
        nodes = comp.nodes
        return iter([nodes[other] for other in comp.row_targets[index]])

    def degree(self, node: NodeId) -> int:
        comp = self._compiled
        try:
            return comp.degree(comp.index_of[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def is_connected_subset(self, nodes) -> bool:
        """Index-space BFS twin of ``SocialGraph.is_connected_subset``."""
        comp = self._compiled
        index_of = comp.index_of
        try:
            subset = {index_of[node] for node in nodes}
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None
        if len(subset) <= 1:
            return True
        row_targets = comp.row_targets
        start = next(iter(subset))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for other in row_targets[current]:
                if other in subset and other not in seen:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == len(subset)

    def __getattr__(self, name: str):
        raise AttributeError(
            f"ArrayBackedGraph has no attribute {name!r}: score and "
            "mutation APIs need the full dict-backed SocialGraph — this "
            "facade only ships the compiled arrays to pool workers"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayBackedGraph(nodes={len(self._compiled.nodes)})"
