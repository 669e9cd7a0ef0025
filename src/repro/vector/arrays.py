"""Numpy mirror of a :class:`~repro.graph.compiled.CompiledGraph`.

The compiled index stores its CSR topology and per-node/per-edge weights
as plain Python lists (cheap to pickle, fast to index from the scalar
kernels).  The vector kernels need the same data as contiguous numpy
arrays; :class:`VectorGraph` converts each list once, and the
module-level cache keeps **one mirror per** ``payload_token``, tagged
with the generation it reflects — the identity the residency protocol
tracks — so:

* repeated solves on one graph reuse the arrays;
* a pool worker, which receives the *detached* payload
  (``detach()`` shares the lists and the token), builds the arrays once
  per resident graph, not once per solve;
* an :meth:`~repro.graph.compiled.CompiledGraph.apply_deltas` patch
  bumps the generation, and the next lookup patches the mirror forward
  instead of converting it again: when every op since the mirror's
  generation is a ``set_tightness`` the topology is unchanged, so the
  new mirror shares the old one's arrays except ``pair_w``, a copy with
  both endpoint rows of each op re-synced from the compiled lists —
  byte-identical to a fresh conversion.  Structural ops, or a span the
  bounded delta log no longer covers, take the full conversion;
* an out-of-band graph mutation mints a new token and therefore a new
  mirror.

A patch builds a new mirror and never writes into the old one, so
arrays a running kernel already holds stay consistent.  The cache holds
a handful of tokens with least-recently-used eviction, and the workers'
resident stores drop an evicted graph's mirror explicitly.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["VectorGraph", "vector_graph_for", "discard_vector_graph"]

#: Graphs kept vectorized at once; matches the spirit of the workers'
#: bounded resident stores (a serving session rotates a few graphs).
_CACHE_LIMIT = 8

_CACHE: "OrderedDict[str, VectorGraph]" = OrderedDict()


class VectorGraph:
    """Contiguous numpy mirror of one compiled graph's flat arrays.

    The constructor is the full conversion; :func:`vector_graph_for`
    derives later generations from a cached mirror when it can.
    """

    __slots__ = (
        "generation",
        "offsets",
        "targets",
        "pair_w",
        "weighted_interest",
        "degrees",
        "number_of_nodes",
    )

    def __init__(self, compiled) -> None:
        self.generation = compiled.generation
        self.offsets = np.asarray(compiled.offsets, dtype=np.int64)
        self.targets = np.asarray(compiled.targets, dtype=np.int64)
        self.pair_w = np.asarray(compiled.pair_w, dtype=np.float64)
        self.weighted_interest = np.asarray(
            compiled.weighted_interest, dtype=np.float64
        )
        self.degrees = np.diff(self.offsets)
        self.number_of_nodes = compiled.number_of_nodes


def _patched(old: VectorGraph, compiled) -> "VectorGraph | None":
    """``old`` brought forward to ``compiled``'s generation, or None.

    None when the delta log cannot replay the span or the span holds a
    structural op; the caller then converts from scratch.
    """
    batches = compiled.delta_batches_since(old.generation)
    if batches is None:
        return None
    rows = set()
    index_of = compiled.index_of
    for batch in batches:
        for op in batch:
            if op[0] != "set_tightness":
                return None
            rows.add(index_of[op[1]])
            rows.add(index_of[op[2]])
    graph = VectorGraph.__new__(VectorGraph)
    graph.generation = compiled.generation
    graph.offsets = old.offsets
    graph.targets = old.targets
    graph.weighted_interest = old.weighted_interest
    graph.degrees = old.degrees
    graph.number_of_nodes = old.number_of_nodes
    graph.pair_w = pair_w = old.pair_w.copy()
    offsets, source = compiled.offsets, compiled.pair_w
    for row in rows:
        start, stop = offsets[row], offsets[row + 1]
        pair_w[start:stop] = source[start:stop]
    return graph


def vector_graph_for(compiled) -> VectorGraph:
    """The (cached) :class:`VectorGraph` for one compiled index."""
    token = compiled.payload_token
    graph = _CACHE.pop(token, None)
    if graph is not None and graph.generation != compiled.generation:
        graph = _patched(graph, compiled)
    if graph is None:
        graph = VectorGraph(compiled)
    _CACHE[token] = graph
    while len(_CACHE) > _CACHE_LIMIT:
        _CACHE.popitem(last=False)
    return graph


def discard_vector_graph(token: str) -> None:
    """Drop one graph's cached mirror (no-op if absent).

    ``CompiledGraph.close`` (and ``_materialize``, before patching an
    mmap-backed index) calls this ahead of unmapping: the cached numpy
    views alias the mapped buffers zero-copy, so they must be released
    for the mapping to actually close.  The resident store calls it for
    every graph it evicts, so a worker pins no mirror of a graph it no
    longer holds.
    """
    _CACHE.pop(token, None)
