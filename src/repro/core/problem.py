"""The WASO problem specification.

A :class:`WASOProblem` bundles the social graph with everything a solver
needs to know about one planning request:

* ``k`` — the expected number of attendees (§2.1);
* ``connected`` — whether the induced subgraph must be connected
  (``False`` gives WASO-dis, §2.2);
* ``required`` — attendees that must be in the group.  The paper's user
  study runs "with initiator" variants (§5.2) and its future-work section
  asks for user-specified must-include attendees — both map onto this set;
* ``forbidden`` — people excluded up front (the paper's preprocessing
  footnote: unavailable users, people who live too far, ...).

Validation happens eagerly in ``__post_init__`` so solvers can assume a
well-formed instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from repro.exceptions import InfeasibleProblemError, ProblemSpecificationError
from repro.graph.social_graph import NodeId, SocialGraph

__all__ = ["WASOProblem", "problem_from_payload_spec"]


def problem_from_payload_spec(compiled, spec: dict) -> "WASOProblem":
    """Rebuild a :class:`WASOProblem` from resident arrays + a spec dict.

    ``compiled`` is the worker-resident
    :class:`~repro.graph.compiled.CompiledGraph` whose
    ``payload_token`` matched ``spec["token"]``; the returned problem is
    backed by its dict-free :class:`~repro.graph.compiled.
    ArrayBackedGraph` facade, exactly like :meth:`WASOProblem.detached`.
    """
    if compiled.payload_token != spec["token"]:
        raise ValueError(
            f"resident graph {compiled.payload_token!r} does not match "
            f"problem spec {spec['token']!r}"
        )
    generation = spec.get("gen", 0)
    resident = getattr(compiled, "generation", 0)
    if resident != generation:
        raise ValueError(
            f"resident graph {compiled.payload_token!r} is at generation "
            f"{resident}, problem spec expects generation {generation}"
        )
    return WASOProblem(
        graph=compiled.graph,
        k=spec["k"],
        connected=spec["connected"],
        required=frozenset(spec["required"]),
        forbidden=frozenset(spec["forbidden"]),
    )


@dataclass(frozen=True)
class WASOProblem:
    """One WASO instance: pick ``k`` nodes of ``graph`` maximizing willingness.

    Parameters
    ----------
    graph:
        The social network (interest + tightness scores attached).
    k:
        Number of attendees to select.
    connected:
        Require the induced subgraph to be connected (default, the paper's
        base formulation).  ``False`` yields WASO-dis.
    required:
        Nodes that must appear in every feasible solution.
    forbidden:
        Nodes that may never appear.
    """

    graph: SocialGraph
    k: int
    connected: bool = True
    required: FrozenSet[NodeId] = field(default_factory=frozenset)
    forbidden: FrozenSet[NodeId] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "required", frozenset(self.required))
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        if self.k < 1:
            raise ProblemSpecificationError(
                f"group size k must be at least 1, got {self.k}"
            )
        if self.k > self.graph.number_of_nodes():
            raise ProblemSpecificationError(
                f"k={self.k} exceeds the graph size "
                f"{self.graph.number_of_nodes()}"
            )
        for node in self.required | self.forbidden:
            if not self.graph.has_node(node):
                raise ProblemSpecificationError(
                    f"constraint references unknown node {node!r}"
                )
        overlap = self.required & self.forbidden
        if overlap:
            raise ProblemSpecificationError(
                f"nodes both required and forbidden: {sorted(map(repr, overlap))}"
            )
        if len(self.required) > self.k:
            raise ProblemSpecificationError(
                f"{len(self.required)} required nodes cannot fit in k={self.k}"
            )

    # ------------------------------------------------------------------
    # Candidate / feasibility helpers
    # ------------------------------------------------------------------
    def is_candidate(self, node: NodeId) -> bool:
        """True iff ``node`` may appear in a solution."""
        return self.graph.has_node(node) and node not in self.forbidden

    def candidates(self) -> list[NodeId]:
        """All selectable nodes (graph minus forbidden)."""
        return [n for n in self.graph.nodes() if n not in self.forbidden]

    def ensure_feasible(self) -> None:
        """Raise :class:`InfeasibleProblemError` if no solution can exist.

        Checks component capacities: for connected WASO some allowed
        component (containing all required nodes, if any) must hold at
        least ``k`` allowed nodes.  Unconstrained instances (empty
        ``forbidden``) whose graph already carries a fresh compiled index
        are validated from its cached component labels instead of a
        per-call BFS — this runs before *every* solve, so repeated solves
        on one unconstrained graph pay O(required), not O(V+E).  A
        non-empty ``forbidden`` set (e.g. online declines) still needs
        the BFS: allowed-induced components differ from graph components.
        """
        if not self.forbidden and self._ensure_feasible_compiled():
            return
        allowed = set(self.candidates())
        if len(allowed) < self.k:
            raise InfeasibleProblemError(
                f"only {len(allowed)} allowed nodes for k={self.k}"
            )
        if not self.connected:
            return
        components = self._allowed_components(allowed)
        required = set(self.required)
        if required:
            hosts = [c for c in components if required <= c]
            if not hosts:
                raise InfeasibleProblemError(
                    "required nodes do not share a connected component of "
                    "allowed nodes"
                )
            if all(len(c) < self.k for c in hosts):
                raise InfeasibleProblemError(
                    f"no component containing the required nodes has >= "
                    f"{self.k} allowed nodes"
                )
        elif all(len(c) < self.k for c in components):
            raise InfeasibleProblemError(
                f"no connected component of allowed nodes has >= {self.k} nodes"
            )

    def _ensure_feasible_compiled(self) -> bool:
        """Feasibility check off the cached compiled index.

        Only valid with an empty ``forbidden`` set (allowed components ==
        graph components).  Returns ``True`` when the check ran (raising
        on infeasibility), ``False`` when no fresh freeze is cached and
        the caller must fall back to the dict-path BFS.
        """
        accessor = getattr(self.graph, "compiled_if_cached", None)
        compiled = accessor() if accessor is not None else None
        if compiled is None:
            return False
        if self.graph.number_of_nodes() < self.k:
            raise InfeasibleProblemError(
                f"only {self.graph.number_of_nodes()} allowed nodes "
                f"for k={self.k}"
            )
        if not self.connected:
            return True
        sizes = compiled.component_size_by_index()
        if self.required:
            labels = compiled.component_label_by_index()
            index_of = compiled.index_of
            indices = [index_of[node] for node in self.required]
            host = labels[indices[0]]
            if any(labels[index] != host for index in indices):
                raise InfeasibleProblemError(
                    "required nodes do not share a connected component of "
                    "allowed nodes"
                )
            if sizes[indices[0]] < self.k:
                raise InfeasibleProblemError(
                    f"no component containing the required nodes has >= "
                    f"{self.k} allowed nodes"
                )
        elif max(sizes) < self.k:
            raise InfeasibleProblemError(
                f"no connected component of allowed nodes has >= {self.k} nodes"
            )
        return True

    def compiled(self):
        """Compiled flat-array index of this problem's graph.

        The freeze is cached on the graph (mutation-aware), so repeated
        solves and online re-planning rounds on the same network share one
        index, and pickling the problem for the process pool ships the
        frozen arrays along.
        """
        return self.graph.compiled()

    def payload_token(self) -> str:
        """Identity tag of this problem's frozen graph arrays.

        The token names one freeze of the graph (it survives pickling and
        :meth:`detached`), so a persistent worker pool can key its
        resident graph payloads by it: re-plans on the same graph reuse
        the resident arrays, while any mutation produces a fresh freeze —
        and therefore a fresh token — invalidating them.
        """
        return self.compiled().payload_token

    def payload_spec(self) -> dict:
        """Everything but the graph, as a small picklable dict.

        A pool worker whose resident arrays match
        :meth:`payload_token` rebuilds this exact problem with
        :func:`problem_from_payload_spec` — re-plans (a growing
        ``forbidden`` set on an unchanged graph) ship only this spec,
        never the O(V+E) arrays.

        When the graph has been patched in place (``apply_deltas``), the
        spec also carries the index *generation* so a worker whose
        resident copy missed a patch fails loudly instead of solving a
        stale topology.  Generation-0 specs omit the key, keeping their
        pickled bytes identical to pre-delta builds.
        """
        spec = {
            "token": self.payload_token(),
            "k": self.k,
            "connected": self.connected,
            "required": tuple(self.required),
            "forbidden": tuple(self.forbidden),
        }
        generation = getattr(self.compiled(), "generation", 0)
        if generation:
            spec["gen"] = generation
        return spec

    def detached(self) -> "WASOProblem":
        """Slim, dict-free copy of this problem for worker processes.

        The copy's graph is the compiled index's
        :class:`~repro.graph.compiled.ArrayBackedGraph` facade: it serves
        topology (candidates, neighbourhoods, connectivity) and the
        compiled engine's evaluator from the flat arrays, but none of the
        score/mutation APIs the dict-based reference path needs.  Pickling
        it ships only the arrays — no adjacency dicts — which is what
        :mod:`repro.parallel.pool` sends to compiled-engine workers.
        Solving the copy with ``engine="compiled"`` is bit-identical to
        solving the original.
        """
        compiled = self.compiled().detach()
        return WASOProblem(
            graph=compiled.graph,
            k=self.k,
            connected=self.connected,
            required=self.required,
            forbidden=self.forbidden,
        )

    def allowed_component_sizes(self) -> dict[NodeId, int]:
        """Size of each allowed node's connected component (allowed-induced).

        CBAS uses this to skip start nodes whose component cannot hold a
        ``k``-group instead of burning budget on doomed expansions.
        """
        sizes: dict[NodeId, int] = {}
        for component in self._allowed_components(set(self.candidates())):
            size = len(component)
            for node in component:
                sizes[node] = size
        return sizes

    def _allowed_components(self, allowed: set[NodeId]) -> list[set[NodeId]]:
        """Connected components of the subgraph induced by allowed nodes."""
        remaining = set(allowed)
        components: list[set[NodeId]] = []
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            stack = [start]
            while stack:
                current = stack.pop()
                for neighbour in self.graph.neighbors(current):
                    if neighbour in remaining and neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
            components.append(seen)
            remaining -= seen
        return components

    def with_k(self, k: int) -> "WASOProblem":
        """Copy of this problem with a different group size."""
        return WASOProblem(
            graph=self.graph,
            k=k,
            connected=self.connected,
            required=self.required,
            forbidden=self.forbidden,
        )

    def without_nodes(self, nodes) -> "WASOProblem":
        """Copy with extra nodes moved to the forbidden set.

        Used by the online re-planner when attendees decline (§4.4.1).
        """
        extra = frozenset(nodes)
        return WASOProblem(
            graph=self.graph,
            k=self.k,
            connected=self.connected,
            required=self.required - extra,
            forbidden=self.forbidden | extra,
        )
