"""Serving-layer request objects for the batched ``solve_many`` front door.

A :class:`SolveRequest` is one user's planning query: a problem (graph +
group size + constraints), the solver to run, its configuration, and a
per-request seed.  :meth:`ExecutionContext.solve_many
<repro.runtime.context.ExecutionContext.solve_many>` takes a list of
them — heterogeneous ``k`` / constraints / solvers / budgets over one
shared graph — and multiplexes them over the runtime's pool.

:func:`request_from_spec` builds a request from a plain dict (one JSONL
line of the CLI's ``solve-many`` subcommand, or one message of a future
network front end).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from repro.algorithms.base import RngLike
from repro.core.problem import WASOProblem
from repro.graph.social_graph import SocialGraph

__all__ = ["SolveRequest", "request_from_spec", "valid_spec_keys"]

#: Spec keys that configure the problem rather than the solver.
_PROBLEM_KEYS = (
    "k",
    "connected",
    "required",
    "forbidden",
    "solver",
    "seed",
    "deadline_s",
    "graph_path",
)

#: Solver-constructor parameters a spec must *not* set: they carry live
#: execution state (the pool, strategies) that a JSON request cannot name.
_EXECUTION_ONLY_PARAMS = frozenset({"context", "executor"})


def valid_spec_keys(solver: str) -> "frozenset[str] | None":
    """Spec keys :func:`request_from_spec` accepts for ``solver``.

    The problem keys plus the solver factory's keyword parameters
    (minus the execution-state ones a serialized request cannot carry).
    Returns ``None`` for open ``**kwargs`` factories (e.g. the
    ``cbas-nd-g`` wrapper), whose keys cannot be enumerated from the
    signature — they validate at construction time instead.  Raises
    ``ValueError`` for an unknown solver name.
    """
    from repro.algorithms.registry import solver_factory

    params = inspect.signature(solver_factory(solver)).parameters
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ):
        return None
    return frozenset(params) - _EXECUTION_ONLY_PARAMS


@dataclass
class SolveRequest:
    """One planning request for the batched front door.

    Parameters
    ----------
    problem:
        The WASO instance to solve.
    solver:
        Registry name of the solver (a name, not an instance, so the
        request can be shipped to a worker process).
    rng:
        Per-request seed (or ``None`` for a nondeterministic run).  A
        shared :class:`random.Random` instance forces the whole batch to
        run serially in request order — that is the only way its stream
        consumption can match a hand-written loop.
    solver_kwargs:
        Solver configuration (``budget``, ``m``, ``stages``, ...),
        forwarded to the registry factory.
    deadline_s:
        Optional wall-clock budget, in seconds from the moment the
        batch starts executing.  A request whose dispatch is still
        pending when the deadline passes is cancelled and fails into
        :class:`~repro.exceptions.BatchExecutionError` with a
        ``kind="deadline"`` failure — the rest of the batch is
        unaffected.  Enforcement is at dispatch boundaries: a reply
        that already arrived is never discarded, and in-parent
        execution is not interrupted mid-solve.
    """

    problem: WASOProblem
    solver: str = "cbas-nd"
    rng: RngLike = None
    solver_kwargs: dict = field(default_factory=dict)
    deadline_s: "float | None" = None

    def __post_init__(self) -> None:
        if not isinstance(self.solver, str):
            raise TypeError(
                "SolveRequest.solver must be a registry name (str) so the "
                f"request stays shippable, got {type(self.solver).__name__}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )

    @property
    def budget(self) -> int:
        """The request's sample budget (0 when the solver has none)."""
        budget = self.solver_kwargs.get("budget")
        return int(budget) if budget is not None else 0


def request_from_spec(graph: SocialGraph, spec: dict) -> SolveRequest:
    """Build a :class:`SolveRequest` from a plain dict over ``graph``.

    Recognized keys: ``k`` (required), ``connected`` (default ``True``),
    ``required`` / ``forbidden`` (node-id lists), ``solver`` (registry
    name, default ``"cbas-nd"``), ``seed`` (int), ``deadline_s``
    (per-request wall-clock budget in seconds), ``graph_path`` (a saved
    frozen-index directory to solve over instead of ``graph``), and any
    remaining keys are passed through as solver kwargs (``budget``,
    ``m``, ...).

    A remaining key the solver's factory does not accept raises
    ``ValueError`` naming the valid keys — a typo like ``deadline`` for
    ``deadline_s`` must fail at the front door, not be silently
    dropped into a request that then ignores its deadline.
    """
    if "k" not in spec:
        raise ValueError(f"request spec needs a 'k' field: {spec!r}")
    graph_path = spec.get("graph_path")
    if graph_path is not None:
        # Path-installed tenant: the request names a saved frozen index
        # instead of relying on the connection's default graph.  Loading
        # goes through the process cache (one mapping per path), and the
        # typed storage errors propagate so the daemon can answer with
        # an "invalid" reply rather than dropping the connection.
        from repro.graph.io import load_cached_graph

        graph = load_cached_graph(graph_path)
    problem = WASOProblem(
        graph=graph,
        k=int(spec["k"]),
        connected=bool(spec.get("connected", True)),
        required=frozenset(spec.get("required", ())),
        forbidden=frozenset(spec.get("forbidden", ())),
    )
    solver_kwargs = {
        key: value for key, value in spec.items() if key not in _PROBLEM_KEYS
    }
    solver = spec.get("solver", "cbas-nd")
    accepted = valid_spec_keys(solver)  # unknown solver raises here
    if accepted is not None:
        unknown = sorted(set(solver_kwargs) - accepted)
        if unknown:
            valid = sorted(set(_PROBLEM_KEYS) | accepted)
            raise ValueError(
                f"unknown request key(s) {', '.join(map(repr, unknown))} "
                f"for solver {solver!r}; valid keys: {valid}"
            )
    deadline_s = spec.get("deadline_s")
    return SolveRequest(
        problem=problem,
        solver=solver,
        rng=spec.get("seed"),
        solver_kwargs=solver_kwargs,
        deadline_s=float(deadline_s) if deadline_s is not None else None,
    )
