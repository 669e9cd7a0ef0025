"""High-level convenience API.

``recommend_group`` is the one-call entry point a social networking site
would embed: hand it a graph and a group size, get back the recommended
attendees.  ``solve_k_range`` implements the paper's suggestion (§1) that
for activities without a fixed size the user specifies a range of ``k``
and inspects the solution for each.

Both entry points execute through the runtime layer: pass an
:class:`~repro.runtime.context.ExecutionContext` to pick engines, the
worker pool, and parallel-mode routing (and to share those across calls);
without one each call builds a throwaway serial context, which preserves
the historical single-threaded behaviour exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.problem import WASOProblem
from repro.graph.social_graph import SocialGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.base import SolveResult
    from repro.runtime.context import ExecutionContext

__all__ = ["recommend_group", "solve_k_range"]


def _default_context() -> "ExecutionContext":
    from repro.runtime.context import ExecutionContext

    return ExecutionContext(mode="serial")


def recommend_group(
    graph: SocialGraph,
    k: int,
    solver: str = "cbas-nd",
    connected: bool = True,
    required=(),
    forbidden=(),
    rng=None,
    context: "Optional[ExecutionContext]" = None,
    **solver_kwargs,
) -> "SolveResult":
    """Recommend ``k`` attendees for an activity on ``graph``.

    Parameters
    ----------
    graph:
        Social network with interest / tightness scores attached.
    k:
        Number of attendees.
    solver:
        Registry name (default the paper's best performer, CBAS-ND).
    connected:
        ``False`` allows separate sub-groups (WASO-dis).
    required / forbidden:
        Must-include / must-exclude attendees.
    rng:
        Seed or ``random.Random`` for reproducibility.
    context:
        :class:`~repro.runtime.context.ExecutionContext` to execute
        through (engine, workers, parallel-mode routing); a private
        serial one is used when omitted.
    solver_kwargs:
        Forwarded to the solver constructor (``budget``, ``m``, ...).
    """
    problem = WASOProblem(
        graph=graph,
        k=k,
        connected=connected,
        required=frozenset(required),
        forbidden=frozenset(forbidden),
    )
    if context is None:
        context = _default_context()
    return context.solve(problem, solver=solver, rng=rng, **solver_kwargs)


def solve_k_range(
    graph: SocialGraph,
    k_min: int,
    k_max: int,
    solver: str = "cbas-nd",
    connected: bool = True,
    required=(),
    forbidden=(),
    rng=None,
    context: "Optional[ExecutionContext]" = None,
    **solver_kwargs,
) -> dict[int, "SolveResult"]:
    """Solve WASO for every ``k`` in ``[k_min, k_max]``.

    Returns ``{k: SolveResult}`` so the organizer can pick the most
    suitable group size, as the paper proposes for activities without an
    a-priori fixed size.  All solves share one ``context`` (and so one
    frozen graph index and one worker pool).
    """
    if k_min < 1 or k_max < k_min:
        raise ValueError(
            f"need 1 <= k_min <= k_max, got k_min={k_min}, k_max={k_max}"
        )
    if context is None:
        context = _default_context()
    results: dict[int, "SolveResult"] = {}
    for k in range(k_min, k_max + 1):
        results[k] = recommend_group(
            graph,
            k,
            solver=solver,
            connected=connected,
            required=required,
            forbidden=forbidden,
            rng=rng,
            context=context,
            **solver_kwargs,
        )
    return results
