"""Unified runtime layer: engines, the pool, routing, and batched serving.

This package is the single place execution state lives:

* :class:`~repro.runtime.context.ExecutionContext` — owns engine
  selection, the lazily-created resident worker pool (one set of
  processes for both parallel modes), warm-state storage, and the mode
  router; solvers, the online planner, the CLI, and the bench harness
  all construct their execution state through it.
* :mod:`~repro.runtime.router` — the cost model that resolves
  ``mode="auto"`` to ``serial`` / ``solve`` / ``stage`` per request,
  replacing the old rule-of-thumb comment in :mod:`repro.parallel`.
* :class:`~repro.runtime.requests.SolveRequest` /
  :func:`~repro.runtime.requests.request_from_spec` — the request
  objects :meth:`ExecutionContext.solve_many
  <repro.runtime.context.ExecutionContext.solve_many>` batches.
"""

from repro.runtime.context import ExecutionContext
from repro.runtime.requests import (
    SolveRequest,
    request_from_spec,
    valid_spec_keys,
)
from repro.runtime.router import (
    MODES,
    budget_for_slo,
    budget_ladder,
    choose_mode,
    validate_mode,
)

__all__ = [
    "ExecutionContext",
    "SolveRequest",
    "request_from_spec",
    "valid_spec_keys",
    "MODES",
    "budget_for_slo",
    "budget_ladder",
    "choose_mode",
    "validate_mode",
]
