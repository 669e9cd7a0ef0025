"""Exception hierarchy for the WASO reproduction library.

All library-raised errors derive from :class:`ReproError` so callers can
catch one base class.  Specific subclasses communicate *which* invariant was
violated; they are raised eagerly (fail fast) rather than propagating bad
state into the solvers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GraphError(ReproError):
    """A structural problem with a :class:`~repro.graph.SocialGraph`."""


class NodeNotFoundError(GraphError, KeyError):
    """A referenced node does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """A referenced edge does not exist in the graph."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"edge ({source!r}, {target!r}) is not in the graph")
        self.source = source
        self.target = target


class DuplicateNodeError(GraphError, ValueError):
    """Attempted to add a node id that already exists."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} already exists in the graph")
        self.node = node


class GraphStorageError(GraphError):
    """An on-disk compiled-graph index is missing, malformed, or unusable.

    Raised by :mod:`repro.graph.storage` for structural problems with a
    saved index directory: no manifest, unparseable manifest, missing
    array files, or node ids that the format cannot represent.
    """


class StorageVersionError(GraphStorageError):
    """A saved index's manifest version is not supported by this build.

    Carries ``found`` and ``supported`` so front doors (the serving
    daemon's ``graph_path`` tenants, the CLI) can answer with a typed
    rejection instead of a crash.
    """

    def __init__(self, found: object, supported: int) -> None:
        super().__init__(
            f"compiled-graph index version {found!r} is not supported "
            f"(this build reads version {supported}); re-run `waso "
            "compile` to regenerate the index"
        )
        self.found = found
        self.supported = supported


class StorageChecksumError(GraphStorageError):
    """A saved index's array bytes do not match its manifest.

    Either the file size diverges from the declared shape or a sha256
    digest mismatches — the index is truncated or corrupted and must be
    regenerated, never silently loaded.
    """


class ProblemSpecificationError(ReproError, ValueError):
    """A :class:`~repro.core.WASOProblem` is ill-formed.

    Examples: ``k`` larger than the graph, a required node that does not
    exist, or required and forbidden sets overlapping.
    """


class InfeasibleProblemError(ReproError):
    """The problem instance admits no feasible solution.

    Raised, for instance, when no connected component can host ``k`` nodes
    together with all required attendees.
    """


class SolverError(ReproError):
    """A solver failed to produce a feasible solution."""


class WorkerCrashError(ReproError):
    """A pool worker process died (or its pipe broke) mid-RPC.

    This is the supervision layer's internal signal: the resident pool
    catches it, respawns the worker, invalidates its residency ledger,
    and re-dispatches the affected work.  It surfaces to callers only as a
    :class:`RequestFailure` with ``kind="worker_crash"`` once the retry
    budget is exhausted.
    """

    def __init__(self, worker: int, message: "str | None" = None) -> None:
        super().__init__(
            message or f"pool worker {worker} died (pipe closed mid-RPC)"
        )
        self.worker = worker


class DeadlineExpiredError(SolverError):
    """An RPC wait outlived its request's deadline.

    Raised by the pool's timeout-aware waits; the offending dispatch is
    cancelled (the worker is killed and respawned) and the expired
    request fails into :class:`BatchExecutionError` with a
    ``kind="deadline"`` :class:`RequestFailure` — the rest of the batch
    is unaffected.
    """

    def __init__(self, worker: "int | None" = None) -> None:
        where = f" (worker {worker})" if worker is not None else ""
        super().__init__(f"request deadline expired mid-dispatch{where}")
        self.worker = worker


class RequestFailure(str):
    """One failed request of a batch, with structured failure fields.

    A ``str`` subclass so historical callers that treated
    ``BatchExecutionError.failures`` values as plain traceback strings
    (``"..." in failure``, ``failure.splitlines()``) keep working, while
    new callers can distinguish retryable from fatal failures:

    * ``kind`` — ``"worker_crash"`` (pool worker died and the retry
      budget ran out; retryable — the request itself may be fine),
      ``"deadline"`` (the request's ``deadline_s`` expired; retryable
      with a larger budget), ``"solver_error"`` (the solve itself
      raised — e.g. infeasible; fatal, a retry would fail identically),
      or one of the serving daemon's admission rejections
      (:mod:`repro.serving`): ``"shed"`` (the request was refused at
      arrival — bounded queue full, tenant over its in-flight limit, or
      the daemon draining; retryable after backing off) and
      ``"queue_timeout"`` (the request was admitted but waited in the
      queue past the admission controller's patience; retryable);
    * ``retries`` — how many re-dispatches were attempted before giving
      up;
    * ``index`` — the request's position in the batch (``None`` when
      unknown).
    """

    KINDS = (
        "worker_crash",
        "deadline",
        "solver_error",
        "shed",
        "queue_timeout",
    )

    def __new__(
        cls,
        message: str,
        kind: str = "solver_error",
        retries: int = 0,
        index: "int | None" = None,
    ) -> "RequestFailure":
        if kind not in cls.KINDS:
            raise ValueError(
                f"kind must be one of {cls.KINDS}, got {kind!r}"
            )
        self = super().__new__(cls, message)
        self.kind = kind
        self.retries = retries
        self.index = index
        return self


class BatchExecutionError(SolverError):
    """One or more requests of a ``solve_many`` batch failed.

    The batch drains fully before this is raised — completed requests
    are never discarded by a neighbour's failure.  ``results`` holds the
    batch outcome in request order (``None`` at each failed slot) and
    ``failures`` maps the failed request indices to
    :class:`RequestFailure` records (``str`` subclasses carrying the
    worker-side traceback plus ``kind`` / ``retries`` / ``index``, so
    callers can tell a crashed worker from an infeasible request); every
    completed result also records the failed indices in
    ``stats.extra["failed_requests"]``.
    """

    def __init__(self, failures: dict, results: list) -> None:
        self.failures = {
            index: (
                failure
                if isinstance(failure, RequestFailure)
                else RequestFailure(failure, index=index)
            )
            for index, failure in dict(failures).items()
        }
        self.results = list(results)
        indices = sorted(self.failures)
        head = self.failures[indices[0]]
        first = head.strip().splitlines()[-1] if head.strip() else head.kind
        super().__init__(
            f"{len(indices)} of {len(results)} batched requests failed "
            f"(indices {indices}); first failure "
            f"[{head.kind}]: {first}"
        )


class BudgetExhaustedError(SolverError):
    """The computational budget ran out before any feasible sample."""


class ConvergenceError(SolverError):
    """An iterative component (CE update, Gaussian OCBA) failed to converge."""
