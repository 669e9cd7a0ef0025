"""Solver interface shared by every WASO algorithm."""

from __future__ import annotations

import abc
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.core.problem import WASOProblem
from repro.core.solution import GroupSolution
from repro.core.willingness import validate_engine
from repro.exceptions import SolverError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import ExecutionContext

__all__ = [
    "Solver",
    "ContextSolver",
    "SolveResult",
    "SolveStats",
    "coerce_rng",
]

RngLike = Union[None, int, random.Random]


def coerce_rng(rng: RngLike) -> random.Random:
    """Accept ``None`` / seed / ``random.Random`` and return a generator."""
    if rng is None:
        return random.Random()
    if isinstance(rng, random.Random):
        return rng
    return random.Random(rng)


@dataclass
class SolveStats:
    """Bookkeeping a solver reports alongside its solution.

    ``samples_drawn`` counts complete k-node candidate groups evaluated
    (the paper's unit of computational budget T); ``failed_samples`` counts
    expansions that stalled before reaching k nodes; ``stages`` is the
    number of OCBA stages actually executed.  ``extra`` holds
    solver-specific diagnostics (e.g. per-start-node budgets).
    """

    samples_drawn: int = 0
    failed_samples: int = 0
    stages: int = 0
    elapsed_seconds: float = 0.0
    extra: dict = field(default_factory=dict)


@dataclass
class SolveResult:
    """A solution plus the statistics of the run that produced it."""

    solution: GroupSolution
    stats: SolveStats

    @property
    def willingness(self) -> float:
        return self.solution.willingness

    @property
    def members(self):
        return self.solution.members


class Solver(abc.ABC):
    """Base class: configure once, :meth:`solve` many problems.

    Subclasses implement :meth:`_solve`; the public :meth:`solve` wraps it
    with validation, RNG coercion, wall-clock timing, and a final
    feasibility assertion so no solver can silently return an infeasible
    group.
    """

    #: Short identifier used by the registry and the bench harness.
    name: str = "solver"

    def solve(self, problem: WASOProblem, rng: RngLike = None) -> SolveResult:
        """Solve ``problem`` and return a feasible :class:`SolveResult`."""
        problem.ensure_feasible()
        generator = coerce_rng(rng)
        started = time.perf_counter()
        result = self._solve(problem, generator)
        result.stats.elapsed_seconds = time.perf_counter() - started
        violations = result.solution.check_feasible(problem)
        if violations:
            raise SolverError(
                f"{self.name} produced an infeasible solution: "
                + "; ".join(violations)
            )
        return result

    @abc.abstractmethod
    def _solve(
        self, problem: WASOProblem, rng: random.Random
    ) -> SolveResult:
        """Produce a solution (feasibility is checked by the caller)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class ContextSolver(Solver):
    """Solver whose execution state lives on an
    :class:`~repro.runtime.context.ExecutionContext`.

    Subclasses call :meth:`_init_context` from their constructor: a
    caller-supplied context provides the engine, the stage-executor
    routing, and the worker pool; without one the solver gets a private
    *serial* context, which reproduces the historical direct-call
    behaviour bit for bit (the deprecated ``engine=`` kwarg delegates to
    that private context).
    """

    #: The runtime layer this solver executes through.
    context: "ExecutionContext"
    #: Resolved engine name (the context's unless ``engine=`` overrode it).
    engine: str

    def _init_context(
        self,
        engine: Optional[str],
        context: "Optional[ExecutionContext]",
    ) -> None:
        if context is None:
            from repro.runtime.context import ExecutionContext

            # Private serial context: no pool, no auto-routing — a bare
            # ``Solver().solve()`` stays exactly the historical serial run.
            context = ExecutionContext(
                engine=engine if engine is not None else "compiled",
                mode="serial",
            )
        self.context = context
        self.engine = (
            validate_engine(engine) if engine is not None else context.engine
        )

    def __getstate__(self) -> dict:
        # Contexts hold a worker pool (pipes, processes) that cannot cross
        # a process boundary; worker-side solves are serial, so ship the
        # solver without it and let ``__setstate__`` rebuild a private one.
        state = self.__dict__.copy()
        state["context"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.__dict__.get("context") is None:
            from repro.runtime.context import ExecutionContext

            self.context = ExecutionContext(engine=self.engine, mode="serial")
