"""Solver registry — build solvers by name (CLI and bench harness)."""

from __future__ import annotations

from repro.algorithms.base import Solver
from repro.algorithms.cbas import CBAS
from repro.algorithms.cbas_nd import CBASND, CBASNDG
from repro.algorithms.dgreedy import DGreedy
from repro.algorithms.exact import ExactBnB
from repro.algorithms.ip import IPSolver
from repro.algorithms.paper_ip import PaperIPSolver
from repro.algorithms.rgreedy import RGreedy

__all__ = ["available_solvers", "make_solver", "solver_factory"]

_FACTORIES: dict[str, type[Solver]] = {
    "dgreedy": DGreedy,
    "rgreedy": RGreedy,
    "cbas": CBAS,
    "cbas-nd": CBASND,
    "cbas-nd-g": CBASNDG,
    "exact-bnb": ExactBnB,
    "ip": IPSolver,
    "paper-ip": PaperIPSolver,
}


def available_solvers() -> list[str]:
    """Names accepted by :func:`make_solver`."""
    return sorted(_FACTORIES)


def solver_factory(name: str) -> type[Solver]:
    """The solver class behind ``name`` (the runtime layer reads its
    capabilities and request validation reads its signature)."""
    try:
        return _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown solver {name!r}; available: {available_solvers()}"
        ) from None


def make_solver(name: str, **kwargs) -> Solver:
    """Instantiate a solver by its registry name.

    Keyword arguments are forwarded to the solver constructor, so e.g.
    ``make_solver("cbas-nd", budget=500, m=50)`` works.
    """
    return solver_factory(name)(**kwargs)
