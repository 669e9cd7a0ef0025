"""SLO-inverted routing: buy the largest budget a latency target affords.

The cost-model router (:mod:`repro.runtime.router`) answers "given a
budget ``T``, which mode should run it?".  A serving daemon faces the
inverse problem: a request arrives with a *latency SLO* instead of a
budget, and more samples are strictly better for solution quality — so
the right budget is the largest one the current hardware can clear
inside the SLO.  :func:`repro.runtime.router.budget_for_slo` does the
inversion over a geometric budget ladder; this module supplies the part
the router cannot know statically: **what the hardware is actually
delivering right now**.

:class:`LatencyCalibrator` maintains one exponentially-weighted moving
average of the observed *work rate* — ``n × T`` work units cleared per
second of solve wall clock — per ``(engine, mode)`` pair, seeded with
conservative cold-start rates derived from the committed
``BENCH_sampler.json`` figures.  Every completed solve feeds an
observation back (:meth:`observe`), so the same SLO buys more samples
on fast hardware, fewer as the machine saturates, and the promise
tracks reality without any offline calibration step.

Every SLO-routed request records the contract in ``SolveStats.extra``:

* ``slo_s`` — the latency objective the client asked for;
* ``slo_budget`` / ``slo_mode`` — what the planner bought with it;
* ``slo_promised_s`` — the latency the plan predicted;
* ``slo_achieved_s`` — the end-to-end latency actually delivered
  (stamped by the daemon when the reply is ready, so it includes queue
  wait and dispatch, not just solve time).

A promise can exceed the SLO only when even the minimum viable budget
does not fit — the plan flags it (:attr:`SLOPlan.overrun`) and the
daemon serves the floor rather than refusing: shedding is admission
control's decision, not the planner's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.router import (
    MAX_SLO_BUDGET,
    MIN_SLO_BUDGET,
    SLO_HEADROOM,
    budget_for_slo,
)

__all__ = ["LatencyCalibrator", "SLOPlan", "DEFAULT_WORK_RATES"]

#: Cold-start work rates (``n × T`` units per second of solve wall
#: clock) per engine, before any observation has arrived.  Derived from
#: the committed ``BENCH_sampler.json`` end-to-end CBAS-ND throughput
#: (samples/sec × n) on the n=1k/10k graphs, then divided by ~4 so a
#: cold daemon under-promises: the first real observations pull the
#: EWMA up to the machine's true rate within a handful of requests.
DEFAULT_WORK_RATES = {
    "reference": 1.2e6,
    "compiled": 3.0e6,
    "vector": 5.0e6,
}

#: Parallel modes clear more work per wall-clock second than serial, but
#: a cold calibrator has no per-mode evidence yet; starting them at the
#: serial rate under-promises, which is the safe direction.
_FALLBACK_RATE = 1.0e6


@dataclass(frozen=True)
class SLOPlan:
    """What a latency SLO bought: a budget, a mode, and a promise."""

    budget: int
    mode: str
    promised_s: float
    slo_s: float

    @property
    def overrun(self) -> bool:
        """Does even this plan's promise exceed the SLO's headroom?

        True only at the budget floor (see module docstring); the
        daemon still serves the request and records the overrun.
        """
        return self.promised_s > SLO_HEADROOM * self.slo_s

    def record(self, extra: dict) -> None:
        """Stamp the promise side of the contract into ``stats.extra``."""
        extra["slo_s"] = self.slo_s
        extra["slo_budget"] = self.budget
        extra["slo_mode"] = self.mode
        extra["slo_promised_s"] = self.promised_s


class LatencyCalibrator:
    """Online EWMA work-rate model, one cell per ``(engine, mode)``.

    Parameters
    ----------
    alpha:
        EWMA weight of a new observation.  0.3 reaches ~97% of a step
        change in ten observations while riding out single-solve noise.
    min_budget / max_budget:
        Planner bounds, forwarded to
        :func:`~repro.runtime.router.budget_for_slo`.
    """

    def __init__(
        self,
        alpha: float = 0.3,
        min_budget: int = MIN_SLO_BUDGET,
        max_budget: int = MAX_SLO_BUDGET,
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.min_budget = min_budget
        self.max_budget = max_budget
        self._rates: "dict[tuple[str, str], float]" = {}
        #: Completed observations folded in, per (engine, mode).
        self.observations: "dict[tuple[str, str], int]" = {}

    # ------------------------------------------------------------------
    def rate(self, engine: str, mode: str) -> float:
        """Current work-rate estimate for ``(engine, mode)`` (units/s)."""
        cell = self._rates.get((engine, mode))
        if cell is not None:
            return cell
        return DEFAULT_WORK_RATES.get(engine, _FALLBACK_RATE)

    def observe(
        self,
        engine: str,
        mode: str,
        n: int,
        budget: int,
        elapsed_s: float,
    ) -> None:
        """Fold one completed solve into the ``(engine, mode)`` cell.

        ``elapsed_s`` is the solve's own wall clock (the daemon passes
        ``stats.elapsed_seconds``); queue wait is deliberately excluded
        — it is admission's latency, not the hardware's, and folding it
        in would make overload look like slow silicon and spiral the
        budgets down.
        """
        if elapsed_s <= 0 or n <= 0 or budget <= 0:
            return  # degenerate observation; nothing to learn from
        observed = (n * budget) / elapsed_s
        key = (engine, mode)
        previous = self.rate(engine, mode)
        self._rates[key] = (
            self.alpha * observed + (1 - self.alpha) * previous
        )
        self.observations[key] = self.observations.get(key, 0) + 1

    # ------------------------------------------------------------------
    def plan(self, n: int, slo_s: float, engine: str, route) -> SLOPlan:
        """The largest-budget plan that fits ``slo_s`` on current rates.

        ``route(budget)`` names the mode the request would run in at
        each candidate budget — the dispatcher's own route, so a plan is
        priced at the rate of the mode it will be observed under.
        """
        budget, mode, promised = budget_for_slo(
            n=n,
            slo_s=slo_s,
            work_rate=lambda candidate_mode: self.rate(
                engine, candidate_mode
            ),
            route=route,
            min_budget=self.min_budget,
            max_budget=self.max_budget,
        )
        return SLOPlan(
            budget=budget, mode=mode, promised_s=promised, slo_s=slo_s
        )

    def snapshot(self) -> dict:
        """Current rates and observation counts (health endpoint)."""
        return {
            f"{engine}/{mode}": {
                "rate": rate,
                "observations": self.observations.get((engine, mode), 0),
            }
            for (engine, mode), rate in sorted(self._rates.items())
        }
