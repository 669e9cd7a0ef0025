"""Cost-model routing between the execution modes.

PR 3 left the choice between the two parallel modes to a rule-of-thumb
comment in :mod:`repro.parallel` ("one big solve → stage-level; many
small solves → solve-level").  This module turns that comment into
tested code: :func:`choose_mode` answers, for one request of size
``(n, budget)`` arriving in a batch of ``batch_size``, which execution
mode the runtime should use.

The model behind the thresholds
-------------------------------
A solve's work is roughly proportional to ``n × T`` — ``T`` complete
samples, each an O(k·deg) expansion whose constant grows with the graph
(frontier size, CE vector width).  Parallel execution buys that work
with fixed overheads:

* **stage mode** pays one RPC round per OCBA stage (ship shard budgets +
  CE patches, collect summaries) plus a one-off O(V+E) payload install,
  so it only wins when the per-stage draw work dwarfs the round trips —
  a *single large* solve;
* **solve mode** historically paid one O(V+E) graph pickle per worker
  chunk *per batch*; since the pool became resident
  (:class:`~repro.parallel.pool.ResidentPool`), that cost is paid
  at most once per (graph, worker) *session*, and what remains per
  request is a fixed dispatch overhead — an O(1) payload-spec pickle
  out, one result pickle back, one solver construction in the worker.
  Each worker still refits its CE vectors from only its own requests'
  evidence, which is exactly right for *many independent* requests:
  every request runs serially inside one worker at full statistical
  strength;
* **serial** pays nothing, and on one core is also the fastest option.

``STAGE_WORK_THRESHOLD`` is calibrated from the repo's own benches: the
Fig. 5(d) stage-parallel point (n=600, T=1600 → 9.6e5) and the
``BENCH_sampler`` gate point (n=10k, T=3200 → 3.2e7) must route to
stage mode, while the test-suite-sized solves (n≈200, T≈120 → 2.4e4)
must stay serial — their wall clock is smaller than a handful of RPCs.

``MIN_SOLVE_WORK`` is the re-calibration for the resident path: the old
model multiplexed *any* multi-request batch, because batching was what
amortized the per-chunk graph pickle.  With the graph resident, the
per-request overhead no longer scales with the graph at all, so the
threshold compares a request's work volume ``n × T`` against the fixed
dispatch round trip instead — only genuinely tiny solves (n·T below a
few thousand; sub-millisecond inline) now stay out of the pool, and
budget-less solvers (T=0, e.g. DGreedy), whose work the model cannot
see, conservatively run inline.
"""

from __future__ import annotations

import os

__all__ = [
    "MODES",
    "STAGE_WORK_THRESHOLD",
    "MIN_STAGE_BUDGET",
    "MIN_SOLVE_WORK",
    "VECTOR_SPEEDUP",
    "MIN_SLO_BUDGET",
    "MAX_SLO_BUDGET",
    "SLO_HEADROOM",
    "budget_ladder",
    "budget_for_slo",
    "validate_mode",
    "choose_mode",
]

#: Execution modes the runtime understands.  ``auto`` resolves to one of
#: the other three via :func:`choose_mode`.
MODES = ("auto", "serial", "solve", "stage")

#: Minimum ``n × budget`` work volume before stage-sharding a single
#: solve beats running it inline (see the module docstring's
#: calibration).
STAGE_WORK_THRESHOLD = 500_000

#: Below this budget a solve has too few draws per (stage, start, shard)
#: for the shard protocol to amortize, whatever the graph size.
MIN_STAGE_BUDGET = 256

#: Minimum ``n × budget`` work volume before multiplexing a batched
#: request onto the resident pool beats solving it inline
#: (see the module docstring: the resident protocol removed the
#: per-batch graph pickle, leaving only the fixed per-request dispatch
#: round trip to amortize).
MIN_SOLVE_WORK = 2_000

#: How much faster the vector engine's batched kernel clears one unit of
#: ``n × budget`` work than the scalar compiled kernels (the
#: ``BENCH_sampler`` vector gate demands ≥ 5× over the reference path,
#: i.e. ≈ 2× over compiled; 4 is the conservative routing figure).  A
#: vector request's work volume is divided by this before both
#: break-even tests: a solve must be that much larger before sharding
#: (or multiplexing) outruns the in-process kernel.
VECTOR_SPEEDUP = 4


def validate_mode(mode: str) -> str:
    """Validate and return an execution mode name."""
    if mode not in MODES:
        raise ValueError(
            f"mode must be one of {'|'.join(MODES)}, got {mode!r}"
        )
    return mode


def choose_mode(
    n: int,
    budget: int,
    batch_size: int = 1,
    workers: "int | None" = None,
    cpu_count: "int | None" = None,
    healthy: bool = True,
    engine: str = "compiled",
) -> str:
    """Pick the execution mode for one request.

    Parameters
    ----------
    n:
        Number of graph nodes the request solves over.
    budget:
        The request's sample budget ``T`` (0 for budget-less solvers
        such as DGreedy — they always route serial).
    batch_size:
        How many requests share the call (``solve_many`` passes the
        batch length; single solves pass 1).
    workers:
        Requested worker count (``None`` = one per CPU).  The effective
        parallelism is capped by ``cpu_count`` — asking for 8 workers on
        one core buys nothing, so the router degrades to serial there.
    cpu_count:
        Override for ``os.cpu_count()`` (tests).
    healthy:
        Whether the runtime's pool is trustworthy.  ``False`` — the
        pool has exhausted its crash-retry budget — routes everything
        serial: in-parent execution is the graceful-degradation floor
        that cannot be taken out by dying workers.
    engine:
        The request's sampling engine.  ``"vector"`` clears work
        :data:`VECTOR_SPEEDUP` times faster in-process, which moves both
        parallel break-evens up by the same factor.

    Returns one of ``"serial"`` / ``"solve"`` / ``"stage"`` — never
    ``"auto"``, and always ``"serial"`` on a single-CPU machine.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not healthy:
        # Degraded runtime: keep serving, without the pool.
        return "serial"
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    effective = min(workers, cpus) if workers is not None else cpus
    if effective <= 1:
        # One core: every parallel mode only adds process overhead.
        return "serial"
    work = n * budget
    if engine == "vector":
        work //= VECTOR_SPEEDUP
    if budget >= MIN_STAGE_BUDGET and work >= STAGE_WORK_THRESHOLD:
        # A single large solve: only stage-sharding can accelerate it
        # (splitting its budget would weaken the CE fit instead), and
        # that holds whether it arrives alone or inside a batch.
        return "stage"
    if batch_size > 1 and work >= MIN_SOLVE_WORK:
        # Many small solves: multiplex whole requests onto the resident
        # pool, each running serially at full statistical
        # strength inside one worker.  Requests below the work floor
        # (including budget-less solvers, whose work the model cannot
        # see) finish inline faster than their dispatch round trip.
        return "solve"
    return "serial"


# ----------------------------------------------------------------------
# SLO inversion — the serving daemon's budget selection
# ----------------------------------------------------------------------
# :func:`choose_mode` answers "given a budget T, how should it run?".
# The serving daemon asks the inverse question: "given a latency SLO,
# what is the *largest* budget T this hardware can honour?" — more
# budget is strictly better for solution quality (the paper's Fig. 5(b)
# willingness-vs-T curves), so a latency target should buy as many
# samples as it can.  :func:`budget_for_slo` scans a geometric budget
# ladder from the top and returns the first candidate whose predicted
# latency (work volume over an observed work rate) fits inside the SLO,
# together with the mode that candidate would route to and the latency
# it promises.  The work rate is the caller's: the serving layer
# calibrates it online per (engine, mode) from observed solve latencies
# (:class:`repro.serving.slo.LatencyCalibrator`), so the same SLO buys
# more samples on faster hardware — and fewer as the machine saturates.

#: Smallest budget the SLO planner will promise.  Below this a CE solve
#: is statistically meaningless; a request whose SLO cannot even buy
#: this floor is still served at the floor (with the overrun recorded)
#: — admission control and deadlines, not the planner, are the layers
#: that refuse work.
MIN_SLO_BUDGET = 32

#: Largest budget the SLO planner will spend on one request, however
#: generous its SLO — past this the willingness curve is flat and the
#: samples are better spent on other tenants.
MAX_SLO_BUDGET = 25_600

#: Fraction of the SLO the planner is allowed to promise.  The model is
#: an EWMA over noisy observations; the slack absorbs queueing and
#: dispatch overhead so the *achieved* latency lands inside the SLO.
SLO_HEADROOM = 0.8


def budget_ladder(
    lo: int = MIN_SLO_BUDGET, hi: int = MAX_SLO_BUDGET
) -> "tuple[int, ...]":
    """Geometric budget candidates from ``lo`` to ``hi``, ascending.

    Steps of ×1.5 keep the ladder short (~16 rungs over the default
    range) while guaranteeing the chosen budget is within ~33% of the
    true maximum the SLO could buy.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    rungs = []
    step = lo
    while step < hi:
        rungs.append(step)
        step = max(step + 1, int(step * 1.5))
    rungs.append(hi)
    return tuple(rungs)


def budget_for_slo(
    n: int,
    slo_s: float,
    work_rate,
    batch_size: int = 1,
    workers: "int | None" = None,
    cpu_count: "int | None" = None,
    healthy: bool = True,
    engine: str = "compiled",
    min_budget: int = MIN_SLO_BUDGET,
    max_budget: int = MAX_SLO_BUDGET,
    headroom: float = SLO_HEADROOM,
) -> "tuple[int, str, float]":
    """Largest ``(budget, mode, promised_s)`` that fits a latency SLO.

    Parameters
    ----------
    n, batch_size, workers, cpu_count, healthy, engine:
        As in :func:`choose_mode` — every candidate budget is routed
        through it, so the promise accounts for the mode the request
        would actually run in (a degraded runtime plans against its
        serial work rate, not the pool's).
    slo_s:
        The request's end-to-end latency objective in seconds.
    work_rate:
        ``callable(mode) -> float``: observed work units (``n × T``)
        cleared per second of solve wall clock when running in
        ``mode``.  The serving layer passes its online calibrator.
    min_budget / max_budget / headroom:
        Planner bounds (see the module constants).

    Returns ``(budget, mode, promised_s)``.  ``promised_s`` is the
    predicted latency of the chosen budget; it exceeds
    ``headroom × slo_s`` only when even ``min_budget`` does not fit —
    the caller should surface that overrun rather than refuse the
    request.
    """
    if slo_s <= 0:
        raise ValueError(f"slo_s must be positive, got {slo_s}")
    if not 0 < headroom <= 1:
        raise ValueError(f"headroom must be in (0, 1], got {headroom}")

    def _candidate(budget: int) -> "tuple[int, str, float]":
        mode = choose_mode(
            n=n,
            budget=budget,
            batch_size=batch_size,
            workers=workers,
            cpu_count=cpu_count,
            healthy=healthy,
            engine=engine,
        )
        rate = float(work_rate(mode))
        if rate <= 0:
            raise ValueError(f"work_rate({mode!r}) must be positive")
        return budget, mode, (n * budget) / rate

    allowance = headroom * slo_s
    for budget in reversed(budget_ladder(min_budget, max_budget)):
        candidate = _candidate(budget)
        if candidate[2] <= allowance:
            return candidate
    # Nothing fits: serve the floor anyway and let the caller record
    # the promised overrun (shedding is admission control's job).
    return _candidate(min_budget)
