"""Deterministic fault injection for the resident worker pool.

The self-healing machinery of :class:`~repro.parallel.pool.
ResidentPool` (liveness detection, respawn, ledger invalidation, chunk
and shard retry, deadline cancellation) is only trustworthy if its
exact behaviour can be asserted — "kill a worker and see if it
recovers" is not a test unless *which* worker dies, *when*, is
reproducible.  This module provides that
reproducibility: a :class:`FaultPlan` names faults by ``(worker,
rpc)`` coordinates, where ``rpc`` counts the parent's sends to that
worker slot (1-based, monotone across respawns), and the pool consults
the plan at its single send/receive choke points
(:meth:`~repro.parallel.pool.ResidentPool._send` /
:meth:`~repro.parallel.pool.ResidentPool._recv`).

Three fault kinds, mirroring the failure modes a long-lived serving
process actually sees:

* **kill** — the worker process is SIGKILLed immediately before the
  parent sends it the named RPC: the send lands in a dead pipe (or a
  soon-to-close one) and the crash surfaces at the next liveness-aware
  wait, exactly like an OOM-killed or segfaulted worker;
* **drop** — the worker's reply to the named RPC is received and
  discarded by the parent, so the wait starves: with a deadline the
  dispatch is cancelled and fails as ``kind="deadline"``, without one it
  models a wedged reply stream;
* **delay** — the reply is held for the given number of seconds before
  delivery, so a generous hold with a short ``deadline_s`` exercises the
  deadline path without any real slowness.

Because every chunk and shard carries explicit seeds, a dispatch retried
after an injected kill is bit-identical to the original — the chaos
suite (``tests/test_faults.py``) asserts equality against fault-free
runs at every dispatch position.

The serving daemon (:mod:`repro.serving`) added a fourth fault surface
above the pool — its dispatch loop.  A plan can therefore also carry

* **stalls** — hold the daemon's queue for the given number of seconds
  immediately before it drains its ``seq``-th batch (1-based).  A stall
  longer than the admission controller's queue patience forces
  deterministic ``kind="queue_timeout"`` rejections; a stall combined
  with a burst of arrivals fills the bounded queue and forces
  deterministic ``kind="shed"`` rejections — *which* requests are shed
  depends only on the arrival order, never on timing races.

Worker kills/drops/delays compose with the daemon transparently: the
daemon installs the same plan on its context's pool, so a kill fires
mid-request underneath a served batch — chunk-routed or stage-routed —
exactly as it would under a direct ``solve_many``.

:class:`ArrivalScript` is the other half of daemon chaos: a
deterministic open-loop arrival schedule (bursts, uniform rates, seeded
Poisson processes) that the chaos suite and the serving bench replay
against the daemon, so an overload scenario that exposed a shedding bug
can be reproduced exactly.

The hook is test-only by design: the pool exposes a ``fault_plan``
attribute, ``None`` by default, with zero cost on the hot path beyond
one attribute check.  Production code must never set it.
"""

from __future__ import annotations

import random

__all__ = ["ArrivalScript", "FaultPlan", "NEXT_RPC"]

#: Sentinel RPC position: the fault fires on the *next* send to the
#: worker, whatever its absolute sequence number — convenient for
#: injecting into an already-warm pool (the bench does this).
NEXT_RPC = "next"


class FaultPlan:
    """A deterministic schedule of injected pool faults.

    Parameters
    ----------
    kills:
        Iterable of ``(worker, rpc)``: SIGKILL the worker's process just
        before the parent sends it its ``rpc``-th message (1-based; the
        count is monotone per worker slot, surviving respawns).  ``rpc``
        may be :data:`NEXT_RPC` to fire on the next send regardless of
        position.
    drops:
        Iterable of ``(worker, rpc)``: discard the worker's reply to
        that message after it arrives (the wait then starves until its
        deadline).
    delays:
        Mapping ``(worker, rpc) -> seconds``: hold the reply for that
        long before delivering it (a hold past the request's deadline
        cancels the dispatch instead).
    stalls:
        Mapping ``batch -> seconds`` for the serving daemon's dispatch
        loop: hold the queue for that long immediately before the
        daemon drains its ``batch``-th batch (1-based; ``batch`` may be
        :data:`NEXT_RPC` to stall the next drain regardless of
        position).  Ignored by the pool — only
        :class:`~repro.serving.daemon.ServingDaemon` consults it.

    Each fault fires at most once; :attr:`log` records every firing as
    ``(kind, worker, rpc)`` (``("stall", "queue", batch)`` for queue
    stalls) so tests can assert a fault actually triggered (a kill
    planned past the last RPC never fires).
    """

    def __init__(
        self,
        kills: "tuple | list" = (),
        drops: "tuple | list" = (),
        delays: "dict | None" = None,
        stalls: "dict | None" = None,
    ) -> None:
        self._kills = list(kills)
        self._drops = list(drops)
        self._delays = dict(delays or {})
        self._stalls = dict(stalls or {})
        #: Faults that actually fired, in firing order.
        self.log: "list[tuple]" = []

    # ------------------------------------------------------------------
    @staticmethod
    def _matches(spec: tuple, worker: int, seq: int) -> bool:
        spec_worker, spec_rpc = spec
        return spec_worker == worker and (
            spec_rpc == NEXT_RPC or spec_rpc == seq
        )

    def kill_before_send(self, worker: int, seq: int) -> bool:
        """Should the worker be killed before its ``seq``-th send?"""
        for spec in self._kills:
            if self._matches(spec, worker, seq):
                self._kills.remove(spec)
                self.log.append(("kill", worker, seq))
                return True
        return False

    def reply_disposition(self, worker: int, seq: int):
        """How to treat the reply to the worker's ``seq``-th RPC.

        Returns ``None`` (deliver normally), ``"drop"`` (discard), or a
        float (hold for that many seconds before delivering).
        """
        for spec in self._drops:
            if self._matches(spec, worker, seq):
                self._drops.remove(spec)
                self.log.append(("drop", worker, seq))
                return "drop"
        for spec, hold in list(self._delays.items()):
            if self._matches(spec, worker, seq):
                del self._delays[spec]
                self.log.append(("delay", worker, seq))
                return float(hold)
        return None

    def queue_stall(self, batch: int) -> "float | None":
        """Seconds to hold the daemon's queue before draining ``batch``.

        Consulted by the serving daemon's dispatch loop with its
        1-based batch ordinal; returns ``None`` when no stall is
        planned there.  Fires at most once per planned position, like
        every other fault.
        """
        for spec, hold in list(self._stalls.items()):
            if spec == NEXT_RPC or spec == batch:
                del self._stalls[spec]
                self.log.append(("stall", "queue", batch))
                return float(hold)
        return None

    # ------------------------------------------------------------------
    @classmethod
    def seeded(
        cls,
        seed: int,
        workers: int,
        rpcs: int,
        kills: int = 1,
        drops: int = 0,
    ) -> "FaultPlan":
        """A reproducible random plan over ``workers × rpcs`` positions.

        Draws ``kills + drops`` distinct ``(worker, rpc)`` positions
        from a :class:`random.Random` seeded with ``seed`` — the same
        seed always yields the same plan, so a chaos run that exposed a
        recovery bug can be replayed exactly.
        """
        if kills + drops > workers * rpcs:
            raise ValueError(
                f"cannot place {kills + drops} faults over "
                f"{workers * rpcs} (worker, rpc) positions"
            )
        rng = random.Random(seed)
        positions = [
            (worker, rpc)
            for worker in range(workers)
            for rpc in range(1, rpcs + 1)
        ]
        chosen = rng.sample(positions, kills + drops)
        return cls(kills=chosen[:kills], drops=chosen[kills:])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(kills={self._kills!r}, drops={self._drops!r}, "
            f"delays={self._delays!r}, stalls={self._stalls!r}, "
            f"fired={self.log!r})"
        )


class ArrivalScript:
    """A deterministic open-loop arrival schedule for daemon chaos/bench.

    An *open-loop* load generator sends each request at its scheduled
    instant regardless of how the server is coping — that is what makes
    overload visible (a closed loop self-throttles and can never
    oversubscribe the queue).  The script is just the schedule: a tuple
    of non-negative :attr:`offsets` in seconds from the run's start,
    one per request, in send order.  Constructors cover the three
    shapes the chaos suite and ``bench_serving_daemon`` replay:

    * :meth:`burst` — ``count`` simultaneous arrivals (offset 0),
      the canonical queue-filling overload;
    * :meth:`uniform` — ``count`` arrivals at a fixed ``rate`` per
      second, the steady-state load curve;
    * :meth:`poisson` — a seeded Poisson process (exponential
      inter-arrivals), reproducible per seed like
      :meth:`FaultPlan.seeded`.
    """

    def __init__(self, offsets) -> None:
        self.offsets = tuple(float(offset) for offset in offsets)
        if any(offset < 0 for offset in self.offsets):
            raise ValueError("arrival offsets must be non-negative")

    def __len__(self) -> int:
        return len(self.offsets)

    def __iter__(self):
        return iter(self.offsets)

    @classmethod
    def burst(cls, count: int, at: float = 0.0) -> "ArrivalScript":
        """``count`` simultaneous arrivals at offset ``at``."""
        return cls([at] * count)

    @classmethod
    def uniform(cls, count: int, rate: float) -> "ArrivalScript":
        """``count`` arrivals at a constant ``rate`` per second."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return cls(index / rate for index in range(count))

    @classmethod
    def poisson(cls, seed: int, count: int, rate: float) -> "ArrivalScript":
        """A seeded Poisson arrival process with mean ``rate`` per second."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        rng = random.Random(seed)
        offsets, clock = [], 0.0
        for _ in range(count):
            clock += rng.expovariate(rate)
            offsets.append(clock)
        return cls(offsets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrivalScript({len(self.offsets)} arrivals)"
