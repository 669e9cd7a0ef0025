"""Admission control: the layer that keeps an overloaded daemon standing.

A serving process that accepts everything it is offered does not degrade
under overload — it collapses: the queue grows without bound, every
request's latency climbs past its deadline, memory follows the queue,
and by the time anything completes, nobody is still waiting for it.
The admission controller makes the opposite trade, explicitly:

* **bounded queue** — at most ``max_queue`` requests wait for dispatch;
  an arrival past that is *shed* immediately with a typed
  ``kind="shed"`` rejection (a cheap, honest "retry later") instead of
  being buffered into a latency it can never meet;
* **per-tenant in-flight limits** — one tenant bursting cannot occupy
  the whole queue; past ``max_inflight_per_tenant`` admitted-but-
  unanswered requests, that tenant's arrivals shed while others' are
  admitted;
* **queue patience** — an admitted request that waits past
  ``queue_timeout_s`` is rejected with ``kind="queue_timeout"`` at the
  next dispatch boundary: once it has waited that long, solving it
  serves nobody (the client has moved on) and only steals capacity from
  requests that can still meet their deadlines;
* **deadline awareness** — a request whose own ``deadline_s`` budget is
  already exhausted by queueing fails as ``kind="deadline"`` without
  wasting a solve on it.

Decisions are made synchronously in arrival order on the daemon's event
loop, so under a fixed arrival script *which* requests are shed is a
pure function of the schedule — the chaos suite asserts the exact set.

Rejections reuse :class:`~repro.exceptions.RequestFailure`, the same
typed record batch failures use, so clients see one failure vocabulary
end to end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import RequestFailure

__all__ = ["AdmissionController", "PendingRequest"]


@dataclass
class PendingRequest:
    """One admitted request waiting in (or moving through) the queue."""

    id: object
    tenant: str
    spec: dict
    future: object  # asyncio.Future set by the daemon with the outcome
    arrived_at: float  # time.monotonic() at admission
    deadline_at: Optional[float] = None  # absolute monotonic instant
    slo_s: Optional[float] = None
    extra: dict = field(default_factory=dict)

    def queue_wait(self, now: Optional[float] = None) -> float:
        return (now if now is not None else time.monotonic()) - self.arrived_at


class AdmissionController:
    """Bounded-queue admission with typed rejections and tenant fairness.

    Parameters
    ----------
    max_queue:
        Queue depth bound.  Arrivals while the queue is full are shed.
    max_inflight_per_tenant:
        Per-tenant cap on admitted-but-unanswered requests (``None`` =
        unlimited).  Counts queued *and* dispatched requests — a tenant
        is only charged down when its reply is settled.
    queue_timeout_s:
        Patience bound (``None`` = wait forever).  Enforced at dispatch
        boundaries, matching the pool's deadline philosophy: a request
        already handed to the solver is never abandoned retroactively.
    """

    def __init__(
        self,
        max_queue: int = 64,
        max_inflight_per_tenant: Optional[int] = None,
        queue_timeout_s: Optional[float] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_inflight_per_tenant is not None and max_inflight_per_tenant < 1:
            raise ValueError(
                "max_inflight_per_tenant must be >= 1, got "
                f"{max_inflight_per_tenant}"
            )
        if queue_timeout_s is not None and queue_timeout_s <= 0:
            raise ValueError(
                f"queue_timeout_s must be positive, got {queue_timeout_s}"
            )
        self.max_queue = max_queue
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.queue_timeout_s = queue_timeout_s
        self._queue: "list[PendingRequest]" = []
        self._inflight: "dict[str, int]" = {}
        #: Monotone counters; ``received == admitted + shed`` and every
        #: admitted request ends in exactly one of ``completed`` /
        #: ``failed`` / ``queue_timeouts`` / ``deadline_missed`` — the
        #: zero-dropped-requests invariant the bench gate checks.
        self.counters = {
            "received": 0,
            "admitted": 0,
            "shed": 0,
            "queue_timeouts": 0,
            "deadline_missed": 0,
            "completed": 0,
            "failed": 0,
        }

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently waiting for dispatch."""
        return len(self._queue)

    def inflight(self, tenant: str) -> int:
        return self._inflight.get(tenant, 0)

    # ------------------------------------------------------------------
    def admit(
        self, entry: PendingRequest, draining: bool = False
    ) -> Optional[RequestFailure]:
        """Admit ``entry`` or return the typed rejection, synchronously.

        Called in arrival order; the decision depends only on the
        queue/in-flight state left by earlier arrivals, never on
        timing, so a fixed arrival script sheds a fixed set.
        """
        self.counters["received"] += 1
        rejection = None
        if draining:
            rejection = RequestFailure(
                "daemon is draining: not admitting new requests",
                kind="shed",
            )
        elif len(self._queue) >= self.max_queue:
            rejection = RequestFailure(
                f"admission queue full ({self.max_queue} waiting); "
                "retry after backoff",
                kind="shed",
            )
        elif (
            self.max_inflight_per_tenant is not None
            and self.inflight(entry.tenant) >= self.max_inflight_per_tenant
        ):
            rejection = RequestFailure(
                f"tenant {entry.tenant!r} at its in-flight limit "
                f"({self.max_inflight_per_tenant}); retry after backoff",
                kind="shed",
            )
        if rejection is not None:
            self.counters["shed"] += 1
            return rejection
        self.counters["admitted"] += 1
        self._inflight[entry.tenant] = self.inflight(entry.tenant) + 1
        self._queue.append(entry)
        return None

    # ------------------------------------------------------------------
    def dispatchable(self, held=frozenset()) -> bool:
        """Is a request of a tenant outside ``held`` waiting?"""
        return any(entry.tenant not in held for entry in self._queue)

    def take_batch(
        self,
        max_size: int,
        now: Optional[float] = None,
        held=frozenset(),
    ) -> "tuple[list[PendingRequest], list[tuple[PendingRequest, RequestFailure]]]":
        """Pop the next dispatch batch, rejecting stale entries first.

        Returns ``(batch, rejected)``: up to ``max_size`` dispatchable
        entries in admission order, plus every entry swept out at this
        boundary — queue patience exceeded (``kind="queue_timeout"``)
        or its own deadline budget exhausted (``kind="deadline"``).
        Entries of ``held`` tenants stay queued, in order, unless swept.
        Rejected entries are settled here (tenant charge released);
        batch entries stay charged until :meth:`settle`.
        """
        if now is None:
            now = time.monotonic()
        batch: "list[PendingRequest]" = []
        rejected: "list[tuple[PendingRequest, RequestFailure]]" = []
        kept: "list[PendingRequest]" = []
        while self._queue and len(batch) < max_size:
            entry = self._queue.pop(0)
            waited = entry.queue_wait(now)
            if (
                self.queue_timeout_s is not None
                and waited > self.queue_timeout_s
            ):
                failure = RequestFailure(
                    f"queued {waited:.3f}s, past the admission "
                    f"controller's {self.queue_timeout_s}s patience",
                    kind="queue_timeout",
                )
                self.counters["queue_timeouts"] += 1
                self._settle_tenant(entry)
                rejected.append((entry, failure))
                continue
            if entry.deadline_at is not None and now >= entry.deadline_at:
                failure = RequestFailure(
                    "request deadline expired while queued",
                    kind="deadline",
                )
                self.counters["deadline_missed"] += 1
                self._settle_tenant(entry)
                rejected.append((entry, failure))
                continue
            (kept if entry.tenant in held else batch).append(entry)
        self._queue[:0] = kept
        return batch, rejected

    # ------------------------------------------------------------------
    def settle(self, entry: PendingRequest, ok: bool) -> None:
        """Release ``entry``'s tenant charge once its reply is decided."""
        self._settle_tenant(entry)
        self.counters["completed" if ok else "failed"] += 1

    def _settle_tenant(self, entry: PendingRequest) -> None:
        remaining = self.inflight(entry.tenant) - 1
        if remaining > 0:
            self._inflight[entry.tenant] = remaining
        else:
            self._inflight.pop(entry.tenant, None)

    def snapshot(self) -> dict:
        """Counters plus live depth (health/metrics endpoints)."""
        return {
            **self.counters,
            "queue_depth": self.depth,
            "inflight": dict(self._inflight),
        }
