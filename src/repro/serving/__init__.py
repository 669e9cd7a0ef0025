"""Overload-safe serving layer on top of the self-healing runtime.

The runtime (:mod:`repro.runtime`) makes one *batch* robust; this
package makes a long-lived *process* robust: a stdlib-asyncio daemon
(:class:`~repro.serving.daemon.ServingDaemon`) that multiplexes tenants'
graphs through the resident pool, with bounded-queue admission control
and typed load shedding (:class:`~repro.serving.admission.
AdmissionController`), SLO-inverted budget routing calibrated online
(:class:`~repro.serving.slo.LatencyCalibrator`), health/readiness
endpoints, degraded-mode serving, and drain-on-shutdown.
"""

from repro.serving.admission import AdmissionController, PendingRequest
from repro.serving.daemon import ServingDaemon, run_daemon
from repro.serving.slo import DEFAULT_WORK_RATES, LatencyCalibrator, SLOPlan

__all__ = [
    "AdmissionController",
    "PendingRequest",
    "ServingDaemon",
    "run_daemon",
    "LatencyCalibrator",
    "SLOPlan",
    "DEFAULT_WORK_RATES",
]
