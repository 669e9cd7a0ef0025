"""Chaos and correctness suite for the overload-safe serving daemon.

What must hold (see ``repro/serving/``):

* **differential** — seeded requests served through the daemon are
  bit-identical to calling ``ExecutionContext.solve_many`` directly, on
  both the compiled and vector engines, and stay bit-identical while a
  chaos plan kills pool workers underneath the served batch;
* **overload** — under a fixed arrival script with the dispatch loop
  stalled, exactly the scripted set of requests is shed, with typed
  ``kind="shed"`` / ``kind="queue_timeout"`` rejections, and the
  admission counters balance (``received == admitted + shed``, nothing
  dropped without a reply);
* **deadlines** — a request whose deadline expires while queued fails
  with ``kind="deadline"`` without wasting a solve;
* **SLO routing** — ``slo_s`` requests get a budget bought from the
  online-calibrated work-rate model, with the full contract
  (``slo_s`` / ``slo_budget`` / ``slo_promised_s`` / ``slo_achieved_s``)
  stamped in the reply;
* **lifecycle** — drain-on-shutdown answers every admitted request,
  sheds arrivals during the drain, and leaves no orphan worker
  processes; health endpoints answer plain HTTP on the serving port,
  including the degraded state after a pool exhausts its retries.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.exceptions import RequestFailure
from repro.graph.generators import facebook_like
from repro.graph.io import save_json
from repro.parallel import NEXT_RPC, FaultPlan
from repro.runtime import ExecutionContext, request_from_spec
from repro.runtime.router import MIN_STAGE_BUDGET, STAGE_WORK_THRESHOLD
from repro.serving import (
    AdmissionController,
    LatencyCalibrator,
    PendingRequest,
    ServingDaemon,
)
from repro.serving.daemon import MAX_LINE_BYTES

pytestmark = pytest.mark.chaos

#: stats.extra keys that describe warmth/shipping/recovery rather than
#: the solve itself (mirrors the chaos suite in test_faults.py).
_VOLATILE_KEYS = frozenset(
    {
        "graph_shipped",
        "graph_installs",
        "batch_payload_bytes",
        "shard_rpcs",
        "shard_patch_bytes",
        "graph_patch_bytes",
        "stage_workers",
        "failed_requests",
        "worker_restarts",
        "chunk_retries",
        "degraded_to_serial",
        "deadline_missed",
    }
)


@pytest.fixture
def no_orphans():
    before = set(multiprocessing.active_children())
    yield
    deadline = time.monotonic() + 5.0
    while True:
        leaked = set(multiprocessing.active_children()) - before
        if not leaked:
            return
        if time.monotonic() >= deadline:
            raise AssertionError(f"orphan worker processes: {leaked}")
        time.sleep(0.02)


# ----------------------------------------------------------------------
# Client helpers
# ----------------------------------------------------------------------
async def _send_all(host: int, port: int, specs) -> "dict[object, dict]":
    """Send every spec on one connection, return replies keyed by id."""
    reader, writer = await asyncio.open_connection(host, port)
    for spec in specs:
        raw = spec if isinstance(spec, str) else json.dumps(spec)
        writer.write(raw.encode() + b"\n")
    await writer.drain()
    writer.write_eof()
    replies = {}
    while True:
        line = await reader.readline()
        if not line:
            break
        reply = json.loads(line)
        replies[reply["id"]] = reply
    writer.close()
    await writer.wait_closed()
    return replies


async def _http_request(
    host: str, port: int, path: str, method: str = "GET"
) -> "tuple[int, bytes, bytes]":
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), head, body


async def _http_get(host: str, port: int, path: str) -> "tuple[int, dict]":
    code, _, body = await _http_request(host, port, path)
    return code, json.loads(body)


def _daemon_kwargs(**overrides) -> dict:
    kwargs = {"workers": 2, "cpu_count": 4}
    kwargs.update(overrides)
    return kwargs


def _specs(count: int = 4, engine: str = "compiled", **extra) -> list:
    return [
        {
            "id": f"r{index}",
            "k": 5,
            "budget": 40,
            "m": 4,
            "stages": 2,
            "engine": engine,
            "seed": 20 + index,
            **extra,
        }
        for index in range(count)
    ]


def _direct_results(graph, specs, **context_kwargs):
    requests = [
        request_from_spec(
            graph,
            {k: v for k, v in spec.items() if k not in ("id", "tenant")},
        )
        for spec in specs
    ]
    with ExecutionContext(workers=2, cpu_count=4, **context_kwargs) as context:
        return context.solve_many(requests)


def _assert_reply_matches(reply: dict, result) -> None:
    assert reply["ok"], reply
    assert reply["members"] == sorted(map(str, result.solution.members))
    assert reply["willingness"] == result.solution.willingness
    assert reply["stats"]["samples_drawn"] == result.stats.samples_drawn
    assert reply["stats"]["failed_samples"] == result.stats.failed_samples
    assert reply["stats"]["stages"] == result.stats.stages
    strip = lambda extra: {  # noqa: E731
        key: value
        for key, value in extra.items()
        if key not in _VOLATILE_KEYS
    }
    assert strip(reply["extra"]) == strip(result.stats.extra)


# ----------------------------------------------------------------------
# Differential: daemon == direct solve_many, with and without chaos
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("engine", ["compiled", "vector"])
    def test_daemon_matches_direct_solve_many(
        self, small_facebook, no_orphans, engine
    ):
        specs = _specs(engine=engine)
        direct = _direct_results(small_facebook, specs)

        async def scenario():
            # Stall the first dispatch so all four arrivals coalesce
            # into one batch — the multi-request residency path.
            daemon = ServingDaemon(
                small_facebook,
                fault_plan=FaultPlan(stalls={1: 0.3}),
                **_daemon_kwargs(),
            )
            host, port = await daemon.start()
            try:
                replies = await _send_all(host, port, specs)
            finally:
                await daemon.shutdown()
            assert daemon.counters["batches"] == 1
            return replies

        replies = asyncio.run(scenario())
        assert len(replies) == len(specs)
        for spec, result in zip(specs, direct):
            _assert_reply_matches(replies[spec["id"]], result)

    def test_worker_kills_under_served_batch_are_invisible(
        self, small_facebook, no_orphans
    ):
        """A chaos plan SIGKILLs a pool worker mid-request *through the
        daemon*: the batch recovers and every reply is bit-identical to
        the fault-free direct run."""
        specs = _specs()
        direct = _direct_results(small_facebook, specs)

        async def scenario():
            plan = FaultPlan(kills=[(0, NEXT_RPC)], stalls={1: 0.3})
            daemon = ServingDaemon(
                small_facebook,
                mode="solve",  # force the pool so the kill lands
                fault_plan=plan,
                **_daemon_kwargs(),
            )
            host, port = await daemon.start()
            try:
                replies = await _send_all(host, port, specs)
            finally:
                await daemon.shutdown()
            assert ("kill", 0) in {
                (event, worker) for event, worker, _ in plan.log
            }, "the injected kill never fired"
            return replies

        replies = asyncio.run(scenario())
        for index, (spec, result) in enumerate(zip(specs, direct)):
            reply = replies[spec["id"]]
            _assert_reply_matches(reply, result)
            # One round placed the requests on workers 0, 1, 0, 1: the
            # two whose records worker 0 lost report the restart, the
            # others omit the key.
            lost = index % 2 == 0
            assert reply["extra"].get("worker_restarts") == (
                1 if lost else None
            )

    def test_worker_kills_reach_stage_routed_requests(
        self, small_facebook, no_orphans
    ):
        """The daemon's fault plan sits on the one pool, so it fires under
        a stage-routed request too — and recovery stays invisible."""
        specs = _specs(1)
        direct = _direct_results(small_facebook, specs, mode="stage")

        async def scenario():
            plan = FaultPlan(kills=[(0, NEXT_RPC)])
            daemon = ServingDaemon(
                small_facebook,
                mode="stage",
                fault_plan=plan,
                **_daemon_kwargs(),
            )
            host, port = await daemon.start()
            try:
                replies = await _send_all(host, port, specs)
            finally:
                await daemon.shutdown()
            return replies, plan.log

        replies, log = asyncio.run(scenario())
        assert log, "the injected kill never fired"
        reply = replies[specs[0]["id"]]
        _assert_reply_matches(reply, direct[0])
        assert reply["extra"]["worker_restarts"] >= 1

    def test_stage_solve_behind_chunks_in_flight_is_invisible(
        self, small_facebook, no_orphans
    ):
        """A stage-routed request taken while chunks are in flight on
        both workers queues its shards behind them; a kill on worker 0
        then loses a chunk and the stage set-up together, and every
        reply still equals direct ``solve_many``."""
        big = max(
            MIN_STAGE_BUDGET,
            -(-STAGE_WORK_THRESHOLD // small_facebook.number_of_nodes()),
        )
        specs = _specs(2) + [
            {"id": "big", "k": 5, "budget": big, "m": 6, "stages": 3,
             "seed": 7},
        ]
        direct = _direct_results(small_facebook, specs)

        async def scenario():
            # Worker 0's sends: 1 = install, 2 = request r0's chunk,
            # 3 = the stage solve's spec, sent while the chunk is out.
            plan = FaultPlan(kills=[(0, 3)], stalls={1: 0.3})
            daemon = ServingDaemon(
                small_facebook, fault_plan=plan, **_daemon_kwargs()
            )
            host, port = await daemon.start()
            try:
                replies = await _send_all(host, port, specs)
            finally:
                await daemon.shutdown()
            assert daemon.counters["batches"] == 1
            return replies, plan.log

        replies, log = asyncio.run(scenario())
        assert log == [("stall", "queue", 1), ("kill", 0, 3)]
        for spec, result in zip(specs, direct):
            _assert_reply_matches(replies[spec["id"]], result)
        assert "shard_rpcs" in replies["big"]["extra"]
        assert replies["big"]["extra"]["worker_restarts"] == 1
        assert "shard_rpcs" not in replies["r0"]["extra"]

    def test_client_disconnect_mid_solve_keeps_daemon_serving(
        self, small_facebook, no_orphans
    ):
        """A client that vanishes (RST) while its admitted request is
        still solving must not poison the dispatch loop: the orphaned
        solve completes into nowhere and *later* clients still get
        their answers."""

        async def scenario():
            daemon = ServingDaemon(
                small_facebook,
                fault_plan=FaultPlan(stalls={1: 0.4}),
                **_daemon_kwargs(),
            )
            host, port = await daemon.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                # SO_LINGER(1, 0) turns the abort below into a hard RST
                # (a plain close is a polite FIN the daemon just reads
                # as EOF) — the server's readline raises mid-solve and
                # connection cleanup cancels the pending delivery task
                # while the dispatcher still holds the shared future.
                sock = writer.get_extra_info("socket")
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                writer.write(
                    json.dumps(
                        {"id": "gone", "k": 4, "budget": 40, "seed": 1}
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                await asyncio.sleep(0.1)  # admitted; batch still stalled
                writer.transport.abort()
                # Bounded wait: a daemon whose dispatcher died never
                # answers, and this must fail, not hang the suite.
                replies = await asyncio.wait_for(
                    _send_all(
                        host,
                        port,
                        [{"id": "after", "k": 4, "budget": 40, "seed": 2}],
                    ),
                    timeout=30,
                )
            finally:
                # Also bounded: shutdown drains connection tasks that
                # never settle if the dispatcher died.
                await asyncio.wait_for(daemon.shutdown(), timeout=30)
            return replies, daemon.admission.snapshot()

        replies, counters = asyncio.run(scenario())
        assert replies["after"]["ok"], (
            "a disconnecting client must not stop the daemon serving"
        )
        # The orphaned request was admitted, so it was still solved and
        # settled — nothing dropped, counters balance.
        assert counters["admitted"] == 2
        assert counters["completed"] == 2
        assert counters["received"] == (
            counters["admitted"] + counters["shed"]
        )

    def test_multi_tenant_graphs_multiplex_one_batch(self, no_orphans):
        graph_a = facebook_like(120, seed=5)
        graph_b = facebook_like(90, seed=6)
        specs = [
            {"id": "a", "tenant": "alpha", "k": 4, "budget": 40, "seed": 1},
            {"id": "b", "tenant": "beta", "k": 4, "budget": 40, "seed": 2},
            {"id": "a2", "tenant": "alpha", "k": 5, "budget": 40, "seed": 3},
        ]
        direct_a = _direct_results(graph_a, [specs[0], specs[2]])
        direct_b = _direct_results(graph_b, [specs[1]])

        async def scenario():
            daemon = ServingDaemon(
                {"alpha": graph_a, "beta": graph_b},
                fault_plan=FaultPlan(stalls={1: 0.3}),
                **_daemon_kwargs(),
            )
            host, port = await daemon.start()
            try:
                replies = await _send_all(host, port, specs)
            finally:
                await daemon.shutdown()
            assert daemon.counters["batches"] == 1
            return replies

        replies = asyncio.run(scenario())
        _assert_reply_matches(replies["a"], direct_a[0])
        _assert_reply_matches(replies["a2"], direct_a[1])
        _assert_reply_matches(replies["b"], direct_b[0])
        assert replies["a"]["tenant"] == "alpha"
        assert replies["b"]["tenant"] == "beta"


# ----------------------------------------------------------------------
# Overload: deterministic shedding and queue timeouts
# ----------------------------------------------------------------------
class TestOverload:
    def test_burst_past_queue_bound_sheds_exact_tail(
        self, small_facebook, no_orphans
    ):
        """Six arrivals into a 3-deep queue with the dispatcher stalled:
        exactly arrivals 4-6 shed, in arrival order, typed
        ``kind="shed"`` — a pure function of the arrival script."""
        specs = _specs(6)

        async def scenario():
            daemon = ServingDaemon(
                small_facebook,
                max_queue=3,
                fault_plan=FaultPlan(stalls={NEXT_RPC: 1.0}),
                **_daemon_kwargs(),
            )
            host, port = await daemon.start()
            try:
                replies = await _send_all(host, port, specs)
            finally:
                await daemon.shutdown()
            return replies, daemon.admission.snapshot()

        replies, counters = asyncio.run(scenario())
        for admitted_id in ("r0", "r1", "r2"):
            assert replies[admitted_id]["ok"], replies[admitted_id]
        for shed_id in ("r3", "r4", "r5"):
            error = replies[shed_id]["error"]
            assert error["kind"] == "shed"
            assert "queue full" in error["message"]
        assert counters["received"] == 6
        assert counters["admitted"] == 3
        assert counters["shed"] == 3
        assert counters["completed"] == 3
        # Zero dropped-without-reply: every arrival is accounted for.
        assert counters["received"] == (
            counters["admitted"] + counters["shed"]
        )

    def test_queue_patience_rejects_with_queue_timeout(
        self, small_facebook, no_orphans
    ):
        specs = _specs(2)

        async def scenario():
            daemon = ServingDaemon(
                small_facebook,
                queue_timeout_s=0.05,
                fault_plan=FaultPlan(stalls={NEXT_RPC: 0.4}),
                **_daemon_kwargs(),
            )
            host, port = await daemon.start()
            try:
                replies = await _send_all(host, port, specs)
            finally:
                await daemon.shutdown()
            return replies, daemon.admission.snapshot()

        replies, counters = asyncio.run(scenario())
        for spec in specs:
            error = replies[spec["id"]]["error"]
            assert error["kind"] == "queue_timeout"
            assert "patience" in error["message"]
        assert counters["queue_timeouts"] == 2
        assert counters["completed"] == 0

    def test_tenant_inflight_limit_protects_other_tenants(
        self, small_facebook, no_orphans
    ):
        specs = [
            {"id": "h1", "k": 4, "budget": 40, "seed": 1},
            {"id": "h2", "k": 4, "budget": 40, "seed": 2},
            {"id": "h3", "k": 4, "budget": 40, "seed": 3},  # over the cap
            {"id": "ok", "tenant": "quiet", "k": 4, "budget": 40, "seed": 4},
        ]

        async def scenario():
            daemon = ServingDaemon(
                {"default": small_facebook, "quiet": small_facebook},
                max_inflight_per_tenant=2,
                fault_plan=FaultPlan(stalls={NEXT_RPC: 0.8}),
                **_daemon_kwargs(),
            )
            host, port = await daemon.start()
            try:
                replies = await _send_all(host, port, specs)
            finally:
                await daemon.shutdown()
            return replies

        replies = asyncio.run(scenario())
        assert replies["h1"]["ok"] and replies["h2"]["ok"]
        error = replies["h3"]["error"]
        assert error["kind"] == "shed"
        assert "in-flight limit" in error["message"]
        assert replies["ok"]["ok"], "the quiet tenant must not be shed"

    def test_deadline_expired_in_queue_fails_without_a_solve(
        self, small_facebook, no_orphans
    ):
        specs = [
            {"id": "late", "k": 4, "budget": 40, "seed": 1,
             "deadline_s": 0.05},
            {"id": "fine", "k": 4, "budget": 40, "seed": 2},
        ]

        async def scenario():
            daemon = ServingDaemon(
                small_facebook,
                fault_plan=FaultPlan(stalls={NEXT_RPC: 0.4}),
                **_daemon_kwargs(),
            )
            host, port = await daemon.start()
            try:
                replies = await _send_all(host, port, specs)
            finally:
                await daemon.shutdown()
            return replies, daemon.admission.snapshot()

        replies, counters = asyncio.run(scenario())
        assert replies["late"]["error"]["kind"] == "deadline"
        assert replies["fine"]["ok"]
        assert counters["deadline_missed"] == 1


# ----------------------------------------------------------------------
# SLO-inverted routing
# ----------------------------------------------------------------------
class TestSLORouting:
    def test_slo_request_records_the_full_contract(
        self, small_facebook, no_orphans
    ):
        async def scenario():
            daemon = ServingDaemon(small_facebook, **_daemon_kwargs())
            host, port = await daemon.start()
            try:
                replies = await _send_all(
                    host,
                    port,
                    [{"id": "s", "k": 5, "slo_s": 5.0, "seed": 9}],
                )
            finally:
                await daemon.shutdown()
            return replies, daemon.calibrator

        replies, calibrator = asyncio.run(scenario())
        reply = replies["s"]
        assert reply["ok"], reply
        extra = reply["extra"]
        assert extra["slo_s"] == 5.0
        assert extra["slo_budget"] >= calibrator.min_budget
        assert extra["slo_mode"] in ("serial", "solve", "stage")
        assert extra["slo_promised_s"] > 0
        # Achieved latency is end to end (queue + dispatch + solve), so
        # it can only exceed the solve's own wall clock.
        assert extra["slo_achieved_s"] >= reply["stats"]["elapsed_s"]
        assert reply["stats"]["samples_drawn"] == extra["slo_budget"]
        # The completed solve fed the calibration.
        assert sum(calibrator.observations.values()) == 1

    def test_tight_slo_serves_the_floor_and_flags_overrun(
        self, small_facebook, no_orphans
    ):
        async def scenario():
            daemon = ServingDaemon(small_facebook, **_daemon_kwargs())
            host, port = await daemon.start()
            try:
                replies = await _send_all(
                    host,
                    port,
                    [{"id": "t", "k": 5, "slo_s": 1e-7, "seed": 9}],
                )
            finally:
                await daemon.shutdown()
            return replies, daemon.calibrator.min_budget

        replies, floor = asyncio.run(scenario())
        reply = replies["t"]
        assert reply["ok"], "an unmeetable SLO is served, not refused"
        assert reply["extra"]["slo_budget"] == floor
        assert reply["extra"]["slo_overrun"] is True

    def test_pool_routed_solves_feed_the_calibration(
        self, small_facebook, no_orphans
    ):
        """Solves served through the pool report their own wall clock, so
        the (engine, "solve") cell learns and shows on /metrics."""

        async def scenario():
            daemon = ServingDaemon(
                small_facebook, mode="solve", **_daemon_kwargs()
            )
            host, port = await daemon.start()
            try:
                replies = await _send_all(host, port, _specs())
                metrics = await _http_get(host, port, "/metrics")
            finally:
                await daemon.shutdown()
            return replies, metrics

        replies, (code, body) = asyncio.run(scenario())
        for reply in replies.values():
            assert reply["ok"], reply
            assert reply["stats"]["elapsed_s"] > 0
        assert code == 200
        cell = body["calibration"]["compiled/solve"]
        assert cell["observations"] == len(replies) == 4

    def test_calibration_files_the_route_a_solve_ran(self, no_orphans):
        """A reference-engine request large enough for stage mode cannot
        shard, so it runs as a chunk; the calibration files it under
        ``solve``, the route it ran, not the ``stage`` route the router
        first named."""
        graph = facebook_like(500, seed=8)
        budget = max(MIN_STAGE_BUDGET, -(-STAGE_WORK_THRESHOLD // 500))
        spec = {"id": "ref", "k": 4, "budget": budget, "m": 4,
                "stages": 2, "engine": "reference", "seed": 3}

        async def scenario():
            daemon = ServingDaemon(graph, **_daemon_kwargs())
            host, port = await daemon.start()
            try:
                replies = await _send_all(host, port, [spec])
            finally:
                await daemon.shutdown()
            return replies, daemon.calibrator.snapshot()

        replies, calibration = asyncio.run(scenario())
        assert replies["ref"]["ok"], replies["ref"]
        assert calibration["reference/solve"]["observations"] == 1
        assert "reference/stage" not in calibration

    def test_slo_and_budget_are_mutually_exclusive(
        self, small_facebook, no_orphans
    ):
        async def scenario():
            daemon = ServingDaemon(small_facebook, **_daemon_kwargs())
            host, port = await daemon.start()
            try:
                return await _send_all(
                    host,
                    port,
                    [
                        {"id": "x", "k": 5, "slo_s": 1.0, "budget": 100},
                        {"id": "y", "k": 3, "slo_s": 1.0,
                         "solver": "dgreedy"},
                        {"id": "z", "k": 5, "slo_s": -2.0},
                        {"id": "u", "k": 5, "slo_s": 1.0,
                         "solver": "no-such-solver"},
                    ],
                )
            finally:
                await daemon.shutdown()

        replies = asyncio.run(scenario())
        assert replies["x"]["error"]["kind"] == "invalid"
        assert "mutually exclusive" in replies["x"]["error"]["message"]
        assert replies["y"]["error"]["kind"] == "invalid"
        assert "no budget" in replies["y"]["error"]["message"]
        assert replies["z"]["error"]["kind"] == "invalid"
        # An unknown solver on the SLO path is a typed rejection, not a
        # dropped connection (the handler must survive to answer it).
        assert replies["u"]["error"]["kind"] == "invalid"
        assert "unknown solver" in replies["u"]["error"]["message"]

    def test_calibrator_ewma_tracks_observations(self):
        calibrator = LatencyCalibrator(alpha=0.5)
        cold = calibrator.rate("compiled", "serial")
        calibrator.observe("compiled", "serial", n=100, budget=100,
                           elapsed_s=0.001)
        warm = calibrator.rate("compiled", "serial")
        assert warm != cold
        assert warm == pytest.approx(0.5 * (100 * 100 / 0.001) + 0.5 * cold)
        # Degenerate observations are ignored.
        calibrator.observe("compiled", "serial", n=0, budget=100,
                           elapsed_s=0.001)
        assert calibrator.rate("compiled", "serial") == warm
        with pytest.raises(ValueError, match="alpha"):
            LatencyCalibrator(alpha=0.0)


# ----------------------------------------------------------------------
# Request validation at the front door
# ----------------------------------------------------------------------
class TestRequestValidation:
    def test_unknown_keys_and_tenants_are_typed_invalid(
        self, small_facebook, no_orphans
    ):
        async def scenario():
            daemon = ServingDaemon(small_facebook, **_daemon_kwargs())
            host, port = await daemon.start()
            try:
                return await _send_all(
                    host,
                    port,
                    [
                        {"id": "typo", "k": 5, "budgett": 40},
                        {"id": "ghost", "k": 5, "budget": 40,
                         "tenant": "ghost"},
                        {"id": "nok"},
                        "}{ not json",
                        '["a", "list"]',
                    ],
                )
            finally:
                await daemon.shutdown()

        replies = asyncio.run(scenario())
        typo = replies["typo"]["error"]
        assert typo["kind"] == "invalid"
        assert "'budgett'" in typo["message"]
        assert "valid keys" in typo["message"]
        assert replies["ghost"]["error"]["kind"] == "invalid"
        assert "ghost" in replies["ghost"]["error"]["message"]
        assert replies["nok"]["error"]["kind"] == "invalid"
        # Unparseable lines are answered by line number.
        assert replies[4]["error"]["kind"] == "invalid"
        assert "invalid JSON" in replies[4]["error"]["message"]
        assert replies[5]["error"]["kind"] == "invalid"
        assert "JSON object" in replies[5]["error"]["message"]

    def test_mistyped_values_are_typed_invalid(
        self, small_facebook, no_orphans
    ):
        """Wrong-typed values get an ``invalid`` reply naming the key:
        none is converted into a different problem, and a bad seed does
        not fail later inside the solve as a ``solver_error``."""
        named = {
            "k": {"k": 5.7, "budget": 40},
            "k-bool": {"k": True, "budget": 40},
            "connected": {"k": 5, "connected": "false", "budget": 40},
            "seed": {"k": 5, "seed": [1, 2], "budget": 40},
            "deadline_s": {"k": 5, "deadline_s": True, "budget": 40},
            "slo_s": {"k": 5, "slo_s": True},
        }

        async def scenario():
            daemon = ServingDaemon(small_facebook, **_daemon_kwargs())
            host, port = await daemon.start()
            try:
                return await _send_all(
                    host,
                    port,
                    [{"id": name, **spec} for name, spec in named.items()],
                )
            finally:
                await daemon.shutdown()

        replies = asyncio.run(scenario())
        for name in named:
            error = replies[name]["error"]
            key = name.split("-")[0]
            assert error["kind"] == "invalid", (name, error)
            assert f"'{key}'" in error["message"] or error[
                "message"
            ].startswith(f"{key} "), (name, error)

    def test_mistyped_solver_kwarg_fails_only_its_own_request(
        self, small_facebook, no_orphans
    ):
        """A mistyped solver kwarg is ``invalid`` at the front door: it
        never joins a batch, so the good request that would have shared
        the (stalled) first batch with it is still served."""
        specs = [
            {"id": "good", "k": 5, "budget": 40, "seed": 3},
            {"id": "bad", "k": 5, "budget": "abc", "seed": 4},
        ]

        async def scenario():
            daemon = ServingDaemon(
                small_facebook,
                fault_plan=FaultPlan(stalls={1: 0.3}),
                **_daemon_kwargs(),
            )
            host, port = await daemon.start()
            try:
                return await _send_all(host, port, specs)
            finally:
                await daemon.shutdown()

        replies = asyncio.run(scenario())
        assert replies["good"]["ok"], replies["good"]
        error = replies["bad"]["error"]
        assert error["kind"] == "invalid", error
        assert "'budget'" in error["message"]

    def test_cbas_nd_g_typo_is_invalid_at_the_front_door(
        self, small_facebook, no_orphans
    ):
        """``cbas-nd-g`` validates its keys like every solver: a mistyped
        ``deadline`` gets one typed ``invalid`` reply instead of being
        admitted and failing later as a solver error."""
        line = json.dumps(
            {"id": "g", "k": 5, "solver": "cbas-nd-g", "budget": 40,
             "deadline": 1.0}
        ).encode() + b"\n"

        async def scenario():
            daemon = ServingDaemon(small_facebook, workers=1)
            host, port = await daemon.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(line)
                await writer.drain()
                writer.write_eof()
                replies = []
                while reply := await reader.readline():
                    replies.append(json.loads(reply))
                writer.close()
                await writer.wait_closed()
            finally:
                await daemon.shutdown()
            return replies, daemon.counters["invalid"]

        replies, invalid = asyncio.run(scenario())
        assert len(replies) == 1
        assert replies[0]["id"] == "g"
        assert replies[0]["error"]["kind"] == "invalid"
        assert "'deadline'" in replies[0]["error"]["message"]
        assert invalid == 1

    @pytest.mark.parametrize("writes", [1, 5])
    def test_oversized_line_is_answered_and_the_connection_resyncs(
        self, small_facebook, writes
    ):
        """A line past MAX_LINE_BYTES gets one typed ``too_large`` reply,
        counts as invalid, and the next line on the same connection is
        served — whether the long line arrives in one write or several."""
        long_line = (
            b'{"id": "big", "k": 4, "pad": "'
            + b"x" * MAX_LINE_BYTES
            + b'"}\n'
        )
        step = -(-len(long_line) // writes)
        pieces = [
            long_line[offset:offset + step]
            for offset in range(0, len(long_line), step)
        ]
        valid = json.dumps(
            {"id": "after", "k": 4, "budget": 40, "seed": 3}
        ).encode() + b"\n"

        async def scenario():
            daemon = ServingDaemon(small_facebook, workers=1)
            host, port = await daemon.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                for piece in pieces + [valid]:
                    writer.write(piece)
                    await writer.drain()
                    await asyncio.sleep(0.01)
                writer.write_eof()
                replies = []
                while line := await reader.readline():
                    replies.append(json.loads(line))
                writer.close()
                await writer.wait_closed()
            finally:
                await daemon.shutdown()
            return replies, daemon.counters["invalid"]

        replies, invalid = asyncio.run(scenario())
        assert len(replies) == 2
        assert replies[0]["id"] == 1
        assert replies[0]["error"]["kind"] == "too_large"
        assert replies[1]["id"] == "after" and replies[1]["ok"]
        assert invalid == 1


# ----------------------------------------------------------------------
# Lifecycle: drain, degraded serving, health endpoints
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_drain_answers_admitted_and_sheds_new(
        self, small_facebook, no_orphans
    ):
        async def scenario():
            daemon = ServingDaemon(
                small_facebook,
                fault_plan=FaultPlan(stalls={NEXT_RPC: 0.6}),
                **_daemon_kwargs(),
            )
            host, port = await daemon.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                json.dumps({"id": "kept", "k": 4, "budget": 40,
                            "seed": 1}).encode() + b"\n"
            )
            await writer.drain()
            await asyncio.sleep(0.1)  # let the arrival be admitted
            shutdown = asyncio.create_task(daemon.shutdown())
            await asyncio.sleep(0.05)  # shutdown has set draining
            assert daemon.draining
            writer.write(
                json.dumps({"id": "late", "k": 4, "budget": 40,
                            "seed": 2}).encode() + b"\n"
            )
            await writer.drain()
            writer.write_eof()
            replies = {}
            while True:
                line = await reader.readline()
                if not line:
                    break
                reply = json.loads(line)
                replies[reply["id"]] = reply
            writer.close()
            await writer.wait_closed()
            await shutdown
            return replies

        replies = asyncio.run(scenario())
        assert replies["kept"]["ok"], "admitted work must be answered"
        assert replies["late"]["error"]["kind"] == "shed"
        assert "draining" in replies["late"]["error"]["message"]

    def test_shutdown_leaves_no_pool_processes(
        self, small_facebook, no_orphans
    ):
        async def scenario():
            daemon = ServingDaemon(small_facebook, **_daemon_kwargs())
            host, port = await daemon.start()
            replies = await _send_all(
                host, port, [{"id": "w", "k": 4, "budget": 40, "seed": 7}]
            )
            assert replies["w"]["ok"]
            await daemon.shutdown()
            # Double shutdown is a no-op, not an error.
            await daemon.shutdown()

        asyncio.run(scenario())
        # no_orphans asserts every pool worker is gone.

    def test_one_pool_of_w_processes(self, small_facebook, no_orphans):
        """A started daemon pre-spawns exactly W pool workers: both
        parallel modes share them."""

        async def scenario():
            before = set(multiprocessing.active_children())
            daemon = ServingDaemon(small_facebook, **_daemon_kwargs())
            await daemon.start()
            try:
                return set(multiprocessing.active_children()) - before
            finally:
                await daemon.shutdown()

        assert len(asyncio.run(scenario())) == 2

    def test_health_endpoints(self, small_facebook, no_orphans):
        async def scenario():
            daemon = ServingDaemon(small_facebook, **_daemon_kwargs())
            host, port = await daemon.start()
            try:
                health = await _http_get(host, port, "/healthz")
                ready = await _http_get(host, port, "/readyz")
                metrics = await _http_get(host, port, "/metrics")
                missing = await _http_get(host, port, "/nope")
                probe = await _http_request(
                    host, port, "/healthz", method="HEAD"
                )
            finally:
                await daemon.shutdown()
            return health, ready, metrics, missing, probe

        health, ready, metrics, missing, probe = asyncio.run(scenario())
        assert health == (
            200,
            health[1],
        ) and health[1]["status"] == "ok"
        assert health[1]["degraded"] is False
        assert health[1]["admission"]["received"] == 0
        assert ready[0] == 200 and ready[1]["ready"] is True
        assert metrics[0] == 200 and "calibration" in metrics[1]
        assert missing[0] == 404
        # HEAD: GET's status line and headers, but no body.
        code, head, body = probe
        assert code == 200
        assert b"Content-Length" in head
        assert body == b""

    def test_degraded_pool_keeps_serving_and_reports_it(
        self, small_facebook, no_orphans
    ):
        """Two kills against a 1-retry budget degrade the context; the
        daemon keeps answering (in-parent serial) and /healthz says so."""
        specs = _specs()
        direct = _direct_results(small_facebook, specs)

        async def scenario():
            # Worker 0's sends: 1 = install, 2 and 3 = requests 0 and 2
            # (one chunk each); the recovery re-sends them as 4-6, so
            # the second kill lands on the re-install.
            plan = FaultPlan(kills=[(0, 1), (0, 4)], stalls={1: 0.3})
            daemon = ServingDaemon(
                small_facebook,
                mode="solve",
                max_retries=1,
                fault_plan=plan,
                **_daemon_kwargs(),
            )
            host, port = await daemon.start()
            try:
                replies = await _send_all(host, port, specs)
                health = await _http_get(host, port, "/healthz")
                degraded = daemon.context.degraded
            finally:
                # shutdown() discards the pool, which clears the flag —
                # capture it while the daemon is still serving.
                await daemon.shutdown()
            return replies, health, degraded

        replies, health, degraded_during = asyncio.run(scenario())
        for spec, result in zip(specs, direct):
            _assert_reply_matches(replies[spec["id"]], result)
        assert degraded_during
        assert health[1]["status"] == "degraded"
        assert health[1]["degraded"] is True


# ----------------------------------------------------------------------
# Admission controller (unit)
# ----------------------------------------------------------------------
def _entry(tenant="default", deadline_at=None, arrived_at=None):
    return PendingRequest(
        id=object(),
        tenant=tenant,
        spec={},
        future=None,
        arrived_at=time.monotonic() if arrived_at is None else arrived_at,
        deadline_at=deadline_at,
    )


class TestAdmissionController:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionController(max_queue=0)
        with pytest.raises(ValueError, match="max_inflight_per_tenant"):
            AdmissionController(max_inflight_per_tenant=0)
        with pytest.raises(ValueError, match="queue_timeout_s"):
            AdmissionController(queue_timeout_s=0.0)

    def test_counters_balance_through_a_full_cycle(self):
        controller = AdmissionController(max_queue=2)
        entries = [_entry() for _ in range(3)]
        rejections = [
            controller.admit(entry) for entry in entries
        ]
        assert rejections[0] is None and rejections[1] is None
        assert isinstance(rejections[2], RequestFailure)
        assert rejections[2].kind == "shed"
        batch, rejected = controller.take_batch(8)
        assert [e is entry for e, entry in zip(batch, entries[:2])]
        assert rejected == []
        controller.settle(batch[0], ok=True)
        controller.settle(batch[1], ok=False)
        counters = controller.counters
        assert counters["received"] == 3
        assert counters["received"] == counters["admitted"] + counters["shed"]
        assert counters["completed"] == 1 and counters["failed"] == 1
        assert controller.inflight("default") == 0

    def test_draining_sheds_everything(self):
        controller = AdmissionController()
        rejection = controller.admit(_entry(), draining=True)
        assert rejection.kind == "shed"
        assert "draining" in rejection

    def test_take_batch_sweeps_stale_entries(self):
        controller = AdmissionController(queue_timeout_s=0.5)
        now = time.monotonic()
        stale = _entry(arrived_at=now - 1.0)
        expired = _entry(deadline_at=now - 0.1)
        fresh = _entry()
        for entry in (stale, expired, fresh):
            assert controller.admit(entry) is None
        batch, rejected = controller.take_batch(8, now=now)
        assert batch == [fresh]
        kinds = {id(entry): failure.kind for entry, failure in rejected}
        assert kinds[id(stale)] == "queue_timeout"
        assert kinds[id(expired)] == "deadline"
        assert controller.counters["queue_timeouts"] == 1
        assert controller.counters["deadline_missed"] == 1
        assert controller.inflight("default") == 1  # only the batch entry


# ----------------------------------------------------------------------
# CLI: waso serve end to end
# ----------------------------------------------------------------------
class TestServeCli:
    def test_serve_drains_on_sigint(self, tmp_path, no_orphans):
        graph_path = tmp_path / "g.json"
        save_json(facebook_like(60, seed=3), str(graph_path))
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).parents[1]),
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                str(graph_path),
                "--workers",
                "2",
                "--port",
                "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            announce = proc.stdout.readline().strip()
            assert announce.startswith("serving on ")
            host, port = announce.rsplit(" ", 1)[-1].split(":")
            with socket.create_connection(
                (host, int(port)), timeout=30
            ) as conn:
                conn.sendall(
                    json.dumps(
                        {"id": "cli", "k": 4, "budget": 48, "seed": 5}
                    ).encode()
                    + b"\n"
                )
                conn.shutdown(socket.SHUT_WR)
                stream = conn.makefile("r")
                reply = json.loads(stream.readline())
            assert reply["ok"] and reply["id"] == "cli"
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "draining..." in out
        assert "drained; bye" in out

    def test_tenant_flag_validation(self, tmp_path):
        from repro.cli import main

        graph_path = tmp_path / "g.json"
        save_json(facebook_like(30, seed=1), str(graph_path))
        with pytest.raises(SystemExit, match="NAME=GRAPH"):
            main(["serve", str(graph_path), "--tenant", "nonsense"])


# ----------------------------------------------------------------------
# kind="mutate": streaming graph deltas at the dispatch boundary
# ----------------------------------------------------------------------
class TestMutate:
    """``kind="mutate"`` lines patch a tenant's graph between batches."""

    def _graph(self):
        # Fresh per-test graph: mutations write into it, so the
        # session-scoped fixtures must never serve as tenants here.
        return facebook_like(n=60, seed=11)

    def _solve_spec(self, request_id):
        return {
            "id": request_id,
            "k": 5,
            "budget": 40,
            "m": 4,
            "stages": 2,
            "seed": 33,
        }

    def test_mutate_patches_between_batches(self, no_orphans):
        graph = self._graph()
        anchor = next(iter(graph.nodes()))
        deltas = [
            ["add_node", "zz", 1.2, 0.5],
            ["add_edge", "zz", anchor, 0.4],
        ]

        async def scenario():
            daemon = ServingDaemon(
                graph, mode="stage", **_daemon_kwargs()
            )
            host, port = await daemon.start()
            try:
                first = await _send_all(
                    host, port, [self._solve_spec("s1")]
                )
                mutated = await _send_all(
                    host, port,
                    [{"id": "m1", "kind": "mutate", "deltas": deltas}],
                )
                second = await _send_all(
                    host, port, [self._solve_spec("s2")]
                )
            finally:
                await daemon.shutdown()
            return first["s1"], mutated["m1"], second["s2"]

        cold, mutate, warm = asyncio.run(scenario())
        assert cold["ok"] and cold["extra"]["graph_shipped"]
        assert mutate == {
            "id": "m1",
            "ok": True,
            "tenant": "default",
            "kind": "mutate",
            "generation": 1,
            "applied": 2,
        }
        # The warm solve after the mutation shipped a sparse patch, not
        # a re-install — and solved the *mutated* graph: bit-identical
        # to a direct context over an identically-mutated fresh graph.
        assert warm["ok"], warm
        assert not warm["extra"]["graph_shipped"]
        assert warm["extra"].get("graph_installs", 0) == 0
        assert warm["extra"]["graph_patch_bytes"] > 0
        direct_graph = facebook_like(n=60, seed=11)
        direct_graph.add_node("zz", interest=1.2, lam=0.5)
        direct_graph.add_edge("zz", anchor, 0.4)
        [direct] = _direct_results(
            direct_graph, [self._solve_spec("s2")], mode="stage"
        )
        _assert_reply_matches(warm, direct)

    def test_queued_mutations_cross_to_a_thread_once(
        self, no_orphans, monkeypatch
    ):
        """Mutations queued behind a stalled batch apply in one
        worker-thread hop, in arrival order, each with its own reply; a
        bad delta fails only its own line."""
        graph = self._graph()
        edges = sorted(graph.edges())[:5]
        # Batch i rewrites its own edge and the shared edges[0], so the
        # final graph depends on every batch and on their order.
        batches = [
            [
                ["set_tightness", *edges[i + 1], 0.1 * (i + 1)],
                ["set_tightness", *edges[0], 0.2 * (i + 1)],
            ]
            for i in range(4)
        ]
        lines = [
            {"id": f"m{number}", "kind": "mutate", "deltas": deltas}
            for number, deltas in enumerate(batches, 1)
        ]
        lines.insert(2, {"id": "bad", "kind": "mutate",
                         "deltas": [["remove_edge", "no-such", "node"]]})
        base = graph.compiled().generation
        hops = []
        to_thread = asyncio.to_thread

        async def counting_to_thread(func, *args, **kwargs):
            hops.append(getattr(func, "__name__", ""))
            return await to_thread(func, *args, **kwargs)

        monkeypatch.setattr(asyncio, "to_thread", counting_to_thread)

        async def scenario():
            daemon = ServingDaemon(
                graph,
                fault_plan=FaultPlan(stalls={1: 0.4}),
                **_daemon_kwargs(),
            )
            host, port = await daemon.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(json.dumps(self._solve_spec("s1")).encode())
                writer.write(b"\n")
                await writer.drain()
                await asyncio.sleep(0.1)  # admitted; its batch is stalled
                for line in lines:
                    writer.write(json.dumps(line).encode() + b"\n")
                await writer.drain()
                writer.write_eof()
                replies = [
                    json.loads(line) async for line in reader if line.strip()
                ]
                writer.close()
                await writer.wait_closed()
            finally:
                await daemon.shutdown()
            return replies

        replies = asyncio.run(scenario())
        assert sum("mutation" in name for name in hops) == 1, hops
        mutations = [reply for reply in replies if reply["id"] != "s1"]
        assert [reply["id"] for reply in mutations] == [
            "m1", "m2", "bad", "m3", "m4"
        ]
        assert mutations.pop(2)["error"]["kind"] == "mutate_error"
        assert [reply["generation"] for reply in mutations] == [
            base + 1, base + 2, base + 3, base + 4
        ]
        assert all(
            reply["ok"] and reply["applied"] == 2 for reply in mutations
        )
        one_by_one = self._graph().compiled()
        for deltas in batches:
            one_by_one.apply_deltas([tuple(op) for op in deltas])
        served = graph.compiled()
        assert served.generation == one_by_one.generation
        assert list(served.pair_w) == list(one_by_one.pair_w)
        assert list(served.targets) == list(one_by_one.targets)

    def test_mutate_validation(self, no_orphans):
        graph = self._graph()

        async def scenario():
            daemon = ServingDaemon(graph, **_daemon_kwargs())
            host, port = await daemon.start()
            try:
                replies = await _send_all(
                    host, port,
                    [
                        {"id": "t", "kind": "mutate", "tenant": "nope",
                         "deltas": [["add_node", "a", 1.0, None]]},
                        {"id": "d", "kind": "mutate", "deltas": []},
                        {"id": "x", "kind": "mutate", "deltas": "zap"},
                        {"id": "k", "kind": "mutate", "budget": 4,
                         "deltas": [["add_node", "a", 1.0, None]]},
                        {"id": "b", "kind": "mutate",
                         "deltas": [["remove_edge", "no-such", "node"]]},
                    ],
                )
            finally:
                await daemon.shutdown()
            return replies

        replies = asyncio.run(scenario())
        for request_id in ("t", "d", "x", "k"):
            assert not replies[request_id]["ok"]
            assert replies[request_id]["error"]["kind"] == "invalid"
        assert not replies["b"]["ok"]
        assert replies["b"]["error"]["kind"] == "mutate_error"

    def test_mutate_shed_while_draining(self, no_orphans):
        graph = self._graph()

        async def scenario():
            daemon = ServingDaemon(graph, **_daemon_kwargs())
            host, port = await daemon.start()
            reader, writer = await asyncio.open_connection(host, port)
            daemon._draining = True  # as shutdown() flips it mid-drain
            writer.write(
                json.dumps(
                    {"id": "m", "kind": "mutate",
                     "deltas": [["add_node", "a", 1.0, None]]}
                ).encode() + b"\n"
            )
            await writer.drain()
            writer.write_eof()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            daemon._draining = False
            await daemon.shutdown()
            return json.loads(line)

        reply = asyncio.run(scenario())
        assert not reply["ok"]
        assert reply["error"]["kind"] == "shed"


# ----------------------------------------------------------------------
# Generated interleavings: solves, mutations, invalid lines, one kill
# ----------------------------------------------------------------------
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: One script line: (kind, tenant, pick).  ``pick`` is a solve's seed,
#: a mutation's edge and weight, or an invalid line's variant.
_LINE = st.tuples(
    st.sampled_from(
        ["solve"] * 3 + ["mutate"] * 2 + ["bad_mutate", "invalid", "blank"]
    ),
    st.sampled_from("ab"),
    st.integers(0, 10_000),
)


def _interleaving_graphs():
    # Fresh per example: mutations write into them.
    return {"a": facebook_like(50, seed=21), "b": facebook_like(40, seed=22)}


def _solve_spec(tenant: str, seed: int) -> dict:
    return {"k": 4, "budget": 40, "m": 3, "stages": 2, "seed": seed}


def _same_solve(reply: dict, result) -> bool:
    try:
        _assert_reply_matches(reply, result)
    except AssertionError:
        return False
    return True


class TestGeneratedInterleavings:
    """Generated line scripts through one daemon each: every non-blank
    line gets exactly one reply, the admission counters balance, and
    every served solve equals a direct solve at a generation of its
    tenant that includes every mutation sent before it."""

    @settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        script=st.lists(_LINE, min_size=4, max_size=14),
        # At most one kill: one planned past a worker's last send
        # never fires.
        kill=st.tuples(st.integers(0, 1), st.integers(1, 5)),
    )
    def test_interleaved_lines_are_served_consistently(self, script, kill):
        graphs = _interleaving_graphs()
        edges = {tenant: sorted(g.edges()) for tenant, g in graphs.items()}
        lines, expected_ids = [], []
        solves = []  # (id, tenant, seed, good mutations sent before it)
        mutations = {"a": [], "b": []}  # good delta batches, in order
        outcomes = {}  # id -> expected error kind, or generation reached
        invalid = 0
        for number, (kind, tenant, pick) in enumerate(script):
            request_id = f"x{number}"
            if kind == "blank":
                lines.append("   ")
                continue
            expected_ids.append(request_id)
            if kind == "solve":
                seed = pick % 100
                spec = {"id": request_id, "tenant": tenant,
                        **_solve_spec(tenant, seed)}
                solves.append(
                    (request_id, tenant, seed, len(mutations[tenant]))
                )
            elif kind == "mutate":
                u, v = edges[tenant][pick % len(edges[tenant])]
                deltas = [["set_tightness", u, v, 0.05 + (pick % 9) / 10]]
                mutations[tenant].append(deltas)
                outcomes[request_id] = len(mutations[tenant])
                spec = {"id": request_id, "kind": "mutate",
                        "tenant": tenant, "deltas": deltas}
            elif kind == "bad_mutate":
                outcomes[request_id] = "mutate_error"
                spec = {"id": request_id, "kind": "mutate",
                        "tenant": tenant,
                        "deltas": [["remove_edge", "no-such", "node"]]}
            else:
                invalid += 1
                if pick % 3 == 0:
                    # Unparseable: answered by its non-blank line number.
                    expected_ids[-1] = len(expected_ids)
                    outcomes[len(expected_ids)] = "invalid"
                    lines.append("}{ not json")
                    continue
                outcomes[request_id] = "invalid"
                spec = {"id": request_id, "k": 4, "budget": 40}
                if pick % 3 == 1:
                    spec["budgett"] = 1
                else:
                    spec["tenant"] = "ghost"
            lines.append(json.dumps(spec))

        async def scenario():
            plan = FaultPlan(kills=[kill])
            daemon = ServingDaemon(graphs, fault_plan=plan, **_daemon_kwargs())
            host, port = await daemon.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write("".join(line + "\n" for line in lines).encode())
                await writer.drain()
                writer.write_eof()
                replies = [json.loads(raw) async for raw in reader]
                writer.close()
                await writer.wait_closed()
            finally:
                await daemon.shutdown()
            return replies, daemon.admission.snapshot(), daemon.counters

        replies, admission, counters = asyncio.run(scenario())
        assert sorted(map(str, (r["id"] for r in replies))) == sorted(
            map(str, expected_ids)
        )
        assert counters["invalid"] == invalid
        assert admission["received"] == len(solves)
        assert admission["received"] == (
            admission["admitted"] + admission["shed"]
        )
        assert admission["admitted"] == (
            admission["completed"]
            + admission["failed"]
            + admission["queue_timeouts"]
            + admission["deadline_missed"]
        )
        by_id = {reply["id"]: reply for reply in replies}
        for request_id, outcome in outcomes.items():
            reply = by_id[request_id]
            if isinstance(outcome, str):
                assert reply["error"]["kind"] == outcome, reply
            else:  # a tenant's mutations apply in arrival order
                assert reply["ok"] and reply["generation"] == outcome, reply

        # Direct results per tenant at every generation it went through.
        direct = {}
        for tenant, batches in mutations.items():
            graph = _interleaving_graphs()[tenant]
            seeds = [seed for _, t, seed, _ in solves if t == tenant]
            for generation in range(len(batches) + 1):
                if generation:
                    graph.compiled().apply_deltas(
                        [tuple(op) for op in batches[generation - 1]]
                    )
                requests = [
                    request_from_spec(graph, _solve_spec(tenant, seed))
                    for seed in seeds
                ]
                with ExecutionContext(mode="serial") as context:
                    results = context.solve_many(requests) if requests else []
                direct[tenant, generation] = dict(zip(seeds, results))
        for request_id, tenant, seed, seen in solves:
            reply = by_id[request_id]
            assert reply["ok"], reply
            if not mutations[tenant]:
                _assert_reply_matches(reply, direct[tenant, 0][seed])
                continue
            assert any(
                _same_solve(reply, direct[tenant, generation][seed])
                for generation in range(seen, len(mutations[tenant]) + 1)
            ), (request_id, tenant, seen)
