"""Tier-2 serving benchmark: the daemon under open-loop overload.

Drives :class:`repro.serving.ServingDaemon` end to end — real TCP
socket, real JSONL protocol, real resident pool — with the open-loop
load generator (:class:`repro.parallel.faults.ArrivalScript`: each
request is sent at its scheduled instant regardless of how the server
is coping, which is what makes overload visible).  Three series:

* **deterministic overload** — a burst bigger than the admission queue
  while a :class:`~repro.parallel.faults.FaultPlan` queue stall holds
  the dispatch loop, so every arrival lands before the first drain.
  Which requests are shed is then a pure function of the arrival order:
  exactly ``max_queue`` admitted and solved, the rest rejected with
  ``kind="shed"``, in one batch.  These quantities are bit-exact across
  machines, so ``--check`` compares them against the committed baseline
  with zero tolerance;
* **load curves vs worker count** — a seeded Poisson arrival process
  replayed against daemons of increasing worker count, recording p50 /
  p99 reply latency and the shed rate.  Latencies are machine-specific
  (recorded, never gated);
* **SLO routing** — requests carrying ``slo_s`` instead of ``budget``,
  recording the budgets the online-calibrated work-rate model bought
  and the promised-vs-achieved latencies.

Results merge into ``BENCH_sampler.json`` under the
``"serving_daemon"`` key (the other series in that file are preserved).

Acceptance gates — the *deterministic* quantities only, enforced both
by the ``@pytest.mark.tier2`` test and by ``--check``:

* **zero dropped-without-reply**: every request sent receives exactly
  one reply, shed or served, in every scenario;
* **shed accounting**: the admission counters balance —
  ``received == admitted + shed`` and every admitted request settles as
  exactly one of completed / failed / queue-timeout / deadline-missed —
  and the queue drains to zero;
* **deterministic shed set**: the stalled burst sheds exactly
  ``DET_COUNT - DET_MAX_QUEUE`` requests, serves the rest in one batch,
  and (under ``--check``) the shed id set matches the committed
  baseline bit for bit.

Regression checking: ``python benchmarks/bench_serving_daemon.py
--check`` re-runs all three series and compares against the committed
``BENCH_sampler.json`` without overwriting it, failing (exit 1) on any
accounting violation or deterministic-quantity drift.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import pytest

from repro.bench.datasets import bench_graph
from repro.bench.harness import dump_json
from repro.exceptions import RequestFailure
from repro.parallel.faults import ArrivalScript, FaultPlan
from repro.serving import ServingDaemon

N = 1000
K = 5
BUDGET = 60
#: Pool routing on the 1-CPU CI container, mirroring the chaos suite.
CPU_COUNT = 4
WORKER_COUNTS = (1, 2)
#: Deterministic-overload scenario: burst size, queue bound, stall.
DET_COUNT = 12
DET_MAX_QUEUE = 4
DET_STALL_S = 0.5
#: Poisson load curve: arrivals, mean rate (1/s), seed, queue bound.
#: The rate is chosen past the single-worker service capacity so the
#: bounded queue actually fills and the shed rate is non-trivial.
LOAD_COUNT = 32
LOAD_RATE = 600.0
LOAD_SEED = 11
LOAD_MAX_QUEUE = 6
#: SLO series: request count and latency objective.
SLO_COUNT = 4
SLO_S = 0.5
JSON_PATH = Path(__file__).parent.parent / "BENCH_sampler.json"
SERIES_KEY = "serving_daemon"

#: Error kinds a reply may legally carry (the typed failure vocabulary
#: plus the daemon's pre-admission ``"invalid"``).
REPLY_KINDS = frozenset(RequestFailure.KINDS) | {"invalid"}

#: Admission counters compared bit-exactly in the deterministic series.
DET_COUNTER_KEYS = (
    "received",
    "admitted",
    "shed",
    "queue_timeouts",
    "deadline_missed",
    "completed",
    "failed",
)


def _specs(count: int, **extra) -> "list[dict]":
    return [
        {
            "id": f"r{index}",
            "solver": "cbas-nd",
            "k": K,
            "budget": BUDGET,
            "m": 4,
            "stages": 2,
            "seed": 20 + index,
            **extra,
        }
        for index in range(count)
    ]


async def _run_scenario(
    daemon_kwargs: dict, script: ArrivalScript, specs: "list[dict]"
) -> "tuple[dict, dict, dict]":
    """Replay one arrival script against a fresh daemon.

    Returns ``(replies, latencies, status)``: reply payloads and
    send-to-reply latencies keyed by request id, plus the daemon's
    status snapshot taken after the last reply, before shutdown.
    """
    graph = bench_graph("facebook", N)
    daemon = ServingDaemon({"default": graph}, **daemon_kwargs)
    host, port = await daemon.start()
    reader, writer = await asyncio.open_connection(host, port)
    send_at: "dict[object, float]" = {}
    replies: "dict[object, tuple[dict, float]]" = {}

    async def _collect() -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            payload = json.loads(line)
            replies[payload["id"]] = (payload, time.monotonic())

    collector = asyncio.create_task(_collect())
    epoch = time.monotonic()
    for offset, spec in zip(script, specs):
        hold = epoch + offset - time.monotonic()
        if hold > 0:
            await asyncio.sleep(hold)
        send_at[spec["id"]] = time.monotonic()
        writer.write((json.dumps(spec) + "\n").encode())
        await writer.drain()
    writer.write_eof()
    await collector  # EOF arrives only after every owed reply
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    status = daemon.status()
    await daemon.shutdown()
    latencies = {
        request_id: done - send_at[request_id]
        for request_id, (_, done) in replies.items()
        if request_id in send_at
    }
    return replies, latencies, status


def _percentile(values: "list[float]", q: float) -> "float | None":
    """Nearest-rank percentile (small open-loop samples, no interp)."""
    if not values:
        return None
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, max(0, round(q * (len(ranked) - 1))))]


def _summarize(
    specs: "list[dict]", replies: dict, latencies: dict, status: dict
) -> dict:
    outcomes: "dict[str, int]" = {}
    ok_latencies: "list[float]" = []
    for spec in specs:
        reply = replies.get(spec["id"])
        if reply is None:
            outcomes["missing"] = outcomes.get("missing", 0) + 1
            continue
        payload, _ = reply
        if payload.get("ok"):
            outcomes["ok"] = outcomes.get("ok", 0) + 1
            ok_latencies.append(latencies[spec["id"]])
        else:
            kind = payload.get("error", {}).get("kind", "missing")
            outcomes[kind] = outcomes.get(kind, 0) + 1
    return {
        "sent": len(specs),
        "replies": len(replies),
        "outcomes": outcomes,
        "shed_rate": outcomes.get("shed", 0) / len(specs),
        "p50_s": _percentile(ok_latencies, 0.5),
        "p99_s": _percentile(ok_latencies, 0.99),
        "batches": status["batches"],
        "counters": {
            key: status["admission"][key] for key in DET_COUNTER_KEYS
        },
        "queue_depth": status["admission"]["queue_depth"],
    }


def _run_deterministic() -> dict:
    """The stalled burst: every quantity here is machine-independent."""
    specs = _specs(DET_COUNT)
    replies, latencies, status = asyncio.run(
        _run_scenario(
            dict(
                workers=2,
                cpu_count=CPU_COUNT,
                max_queue=DET_MAX_QUEUE,
                batch_max=DET_MAX_QUEUE,
                fault_plan=FaultPlan(stalls={1: DET_STALL_S}),
            ),
            ArrivalScript.burst(DET_COUNT),
            specs,
        )
    )
    summary = _summarize(specs, replies, latencies, status)
    summary["max_queue"] = DET_MAX_QUEUE
    summary["stall_s"] = DET_STALL_S
    summary["shed_ids"] = sorted(
        str(request_id)
        for request_id, (payload, _) in replies.items()
        if not payload.get("ok")
        and payload.get("error", {}).get("kind") == "shed"
    )
    return summary


def _run_load(workers: int) -> dict:
    """Seeded Poisson arrivals against a ``workers``-wide daemon."""
    specs = _specs(LOAD_COUNT)
    replies, latencies, status = asyncio.run(
        _run_scenario(
            dict(
                workers=workers,
                cpu_count=CPU_COUNT,
                max_queue=LOAD_MAX_QUEUE,
            ),
            ArrivalScript.poisson(LOAD_SEED, LOAD_COUNT, LOAD_RATE),
            specs,
        )
    )
    summary = _summarize(specs, replies, latencies, status)
    summary["workers"] = workers
    summary["arrivals"] = {
        "kind": "poisson",
        "seed": LOAD_SEED,
        "rate_per_s": LOAD_RATE,
        "count": LOAD_COUNT,
    }
    return summary


def _run_slo() -> dict:
    """SLO-routed requests: budgets bought and promised-vs-achieved."""
    specs = _specs(SLO_COUNT, slo_s=SLO_S)
    for spec in specs:
        spec.pop("budget")  # the SLO buys the budget
    replies, latencies, status = asyncio.run(
        _run_scenario(
            dict(workers=2, cpu_count=CPU_COUNT),
            ArrivalScript.uniform(SLO_COUNT, rate=20.0),
            specs,
        )
    )
    summary = _summarize(specs, replies, latencies, status)
    contracts = []
    for spec in specs:
        reply = replies.get(spec["id"])
        if reply is None or not reply[0].get("ok"):
            continue
        extra = reply[0].get("extra", {})
        contracts.append(
            {
                "budget": extra.get("slo_budget"),
                "promised_s": extra.get("slo_promised_s"),
                "achieved_s": extra.get("slo_achieved_s"),
                "overrun": bool(extra.get("slo_overrun", False)),
            }
        )
    summary["slo_s"] = SLO_S
    summary["contracts"] = contracts
    return summary


def run_experiment(write: bool = True) -> dict:
    series = {
        "n": N,
        "k": K,
        "budget": BUDGET,
        "deterministic": _run_deterministic(),
        "load": {str(workers): _run_load(workers) for workers in WORKER_COUNTS},
        "slo": _run_slo(),
    }
    if write:
        merged: dict = {}
        if JSON_PATH.exists():
            with open(JSON_PATH, encoding="utf-8") as handle:
                merged = json.load(handle)
        merged[SERIES_KEY] = series
        dump_json(str(JSON_PATH), merged)
    return series


def check_accounting(label: str, summary: dict) -> "list[str]":
    """The invariants that hold on every scenario, loaded or not."""
    failures: "list[str]" = []
    counters = summary["counters"]
    if summary["replies"] != summary["sent"]:
        failures.append(
            f"{label}: sent {summary['sent']} requests but got "
            f"{summary['replies']} replies — requests dropped without a "
            "reply"
        )
    if counters["received"] != counters["admitted"] + counters["shed"]:
        failures.append(
            f"{label}: received != admitted + shed: {counters}"
        )
    settled = (
        counters["completed"]
        + counters["failed"]
        + counters["queue_timeouts"]
        + counters["deadline_missed"]
    )
    if counters["admitted"] != settled:
        failures.append(
            f"{label}: {counters['admitted']} admitted but {settled} "
            f"settled: {counters}"
        )
    if summary["queue_depth"] != 0:
        failures.append(
            f"{label}: queue depth {summary['queue_depth']} after drain"
        )
    unknown = set(summary["outcomes"]) - (REPLY_KINDS | {"ok"})
    if unknown:
        failures.append(f"{label}: untyped reply outcomes {sorted(unknown)}")
    return failures


def check_against_baseline(fresh: dict, baseline: dict) -> "list[str]":
    """Accounting on every fresh series + bit-exact deterministic diff."""
    failures = check_accounting("deterministic", fresh["deterministic"])
    for workers, summary in fresh["load"].items():
        failures.extend(check_accounting(f"load workers={workers}", summary))
    failures.extend(check_accounting("slo", fresh["slo"]))
    base_det = (baseline or {}).get("deterministic")
    if not base_det:
        return failures
    fresh_det = fresh["deterministic"]
    for field in ("sent", "outcomes", "batches", "shed_ids", "counters"):
        if fresh_det.get(field) != base_det.get(field):
            failures.append(
                f"deterministic {field}: {fresh_det.get(field)!r} != "
                f"baseline {base_det.get(field)!r} (the stalled burst is "
                "machine-independent — any drift is a real behaviour "
                "change)"
            )
    return failures


@pytest.mark.tier2
def test_serving_daemon_accounting_gate():
    """Tier-2 gate: shed accounting balances, nobody goes unanswered.

    Machine-independent (the queue stall removes all timing from the
    shed decision), so it runs everywhere the tier-2 job runs: the
    stalled burst must shed exactly ``DET_COUNT - DET_MAX_QUEUE``
    requests with typed rejections, serve the remaining
    ``DET_MAX_QUEUE`` in one coalesced batch, reply to every request,
    and leave the admission counters balanced — matching the committed
    ``serving_daemon`` baseline exactly when one exists.
    """
    det = _run_deterministic()
    failures = check_accounting("deterministic", det)
    assert not failures, "\n".join(failures)
    assert det["outcomes"].get("shed") == DET_COUNT - DET_MAX_QUEUE, (
        f"expected exactly {DET_COUNT - DET_MAX_QUEUE} shed: "
        f"{det['outcomes']}"
    )
    assert det["outcomes"].get("ok") == DET_MAX_QUEUE, det["outcomes"]
    assert det["batches"] == 1, (
        f"the stalled burst must coalesce into one batch: {det['batches']}"
    )
    assert len(det["shed_ids"]) == DET_COUNT - DET_MAX_QUEUE
    if JSON_PATH.exists():
        with open(JSON_PATH, encoding="utf-8") as handle:
            committed = json.load(handle).get(SERIES_KEY)
        if committed:
            drift = check_against_baseline(
                {"deterministic": det, "load": {}, "slo": det}, committed
            )
            # check_accounting already passed above; only diff lines left.
            drift = [line for line in drift if "baseline" in line]
            assert not drift, "\n".join(drift)


def _print_summary(series: dict) -> None:
    det = series["deterministic"]
    print(
        f"deterministic burst x{det['sent']} (queue {det['max_queue']}): "
        f"{det['outcomes'].get('ok', 0)} served / "
        f"{det['outcomes'].get('shed', 0)} shed in {det['batches']} batch"
    )
    for workers, load in sorted(series["load"].items()):
        print(
            f"load workers={workers}: p50 {load['p50_s']:.3f}s, "
            f"p99 {load['p99_s']:.3f}s, shed rate {load['shed_rate']:.2f} "
            f"({load['outcomes']})"
        )
    slo = series["slo"]
    budgets = [contract["budget"] for contract in slo["contracts"]]
    overruns = sum(contract["overrun"] for contract in slo["contracts"])
    print(
        f"slo {slo['slo_s']}s x{slo['sent']}: budgets {budgets}, "
        f"{overruns} overruns"
    )


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-run and compare against the committed BENCH_sampler.json "
        "serving_daemon series without overwriting it; exit 1 on any "
        "accounting violation or deterministic-quantity drift",
    )
    args = parser.parse_args()

    if args.check:
        if not JSON_PATH.exists():
            print(f"no baseline at {JSON_PATH}; run without --check first")
            sys.exit(2)
        with open(JSON_PATH, encoding="utf-8") as handle:
            committed = json.load(handle).get(SERIES_KEY)
        fresh = run_experiment(write=False)
        _print_summary(fresh)
        problems = check_against_baseline(fresh, committed or {})
        if committed is None:
            problems.append(
                f"no '{SERIES_KEY}' series in {JSON_PATH}; run without "
                "--check first to record it"
            )
        if problems:
            print("\nREGRESSIONS against committed baseline:")
            for line in problems:
                print(f"  - {line}")
            sys.exit(1)
        print("\nno regressions against committed baseline")
    else:
        series = run_experiment()
        _print_summary(series)
        print(f"wrote {JSON_PATH} ({SERIES_KEY} series)")
