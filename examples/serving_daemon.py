"""The serving daemon: WASO planning as a long-lived network service.

``ExecutionContext.solve_many`` is a library call; a deployment is a
process that strangers throw traffic at.  ``ServingDaemon`` wraps the
runtime in an asyncio TCP server speaking newline-delimited JSON:
multiple tenants (each a registered graph) multiplex over one resident
worker pool, a bounded admission queue sheds overload with typed
rejections instead of collapsing, a request may carry a latency SLO
instead of a budget (the daemon buys the largest budget its calibrated
work-rate model predicts will fit), and shutdown drains — every
admitted request is answered first.

This example runs the daemon in-process and speaks the wire protocol to
it over a real socket:

1. plan for two tenants through one connection, plus an SLO request;
2. overload the queue with a burst and watch typed shedding;
3. probe the health endpoint (same port, plain HTTP);
4. drain.

Run:  python examples/serving_daemon.py
(The CLI equivalent of the daemon here is
``waso serve graph.json --workers 2``.)
"""

import asyncio
import json

from repro import facebook_like
from repro.serving import ServingDaemon


async def send_specs(host: str, port: int, specs: list) -> dict:
    """One client connection: send every spec, collect replies by id."""
    reader, writer = await asyncio.open_connection(host, port)
    for spec in specs:
        writer.write((json.dumps(spec) + "\n").encode())
    await writer.drain()
    writer.write_eof()  # done sending; the daemon flushes owed replies
    replies = {}
    while line := await reader.readline():
        payload = json.loads(line)
        replies[payload["id"]] = payload
    writer.close()
    await writer.wait_closed()
    return replies


async def http_get(host: str, port: int, path: str) -> dict:
    """Plain HTTP probe on the same port (health/readiness/metrics)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return json.loads(raw.split(b"\r\n\r\n", 1)[1])


async def main() -> None:
    daemon = ServingDaemon(
        {
            "hiking": facebook_like(400, seed=21),
            "concerts": facebook_like(300, seed=22),
        },
        workers=2,
        max_queue=4,  # tiny on purpose, so step 2 can overload it
    )
    host, port = await daemon.start()
    print(f"daemon serving tenants {sorted(daemon.graphs)} on {host}:{port}")

    # 1. Two tenants and an SLO request through one connection.  The
    # SLO request carries no budget: the daemon picks the largest one
    # its calibrated work-rate model predicts will fit 0.5 s, and the
    # reply's extra records the whole contract.
    replies = await send_specs(host, port, [
        {"id": "hike", "tenant": "hiking", "solver": "cbas-nd",
         "k": 8, "budget": 300, "m": 20, "stages": 5, "seed": 1},
        {"id": "gig", "tenant": "concerts", "solver": "cbas-nd",
         "k": 6, "budget": 200, "m": 15, "stages": 4, "seed": 2},
        {"id": "fast", "tenant": "hiking", "solver": "cbas-nd",
         "k": 8, "slo_s": 0.5, "m": 20, "stages": 5, "seed": 3},
    ])
    for request_id in ("hike", "gig", "fast"):
        reply = replies[request_id]
        line = (
            f"  {request_id:5s} ok  W={reply['willingness']:8.2f} "
            f"{len(reply['members'])} members"
        )
        extra = reply.get("extra", {})
        if "slo_budget" in extra:
            line += (
                f"  (SLO {extra['slo_s']}s bought budget "
                f"{extra['slo_budget']}, achieved "
                f"{extra['slo_achieved_s'] * 1e3:.0f} ms)"
            )
        print(line)

    # 2. Overload: a burst past the queue bound.  The daemon answers
    # everyone — the excess immediately, with a typed shed rejection —
    # instead of buffering into latencies nobody is still waiting for.
    burst = [
        {"id": f"b{index}", "tenant": "hiking", "solver": "cbas-nd",
         "k": 5, "budget": 2000, "m": 10, "stages": 4, "seed": index}
        for index in range(10)
    ]
    replies = await send_specs(host, port, burst)
    served = [r for r in replies.values() if r["ok"]]
    shed = [r for r in replies.values() if not r["ok"]]
    print(f"\nburst of {len(burst)}: {len(served)} served, "
          f"{len(shed)} shed ({len(replies)} replies — nobody dropped)")
    if shed:
        error = shed[0]["error"]
        print(f"  a shed reply: kind={error['kind']!r}: {error['message']}")

    # 3. Health on the same port, plain HTTP.
    health = await http_get(host, port, "/healthz")
    print(f"\n/healthz: {health['status']}, "
          f"admission counters {health['admission']}")

    # 4. Drain: stops accepting, answers everything admitted, tears
    # down the worker pool — no orphan processes, no hung clients.
    await daemon.shutdown()
    print("drained ✔")


if __name__ == "__main__":
    asyncio.run(main())
