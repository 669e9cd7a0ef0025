"""Command-line interface.

Six subcommands::

    waso generate --family facebook --size 500 --seed 7 --out graph.json
    waso stats graph.json
    waso compile crawl.txt --cache-dir ~/.cache/waso
    waso solve graph.json --k 10 --solver cbas-nd --budget 300 --seed 7
    waso solve-many graph.json requests.jsonl --workers 4
    waso serve graph.json --port 7077 --max-queue 64

``compile`` freezes a graph (edge-list crawl or JSON) into an on-disk
compiled index — raw little-endian arrays plus a ``manifest.json`` (see
:mod:`repro.graph.storage`).  With ``--cache-dir`` the index is
content-addressed by the input bytes, so recompiling the same crawl is
a no-op; with ``--out`` it lands in an exact directory.  Everywhere the
other subcommands take a graph path (``solve``, ``solve-many``,
``serve`` and its ``--tenant`` values), a compiled-index directory is
accepted in place of a JSON file and is loaded mmap-backed — the
out-of-core serving path.

``solve`` prints the selected members and their willingness; ``--k-max``
turns it into a range query (one line per k).  ``--workers`` and
``--mode`` configure the runtime layer: ``--mode auto`` routes each
solve through the cost model in :mod:`repro.runtime.router`, ``serial``
/ ``solve`` / ``stage`` force an execution mode.  ``solve`` mode
multiplexes a ``solve-many`` batch onto the worker pool; the ``solve``
subcommand runs one solve per k, so there it prints the ``serial``
output.  ``stage`` shards each solve's stages across the pool.  ``solve``
defaults to ``serial`` (seeded output identical on every machine);
``solve-many`` defaults to ``auto``.

``solve-many`` is the batched front door: every line of the JSONL file
is one request over the shared graph, e.g.::

    {"k": 8, "solver": "cbas-nd", "budget": 300, "seed": 7}
    {"k": 5, "required": [3], "budget": 200, "seed": 8}

Results come back in request order and are bit-identical to running
``solve`` once per line.  ``--timeout-s`` gives every request a
deadline and ``--max-retries`` bounds crash recovery; on partial
failure the completed requests print normally, each failed one prints a
JSONL error record (``index`` / ``error`` / ``retries`` / ``message``),
and the exit code is 2.

``serve`` runs the overload-safe serving daemon (:mod:`repro.serving`):
newline-delimited JSON requests over TCP (the ``solve-many`` spec plus
``id`` / ``tenant`` / ``slo_s``), bounded-queue admission control with
typed load shedding, SLO-inverted budget routing, and HTTP
``/healthz`` / ``/readyz`` / ``/metrics`` probes on the same port.
``--tenant name=graph.json`` (repeatable) registers extra graphs beside
the positional one (tenant ``default``).  The daemon drains on
SIGINT/SIGTERM: admitted requests are answered, then the pool shuts
down.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.algorithms.registry import available_solvers
from repro.core.api import solve_k_range
from repro.exceptions import BatchExecutionError, ReproError
from repro.graph import generators
from repro.graph.io import (
    ingest_edge_list,
    load_edge_list,
    load_json,
    resolve_graph_source,
    save_json,
)
from repro.graph.stats import summarize
from repro.core.willingness import ENGINES
from repro.runtime import (
    ExecutionContext,
    request_from_spec,
    valid_spec_keys,
)
from repro.runtime.router import MODES

__all__ = ["main", "build_parser"]

_FAMILIES = {
    "facebook": generators.facebook_like,
    "dblp": generators.dblp_like,
    "flickr": generators.flickr_like,
    "random": generators.random_social_graph,
}


def _add_runtime_arguments(
    parser: argparse.ArgumentParser, default_mode: str
) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-pool size for the parallel modes (default: one per CPU)",
    )
    parser.add_argument(
        "--mode",
        choices=MODES,
        default=default_mode,
        help="execution-mode routing: auto (cost-model router), or force "
        "serial / solve (batched requests multiplexed across workers; a "
        "single solve runs serially) / stage (one solve's stages sharded "
        "across workers).  Seeded `serial` output is identical on "
        "every machine; `auto` may stage-shard big solves across the pool, "
        f"whose results depend on the worker count (default: {default_mode})",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="compiled",
        help="sampling engine: compiled (flat-array kernels, bit-identical "
        "to reference), reference (dict-based oracle), or vector (numpy "
        "stage-batched kernels — fastest; bit-reproducible within the "
        "engine for any worker count, matches the oracle to tolerance) "
        "(default: compiled)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waso",
        description=(
            "WASO group-activity planning "
            "(reproduction of Shuai et al., VLDB 2013)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic social graph")
    gen.add_argument("--family", choices=sorted(_FAMILIES), default="facebook")
    gen.add_argument("--size", type=int, default=500)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True, help="output JSON path")

    stats = sub.add_parser("stats", help="summarize a graph file")
    stats.add_argument("graph", help="JSON graph path")

    comp = sub.add_parser(
        "compile",
        help="freeze a graph into an on-disk compiled index (mmap-ready)",
    )
    comp.add_argument(
        "graph",
        help="input graph: an edge-list crawl or a JSON graph file "
        "(JSON is detected by the .json extension; --json forces it)",
    )
    where = comp.add_mutually_exclusive_group(required=True)
    where.add_argument("--out", help="exact index directory to write")
    where.add_argument(
        "--cache-dir",
        help="content-addressed cache root: the index lands under a "
        "directory named by the input bytes' hash, so the same crawl "
        "compiles once ever",
    )
    comp.add_argument(
        "--json",
        action="store_true",
        help="treat the input as a JSON graph regardless of extension",
    )
    comp.add_argument(
        "--refresh",
        action="store_true",
        help="recompile even when the cache already holds this input",
    )

    solve = sub.add_parser("solve", help="recommend an activity group")
    solve.add_argument(
        "graph", help="JSON graph path or compiled-index directory"
    )
    solve.add_argument("--k", type=int, required=True)
    solve.add_argument("--k-max", type=int, default=None)
    solve.add_argument(
        "--solver", choices=available_solvers(), default="cbas-nd"
    )
    solve.add_argument("--budget", type=int, default=None)
    solve.add_argument("--m", type=int, default=None)
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument(
        "--disconnected",
        action="store_true",
        help="drop the connectivity constraint (WASO-dis)",
    )
    solve.add_argument(
        "--require",
        action="append",
        default=[],
        type=int,
        help="node id that must attend (repeatable)",
    )
    # `solve` defaults to serial so seeded output stays bit-identical
    # across machines (and to every previous release); `--mode auto`
    # opts into the router.
    _add_runtime_arguments(solve, default_mode="serial")

    many = sub.add_parser(
        "solve-many",
        help="solve a JSONL batch of requests over one graph",
    )
    many.add_argument(
        "graph", help="JSON graph path or compiled-index directory"
    )
    many.add_argument(
        "requests",
        help="JSONL file: one request object per line "
        '(e.g. {"k": 8, "solver": "cbas-nd", "budget": 300, "seed": 7})',
    )
    _add_runtime_arguments(many, default_mode="auto")
    many.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="per-request deadline in seconds (a request's own "
        "deadline_s field wins); an expired request fails with a "
        "JSONL error record while the rest of the batch completes",
    )
    many.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="how many times a dispatch whose worker crashed is "
        "retried before degrading to in-parent execution "
        "(default: the pool's built-in budget)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the JSONL serving daemon over one or more graphs",
    )
    serve.add_argument(
        "graph",
        help="JSON graph path or compiled-index directory (tenant "
        "'default')",
    )
    serve.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME=GRAPH",
        help="register an extra tenant graph: NAME=path to a JSON graph "
        "or a compiled-index directory (repeatable)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral; the bound address is announced "
        "on stdout)",
    )
    _add_runtime_arguments(serve, default_mode="auto")
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admission queue bound; arrivals past it are shed with a "
        'typed kind="shed" rejection (default: 64)',
    )
    serve.add_argument(
        "--max-inflight-per-tenant",
        type=int,
        default=None,
        help="per-tenant cap on admitted-but-unanswered requests "
        "(default: unlimited)",
    )
    serve.add_argument(
        "--queue-timeout-s",
        type=float,
        default=None,
        help="queue patience: an admitted request waiting longer is "
        'rejected with kind="queue_timeout" at the next dispatch '
        "boundary (default: wait forever)",
    )
    serve.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="default per-request deadline in seconds (a request's own "
        "deadline_s field wins)",
    )
    serve.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="crash-retry budget for the pool (default: built-in)",
    )

    return parser


def _solver_kwargs(args) -> dict:
    """``--budget`` / ``--m`` as solver kwargs, if the solver takes them."""
    accepted = valid_spec_keys(args.solver)
    kwargs = {}
    for flag, key in (("--budget", "budget"), ("--m", "m")):
        value = getattr(args, key)
        if value is None:
            continue
        if key not in accepted:
            raise SystemExit(
                f"{flag} does not apply to solver {args.solver!r}"
            )
        kwargs[key] = value
    return kwargs


def _load_graph(source: str):
    """A graph from a CLI path: JSON file or compiled-index directory."""
    try:
        return resolve_graph_source(source)
    except ReproError as error:
        raise SystemExit(f"cannot load graph {source!r}: {error}") from None


def _compile_command(args) -> int:
    import hashlib
    from pathlib import Path

    from repro.graph.storage import MANIFEST_NAME, save_compiled

    is_json = args.json or args.graph.endswith(".json")
    try:
        if args.out is not None:
            graph = (
                load_json(args.graph) if is_json else load_edge_list(args.graph)
            )
            index = Path(args.out)
            save_compiled(graph.compiled(), index)
        elif is_json:
            digest = hashlib.sha256(Path(args.graph).read_bytes()).hexdigest()
            index = Path(args.cache_dir) / digest[:20]
            if args.refresh or not (index / MANIFEST_NAME).is_file():
                save_compiled(load_json(args.graph).compiled(), index)
        else:
            index = ingest_edge_list(
                args.graph, args.cache_dir, refresh=args.refresh
            )
    except (OSError, ValueError, ReproError) as error:
        raise SystemExit(f"cannot compile {args.graph!r}: {error}") from None
    manifest = json.loads((index / MANIFEST_NAME).read_text(encoding="utf-8"))
    print(f"index: {index}")
    print(
        f"token: {manifest['payload_token']}  "
        f"nodes: {manifest['nodes']['count']}  "
        f"edges: {manifest['arrays']['targets']['count'] // 2}"
    )
    return 0


def _load_requests(graph, path: str) -> list:
    requests = []
    known_solvers = set(available_solvers())
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                spec = json.loads(line)
            except json.JSONDecodeError as error:
                raise SystemExit(
                    f"{path}:{line_number}: invalid JSON: {error}"
                ) from None
            try:
                request = request_from_spec(graph, spec)
            except (TypeError, ValueError, ReproError) as error:
                raise SystemExit(
                    f"{path}:{line_number}: invalid request: {error}"
                ) from None
            if request.solver not in known_solvers:
                raise SystemExit(
                    f"{path}:{line_number}: unknown solver "
                    f"{request.solver!r}; available: "
                    f"{sorted(known_solvers)}"
                )
            requests.append(request)
    return requests


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "generate":
        graph = _FAMILIES[args.family](args.size, seed=args.seed)
        save_json(graph, args.out)
        print(f"wrote {args.family} graph: {summarize(graph)}")
        return 0

    if args.command == "stats":
        graph = load_json(args.graph)
        print(summarize(graph))
        return 0

    if args.command == "compile":
        return _compile_command(args)

    if args.command == "solve":
        solver_kwargs = _solver_kwargs(args)
        graph = _load_graph(args.graph)
        k_max = args.k_max if args.k_max is not None else args.k
        with ExecutionContext(
            engine=args.engine, mode=args.mode, workers=args.workers
        ) as context:
            results = solve_k_range(
                graph,
                args.k,
                k_max,
                solver=args.solver,
                connected=not args.disconnected,
                required=args.require,
                rng=args.seed,
                context=context,
                **solver_kwargs,
            )
        for k, result in results.items():
            members = ", ".join(map(str, result.solution.sorted_members()))
            print(
                f"k={k}: W={result.willingness:.4f} "
                f"({result.stats.elapsed_seconds * 1e3:.1f} ms) "
                f"members=[{members}]"
            )
        return 0

    if args.command == "solve-many":
        graph = _load_graph(args.graph)
        requests = _load_requests(graph, args.requests)
        if not requests:
            print("no requests")
            return 0
        if args.timeout_s is not None:
            if args.timeout_s <= 0:
                raise SystemExit(
                    f"--timeout-s must be positive, got {args.timeout_s}"
                )
            for request in requests:
                if request.deadline_s is None:
                    request.deadline_s = args.timeout_s
        if args.max_retries is not None and args.max_retries < 0:
            raise SystemExit(
                f"--max-retries must be >= 0, got {args.max_retries}"
            )
        failures: dict = {}
        with ExecutionContext(
            engine=args.engine,
            mode=args.mode,
            workers=args.workers,
            max_retries=args.max_retries,
        ) as context:
            try:
                results = context.solve_many(requests)
            except BatchExecutionError as error:
                # Partial failure is not a crash: the batch drained, the
                # completed requests print normally, and each failed one
                # becomes a machine-readable JSONL error record.
                results = error.results
                failures = error.failures
        for index, (request, result) in enumerate(zip(requests, results)):
            if result is None:
                failure = failures[index]
                message = str(failure).strip()
                print(
                    json.dumps(
                        {
                            "index": index,
                            "error": getattr(
                                failure, "kind", "solver_error"
                            ),
                            "retries": getattr(failure, "retries", 0),
                            "message": (
                                message.splitlines()[-1] if message else ""
                            ),
                        },
                        sort_keys=True,
                    )
                )
                continue
            members = ", ".join(map(str, result.solution.sorted_members()))
            print(
                f"#{index} {request.solver} k={request.problem.k}: "
                f"W={result.willingness:.4f} members=[{members}]"
            )
        return 2 if failures else 0

    if args.command == "serve":
        from repro.serving import ServingDaemon, run_daemon

        graphs = {"default": _load_graph(args.graph)}
        for entry in args.tenant:
            name, separator, path = entry.partition("=")
            if not separator or not name or not path:
                raise SystemExit(
                    f"--tenant needs NAME=GRAPH, got {entry!r}"
                )
            graphs[name] = _load_graph(path)
        try:
            daemon = ServingDaemon(
                graphs,
                engine=args.engine,
                mode=args.mode,
                workers=args.workers,
                max_retries=args.max_retries,
                max_queue=args.max_queue,
                max_inflight_per_tenant=args.max_inflight_per_tenant,
                queue_timeout_s=args.queue_timeout_s,
                default_deadline_s=args.timeout_s,
            )
        except (TypeError, ValueError, ReproError) as error:
            raise SystemExit(f"invalid serve configuration: {error}") from None
        return run_daemon(daemon, host=args.host, port=args.port)

    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
