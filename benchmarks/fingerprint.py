"""Seeded-fingerprint check: one line per seeded solve, diffed across trees.

Runs a fixed matrix of seeded solves and prints one line per solve:
the members, ``repr`` of the willingness, drawn/failed/stages, the
per-stage incumbent (``stage_best``), the backtrack and skipped-component
counts, the ``stats.extra`` key set, and a hash of the final CE vectors
and their thresholds γ.  Two trees that compute the same thing print the
same lines, so a refactor that should not change results is checked by
diffing the lines of the parent tree against the change.

The matrix:

* round 0 — two 300-node graphs (``facebook_like``, ``dblp_like``) ×
  {unconstrained, 1 required + 9 forbidden} × {CBAS, CBAS with Gaussian
  allocation, CBAS-ND, CBAS-ND-G, CBAS-ND with backtracking at
  thresholds 1e-3 and 10.0, RGreedy} × the three engines × two seeds,
  all serial; then stage-sharded solves at 2 and 3 workers on the
  compiled and vector engines, and one 2-worker ``solve_many`` chunk
  batch per engine;
* round 1 — one ``set_tightness`` delta batch on the first graph (a new
  graph generation, patched in place), then its serial solves and
  2-worker vector stage solves again.

Each line also feeds two checks inside one tree: the reference engine
equals the compiled engine on every serial line (everything but the CE
hash — a constrained reference vector is local-domain, so its array is
shorter), and serial vector solves equal their stage-sharded runs at 2
and 3 workers (everything but the ``stats.extra`` keys, which gain the
shard counters).

Usage, from the repository root::

    python3 benchmarks/fingerprint.py                  # this tree's lines
    python3 benchmarks/fingerprint.py --parent HEAD~1
    python3 benchmarks/fingerprint.py --parent-dir ../parent-checkout

``--parent REF`` checks REF out into a temporary ``git worktree`` that is
removed afterwards; ``--parent-dir`` uses an existing checkout.  Both run
this script's matrix against each tree's ``src/`` in a subprocess, print
the differing fields of every differing line (``-`` parent, ``+``
change) and both trees' check results, and exit 1 if any line differs
or a check fails on the change.  Without a parent the script prints its
lines and exits 1 only if a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (label, registry name, solver kwargs beyond the shared budget).
CONFIGS = (
    ("cbas", "cbas", {}),
    ("cbas-gauss", "cbas", {"allocation": "gaussian"}),
    ("cbas-nd", "cbas-nd", {}),
    ("cbas-nd-g", "cbas-nd-g", {}),
    ("cbas-nd-bt1e-3", "cbas-nd", {"backtrack_threshold": 1e-3}),
    ("cbas-nd-bt10", "cbas-nd", {"backtrack_threshold": 10.0}),
    ("rgreedy", "rgreedy", {}),
)
#: Configurations whose stages run through a stage executor.
STAGED = tuple(label for label, name, _ in CONFIGS if name != "rgreedy")
ENGINES = ("reference", "compiled", "vector")
SEEDS = (1, 2)
#: Field names of a line, after its key.
FIELDS = ("members", "W", "counts", "stage_best", "backtracks", "skipped",
          "keys", "ce")


def _kwargs(name: str, extra: dict, budget: int) -> dict:
    if name == "rgreedy":
        return {"budget": budget // 4, "m": 6}
    return {"budget": budget, "m": 6, "stages": 8, **extra}


def _problems(graph, k: int) -> "list[tuple[str, object]]":
    from repro.core.problem import WASOProblem

    nodes = graph.node_list()
    return [
        ("free", WASOProblem(graph=graph, k=k)),
        (
            "req1-forb9",
            WASOProblem(
                graph=graph,
                k=k,
                required=frozenset({nodes[3]}),
                forbidden=frozenset(nodes[10:19]),
            ),
        ),
    ]


def _ce_hash(solver) -> str:
    warm = getattr(solver, "last_warm_state", None)
    if solver is None or warm is None or not warm.vectors:
        return "-"
    digest = hashlib.sha256()
    for start in warm.starts:
        vector = warm.vectors[start]
        digest.update(repr((start, vector.snapshot(), vector.gamma)).encode())
    return digest.hexdigest()[:16]


def _line(key: str, result, solver=None) -> str:
    stats = result.stats
    extra = stats.extra
    fields = (
        ",".join(sorted(map(repr, result.solution.members))),
        repr(result.solution.willingness),
        f"{stats.samples_drawn}/{stats.failed_samples}/{stats.stages}",
        repr(extra.get("stage_best")),
        str(extra.get("backtracks", 0)),
        str(extra.get("skipped_small_components", 0)),
        ",".join(sorted(extra)),
        _ce_hash(solver),
    )
    return key + " :: " + " ".join(
        f"{name}={value.replace(' ', '')}"
        for name, value in zip(FIELDS, fields)
    )


def _serial(round_, graph_label, problems, engines, seeds, budget):
    from repro.runtime import ExecutionContext

    for engine in engines:
        with ExecutionContext(engine=engine, mode="serial") as context:
            for constraint, problem in problems:
                for label, name, extra in CONFIGS:
                    for seed in seeds:
                        solver = context.make_solver(
                            name, **_kwargs(name, extra, budget)
                        )
                        result = solver.solve(problem, rng=seed)
                        key = (f"r{round_}|{graph_label}|{constraint}|"
                               f"{label}|{engine}|serial|s{seed}")
                        yield _line(key, result, solver)


def _staged(round_, graph_label, problems, engines, workers, seed, budget):
    from repro.runtime import ExecutionContext

    for engine in engines:
        with ExecutionContext(
            engine=engine, mode="stage", workers=workers
        ) as context:
            for constraint, problem in problems:
                for label, name, extra in CONFIGS:
                    if label not in STAGED:
                        continue
                    solver = context.make_solver(
                        name, **_kwargs(name, extra, budget)
                    )
                    result = solver.solve(problem, rng=seed)
                    key = (f"r{round_}|{graph_label}|{constraint}|{label}|"
                           f"{engine}|stage{workers}|s{seed}")
                    yield _line(key, result, solver)


def _chunks(round_, graph_label, problems, engines, seed, budget):
    from repro.runtime import ExecutionContext, SolveRequest

    for engine in engines:
        keys, requests = [], []
        for constraint, problem in problems:
            for label, name, extra in CONFIGS:
                kwargs = dict(_kwargs(name, extra, budget), engine=engine)
                requests.append(SolveRequest(problem, name, seed, kwargs))
                keys.append(f"r{round_}|{graph_label}|{constraint}|{label}|"
                            f"{engine}|chunk2|s{seed}")
        with ExecutionContext(engine=engine, workers=2) as context:
            results = context.solve_many(requests, mode="solve")
        for key, result in zip(keys, results):
            yield _line(key, result)


def fingerprint_lines(quick: bool = False):
    """Yield the matrix's lines in a fixed order.

    ``quick`` runs a serial-only slice on one 60-node graph, for tests.
    """
    from repro.graph.generators import dblp_like, facebook_like

    if quick:
        graph = facebook_like(60, seed=5)
        yield from _serial(0, "fb60", _problems(graph, 5), ENGINES, (1,), 60)
        return
    budget, k = 400, 8
    graphs = [
        ("fb300", facebook_like(300, seed=11)),
        ("dblp300", dblp_like(300, seed=12)),
    ]
    for graph_label, graph in graphs:
        problems = _problems(graph, k)
        yield from _serial(0, graph_label, problems, ENGINES, SEEDS, budget)
        for workers in (2, 3):
            yield from _staged(
                0, graph_label, problems, ("compiled", "vector"), workers,
                SEEDS[0], budget,
            )
        yield from _chunks(
            0, graph_label, problems, ("compiled", "vector"), SEEDS[0], budget
        )
    graph_label, graph = graphs[0]
    nodes = graph.node_list()
    edges = [(u, v) for u in nodes[:6] for v in list(graph.neighbors(u))[:1]]
    graph.compiled().apply_deltas(
        [("set_tightness", u, v, 0.95) for u, v in edges]
    )
    problems = _problems(graph, k)
    yield from _serial(1, graph_label, problems, ENGINES, SEEDS[:1], budget)
    yield from _staged(
        1, graph_label, problems, ("vector",), 2, SEEDS[0], budget
    )


def parse(line: str) -> "tuple[str, dict]":
    """``(key, {field: value})`` of one fingerprint line."""
    key, _, rest = line.partition(" :: ")
    fields = {}
    for part in rest.split(" "):
        name, _, value = part.partition("=")
        fields[name] = value
    return key, fields


def check_lines(lines: "list[str]") -> "tuple[int, list[str]]":
    """One tree's invariant checks: ``(pairs compared, violations)``."""
    parsed = dict(map(parse, lines))
    compared, problems = 0, []
    for key, fields in parsed.items():
        parts = key.split("|")
        engine, mode = parts[4], parts[5]
        if engine == "reference" and mode == "serial":
            twin = parsed.get("|".join(parts[:4] + ["compiled"] + parts[5:]))
            ignored, what = "ce", "reference != compiled"
        elif engine == "vector" and mode.startswith("stage"):
            twin = parsed.get("|".join(parts[:5] + ["serial"] + parts[6:]))
            ignored, what = "keys", f"vector serial != {mode}"
        else:
            continue
        if twin is None:
            continue
        compared += 1
        differing = [
            name for name in FIELDS
            if name != ignored and fields[name] != twin[name]
        ]
        if differing:
            problems.append(f"{what} ({', '.join(differing)}): {key}")
    return compared, problems


def diff_lines(parent: "list[str]", change: "list[str]") -> "list[str]":
    """Report lines for every key whose line differs between the trees."""
    before = dict(map(parse, parent))
    after = dict(map(parse, change))
    report = []
    for key in list(before) + [key for key in after if key not in before]:
        old, new = before.get(key), after.get(key)
        if old == new:
            continue
        if old is None or new is None:
            side = "parent" if new is None else "change"
            report.append(f"only in {side}: {key}")
            continue
        differing = [name for name in FIELDS if old[name] != new[name]]
        report.append(f"{key}: {', '.join(differing)}")
        for name in differing:
            report.append(f"  - {name}={old[name]}")
            report.append(f"  + {name}={new[name]}")
    return report


def _tree_lines(tree: Path) -> "list[str]":
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit"],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return completed.stdout.splitlines()


def _print_checks(label: str, lines: "list[str]") -> bool:
    compared, problems = check_lines(lines)
    print(f"{label}: {len(lines)} lines, {compared} pairs compared, "
          f"{len(problems)} check failures")
    for problem in problems:
        print(f"  {problem}")
    return not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--parent", help="git ref to diff against")
    group.add_argument("--parent-dir", help="checkout to diff against")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit or not (args.parent or args.parent_dir):
        lines = []
        for line in fingerprint_lines():
            print(line, flush=True)
            lines.append(line)
        if args.emit:
            return 0
        return 0 if _print_checks("checks", lines) else 1

    worktree = None
    if args.parent:
        worktree = Path(tempfile.mkdtemp(prefix="fingerprint-parent-"))
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach",
             str(worktree), args.parent],
            check=True,
            capture_output=True,
        )
        parent = worktree
    else:
        parent = Path(args.parent_dir).resolve()
    try:
        parent_lines = _tree_lines(parent)
        change_lines = _tree_lines(ROOT)
    finally:
        if worktree is not None:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force",
                 str(worktree)],
                check=False,
            )
    report = diff_lines(parent_lines, change_lines)
    differing = [row for row in report if not row.startswith("  ")]
    print(f"{len(differing)} of {len(change_lines)} lines differ")
    for row in report:
        print(row)
    _print_checks("parent checks", parent_lines)
    change_ok = _print_checks("change checks", change_lines)
    return 0 if not report and change_ok else 1


if __name__ == "__main__":
    sys.exit(main())
