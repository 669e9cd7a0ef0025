"""A/B runner for the perfbench serving benchmark.

Runs ``perfbench/run.py --trace 0`` on a parent tree and on the change
tree in alternating pairs, one pair per seed, and prints one table per
workload: both medians, the parent's quartiles, the change's wins out
of N pairs, and each metric's bound verdict from ``BENCHMARK.json``.

Usage, from the repository root::

    python3 benchmarks/ab.py --parent HEAD~1 --seeds 2-11
    python3 benchmarks/ab.py --parent-dir ../parent-checkout --workloads serve-mutate

``--parent REF`` checks REF out into a temporary ``git worktree`` that
is removed afterwards; ``--parent-dir`` uses an existing checkout
instead.  The change side is the tree this script lives in (or
``--change-dir``).  Each pair runs both trees on the same seed and
flips which tree goes first, so slow drift of a shared host lands on
both sides.  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``.  ``--log`` appends every raw result line as JSON.

Reading the table:

* ``q1..q3`` are the parent's quartiles (``statistics.quantiles``,
  inclusive method).  A gain is marked clear when the medians differ,
  in the better direction, by more than the parent's interquartile
  range and the change wins at least 9 pairs in 10.
* ``wins`` counts pairs whose change value is strictly better; ties
  count for neither side.
* ``verdict`` is ``ok`` when the change median is no worse than the
  parent median by more than the metric's ``bound`` (a fraction), and
  ``WORSE`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for row in handle:
                if row.startswith("model name"):
                    return row.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_seeds(text: str) -> "list[int]":
    """``"2-11"`` or ``"1,4,9"`` (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def quartiles(values: "list[float]") -> "tuple[float, float]":
    if len(values) < 2:
        return (values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q1, q3)


def summarize(pairs: "list[tuple[dict, dict]]", end_to_end: "list[dict]") -> dict:
    """Per-metric A/B summary of ``(parent, change)`` result pairs.

    Each result is the last stdout line of ``perfbench/run.py``: a dict
    with ``correct``, ``failed`` and ``metrics`` (name -> ``{"value"}``).
    ``end_to_end`` is the ``BENCHMARK.json`` list of metric specs
    (``name``, ``better``, ``bound``).  A metric missing from a pair's
    result is left out of that metric's numbers.
    """
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        lower = spec["better"] == "lower"
        values = [
            (parent["metrics"][name]["value"], change["metrics"][name]["value"])
            for parent, change in pairs
            if name in parent.get("metrics", {})
            and name in change.get("metrics", {})
        ]
        if not values:
            continue
        before = [value for value, _ in values]
        after = [value for _, value in values]
        wins = sum(
            1 for old, new in values if (new < old if lower else new > old)
        )
        losses = sum(
            1 for old, new in values if (new > old if lower else new < old)
        )
        parent_median = statistics.median(before)
        change_median = statistics.median(after)
        q1, q3 = quartiles(before)
        gain = parent_median - change_median
        if not lower:
            gain = -gain
        within = gain >= -abs(parent_median) * spec["bound"]
        rows.append(
            {
                "metric": name,
                "better": spec["better"],
                "parent_median": parent_median,
                "parent_q1": q1,
                "parent_q3": q3,
                "change_median": change_median,
                "change_pct": (
                    (change_median / parent_median - 1.0) * 100.0
                    if parent_median
                    else None
                ),
                "wins": wins,
                "losses": losses,
                "pairs": len(values),
                "bound": spec["bound"],
                "verdict": "ok" if within else "WORSE",
                "clear_gain": gain > q3 - q1 and wins * 10 >= 9 * len(values),
            }
        )
    return {
        "pairs": len(pairs),
        "correct": [
            sum(1 for parent, _ in pairs if parent.get("correct")),
            sum(1 for _, change in pairs if change.get("correct")),
        ],
        "failed": [
            sum(parent.get("failed", 0) for parent, _ in pairs),
            sum(change.get("failed", 0) for _, change in pairs),
        ],
        "rows": rows,
    }


def _number(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def render(workload: str, summary: dict) -> str:
    """Markdown table of one workload's :func:`summarize` output."""
    n = summary["pairs"]
    (correct_p, correct_c), (failed_p, failed_c) = (
        summary["correct"],
        summary["failed"],
    )
    lines = [
        f"#### {workload}: {n} pairs, correct parent {correct_p}/{n} "
        f"change {correct_c}/{n}, failed lines parent {failed_p} "
        f"change {failed_c}",
        "",
        "| metric | parent median | parent q1..q3 | change median | change | "
        "wins | bound | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in summary["rows"]:
        pct = row["change_pct"]
        lines.append(
            f"| {row['metric']} | {_number(row['parent_median'])} | "
            f"{_number(row['parent_q1'])}..{_number(row['parent_q3'])} | "
            f"{_number(row['change_median'])} | "
            f"{'-' if pct is None else f'{pct:+.1f}%'} | "
            f"{row['wins']}/{row['pairs']} | {row['bound']:.0%} | "
            f"{row['verdict']}{' (clear gain)' if row['clear_gain'] else ''} |"
        )
    return "\n".join(lines)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``; its result line as a dict."""
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "failed": 0, "metrics": {}}
    result["exit_code"] = proc.returncode
    return result


def run_workload(
    parent: Path, change: Path, workload: str, seeds, seconds, log=None
) -> "list[tuple[dict, dict]]":
    pairs = []
    for position, seed in enumerate(seeds):
        order = [("parent", parent), ("change", change)]
        if position % 2:
            order.reverse()
        results = {}
        for side, tree in order:
            results[side] = run_once(tree, workload, seed, seconds)
            if log is not None:
                log.write(
                    json.dumps(
                        {"workload": workload, "seed": seed, "side": side,
                         **results[side]}
                    )
                    + "\n"
                )
                log.flush()
        pairs.append((results["parent"], results["change"]))
        print(
            f"  {workload} seed {seed}: done "
            f"({' then '.join(side for side, _ in order)})",
            file=sys.stderr,
        )
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--parent", help="git ref to check out as the parent")
    source.add_argument("--parent-dir", type=Path, help="existing parent checkout")
    parser.add_argument("--change-dir", type=Path, default=ROOT)
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="2-11")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--log", type=Path, help="append raw results here")
    args = parser.parse_args(argv)

    config = json.loads((args.change_dir / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [workload["name"] for workload in config["workloads"]]
    )
    seeds = parse_seeds(args.seeds)
    print(
        f"A/B: nproc {os.cpu_count()}, {cpu_model()}; {len(seeds)} pairs "
        f"per workload (seeds {args.seeds}), {seconds:g} s per run"
    )

    worktree = None
    parent = args.parent_dir
    if parent is None:
        worktree = Path(tempfile.mkdtemp(prefix="ab-parent-"))
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach",
             str(worktree), args.parent],
            check=True,
            capture_output=True,
        )
        parent = worktree
    log = open(args.log, "a", encoding="utf-8") if args.log else None
    try:
        for workload in workloads:
            pairs = run_workload(
                parent, args.change_dir, workload, seeds, seconds, log
            )
            print()
            print(render(workload, summarize(pairs, config["end_to_end"])))
            sys.stdout.flush()
    finally:
        if log is not None:
            log.close()
        if worktree is not None:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force",
                 str(worktree)],
                capture_output=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
