"""Pytest configuration for the bench suite."""

import os
import sys
from pathlib import Path

# Allow `import common` from bench modules regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))


#: The tier-2 CI job (documented in ROADMAP.md): the marked gates, the
#: chaos suites (pool recovery and the serving daemon), and the
#: regression checks against the committed baseline.
#:
#:     PYTHONPATH=src python -m pytest benchmarks/ -m tier2
#:     PYTHONPATH=src python benchmarks/bench_perf_sampler.py --check
#:     PYTHONPATH=src python benchmarks/bench_serving_daemon.py --check
#:
#: Wall-clock gates auto-skip below the required CPU count; the
#: payload-byte gate (``test_payload_bytes_regression_gate``) and the
#: serving accounting gate (``test_serving_daemon_accounting_gate``)
#: are machine-independent — pickle sizes and stalled-burst shed sets
#: are deterministic — so they run everywhere and cover the resident
#: shipping protocol (one graph install per (graph, worker) pair) and
#: the daemon's zero-dropped-replies invariant exactly.
TIER2_INVOCATION = (
    "PYTHONPATH=src python -m pytest benchmarks/ -m tier2 && "
    "PYTHONPATH=src python -m pytest tests/test_faults.py "
    "tests/test_serving.py tests/test_storage.py tests/test_graph_deltas.py "
    "-m chaos && "
    "PYTHONPATH=src python benchmarks/bench_perf_sampler.py --check && "
    "PYTHONPATH=src python benchmarks/bench_serving_daemon.py --check && "
    "PYTHONPATH=src python benchmarks/bench_fig7_dblp.py --check && "
    "PYTHONPATH=src python benchmarks/bench_fig8_flickr.py --check && "
    "PYTHONPATH=src python benchmarks/bench_fig5_parallel.py --check"
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "tier2: performance/regression gates for the tier-2 job "
        f"(`{TIER2_INVOCATION}`); multi-core wall-clock gates auto-skip "
        "(with a visible reason) on machines too small to run the "
        "workers in parallel, while the payload-byte gates are "
        "machine-independent and always run",
    )
    config.addinivalue_line(
        "markers",
        "chaos: deterministic fault-injection differential tests; the "
        "suite lives in tests/test_faults.py and the tier-2 job re-runs "
        "it standalone (see TIER2_INVOCATION)",
    )

# Record every regenerated figure table to a file (pytest captures stdout,
# so without this a plain `pytest benchmarks/` run would discard them).
os.environ.setdefault(
    "WASO_BENCH_TABLE_LOG",
    str(Path(__file__).parent.parent / "bench_tables.txt"),
)

