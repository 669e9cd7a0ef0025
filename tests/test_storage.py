"""Differential and failure-mode suite for the on-disk frozen index.

The out-of-core format (:mod:`repro.graph.storage`) is only useful if a
mapped index is *indistinguishable* from the in-memory freeze it came
from, so the core of this suite is differential: every solve over a
saved/loaded/mmap-backed graph must be bit-identical to the same solve
over the original, on both the compiled and the vector engine.  Around
that sit the failure modes — version skew, checksum corruption,
truncation, crash-torn saves — each of which must surface as a *typed*
storage error (the serving daemon turns ``ReproError`` into a typed
``invalid`` reply; an ``AssertionError`` or ``struct.error`` would drop
the connection instead), plus the worker-side residency rules: mapped
graphs refuse to pickle, evictions unmap, and a killed worker recovers
its graph by path, not by pickle.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import pickle
import subprocess
import sys
import time

import pytest

from repro.algorithms.cbas_nd import CBASND
from repro.core.problem import WASOProblem
from repro.exceptions import (
    GraphStorageError,
    ReproError,
    StorageChecksumError,
    StorageVersionError,
)
from repro.graph.compiled import CompiledGraph
from repro.graph.generators import dblp_like
from repro.graph.io import (
    ingest_edge_list,
    load_cached_graph,
    resolve_graph_source,
)
from repro.graph.storage import MANIFEST_NAME, load_compiled, save_compiled
from repro.parallel import NEXT_RPC, FaultPlan
from repro.parallel.residency import ResidentGraphStore
from repro.runtime import ExecutionContext, SolveRequest


@pytest.fixture
def fresh_graph():
    """A private graph instance per test.

    ``save_compiled`` adopts the content token and ``disk_home`` onto
    the instance it writes, so these tests must never save the shared
    session fixtures — a session graph left pointing at a deleted
    tmp-dir index would poison every later path-install.
    """
    return dblp_like(150, seed=31)


@pytest.fixture
def saved_index(fresh_graph, index_cache):
    """``fresh_graph`` frozen and saved under the scratch cache."""
    return save_compiled(fresh_graph.compiled(), index_cache / "dblp")


def _solve(graph_like, engine: str, seed: int = 9):
    problem = WASOProblem(graph=graph_like, k=5)
    solver = CBASND(budget=60, m=5, stages=2, engine=engine)
    return solver.solve(problem, rng=seed)


def _assert_same(left, right) -> None:
    assert left.solution.members == right.solution.members
    assert left.willingness == right.willingness
    assert left.stats.samples_drawn == right.stats.samples_drawn
    assert left.stats.failed_samples == right.stats.failed_samples


# ----------------------------------------------------------------------
# Differential: disk round trip is invisible to the solvers
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("engine", ["compiled", "vector"])
    @pytest.mark.parametrize("mmap", [True, False])
    def test_solves_bit_identical_after_round_trip(
        self, fresh_graph, saved_index, engine, mmap
    ):
        baseline = _solve(fresh_graph, engine)
        loaded = load_compiled(saved_index, mmap=mmap)
        try:
            _assert_same(_solve(loaded.graph, engine), baseline)
        finally:
            loaded.close()

    def test_save_is_idempotent_and_token_content_derived(
        self, fresh_graph, index_cache
    ):
        first = save_compiled(fresh_graph.compiled(), index_cache / "a")
        token_a = json.loads(
            (first / MANIFEST_NAME).read_text()
        )["payload_token"]
        # The same arrays saved elsewhere mint the same identity: the
        # token names content, not a directory or a process.
        second = save_compiled(
            dblp_like(150, seed=31).compiled(), index_cache / "b"
        )
        token_b = json.loads(
            (second / MANIFEST_NAME).read_text()
        )["payload_token"]
        assert token_a == token_b
        assert token_a.startswith("cg-disk-")
        # A different graph mints a different token.
        other = save_compiled(
            dblp_like(150, seed=32).compiled(), index_cache / "c"
        )
        assert (
            json.loads((other / MANIFEST_NAME).read_text())["payload_token"]
            != token_a
        )

    def test_token_stable_across_processes(self, saved_index):
        """A worker that maps the index derives the token the parent
        planned installs with — asserted from a genuinely separate
        interpreter, not a fork."""
        script = (
            "from repro.graph.storage import load_compiled\n"
            f"print(load_compiled({str(saved_index)!r}).payload_token)\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        manifest = json.loads((saved_index / MANIFEST_NAME).read_text())
        assert child.stdout.strip() == manifest["payload_token"]


# ----------------------------------------------------------------------
# Failure modes are typed storage errors
# ----------------------------------------------------------------------
class TestFailureModes:
    def test_version_skew_is_typed(self, saved_index):
        manifest = json.loads((saved_index / MANIFEST_NAME).read_text())
        manifest["version"] = 99
        (saved_index / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StorageVersionError, match="waso compile"):
            load_compiled(saved_index)

    def test_checksum_corruption_is_typed(self, saved_index):
        target = saved_index / "potential.f64"
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(StorageChecksumError, match="potential"):
            load_compiled(saved_index)

    def test_truncation_fails_even_without_verify(self, saved_index):
        """``verify=False`` skips digests, never the size check — a
        short mmap would otherwise fault at some arbitrary solve later."""
        target = saved_index / "targets.i64"
        target.write_bytes(target.read_bytes()[:-16])
        with pytest.raises(StorageChecksumError):
            load_compiled(saved_index, verify=False)

    def test_torn_save_without_manifest_is_rejected(self, saved_index):
        (saved_index / MANIFEST_NAME).unlink()
        with pytest.raises(GraphStorageError, match="manifest"):
            load_compiled(saved_index)
        with pytest.raises(GraphStorageError):
            resolve_graph_source(str(saved_index))

    def test_storage_errors_are_repro_errors(self):
        # The serving daemon's admission catches ReproError to answer
        # with a typed "invalid" reply; the storage family must be in it.
        assert issubclass(GraphStorageError, ReproError)
        assert issubclass(StorageVersionError, GraphStorageError)
        assert issubclass(StorageChecksumError, GraphStorageError)


# ----------------------------------------------------------------------
# Residency rules for mapped graphs
# ----------------------------------------------------------------------
class TestResidency:
    def test_mmap_backed_graph_refuses_pickle(self, saved_index):
        loaded = load_compiled(saved_index)
        try:
            assert loaded.is_mmap_backed
            with pytest.raises(TypeError, match="disk_home"):
                pickle.dumps(loaded)
        finally:
            loaded.close()

    def test_in_memory_load_still_pickles(self, saved_index):
        loaded = load_compiled(saved_index, mmap=False)
        assert not loaded.is_mmap_backed
        clone = pickle.loads(pickle.dumps(loaded))
        assert clone.payload_token == loaded.payload_token

    def test_store_eviction_unmaps(self, saved_index):
        store = ResidentGraphStore()
        mapped = load_compiled(saved_index)
        store.install(mapped.payload_token, mapped)
        assert store.get(mapped.payload_token) is mapped
        replacement = dblp_like(60, seed=8).compiled()
        store.install(
            replacement.payload_token,
            replacement,
            evict=[mapped.payload_token],
        )
        # The eviction closed the mapping, not just dropped the ref.
        assert mapped.offsets == ()
        assert not mapped.is_mmap_backed
        with pytest.raises(RuntimeError, match="not resident"):
            store.get(mapped.payload_token)

    @pytest.mark.chaos
    def test_worker_crash_recovers_graph_by_path(self, saved_index):
        """A SIGKILLed worker's replacement re-installs the mapped graph
        from its path: results stay bit-identical to the fault-free run
        and no array pickle crosses the pipes during recovery."""
        before = set(multiprocessing.active_children())
        loaded = load_compiled(saved_index)
        problem = WASOProblem(graph=loaded.graph, k=5)
        requests = [
            SolveRequest(
                problem,
                "cbas-nd",
                seed,
                {"budget": 40, "m": 4, "stages": 2, "engine": "compiled"},
            )
            for seed in (11, 12, 13, 14)
        ]

        def run(plan):
            with ExecutionContext(workers=2, cpu_count=4) as context:
                if plan is not None:
                    context.pool().fault_plan = plan
                return context.solve_many(
                    [
                        SolveRequest(r.problem, r.solver, r.rng,
                                     dict(r.solver_kwargs))
                        for r in requests
                    ],
                    mode="solve",
                )

        try:
            clean = run(None)
            faulted = run(FaultPlan(kills=[(0, NEXT_RPC)]))
        finally:
            loaded.close()
        for have, want in zip(faulted, clean):
            _assert_same(have, want)
        extra = faulted[0].stats.extra
        assert extra["worker_restarts"] >= 1
        assert extra["batch_payload_bytes"] < 5_000
        deadline = time.monotonic() + 5.0
        while set(multiprocessing.active_children()) - before:
            assert time.monotonic() < deadline, "orphan workers"
            time.sleep(0.02)


# ----------------------------------------------------------------------
# Ingestion front door
# ----------------------------------------------------------------------
class TestIngestion:
    EDGES = "\n".join(
        ["# toy crawl"]
        + [f"{node} {(node + 1) % 8} 0.{node + 1}" for node in range(8)]
        + ["0 4 0.5", "2 6 0.25"]
    )

    def test_ingest_is_content_addressed_and_cached(
        self, tmp_path, index_cache
    ):
        crawl = tmp_path / "crawl.txt"
        crawl.write_text(self.EDGES)
        first = ingest_edge_list(crawl, index_cache)
        stamp = (first / MANIFEST_NAME).stat().st_mtime_ns
        again = ingest_edge_list(crawl, index_cache)
        assert again == first
        assert (first / MANIFEST_NAME).stat().st_mtime_ns == stamp
        # Same bytes elsewhere: same cache slot (content, not filename).
        other = tmp_path / "copy.txt"
        other.write_text(self.EDGES)
        assert ingest_edge_list(other, index_cache) == first

    def test_cached_graph_solves_like_the_edge_list(
        self, tmp_path, index_cache
    ):
        from repro.graph.io import load_edge_list

        crawl = tmp_path / "crawl.txt"
        crawl.write_text(self.EDGES)
        index = ingest_edge_list(crawl, index_cache)
        direct = _solve(load_edge_list(crawl), "compiled")
        cached = _solve(load_cached_graph(index), "compiled")
        _assert_same(cached, direct)

    def test_request_from_spec_accepts_graph_path(
        self, fresh_graph, saved_index
    ):
        from repro.runtime import request_from_spec

        request = request_from_spec(
            fresh_graph,
            {"k": 5, "graph_path": str(saved_index), "budget": 40},
        )
        # The request solves over the named index, not the connection
        # default: its graph is the cached array-backed facade.
        assert (
            request.problem.graph.compiled().payload_token
            == json.loads(
                (saved_index / MANIFEST_NAME).read_text()
            )["payload_token"]
        )

    def test_daemon_serves_path_tenant_and_types_storage_errors(
        self, saved_index, index_cache
    ):
        """A tenant may be a path, and a request naming a bad index gets
        a typed ``invalid`` reply on a connection that stays up."""
        from repro.serving import ServingDaemon

        broken = index_cache / "broken"
        save_compiled(dblp_like(60, seed=8).compiled(), broken)
        manifest = json.loads((broken / MANIFEST_NAME).read_text())
        manifest["version"] = 99
        (broken / MANIFEST_NAME).write_text(json.dumps(manifest))

        async def scenario():
            daemon = ServingDaemon(
                {"disk": str(saved_index)}, workers=2, cpu_count=4
            )
            host, port = await daemon.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                for spec in (
                    {
                        "id": "ok", "tenant": "disk", "k": 5,
                        "budget": 40, "m": 4, "stages": 2, "seed": 3,
                    },
                    {
                        "id": "bad", "tenant": "disk", "k": 5,
                        "graph_path": str(broken),
                    },
                    {
                        "id": "after", "tenant": "disk", "k": 5,
                        "budget": 40, "m": 4, "stages": 2, "seed": 4,
                    },
                ):
                    writer.write(json.dumps(spec).encode() + b"\n")
                await writer.drain()
                writer.write_eof()
                replies = {}
                while line := await reader.readline():
                    reply = json.loads(line)
                    replies[reply["id"]] = reply
                writer.close()
                await writer.wait_closed()
            finally:
                await daemon.shutdown()
            return replies

        replies = asyncio.run(scenario())
        assert replies["ok"]["ok"], replies["ok"]
        assert replies["after"]["ok"], replies["after"]
        assert not replies["bad"]["ok"]
        assert replies["bad"]["error"]["kind"] == "invalid"
        assert "version" in replies["bad"]["error"]["message"]
