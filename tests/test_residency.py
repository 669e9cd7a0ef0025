"""Tests for the shared graph-residency machinery (repro.parallel.residency).

The ledger is the parent-side mirror of a worker's resident cache; the
load-bearing property is that the two can never disagree — every install
and eviction the worker performs was planned by the ledger, so replaying
the ledger's decisions against a store must reproduce its resident set
exactly.
"""

import pytest

from repro.graph.generators import random_social_graph
from repro.parallel.residency import (
    DEFAULT_RESIDENT_GRAPHS,
    ResidencyLedger,
    ResidentGraphStore,
    record_shipping,
)
from repro.vector import vector_graph_for


class TestResidencyLedger:
    def test_first_use_ships_later_uses_do_not(self):
        ledger = ResidencyLedger(capacity=2)
        assert ledger.plan("a") == (True, ())
        assert ledger.plan("a") == (False, ())
        assert ledger.installs == 1
        assert ledger.is_resident("a")

    def test_lru_eviction_over_capacity(self):
        ledger = ResidencyLedger(capacity=2)
        assert ledger.plan("a") == (True, ())
        assert ledger.plan("b") == (True, ())
        # "a" is the least recently used: installing "c" evicts it.
        ship, evicted = ledger.plan("c")
        assert ship and evicted == ("a",)
        assert ledger.resident_tokens() == ("b", "c")
        # "a" must now be re-shipped.
        ship, evicted = ledger.plan("a")
        assert ship and evicted == ("b",)
        assert ledger.installs == 4

    def test_use_refreshes_lru_order(self):
        ledger = ResidencyLedger(capacity=2)
        ledger.plan("a")
        ledger.plan("b")
        ledger.plan("a")  # touch: "b" becomes the eviction candidate
        ship, evicted = ledger.plan("c")
        assert ship and evicted == ("b",)
        assert ledger.resident_tokens() == ("a", "c")

    def test_most_recent(self):
        ledger = ResidencyLedger()
        assert ledger.most_recent() is None
        ledger.plan("a")
        ledger.plan("b")
        assert ledger.most_recent() == "b"
        ledger.plan("a")
        assert ledger.most_recent() == "a"

    def test_capacity_one(self):
        ledger = ResidencyLedger(capacity=1)
        ledger.plan("a")
        ship, evicted = ledger.plan("b")
        assert ship and evicted == ("a",)
        assert ledger.resident_tokens() == ("b",)

    def test_pinned_tokens_survive_eviction(self):
        """A dispatch referencing more graphs than fit pins its whole
        token set: installs travel ahead of the work, so a later install
        must not displace arrays an earlier entry still needs."""
        ledger = ResidencyLedger(capacity=1)
        pinned = {"a", "b"}
        assert ledger.plan("a", pinned=pinned) == (True, ())
        # Over capacity, but "a" is pinned: nothing evicted.
        assert ledger.plan("b", pinned=pinned) == (True, ())
        assert ledger.resident_tokens() == ("a", "b")
        # The next unpinned plan shrinks the cache back below capacity.
        ship, evicted = ledger.plan("c")
        assert ship and evicted == ("a", "b")
        assert ledger.resident_tokens() == ("c",)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResidencyLedger(capacity=0)

    def test_default_capacity(self):
        ledger = ResidencyLedger()
        assert ledger.capacity == DEFAULT_RESIDENT_GRAPHS

    def test_mirror_matches_store(self):
        """Replaying the ledger's decisions keeps a store in lockstep."""
        ledger = ResidencyLedger(capacity=2)
        store = ResidentGraphStore()
        for token in ["a", "b", "a", "c", "d", "b", "d", "a"]:
            ship, evictions = ledger.plan(token)
            if ship:
                store.install(token, object(), evictions)
            assert sorted(store.tokens()) == sorted(ledger.resident_tokens())
            assert len(store) <= ledger.capacity


class TestResidentGraphStore:
    def test_install_get_roundtrip(self):
        store = ResidentGraphStore()
        payload = object()
        store.install("t1", payload)
        assert store.get("t1") is payload
        assert "t1" in store

    def test_missing_token_is_a_protocol_error(self):
        store = ResidentGraphStore()
        store.install("t1", object())
        with pytest.raises(RuntimeError, match="not resident"):
            store.get("t2")

    def test_eviction_removes_entries(self):
        store = ResidentGraphStore()
        store.install("t1", object())
        store.install("t2", object(), evict=("t1",))
        assert "t1" not in store
        assert store.tokens() == ("t2",)
        # Evicting an already-absent token is a no-op, not an error.
        store.install("t3", object(), evict=("gone",))
        assert len(store) == 2

    def test_eviction_drops_the_vector_mirror(self):
        evicted = random_social_graph(30, average_degree=3.0, seed=1).compiled()
        kept = random_social_graph(30, average_degree=3.0, seed=2).compiled()
        store = ResidentGraphStore()
        store.install(evicted.payload_token, evicted)
        mirror = vector_graph_for(evicted)
        store.install(kept.payload_token, kept, evict=(evicted.payload_token,))
        # The cache no longer pins the evicted graph's arrays: a later
        # lookup converts afresh.
        assert vector_graph_for(evicted) is not mirror


class TestRecordShipping:
    def test_all_keys(self):
        extra = {}
        record_shipping(extra, shipped=True, payload_bytes=123, installs=2)
        assert extra == {
            "graph_shipped": True,
            "graph_installs": 2,
            "batch_payload_bytes": 123,
        }

    def test_optional_fields_omitted(self):
        extra = {}
        record_shipping(extra, shipped=False)
        assert extra == {"graph_shipped": False}
