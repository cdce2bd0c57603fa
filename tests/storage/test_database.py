"""Tests for the Database catalog and its trie indexes."""

import pytest

from repro.errors import SchemaError, StorageError
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.trie import TrieIndex


@pytest.fixture
def database() -> Database:
    return Database([
        Relation("edge", 2, [(1, 2), (2, 3), (1, 3)]),
        Relation("v1", 1, [(1,), (2,)]),
    ])


class TestCatalog:
    def test_lookup(self, database):
        assert len(database.relation("edge")) == 3
        assert "edge" in database and "missing" not in database

    def test_unknown_relation(self, database):
        with pytest.raises(SchemaError):
            database.relation("missing")

    def test_add_duplicate_rejected(self, database):
        with pytest.raises(SchemaError):
            database.add(Relation("edge", 2, [(9, 9)]))

    def test_add_replace(self, database):
        database.add(Relation("edge", 2, [(9, 8)]), replace=True)
        assert len(database.relation("edge")) == 1

    def test_remove(self, database):
        database.remove("v1")
        assert "v1" not in database
        with pytest.raises(SchemaError):
            database.remove("v1")

    def test_names_and_len(self, database):
        assert database.names() == ["edge", "v1"]
        assert len(database) == 2
        assert database.total_tuples() == 5

    def test_copy_shares_relations_not_cache(self, database):
        index = database.index("edge", (0, 1))
        clone = database.copy()
        assert clone.relation("edge") is database.relation("edge")
        assert clone.index("edge", (0, 1)) is not index
        assert database.index("edge", (0, 1)) is index


class TestIndexes:
    def test_index_is_cached(self, database):
        first = database.index("edge", (1, 0))
        second = database.index("edge", [1, 0])
        assert first is second
        assert first.relation is database.relation("edge")

    def test_different_orders_are_different_indexes(self, database):
        natural = database.index("edge", (0, 1))
        reversed_ = database.index("edge", (1, 0))
        assert natural is not reversed_
        assert database.index("edge", (0, 1)) is natural
        assert database.index("edge", (1, 0)) is reversed_
        assert reversed_.tuples == [(2, 1), (3, 1), (3, 2)]

    def test_invalid_order_rejected(self, database):
        with pytest.raises(StorageError):
            database.index("edge", (0, 0))

    def test_replacing_relation_invalidates_cache(self, database):
        old = database.index("edge", (0, 1))
        database.add(Relation("edge", 2, [(7, 7)]), replace=True)
        new = database.index("edge", (0, 1))
        assert new is not old
        assert new.tuples == [(7, 7)]
        assert database.index("edge", (0, 1)) is new

    def test_replace_during_build_caches_no_stale_trie(self, monkeypatch):
        # A writer thread may replace the relation while a reader builds a
        # trie of the old one; patching the build to do exactly that makes
        # the interleaving deterministic.
        database = Database([Relation("edge", 2, [(1, 2), (2, 3)])])
        replacement = Relation("edge", 2, [(7, 7)])
        build = TrieIndex.__init__
        pending = [replacement]

        def build_then_replace(self, relation, column_order):
            build(self, relation, column_order)
            if pending:
                database.add(pending.pop(), replace=True)

        monkeypatch.setattr(TrieIndex, "__init__", build_then_replace)
        racing = database.index("edge", (0, 1))
        assert racing.tuples == [(1, 2), (2, 3)]
        assert database.relation("edge") is replacement
        fresh = database.index("edge", (0, 1))
        assert fresh.relation is replacement
        assert fresh.tuples == [(7, 7)]
        assert database.index("edge", (0, 1)) is fresh

    def test_statistics_cached_and_refreshed(self, database):
        stats = database.statistics("edge")
        assert stats.cardinality == 3
        assert database.statistics("edge") is stats
        database.add(Relation("edge", 2, [(7, 7)]), replace=True)
        assert database.statistics("edge").cardinality == 1


class TestChangeFeed:
    def test_versions_start_after_construction(self, database):
        # Construction adds two relations, so versions 1 and 2 exist.
        assert database.version == 2
        assert database.relation_version("edge") == 1
        assert database.relation_version("v1") == 2
        assert database.relation_version("missing") == 0

    def test_replace_bumps_only_that_relation(self, database):
        before = database.relation_version("v1")
        database.add(Relation("edge", 2, [(7, 7)]), replace=True)
        assert database.relation_version("edge") == database.version
        assert database.relation_version("v1") == before

    def test_remove_bumps_version(self, database):
        database.remove("v1")
        assert database.relation_version("v1") == database.version

    def test_listeners_fire_on_add_and_remove(self, database):
        events = []
        database.subscribe(events.append)
        database.add(Relation("v2", 1, [(5,)]))
        database.add(Relation("v2", 1, [(6,)]), replace=True)
        database.remove("v2")
        assert events == ["v2", "v2", "v2"]

    def test_unsubscribe_is_idempotent(self, database):
        events = []
        listener = database.subscribe(events.append)
        database.unsubscribe(listener)
        database.unsubscribe(listener)
        database.add(Relation("v2", 1, [(5,)]))
        assert events == []

    def test_listener_sees_updated_catalog(self, database):
        observed = {}

        def listener(name):
            observed[name] = len(database.relation(name))

        database.subscribe(listener)
        database.add(Relation("edge", 2, [(7, 7)]), replace=True)
        assert observed == {"edge": 1}

    def test_copy_does_not_share_listeners(self, database):
        events = []
        database.subscribe(events.append)
        clone = database.copy()
        clone.add(Relation("v9", 1, [(1,)]))
        assert events == []
