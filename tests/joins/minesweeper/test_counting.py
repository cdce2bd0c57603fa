"""Tests for #Minesweeper-style factorised counting (Idea 8).

The idea lives in :meth:`LeapfrogTrieJoin.count`: the count below a level is
memoised on the earlier attributes that the remaining atoms and filters
still read.
"""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.parser import parse_query
from repro.joins.leapfrog import LeapfrogTrieJoin
from repro.joins.naive import NaiveBacktrackingJoin
from repro.queries.patterns import build_query
from repro.storage import Database, Relation, edge_relation_from_pairs, node_relation

from tests.conftest import graph_database


def _memo_keys(database, query, variable_order=None):
    """The attribute order and each level's planned memo key, by name."""
    order, levels = LeapfrogTrieJoin(variable_order=variable_order)._plan(
        database, query)
    names = [variable.name for variable in order]
    keys = [None if level.memo_key is None
            else tuple(names[p] for p in level.memo_key) for level in levels]
    return names, keys


class TestCorrectness:
    @pytest.mark.parametrize("pattern_name", [
        "3-clique", "4-cycle", "3-path", "4-path", "1-tree", "2-comb",
        "2-lollipop",
    ])
    def test_patterns_match_oracle(self, small_db, pattern_name):
        query = build_query(pattern_name)
        assert LeapfrogTrieJoin().count(small_db, query) == \
            NaiveBacktrackingJoin().count(small_db, query)

    def test_paper_example_query(self):
        """The §4.11 example: R1(A,B) ⋈ R2(A,C) ⋈ R3(B,D) ⋈ R4(C) ⋈ R5(D)."""
        db = Database([
            Relation("r1", 2, [(a, b) for a in range(4) for b in range(3)]),
            Relation("r2", 2, [(a, c) for a in range(4) for c in (5, 6)]),
            Relation("r3", 2, [(b, d) for b in range(3) for d in (8, 9)]),
            Relation("r4", 1, [(5,), (6,)]),
            Relation("r5", 1, [(8,), (9,)]),
        ])
        query = parse_query("r1(a,b), r2(a,c), r3(b,d), r4(c), r5(d)")
        counter = LeapfrogTrieJoin(variable_order=["a", "b", "c", "d"])
        assert counter.count(db, query) == \
            NaiveBacktrackingJoin().count(db, query) == 4 * 3 * 2 * 2

    def test_empty_relation(self):
        db = Database([Relation("edge", 2, []), node_relation([1], "v1"),
                       node_relation([2], "v2")])
        assert LeapfrogTrieJoin().count(db, build_query("3-path")) == 0

    def test_constants_and_filters(self, small_db):
        query = parse_query("edge(a,b), edge(b,c), a < c, b != 3")
        assert LeapfrogTrieJoin().count(small_db, query) == \
            NaiveBacktrackingJoin().count(small_db, query)
        query = parse_query("edge(3,b), edge(b,c), edge(c,d), b < d")
        assert LeapfrogTrieJoin().count(small_db, query) == \
            NaiveBacktrackingJoin().count(small_db, query)

    def test_explicit_gao(self, small_db):
        query = build_query("3-path")
        reference = NaiveBacktrackingJoin().count(small_db, query)
        counter = LeapfrogTrieJoin(variable_order=["a", "b", "c", "d"])
        assert counter.count(small_db, query) == reference


class TestSharing:
    def test_cache_is_exercised_on_path_queries(self, seek_calls):
        """Low-selectivity path queries are exactly where sharing pays off:
        the memoised count makes far fewer seeks than the enumeration."""
        db = graph_database(40, 200, seed=29, sample_size=15)
        query = build_query("3-path")
        rows = LeapfrogTrieJoin().count(db, query)
        count_seeks, seek_calls[0] = seek_calls[0], 0
        assert rows == sum(1 for _ in LeapfrogTrieJoin().enumerate_bindings(db, query))
        assert count_seeks * 10 < seek_calls[0]

    def test_memo_key_projection_drops_irrelevant_prefix(self):
        db = Database([
            Relation("r1", 2, [(0, 1)]), Relation("r2", 2, [(0, 2)]),
            Relation("r3", 2, [(1, 3)]), Relation("r4", 1, [(2,)]),
            Relation("r5", 1, [(3,)]),
        ])
        query = parse_query("r1(a,b), r2(a,c), r3(b,d), r4(c), r5(d)")
        names, keys = _memo_keys(db, query, ["a", "b", "c", "d"])
        assert names == ["a", "b", "c", "d"]
        # At C the rest of the search reads A (R2) and B (R3): the whole
        # prefix, so nothing is shared.  At D only B matters (R3, R5).
        assert keys == [None, None, None, ("b",)]

    @pytest.mark.parametrize("pattern_name, memoised", [
        ("3-clique", [False, False, False]),
        ("4-clique", [False, False, False, False]),
        ("4-cycle", [False, False, False, True]),
        ("3-path", [False, False, True, True]),
    ])
    def test_planned_memo_levels(self, small_db, pattern_name, memoised):
        _, keys = _memo_keys(small_db, build_query(pattern_name))
        assert [key is not None for key in keys] == memoised

    def test_filter_ties_memo_key_to_a_position_outside_the_atoms(self, small_db):
        query = parse_query("edge(a,b), edge(b,c), edge(c,d), a < d")
        names, keys = _memo_keys(small_db, query, ["a", "b", "c", "d"])
        assert keys == [None, None, None, ("a", "c")]

    def test_sharing_count_equals_enumeration_on_dense_samples(self):
        db = graph_database(30, 150, seed=47, sample_size=20)
        query = build_query("4-path")
        counter = LeapfrogTrieJoin()
        assert counter.count(db, query) == \
            sum(1 for _ in counter.enumerate_bindings(db, query))

    def test_threads_count_different_queries_on_one_instance(self):
        db = graph_database(40, 200, seed=29, sample_size=15)
        queries = [build_query(name)
                   for name in ("3-path", "4-path", "1-tree", "4-cycle")]
        expected = [NaiveBacktrackingJoin().count(db, q) for q in queries]
        counter = LeapfrogTrieJoin()
        results = [[] for _ in queries]
        barrier = threading.Barrier(len(queries))

        def worker(index):
            barrier.wait()
            for _ in range(5):
                results[index].append(counter.count(db, queries[index]))

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(len(queries))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[count] * 5 for count in expected]


edges_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
    max_size=30,
)


class TestProperties:
    @given(edges_strategy)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_count_equals_oracle_and_enumeration(self, edges):
        db = Database([edge_relation_from_pairs(edges)])
        query = parse_query("edge(a,b), edge(b,c), edge(c,d), a < d")
        lftj = LeapfrogTrieJoin(variable_order=["a", "b", "c", "d"])
        assert lftj.count(db, query) == \
            NaiveBacktrackingJoin().count(db, query) == \
            len(list(lftj.enumerate_bindings(db, query)))
