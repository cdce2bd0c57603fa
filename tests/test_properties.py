"""Property-based tests (hypothesis) for core data structures and joins."""

from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.parser import parse_query
from repro.engine import QueryEngine
from repro.exec import ParallelConfig
from repro.joins.leapfrog import LeapfrogTrieJoin
from repro.joins.minesweeper import MinesweeperJoin
from repro.joins.minesweeper.intervals import IntervalList, POS_INF
from repro.joins.naive import NaiveBacktrackingJoin
from repro.storage import Database, Relation, edge_relation_from_pairs, node_relation
from repro.storage.trie import TrieIndex


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
intervals_strategy = st.lists(
    st.tuples(st.integers(-5, 30), st.integers(1, 10)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
    min_size=0, max_size=25,
)

tuples_strategy = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
    min_size=0, max_size=60,
)

edges_strategy = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=0, max_size=60,
)


# ----------------------------------------------------------------------
# IntervalList
# ----------------------------------------------------------------------
class TestIntervalListProperties:
    @given(intervals_strategy, st.integers(-10, 40))
    def test_covers_matches_reference_semantics(self, intervals, probe):
        interval_list = IntervalList()
        for low, high in intervals:
            interval_list.insert(low, high)
        reference = any(low < probe < high for low, high in intervals)
        assert interval_list.covers(probe) is reference

    @given(intervals_strategy, st.integers(-10, 40))
    def test_next_free_is_free_and_minimal(self, intervals, start):
        interval_list = IntervalList()
        for low, high in intervals:
            interval_list.insert(low, high)
        value = interval_list.next_free(start)
        assert value != POS_INF
        assert not interval_list.covers(value)
        # Minimality: every integer in [start, value) is covered.
        probe = start
        while probe < value:
            assert interval_list.covers(probe)
            probe += 1

    @given(intervals_strategy)
    def test_stored_intervals_are_disjoint_and_sorted(self, intervals):
        interval_list = IntervalList()
        for low, high in intervals:
            interval_list.insert(low, high)
        stored = interval_list.intervals()
        for (low1, high1), (low2, high2) in zip(stored, stored[1:]):
            assert low1 < low2
            assert high1 <= low2  # disjoint (touching allowed)


# ----------------------------------------------------------------------
# Relation / TrieIndex
# ----------------------------------------------------------------------
class TestTrieProperties:
    @given(tuples_strategy)
    def test_trie_children_match_sorted_distinct_projection(self, rows):
        relation = Relation("r", 3, rows)
        index = TrieIndex(relation, (0, 1, 2))
        assert index.children(()) == sorted({row[0] for row in relation})
        for first in index.children(()):
            expected = sorted({row[1] for row in relation if row[0] == first})
            assert index.children((first,)) == expected

    @given(tuples_strategy, st.integers(0, 8), st.integers(0, 9))
    def test_gap_around_brackets_the_probe_value(self, rows, first, probe):
        relation = Relation("r", 3, rows)
        index = TrieIndex(relation, (0, 1, 2))
        glb, present, lub = index.gap_around((first,), probe)
        values = sorted({row[1] for row in relation if row[0] == first})
        assert present is (probe in values)
        below = [v for v in values if v < probe]
        above = [v for v in values if v > probe]
        if values:
            assert glb == (below[-1] if below else None)
            if not present:
                assert lub == (above[0] if above else None)
        else:
            assert (glb, present, lub) == (None, False, None)

    @given(tuples_strategy)
    def test_relation_iteration_is_sorted_and_unique(self, rows):
        relation = Relation("r", 3, rows)
        tuples = list(relation)
        assert tuples == sorted(set(tuples))


# ----------------------------------------------------------------------
# Join algorithms on random graphs
# ----------------------------------------------------------------------
def _database_from_edges(edges: List[Tuple[int, int]]) -> Database:
    pairs = [(u, v) for u, v in edges if u != v]
    if not pairs:
        pairs = [(0, 1)]
    nodes = sorted({n for pair in pairs for n in pair})
    return Database([
        edge_relation_from_pairs(pairs),
        node_relation(nodes[::2] or [nodes[0]], "v1"),
        node_relation(nodes[1::2] or [nodes[0]], "v2"),
    ])


JOIN_PROPERTY_SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestJoinProperties:
    @given(edges_strategy)
    @JOIN_PROPERTY_SETTINGS
    def test_triangle_counts_agree(self, edges):
        db = _database_from_edges(edges)
        query = parse_query("edge(a,b), edge(b,c), edge(a,c), a<b, b<c")
        expected = NaiveBacktrackingJoin().count(db, query)
        assert LeapfrogTrieJoin().count(db, query) == expected
        assert MinesweeperJoin().count(db, query) == expected

    @given(edges_strategy)
    @JOIN_PROPERTY_SETTINGS
    def test_path_counts_agree(self, edges):
        db = _database_from_edges(edges)
        query = parse_query("v1(a), v2(c), edge(a,b), edge(b,c)")
        expected = NaiveBacktrackingJoin().count(db, query)
        assert MinesweeperJoin().count(db, query) == expected
        assert LeapfrogTrieJoin().count(db, query) == expected

    @given(edges_strategy)
    @JOIN_PROPERTY_SETTINGS
    def test_triangle_output_is_subset_of_edges(self, edges):
        db = _database_from_edges(edges)
        query = parse_query("edge(a,b), edge(b,c), edge(a,c), a<b, b<c")
        edge_relation = db.relation("edge")
        for binding in LeapfrogTrieJoin().enumerate_bindings(db, query):
            values = [binding[v] for v in query.variables]
            a, b, c = values
            assert a < b < c
            assert (a, b) in edge_relation
            assert (b, c) in edge_relation
            assert (a, c) in edge_relation


# ----------------------------------------------------------------------
# Partitioned execution vs. serial, over the whole pool
# ----------------------------------------------------------------------
#: The query pool: the cyclic triangle and the sampled acyclic path — one
#: query per structural regime the partitioner distinguishes.
PARTITION_POOL_QUERIES = (
    "edge(a,b), edge(b,c), edge(a,c), a<b, b<c",
    "v1(a), v2(c), edge(a,b), edge(b,c)",
)

#: Every enumerate-capable join algorithm of the engine registry.
PARTITION_ALGORITHMS = (
    "naive", "lftj", "ms", "generic", "pairwise", "columnar", "hybrid",
)

#: 2 and 4 shards, in both partitioning modes.
PARTITION_CONFIGS = (
    (2, "hash"), (4, "hash"), (2, "hypercube"), (4, "hypercube"),
)

PARTITION_PROPERTY_SETTINGS = settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestPartitionedExecutionProperties:
    """Partitioning must never change an answer, whoever runs the shards."""

    @pytest.mark.parametrize("shards,mode", PARTITION_CONFIGS)
    @pytest.mark.parametrize("algorithm", PARTITION_ALGORITHMS)
    @given(edges_strategy)
    @PARTITION_PROPERTY_SETTINGS
    def test_partitioned_equals_serial_result_set_and_count(
            self, algorithm, shards, mode, edges):
        db = _database_from_edges(edges)
        engine = QueryEngine(db)
        config = ParallelConfig(shards=shards, mode=mode)
        for text in PARTITION_POOL_QUERIES:
            expected = engine.tuples(text, algorithm=algorithm)
            assert engine.tuples(
                text, algorithm=algorithm, parallel=config
            ) == expected
            assert engine.count(
                text, algorithm=algorithm, parallel=config
            ) == len(expected)

    @pytest.mark.parametrize("shards,mode", PARTITION_CONFIGS)
    @given(edges_strategy)
    @PARTITION_PROPERTY_SETTINGS
    def test_counting_algorithms_partition_too(self, shards, mode, edges):
        """Counting paths (LFTJ's memoised count, Yannakakis) sum across
        shards."""
        db = _database_from_edges(edges)
        engine = QueryEngine(db)
        config = ParallelConfig(shards=shards, mode=mode)
        path = PARTITION_POOL_QUERIES[1]
        expected = engine.count(path, algorithm="naive")
        assert engine.count(
            path, algorithm="lftj", parallel=config
        ) == expected
        assert engine.count(
            path, algorithm="yannakakis", parallel=config
        ) == expected
