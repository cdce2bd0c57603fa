"""Tests for Leapfrog Triejoin."""

import itertools

import pytest

from repro.errors import ExecutionError
from repro.data.generators import powerlaw_cluster_graph
from repro.datalog.parser import parse_query
from repro.joins.leapfrog import LeapfrogTrieJoin
from repro.joins.naive import NaiveBacktrackingJoin
from repro.queries.patterns import build_query
from repro.storage import Database, Relation, edge_relation_from_pairs, node_relation
from repro.util import TimeBudget
from repro.errors import TimeoutExceeded

from tests.conftest import graph_database


class TestCorrectness:
    def test_triangle_count_matches_oracle(self, small_db):
        query = build_query("3-clique")
        assert LeapfrogTrieJoin().count(small_db, query) == \
            NaiveBacktrackingJoin().count(small_db, query)

    def test_bindings_match_oracle(self, small_db):
        query = parse_query("v1(a), edge(a,b), edge(b,c)")
        variables = query.variables
        lftj = sorted(
            tuple(b[v] for v in variables)
            for b in LeapfrogTrieJoin().enumerate_bindings(small_db, query)
        )
        naive = sorted(
            tuple(b[v] for v in variables)
            for b in NaiveBacktrackingJoin().enumerate_bindings(small_db, query)
        )
        assert lftj == naive

    @pytest.mark.parametrize("pattern_name", [
        "3-clique", "4-clique", "4-cycle", "3-path", "2-comb", "1-tree",
    ])
    def test_patterns_match_oracle(self, small_db, pattern_name):
        query = build_query(pattern_name)
        assert LeapfrogTrieJoin().count(small_db, query) == \
            NaiveBacktrackingJoin().count(small_db, query)

    def test_count_equals_enumeration_length(self, small_db):
        query = build_query("3-clique")
        algorithm = LeapfrogTrieJoin()
        assert algorithm.count(small_db, query) == \
            len(list(algorithm.enumerate_bindings(small_db, query)))

    def test_empty_edge_relation(self):
        db = Database([Relation("edge", 2, [])])
        query = build_query("3-clique")
        assert LeapfrogTrieJoin().count(db, query) == 0

    def test_constants_in_atoms(self, triangle_db):
        query = parse_query("edge(0, b), edge(b, c), edge(0, c), b < c")
        assert LeapfrogTrieJoin().count(triangle_db, query) == \
            NaiveBacktrackingJoin().count(triangle_db, query) == 1

    def test_ground_atom_that_is_absent_empties_output(self, triangle_db):
        query = parse_query("edge(0, 4), edge(a, b)")
        assert LeapfrogTrieJoin().count(triangle_db, query) == 0

    def test_filters_with_constants(self, small_db):
        query = parse_query("edge(a,b), a < 5, b > 10")
        assert LeapfrogTrieJoin().count(small_db, query) == \
            NaiveBacktrackingJoin().count(small_db, query)


class TestVariableOrder:
    def test_explicit_order_gives_same_count(self, small_db):
        query = build_query("3-clique")
        default = LeapfrogTrieJoin().count(small_db, query)
        for order in (["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"]):
            assert LeapfrogTrieJoin(variable_order=order).count(small_db, query) == default

    def test_unknown_variable_in_order_rejected(self, small_db):
        query = build_query("3-clique")
        with pytest.raises(ExecutionError):
            LeapfrogTrieJoin(variable_order=["a", "b", "z"]).count(small_db, query)

    def test_incomplete_order_rejected(self, small_db):
        query = build_query("3-clique")
        with pytest.raises(ExecutionError):
            LeapfrogTrieJoin(variable_order=["a", "b"]).count(small_db, query)


class TestScaling:
    def test_larger_graph_agrees_with_oracle(self):
        db = graph_database(40, 150, seed=3)
        query = build_query("4-cycle")
        assert LeapfrogTrieJoin().count(db, query) == \
            NaiveBacktrackingJoin().count(db, query)

    def test_timeout_respected(self):
        db = graph_database(60, 500, seed=5)
        query = build_query("4-clique")
        with pytest.raises(TimeoutExceeded):
            LeapfrogTrieJoin(budget=TimeBudget(0.0, check_every=1)).count(db, query)


def _rows(bindings, variables):
    return sorted(tuple(binding[v] for v in variables) for binding in bindings)


class TestSharedInstance:
    def test_interleaved_enumerations_match_oracle(self, small_db):
        # Two generators on one instance, advanced in lockstep: neither may
        # read the other's plan or bound values.
        first = parse_query("edge(a,b), edge(b,c), a<c")
        second = parse_query("edge(c,b), edge(b,a), edge(a,d), d<c")
        lftj = LeapfrogTrieJoin()
        streams = [lftj.enumerate_bindings(small_db, first),
                   lftj.enumerate_bindings(small_db, second)]
        got = [[], []]
        for pair in itertools.zip_longest(*streams):
            for rows, binding in zip(got, pair):
                if binding is not None:
                    rows.append(binding)
        naive = NaiveBacktrackingJoin()
        for query, bindings in zip((first, second), got):
            variables = query.variables
            assert _rows(bindings, variables) == \
                _rows(naive.enumerate_bindings(small_db, query), variables)


def _pin_database():
    return Database([edge_relation_from_pairs(
        powerlaw_cluster_graph(400, 5, 0.6, seed=17))])


class TestSeekCount:
    # Enumeration seeks, pinned from the implementation before prefix
    # ranges were memoised: a faster seek must not change how many seeks
    # the join makes.
    @pytest.mark.parametrize("pattern_name, rows, seeks", [
        ("3-clique", 1374, 34843),
        ("4-cycle", 3170, 141656),
    ])
    def test_seek_count_is_pinned(self, seek_calls, pattern_name, rows, seeks):
        database = _pin_database()
        assert sum(1 for _ in LeapfrogTrieJoin().enumerate_bindings(
            database, build_query(pattern_name))) == rows
        assert seek_calls[0] == seeks

    # Count seeks.  A clique memoises no level, so its count makes exactly
    # the enumeration's seeks.  4-cycle memoises its last level on (a, c)
    # and skips the d-intersection of every repeated (a, c) pair.  On the
    # unsampled 3-path each level below b depends only on the one before
    # it: 39 566 seeks count 1 232 182 rows whose enumeration makes
    # 2 631 978.
    @pytest.mark.parametrize("query, rows, seeks", [
        (build_query("3-clique"), 1374, 34843),
        (build_query("4-cycle"), 3170, 129658),
        (parse_query("edge(a,b), edge(b,c), edge(c,d)"), 1232182, 39566),
    ], ids=["3-clique", "4-cycle", "unsampled-3-path"])
    def test_count_seeks_are_pinned(self, seek_calls, query, rows, seeks):
        database = _pin_database()
        assert LeapfrogTrieJoin().count(database, query) == rows
        assert seek_calls[0] == seeks
