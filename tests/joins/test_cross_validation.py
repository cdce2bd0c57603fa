"""Cross-validation: every algorithm agrees with the oracle on every pattern.

This is the correctness backbone of the repository (DESIGN.md §6): all
algorithms implement the same ``count``/``enumerate_bindings`` contract, so
they must produce identical answers on identical inputs — including the
paper's full benchmark workload and randomized graphs.
"""

import pytest

from repro.joins import (
    ColumnAtATimeJoin,
    GenericJoin,
    HybridMinesweeperLeapfrog,
    LeapfrogTrieJoin,
    MinesweeperJoin,
    NaiveBacktrackingJoin,
    PairwiseHashJoin,
    YannakakisJoin,
)
from repro.joins.minesweeper.parallel import PartitionedMinesweeper
from repro.datalog.hypergraph import Hypergraph
from repro.queries.patterns import QUERY_PATTERNS, build_query

from tests.conftest import graph_database


ALL_ALGORITHMS = [
    LeapfrogTrieJoin,
    GenericJoin,
    MinesweeperJoin,
    PairwiseHashJoin,
    ColumnAtATimeJoin,
    HybridMinesweeperLeapfrog,
]

# 2-tree and 3-lollipop are exercised on dedicated fixtures because they are
# the largest patterns; everything else runs on the shared small database.
FAST_PATTERNS = [
    "3-clique", "4-clique", "4-cycle", "3-path", "4-path",
    "1-tree", "2-comb", "2-lollipop",
]


class TestEveryAlgorithmOnEveryPattern:
    @pytest.mark.parametrize("pattern_name", FAST_PATTERNS)
    @pytest.mark.parametrize("algorithm_class", ALL_ALGORITHMS,
                             ids=lambda cls: cls.name)
    def test_counts_agree_with_oracle(self, small_db, pattern_name,
                                      algorithm_class):
        query = build_query(pattern_name)
        expected = NaiveBacktrackingJoin().count(small_db, query)
        assert algorithm_class().count(small_db, query) == expected

    @pytest.mark.parametrize("pattern_name", ["3-path", "2-comb", "3-clique"])
    @pytest.mark.parametrize("algorithm_class", ALL_ALGORITHMS,
                             ids=lambda cls: cls.name)
    def test_tuple_sets_agree_with_oracle(self, small_db, pattern_name,
                                          algorithm_class):
        query = build_query(pattern_name)
        variables = query.variables
        expected = {tuple(b[v] for v in variables)
                    for b in NaiveBacktrackingJoin().enumerate_bindings(
                        small_db, query)}
        actual = {tuple(b[v] for v in variables)
                  for b in algorithm_class().enumerate_bindings(small_db, query)}
        assert actual == expected

    def test_2_tree_cross_validation(self, medium_db):
        query = build_query("2-tree")
        expected = NaiveBacktrackingJoin().count(medium_db, query)
        for algorithm_class in (LeapfrogTrieJoin, MinesweeperJoin, GenericJoin):
            assert algorithm_class().count(medium_db, query) == expected

    def test_3_lollipop_cross_validation(self):
        db = graph_database(18, 60, seed=61, samples=("v1",), sample_size=4)
        query = build_query("3-lollipop")
        expected = NaiveBacktrackingJoin().count(db, query)
        for algorithm_class in (LeapfrogTrieJoin, GenericJoin,
                                HybridMinesweeperLeapfrog):
            assert algorithm_class().count(db, query) == expected

    def test_yannakakis_on_every_acyclic_pattern(self, medium_db):
        for name, spec in QUERY_PATTERNS.items():
            query = build_query(name)
            if not Hypergraph.of_query(query).is_alpha_acyclic():
                continue
            expected = NaiveBacktrackingJoin().count(medium_db, query)
            assert YannakakisJoin().count(medium_db, query) == expected, name

    def test_partitioned_minesweeper_on_random_graphs(self):
        for seed in (3, 17, 91):
            db = graph_database(25, 90, seed=seed)
            for pattern_name in ("3-clique", "3-path"):
                query = build_query(pattern_name)
                expected = NaiveBacktrackingJoin().count(db, query)
                algorithm = PartitionedMinesweeper(num_workers=3, granularity=2)
                assert algorithm.count(db, query) == expected


class TestRandomisedGraphSweep:
    """The same workload over a spread of graph densities and seeds."""

    @pytest.mark.parametrize("seed,num_nodes,num_edges", [
        (1, 12, 20), (2, 20, 60), (3, 25, 140), (4, 35, 100), (5, 15, 45),
    ])
    def test_new_algorithms_match_oracle(self, seed, num_nodes, num_edges):
        db = graph_database(num_nodes, num_edges, seed=seed)
        for pattern_name in ("3-clique", "4-cycle", "3-path", "2-comb"):
            query = build_query(pattern_name)
            expected = NaiveBacktrackingJoin().count(db, query)
            assert LeapfrogTrieJoin().count(db, query) == expected, pattern_name
            assert MinesweeperJoin().count(db, query) == expected, pattern_name
