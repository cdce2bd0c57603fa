"""Tests for the Minesweeper engine (outer loop, options, Idea 7 skeleton)."""

import time

import pytest

from repro.data.catalog import load_dataset
from repro.errors import ExecutionError, TimeoutExceeded
from repro.data.generators import powerlaw_cluster_graph
from repro.datalog.hypergraph import Hypergraph
from repro.datalog.parser import parse_query
from repro.joins.minesweeper.cds import ConstraintTree
from repro.joins.minesweeper.engine import MinesweeperJoin, MinesweeperOptions
from repro.joins.naive import NaiveBacktrackingJoin
from repro.queries.patterns import build_query
from repro.obs.metrics import isolated_registry
from repro.storage import Database, Relation, edge_relation_from_pairs, node_relation
from repro.util import TimeBudget

from tests.conftest import graph_database


class TestCorrectness:
    @pytest.mark.parametrize("pattern_name", [
        "3-clique", "4-clique", "4-cycle", "3-path", "4-path",
        "1-tree", "2-comb", "2-lollipop",
    ])
    def test_patterns_match_oracle(self, small_db, pattern_name):
        query = build_query(pattern_name)
        assert MinesweeperJoin().count(small_db, query) == \
            NaiveBacktrackingJoin().count(small_db, query)

    def test_2_tree_on_four_samples(self, medium_db):
        query = build_query("2-tree")
        assert MinesweeperJoin().count(medium_db, query) == \
            NaiveBacktrackingJoin().count(medium_db, query)

    def test_constants_in_atoms(self, triangle_db):
        query = parse_query("edge(1, b), edge(b, c), edge(1, c), b < c")
        assert MinesweeperJoin().count(triangle_db, query) == \
            NaiveBacktrackingJoin().count(triangle_db, query)

    def test_empty_relation(self):
        db = Database([Relation("edge", 2, []), node_relation([1], "v1"),
                       node_relation([2], "v2")])
        assert MinesweeperJoin().count(db, build_query("3-path")) == 0

    def test_ground_atom_that_is_absent(self, triangle_db):
        query = parse_query("edge(0, 4), edge(a, b)")
        assert MinesweeperJoin().count(triangle_db, query) == 0

    def test_filters_with_constants(self, small_db):
        query = parse_query("edge(a,b), a < 5, b != 3")
        assert MinesweeperJoin().count(small_db, query) == \
            NaiveBacktrackingJoin().count(small_db, query)

    def test_enumeration_matches_count(self, small_db):
        query = build_query("2-comb")
        algorithm = MinesweeperJoin()
        assert len(list(algorithm.enumerate_bindings(small_db, query))) == \
            algorithm.count(small_db, query)

    def test_bindings_are_distinct_and_satisfy_query(self, small_db):
        query = build_query("3-path")
        edge = small_db.relation("edge")
        v1 = small_db.relation("v1")
        v2 = small_db.relation("v2")
        seen = set()
        for binding in MinesweeperJoin().enumerate_bindings(small_db, query):
            values = {v.name: binding[v] for v in query.variables}
            key = tuple(sorted(values.items()))
            assert key not in seen
            seen.add(key)
            assert (values["a"],) in v1 and (values["d"],) in v2
            assert (values["a"], values["b"]) in edge
            assert (values["b"], values["c"]) in edge
            assert (values["c"], values["d"]) in edge


class TestOptions:
    @pytest.mark.parametrize("options", [
        MinesweeperOptions(),
        MinesweeperOptions.baseline(),
        MinesweeperOptions(enable_probe_cache=False),
        MinesweeperOptions(enable_interval_caching=False),
        MinesweeperOptions(enable_complete_nodes=False),
        MinesweeperOptions(use_skeleton=False),
    ])
    def test_every_option_combination_is_correct(self, small_db, options):
        for pattern_name in ("3-clique", "3-path", "2-comb"):
            query = build_query(pattern_name)
            assert MinesweeperJoin(options=options).count(small_db, query) == \
                NaiveBacktrackingJoin().count(small_db, query)

    def test_complete_nodes_without_interval_caching_terminates(self):
        """Regression: Idea 6 with Idea 5 disabled must not livelock.

        A node marked "complete" has not absorbed the chain's discoveries
        when interval caching is off; trusting its interval list alone
        reported covered tuples as free and the engine rediscovered the
        same gap forever.  The fix verifies the candidate against the full
        chain, so this combination terminates (and stays correct).
        """
        db = graph_database(8, 12, seed=7)
        options = MinesweeperOptions(enable_interval_caching=False,
                                     enable_complete_nodes=True)
        query = build_query("3-path")
        assert MinesweeperJoin(options=options).count(db, query) == \
            NaiveBacktrackingJoin().count(db, query)

    def test_probe_cache_reduces_index_seeks(self):
        db = graph_database(30, 90, seed=19)
        query = build_query("3-path")
        with_cache = MinesweeperJoin(options=MinesweeperOptions())
        without_cache = MinesweeperJoin(
            options=MinesweeperOptions(enable_probe_cache=False))
        assert with_cache.count(db, query) == without_cache.count(db, query)
        seeks_with = sum(s["index_seeks"] for s in with_cache.last_statistics.probe_statistics)
        seeks_without = sum(s["index_seeks"] for s in without_cache.last_statistics.probe_statistics)
        assert seeks_with <= seeks_without

    def test_explicit_gao_is_respected_and_correct(self, small_db):
        query = build_query("3-path")
        reference = NaiveBacktrackingJoin().count(small_db, query)
        for order in (["a", "b", "c", "d"], ["d", "c", "b", "a"],
                      ["b", "a", "c", "d"]):
            assert MinesweeperJoin(variable_order=order).count(small_db, query) == \
                reference

    def test_unknown_explicit_gao_variable_rejected(self, small_db):
        with pytest.raises(ExecutionError):
            MinesweeperJoin(variable_order=["a", "b", "z"]).count(
                small_db, build_query("3-clique"))

    def test_incomplete_explicit_gao_rejected(self, small_db):
        with pytest.raises(ExecutionError):
            MinesweeperJoin(variable_order=["a", "b"]).count(
                small_db, build_query("3-clique"))


class TestSkeleton:
    def test_skeleton_of_acyclic_query_is_everything(self, small_db):
        query = build_query("3-path")
        algorithm = MinesweeperJoin()
        algorithm.count(small_db, query)
        assert algorithm.last_statistics.skeleton_size == len(query.atoms)

    def test_skeleton_of_cyclic_query_is_proper_subset(self, small_db):
        query = build_query("3-clique")
        algorithm = MinesweeperJoin()
        algorithm.count(small_db, query)
        stats = algorithm.last_statistics
        assert 0 < stats.skeleton_size < stats.num_atoms

    def test_skeleton_atoms_induce_beta_acyclic_subquery(self):
        for name in ("3-clique", "4-clique", "4-cycle", "2-lollipop"):
            query = build_query(name)
            skeleton = MinesweeperJoin._skeleton_atoms(query)
            edges = [set(query.atoms[i].variables) for i in sorted(skeleton)]
            assert Hypergraph(query.variables, edges).is_beta_acyclic()

    def test_disabling_skeleton_still_correct_on_cyclic_query(self, small_db):
        query = build_query("4-cycle")
        options = MinesweeperOptions(use_skeleton=False)
        assert MinesweeperJoin(options=options).count(small_db, query) == \
            NaiveBacktrackingJoin().count(small_db, query)

    def test_statistics_report_probe_counters(self, small_db):
        algorithm = MinesweeperJoin()
        algorithm.count(small_db, build_query("3-clique"))
        stats = algorithm.last_statistics
        assert stats.free_tuples_examined > 0
        assert len(stats.probe_statistics) == 3
        assert all(entry["probes"] > 0 for entry in stats.probe_statistics)


@pytest.fixture(scope="module")
def pin_db():
    """The graph the leapfrog seek counts are pinned on, plus two fixed
    endpoint samples for 3-path."""
    return Database([
        edge_relation_from_pairs(powerlaw_cluster_graph(400, 5, 0.6, seed=17)),
        node_relation(range(0, 400, 7), "v1"),
        node_relation(range(3, 400, 11), "v2"),
    ])


# Per atom: probes, index_seeks, cache_hits_present, cache_hits_gap,
# gaps_found.
_ATOM_KEYS = ("probes", "index_seeks", "cache_hits_present", "cache_hits_gap",
              "gaps_found")
_CDS_KEYS = ("ping_pong_rounds", "cache_intervals_inserted",
             "complete_node_hits", "truncations", "nodes_created")

# (pattern, options) -> (outputs, free_tuples_examined, constraints_inserted,
# frontier_advances, per-atom counters, CDS counters in _CDS_KEYS order).
_SIGNATURES = {
    ("3-clique", "default"): (
        1374, 15364, 5703, 8287,
        [(15364, 9890, 10418, 0, 2645), (12719, 9732, 7853, 0, 2530),
         (10189, 14275, 379, 5345, 8287)],
        (64497, 4975, 63, 1, 1184)),
    ("3-clique", "baseline"): (
        1374, 8971, 7597, 0,
        [(8971, 17940, 0, 0, 2096), (6875, 13750, 0, 0, 2031),
         (4844, 9688, 0, 0, 2942)],
        (80219, 0, 0, 10989, 1179)),
    ("4-cycle", "default"): (
        3170, 39329, 8877, 27282,
        [(39329, 8394, 35131, 0, 2518), (36811, 8804, 32409, 0, 2509),
         (34302, 10214, 29195, 0, 2661), (31641, 31971, 3132, 25047, 27282)],
        (176519, 48042, 57249, 511, 1202)),
    ("4-cycle", "baseline"): (
        3170, 13961, 10791, 0,
        [(13961, 27920, 0, 0, 2327), (11634, 23268, 0, 0, 2468),
         (9166, 18332, 0, 0, 2572), (6594, 13188, 0, 0, 2235)],
        (281199, 0, 0, 320, 1948)),
    ("3-path", "default"): (
        18675, 25924, 7249, 0,
        [(25924, 117, 25807, 0, 59), (25865, 75, 25790, 0, 38),
         (25827, 2534, 24560, 0, 633), (25194, 11626, 19381, 0, 3256),
         (21938, 7380, 18248, 0, 3263)],
        (126901, 36834, 43607, 114, 756)),
    ("3-path", "baseline"): (
        18675, 25924, 7249, 0,
        [(25924, 25924, 0, 0, 59), (25865, 25865, 0, 0, 38),
         (25827, 51654, 0, 0, 633), (25194, 50388, 0, 0, 3256),
         (21938, 43876, 0, 0, 3263)],
        (290792, 0, 0, 0, 756)),
}


class TestWorkSignature:
    """Minesweeper's work, counter by counter, in the style of
    ``TestSeekCount``: a faster CDS walk or gap probe must make the same
    free tuples, probes, gap boxes and CDS decisions.  The values were
    pinned from the implementation before the CDS walk and the gap probes
    were rewritten; a change that alters the search on purpose re-pins
    them from its parent and says why."""

    @pytest.mark.parametrize("path", ["count", "enumerate_bindings"])
    @pytest.mark.parametrize("pattern_name, options_name", sorted(_SIGNATURES))
    def test_work_signature_is_pinned(self, monkeypatch, pin_db, path,
                                      pattern_name, options_name):
        trees = []
        original = ConstraintTree.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            trees.append(self)
        monkeypatch.setattr(ConstraintTree, "__init__", recording)
        options = MinesweeperOptions() if options_name == "default" \
            else MinesweeperOptions.baseline()
        algorithm = MinesweeperJoin(options=options)
        query = build_query(pattern_name)
        if path == "count":
            rows = algorithm.count(pin_db, query)
        else:
            rows = sum(1 for _ in algorithm.enumerate_bindings(pin_db, query))
        outputs, free, constraints, advances, atoms, cds = \
            _SIGNATURES[pattern_name, options_name]
        stats = algorithm.last_statistics
        assert rows == stats.outputs == outputs
        assert stats.free_tuples_examined == free
        assert stats.constraints_inserted == constraints
        assert stats.frontier_advances == advances
        assert [tuple(entry[key] for key in _ATOM_KEYS)
                for entry in stats.probe_statistics] == atoms
        assert len(trees) == 1
        counters = trees[0].statistics.as_dict()
        assert tuple(counters[key] for key in _CDS_KEYS) == cds


class TestEarlyStop:
    def test_closed_enumeration_reports_its_own_statistics(self, pin_db):
        """Regression: closing ``enumerate_bindings`` early left the previous
        query's statistics in ``last_statistics`` and skipped the metrics
        hook."""
        algorithm = MinesweeperJoin()
        assert algorithm.count(pin_db, build_query("3-clique")) == 1374
        previous = algorithm.last_statistics
        with isolated_registry() as registry:
            rows = algorithm.enumerate_bindings(pin_db, build_query("4-cycle"))
            for _ in range(3):
                next(rows)
            rows.close()
            assert registry.counter("repro_ms_outputs_total").value() == 3
        stats = algorithm.last_statistics
        assert stats is not previous
        assert stats.outputs == 3
        assert len(stats.probe_statistics) == 4
        assert stats.free_tuples_examined > 0

    def test_budget_stop_reports_its_own_statistics(self, pin_db):
        algorithm = MinesweeperJoin()
        algorithm.count(pin_db, build_query("3-clique"))
        previous = algorithm.last_statistics
        algorithm.budget = TimeBudget(0.0, check_every=1)
        with pytest.raises(TimeoutExceeded):
            algorithm.count(pin_db, build_query("4-cycle"))
        assert algorithm.last_statistics is not previous
        assert len(algorithm.last_statistics.probe_statistics) == 4

    def test_budget_is_checked_inside_a_free_tuple_search(self, monkeypatch):
        """Regression: the budget was ticked only between free tuples, so
        one ``compute_free_tuple`` call of skeleton-less 4-clique on
        ego-Facebook ran on for more than 12 s past a 1 s budget."""
        trees = []
        original = ConstraintTree.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            trees.append(self)
        monkeypatch.setattr(ConstraintTree, "__init__", recording)
        database = Database([load_dataset("ego-Facebook")])
        algorithm = MinesweeperJoin(
            budget=TimeBudget(1.0),
            options=MinesweeperOptions(use_skeleton=False))
        started = time.perf_counter()
        with pytest.raises(TimeoutExceeded):
            algorithm.count(database, build_query("4-clique"))
        assert time.perf_counter() - started < 5.0
        # Without a budget the CDS gets no tick to call.
        MinesweeperJoin().count(database, build_query("3-clique"))
        assert trees[0].tick is not None and trees[-1].tick is None
