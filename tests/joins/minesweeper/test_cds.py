"""Tests for the Constraint Data Structure (CDS) and computeFreeTuple."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.joins.minesweeper.cds import ConstraintTree
from repro.joins.minesweeper.constraints import Constraint, WILDCARD
from repro.joins.minesweeper.intervals import NEG_INF, POS_INF


def constraint(width, prefix, position, low, high):
    return Constraint(width=width, prefix=tuple(prefix), interval_position=position,
                      low=low, high=high)


class TestConstruction:
    def test_width_must_be_positive(self):
        with pytest.raises(ExecutionError):
            ConstraintTree(0)

    def test_mismatched_constraint_width_rejected(self):
        cds = ConstraintTree(3)
        with pytest.raises(ExecutionError):
            cds.insert_constraint(constraint(2, [], 0, 1, 5))

    def test_empty_constraint_is_ignored(self):
        cds = ConstraintTree(3)
        cds.insert_constraint(constraint(3, [], 0, 4, 5))
        assert cds.statistics.constraints_inserted == 0

    def test_nodes_created_along_pattern(self):
        cds = ConstraintTree(5)
        cds.insert_constraint(constraint(5, [(0, 1), (2, 3)], 4, 1, 9))
        # Pattern 1, *, 3, * creates four nodes below the root.
        assert cds.node_count == 5

    def test_children_swallowed_by_merged_interval(self):
        """The point-list benefit of Idea 1: a wide interval prunes children."""
        cds = ConstraintTree(3)
        cds.insert_constraint(constraint(3, [(0, 5)], 1, 0, 3))   # child label 5
        cds.insert_constraint(constraint(3, [(0, 9)], 1, 0, 3))   # child label 9
        assert len(cds.root.children) == 2
        cds.insert_constraint(constraint(3, [], 0, 4, 100))       # swallows 5 and 9
        assert list(cds.root.children) == []


class TestFrontier:
    def test_frontier_moves_forward_only(self):
        cds = ConstraintTree(2)
        cds.set_frontier([3, 4])
        with pytest.raises(ExecutionError):
            cds.set_frontier([2, 9])

    def test_frontier_length_checked(self):
        cds = ConstraintTree(2)
        with pytest.raises(ExecutionError):
            cds.set_frontier([1])

    def test_advance_after_output(self):
        cds = ConstraintTree(3)
        cds.set_frontier([1, 2, 3])
        cds.advance_frontier_after_output()
        assert cds.frontier == [1, 2, 4]


class TestComputeFreeTuple:
    def test_empty_cds_returns_current_frontier(self):
        cds = ConstraintTree(3)
        assert cds.compute_free_tuple()
        assert cds.frontier == [-1, -1, -1]

    def test_single_gap_skipped(self):
        cds = ConstraintTree(1)
        cds.insert_constraint(constraint(1, [], 0, NEG_INF, 7))
        assert cds.compute_free_tuple()
        assert cds.frontier == [7]

    def test_paper_figure_2_top_left(self):
        """After inserting <*,*,(5,7),*,*> the tuple (_,_,6,_,_) is covered."""
        cds = ConstraintTree(5)
        cds.insert_constraint(constraint(5, [], 2, 5, 7))
        cds.set_frontier([2, 6, 6, 1, 3])
        assert cds.compute_free_tuple()
        assert cds.frontier == [2, 6, 7, -1, -1]

    def test_paper_figure_2_top_right(self):
        """With <*,*,7,*,(4,9)> added, (2,6,7,1,5) jumps to (2,6,7,1,9)."""
        cds = ConstraintTree(5)
        cds.insert_constraint(constraint(5, [], 2, 5, 7))
        cds.insert_constraint(constraint(5, [(2, 7)], 4, 4, 9))
        cds.set_frontier([2, 6, 7, 1, 5])
        assert cds.compute_free_tuple()
        assert cds.frontier == [2, 6, 7, 1, 9]

    def test_wildcard_and_exact_constraints_combine(self):
        cds = ConstraintTree(2)
        cds.insert_constraint(constraint(2, [], 1, NEG_INF, 5))        # *, (-inf,5)
        cds.insert_constraint(constraint(2, [(0, 0)], 1, 4, POS_INF))  # 0, (4,+inf)
        cds.set_frontier([0, 0])
        assert cds.compute_free_tuple()
        # For first coordinate 0, values below 5 and above 4 are all gone,
        # except the boundary 5... which the exact constraint (4, inf) covers
        # only for > 4, so 5 is covered too; the search must move to [1, 5].
        assert cds.frontier == [1, 5]

    def test_whole_space_covered_returns_false(self):
        cds = ConstraintTree(1)
        cds.insert_constraint(constraint(1, [], 0, NEG_INF, POS_INF))
        assert not cds.compute_free_tuple()

    def test_backtracking_over_exhausted_branch(self):
        """When every extension of a prefix is ruled out, the previous
        coordinate is bumped (Algorithm 4's backtrack path)."""
        cds = ConstraintTree(2)
        cds.insert_constraint(constraint(2, [(0, 3)], 1, NEG_INF, POS_INF))
        cds.set_frontier([3, 0])
        assert cds.compute_free_tuple()
        assert cds.frontier[0] == 4

    def test_truncation_rules_out_dead_branch(self):
        """Covering everything under pattern <3> inserts (2,4) at the root."""
        cds = ConstraintTree(2)
        cds.insert_constraint(constraint(2, [(0, 3)], 1, NEG_INF, POS_INF))
        cds.set_frontier([3, 0])
        cds.compute_free_tuple()
        assert cds.statistics.truncations >= 1
        assert cds.root.intervals.covers(3)

    def test_free_tuple_is_never_covered(self):
        """Randomised invariant: whatever compute_free_tuple returns is not
        inside any stored gap box."""
        import random
        rng = random.Random(5)
        cds = ConstraintTree(3)
        constraints = []
        for _ in range(60):
            position = rng.randrange(3)
            prefix = tuple(
                (p, rng.randrange(4)) for p in range(position) if rng.random() < 0.5
            )
            low = rng.randrange(-1, 6)
            high = low + rng.randrange(2, 5)
            c = constraint(3, prefix, position, low, high)
            constraints.append(c)
            cds.insert_constraint(c)
        while cds.compute_free_tuple():
            free = list(cds.frontier)
            if any(value > 8 for value in free):
                break
            assert not cds.covers(free)
            for c in constraints:
                assert not c.excludes(free)
            cds.advance_frontier_after_output()


class TestIdeaSwitches:
    def test_interval_caching_populates_bottom_node(self):
        cds = ConstraintTree(2, enable_interval_caching=True)
        cds.insert_constraint(constraint(2, [], 1, 2, 6))
        cds.insert_constraint(constraint(2, [(0, 1)], 1, 5, 9))
        cds.set_frontier([1, 3])
        cds.compute_free_tuple()
        assert cds.statistics.cache_intervals_inserted >= 1

    def test_caching_can_be_disabled(self):
        cds = ConstraintTree(2, enable_interval_caching=False,
                             enable_complete_nodes=False)
        cds.insert_constraint(constraint(2, [], 1, 2, 6))
        cds.insert_constraint(constraint(2, [(0, 1)], 1, 5, 9))
        cds.set_frontier([1, 3])
        cds.compute_free_tuple()
        assert cds.statistics.cache_intervals_inserted == 0

    def test_statistics_counters_move(self):
        cds = ConstraintTree(2)
        cds.insert_constraint(constraint(2, [], 0, 0, 10))
        cds.compute_free_tuple()
        assert cds.statistics.free_tuples_returned == 1
        assert cds.statistics.constraints_inserted == 1
        assert cds.statistics.ping_pong_rounds >= 1

    def test_covers_helper_checks_width(self):
        cds = ConstraintTree(3)
        with pytest.raises(ExecutionError):
            cds.covers((1, 2))


# ----------------------------------------------------------------------
# compute_free_tuple against a brute-force search
# ----------------------------------------------------------------------
_TOP = 6
"""Largest finite endpoint or exact value a generated box uses."""


@st.composite
def _boxes(draw, width):
    position = draw(st.integers(0, width - 1))
    prefix = tuple(
        (p, draw(st.integers(-1, _TOP))) for p in range(position)
        if draw(st.booleans())
    )
    low = draw(st.one_of(st.just(NEG_INF), st.integers(-1, _TOP - 1)))
    high = draw(st.one_of(
        st.just(POS_INF),
        st.integers(-1, _TOP).filter(lambda value: value > low)))
    return constraint(width, prefix, position, low, high)


@st.composite
def _scripts(draw):
    """A width plus steps: insert a box, move the frontier, or step past
    the last free tuple as the engine does after an output."""
    width = draw(st.integers(1, 3))
    point = st.lists(st.integers(-1, _TOP), min_size=width, max_size=width)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("insert"), _boxes(width)),
        st.tuples(st.just("move"), point),
        st.tuples(st.just("step"), st.none()),
    ), min_size=1, max_size=25))
    return width, steps


def _smallest_free(boxes, frontier):
    """The lexicographically smallest point >= ``frontier`` outside every
    box, searched over ``[-1, top]`` per coordinate, or ``None``.

    A coordinate above every finite endpoint, exact value and frontier
    value is covered exactly like ``top``, so the search range loses no
    answer."""
    top = max([_TOP] + list(frontier)) + 1
    for point in product(range(-1, top + 1), repeat=len(frontier)):
        if list(point) >= list(frontier) and \
                not any(box.excludes(point) for box in boxes):
            return list(point)
    return None


@pytest.mark.parametrize("caching", [True, False], ids=["cache", "no-cache"])
@pytest.mark.parametrize("complete", [True, False],
                         ids=["complete", "no-complete"])
@settings(max_examples=150, deadline=None)
@given(script=_scripts())
def test_compute_free_tuple_matches_brute_force(caching, complete, script):
    width, steps = script
    cds = ConstraintTree(width, enable_interval_caching=caching,
                         enable_complete_nodes=complete)
    boxes = []
    for kind, argument in steps:
        if kind == "insert":
            cds.insert_constraint(argument)
            boxes.append(argument)
        elif kind == "move":
            cds.set_frontier(max(argument, cds.frontier))
        else:
            cds.advance_frontier_after_output()
        start = list(cds.frontier)
        expected = _smallest_free(boxes, start)
        found = cds.compute_free_tuple()
        if expected is None:
            assert found is False, (start, cds.frontier)
            return
        assert found is True, (start, expected)
        assert cds.frontier == expected, (start, expected)
