"""The Constraint Data Structure (CDS): a trie of patterns with interval lists.

The CDS stores every gap box discovered so far and answers one question:
*what is the next free tuple* — the lexicographically smallest point of the
output space, at or after the current frontier, that is not covered by any
stored gap box (Idea 2: the moving frontier).

Structure (§4.3): a tree with one level per GAO attribute.  Each edge is
labelled with a value or the wildcard ``*``; the labels along the path from
the root identify a node's *pattern*.  Each node stores an
:class:`~repro.joins.minesweeper.intervals.IntervalList`; an interval
``(l, r)`` at a node with pattern ``p`` encodes the constraint
``<p, (l, r), *, ..., *>``.

``compute_free_tuple`` walks the attributes in GAO order.  At depth ``d``
the constraints that can rule out values are exactly those stored at nodes
whose pattern *generalizes* the current prefix ``(t_0, ..., t_{d-1})``; for
β-acyclic queries evaluated under a nested elimination order those nodes
form a chain (Proposition 4.2), which is what makes the interval caching of
Idea 5 and the complete nodes of Idea 6 effective.  This implementation
does not *require* the chain property: caching is applied only when the
constraining nodes do form a chain, so the data structure stays correct
for arbitrary queries — exactly the robustness Idea 7 relies on.

The walk is the engine's hot loop, so ``compute_free_tuple`` is one
iterative function over flat per-node state that folds in getFreeValue
(Algorithm 5) and the chain test.  Each node records the GAO positions at
which its pattern has an exact value as an int bitmask plus the number of
set bits.  All constraining nodes generalize the same prefix, so node A
specializes node B exactly when B's mask is a subset of A's: the chain's
bottom is the first node with the most exact positions, and the nodes form
a chain iff no mask has a bit outside the bottom's, i.e. iff the union of
their masks is the bottom's mask.  Each node also binds its interval list's
sorted ``lows`` / ``highs`` lists, so ``next_free`` is one inlined bisect.
A lone constraining node needs no ping-pong: its intervals are disjoint, so
one bisect finds the free value and the second round, which only confirms
it, is counted without being run.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ExecutionError
from repro.joins.minesweeper.constraints import WILDCARD, Constraint
from repro.joins.minesweeper.intervals import POS_INF, IntervalList

Number = Union[int, float]
Label = Union[int, str]


class CDSNode:
    """One node of the constraint tree."""

    __slots__ = ("label", "parent", "depth", "children", "intervals", "lows",
                 "highs", "mask", "exact_count", "exhaust_count", "complete")

    def __init__(self, label: Optional[Label], parent: Optional["CDSNode"]) -> None:
        self.label = label
        self.parent = parent
        self.children: Dict[Label, CDSNode] = {}
        self.intervals = IntervalList()
        # The interval list's live endpoint lists, read by the walk.
        self.lows = self.intervals.lows
        self.highs = self.intervals.highs
        # GAO positions at which the node's pattern has an exact value, as
        # a bitmask, and how many there are.
        if parent is None:
            self.depth = 0
            self.mask = 0
            self.exact_count = 0
        else:
            self.depth = parent.depth + 1
            if label == WILDCARD:
                self.mask = parent.mask
                self.exact_count = parent.exact_count
            else:
                self.mask = parent.mask | (1 << parent.depth)
                self.exact_count = parent.exact_count + 1
        # Idea 6 bookkeeping: a node becomes "complete" after the search has
        # exhausted its level twice; from then on its own interval list is
        # enough and the ping-pong over the chain can be skipped.
        self.exhaust_count = 0
        self.complete = False

    def pattern(self) -> Tuple[Label, ...]:
        """The labels from the root to this node (diagnostics and tests)."""
        labels: List[Label] = []
        node: Optional[CDSNode] = self
        while node is not None and node.parent is not None:
            labels.append(node.label)  # type: ignore[arg-type]
            node = node.parent
        return tuple(reversed(labels))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CDSNode(pattern={self.pattern()}, intervals={self.intervals!r})"


@dataclass
class CDSStatistics:
    """Counters describing the work done by the CDS (used by benchmarks)."""

    constraints_inserted: int = 0
    nodes_created: int = 0
    cache_intervals_inserted: int = 0
    truncations: int = 0
    ping_pong_rounds: int = 0
    complete_node_hits: int = 0
    free_tuples_returned: int = 0

    def as_dict(self) -> dict:
        """Flat counters for traces, reports, and JSON output."""
        return {
            "constraints_inserted": self.constraints_inserted,
            "nodes_created": self.nodes_created,
            "cache_intervals_inserted": self.cache_intervals_inserted,
            "truncations": self.truncations,
            "ping_pong_rounds": self.ping_pong_rounds,
            "complete_node_hits": self.complete_node_hits,
            "free_tuples_returned": self.free_tuples_returned,
        }


class ConstraintTree:
    """The CDS plus the moving frontier.

    Parameters
    ----------
    width:
        Number of GAO attributes ``n``.
    enable_interval_caching:
        Idea 5: insert the interval discovered by a ping-pong round into the
        chain's bottom node so the work is never repeated.
    enable_complete_nodes:
        Idea 6: once a bottom node has been exhausted twice, trust its own
        interval list and skip the ping-pong entirely.
    tick:
        Called once per ping-pong round and once per backtrack of
        ``compute_free_tuple``, so a time budget is checked inside one
        long free-tuple search; ``None`` (no budget) calls nothing.
    """

    def __init__(self, width: int,
                 enable_interval_caching: bool = True,
                 enable_complete_nodes: bool = True,
                 tick: Optional[Callable[[], None]] = None) -> None:
        if width <= 0:
            raise ExecutionError("CDS width must be positive")
        self.width = width
        self.root = CDSNode(None, None)
        self.frontier: List[int] = [-1] * width
        self.enable_interval_caching = enable_interval_caching
        self.enable_complete_nodes = enable_complete_nodes
        self.tick = tick
        self.statistics = CDSStatistics()
        self._node_count = 1

    # ------------------------------------------------------------------
    # Frontier management (Idea 2)
    # ------------------------------------------------------------------
    def set_frontier(self, values: Sequence[int]) -> None:
        """Move the frontier; it must never move backwards lexicographically."""
        candidate = list(values)
        if len(candidate) != self.width:
            raise ExecutionError(
                f"frontier of length {len(candidate)} for width {self.width}"
            )
        if candidate < self.frontier:
            raise ExecutionError("frontier may only move forward")
        self.frontier = candidate

    def advance_frontier_after_output(self) -> None:
        """After reporting the current frontier as an output, step past it."""
        self.frontier = list(self.frontier)
        self.frontier[-1] += 1

    # ------------------------------------------------------------------
    # Constraint insertion
    # ------------------------------------------------------------------
    def insert_constraint(self, constraint: Constraint) -> None:
        """Insert a gap box (Definition 4.1) into the tree."""
        if constraint.width != self.width:
            raise ExecutionError(
                f"constraint width {constraint.width} != CDS width {self.width}"
            )
        if constraint.is_empty():
            return
        exact = dict(constraint.prefix)
        node = self.root
        for position in range(constraint.interval_position):
            label: Label = exact.get(position, WILDCARD)
            child = node.children.get(label)
            if child is None:
                child = node.children[label] = CDSNode(label, node)
                self._node_count += 1
                self.statistics.nodes_created += 1
            node = child
        merged_low, merged_high = node.intervals.insert(constraint.low, constraint.high)
        self.statistics.constraints_inserted += 1
        # Point-list benefit (Idea 1): children whose label now lies strictly
        # inside the merged interval are subsumed and can be pruned.
        children = node.children
        if children:
            for label in list(children):
                if isinstance(label, int) and merged_low < label < merged_high:
                    del children[label]

    # ------------------------------------------------------------------
    # computeFreeTuple (Algorithms 4 and 5, iterative form, Ideas 5 and 6)
    # ------------------------------------------------------------------
    def compute_free_tuple(self) -> bool:
        """Advance the frontier to the next free tuple.

        Returns ``True`` when a free tuple was found (it is left in
        ``self.frontier``); ``False`` when every tuple at or after the old
        frontier is covered by stored constraints, i.e. the search is done.
        """
        last = self.width - 1
        statistics = self.statistics
        caching = self.enable_interval_caching
        use_complete = self.enable_complete_nodes
        tick = self.tick
        t = list(self.frontier)
        # stack[d] holds every CDS node at depth d whose pattern
        # generalizes (t_0, ..., t_{d-1}).
        stack: List[List[CDSNode]] = [[self.root]]
        depth = 0
        while True:
            nodes = stack[depth]
            start = value = t[depth]
            if len(nodes) == 1:
                constrainers: Sequence[CDSNode] = nodes if nodes[0].lows else ()
            else:
                constrainers = [node for node in nodes if node.lows]
            if constrainers:
                # getFreeValue (Algorithm 5): the smallest value >= start no
                # constrainer covers.  First find the chain's bottom.
                bottom: Optional[CDSNode] = constrainers[0]
                mentioned = bottom.mask
                if len(constrainers) > 1:
                    for node in constrainers:
                        mentioned |= node.mask
                        if node.exact_count > bottom.exact_count:
                            bottom = node
                    if mentioned != bottom.mask:
                        bottom = None
                blanket: Optional[CDSNode] = None
                exhausted = False
                if use_complete and bottom is not None and bottom.complete:
                    # Idea 6: seed the search with the complete bottom's
                    # consolidated view.  A bottom covering the whole
                    # suffix is decisive; a value it deems free is still
                    # checked against the rest of the chain below, since
                    # other nodes may hold constraints inserted after the
                    # bottom became complete (always the case when interval
                    # caching is off).
                    statistics.complete_node_hits += 1
                    lows = bottom.lows
                    index = bisect_right(lows, value) - 1
                    if index >= 0 and lows[index] < value < bottom.highs[index]:
                        value = bottom.highs[index]
                    if value == POS_INF:
                        exhausted = True
                        if bottom.intervals.has_no_free_value():
                            blanket = bottom
                if exhausted:
                    pass
                elif len(constrainers) == 1:
                    # One list: its intervals are disjoint, so the upper
                    # end of the interval holding the value is free, and
                    # the ping-pong's second round only confirms it.
                    statistics.ping_pong_rounds += 1
                    lows = bottom.lows
                    index = bisect_right(lows, value) - 1
                    if index >= 0 and lows[index] < value < bottom.highs[index]:
                        value = bottom.highs[index]
                        if value == POS_INF:
                            exhausted = True
                            blanket = self._exhaust(bottom, start, constrainers)
                        else:
                            statistics.ping_pong_rounds += 1
                else:
                    # Ping-pong over the constrainers until a whole round
                    # leaves the value unchanged.
                    while not exhausted:
                        if tick is not None:
                            tick()
                        statistics.ping_pong_rounds += 1
                        round_start = value
                        for node in constrainers:
                            lows = node.lows
                            index = bisect_right(lows, value) - 1
                            if index >= 0 and lows[index] < value:
                                high = node.highs[index]
                                if value < high:
                                    value = high
                                    if high == POS_INF:
                                        exhausted = True
                                        break
                        if value == round_start:
                            break
                    if exhausted:
                        blanket = self._exhaust(bottom, start, constrainers)
                if exhausted:
                    if blanket is not None and not self._truncate(blanket):
                        return False
                    # Backtrack: every value >= start at this level is ruled
                    # out for the current prefix.  When the whole level is
                    # dead (start == -1), bumping the immediately previous
                    # coordinate can loop forever if that coordinate does
                    # not even occur in the exhausting constraints; jump
                    # instead to the deepest coordinate the constrainers
                    # actually mention.
                    if start <= -1:
                        target = mentioned.bit_length() - 1
                    else:
                        target = depth - 1
                    if target < 0:
                        return False
                    if tick is not None:
                        tick()
                    del stack[target + 1:]
                    depth = target
                    t[depth] += 1
                    t[depth + 1:] = [-1] * (last - depth)
                    continue
                if value > start:
                    if caching and bottom is not None:
                        # Idea 5: cache the whole skipped range in the bottom
                        # node so the next visit of this chain does not
                        # repeat the ping-pong.
                        bottom.intervals.insert(start - 1, value)
                        statistics.cache_intervals_inserted += 1
                    t[depth] = int(value)
                    t[depth + 1:] = [-1] * (last - depth)
            if depth == last:
                self.frontier = t
                statistics.free_tuples_returned += 1
                return True
            # Descend: children reachable via the concrete value or a wildcard.
            key = t[depth]
            below: List[CDSNode] = []
            for node in nodes:
                children = node.children
                if children:
                    child = children.get(key)
                    if child is not None:
                        below.append(child)
                    child = children.get(WILDCARD)
                    if child is not None:
                        below.append(child)
            stack.append(below)
            depth += 1

    def _exhaust(self, bottom: Optional[CDSNode], start: int,
                 constrainers: Sequence[CDSNode]) -> Optional[CDSNode]:
        """Record that the constrainers cover every value ``>= start``.

        Idea 5 caches the exhaustion in the chain's bottom and Idea 6
        counts it there.  Returns a constrainer whose intervals cover the
        whole line (the caller truncates it, Algorithm 6), or ``None``.
        """
        if bottom is not None:
            if self.enable_interval_caching:
                bottom.intervals.insert(start - 1, POS_INF)
                self.statistics.cache_intervals_inserted += 1
            bottom.exhaust_count += 1
            if self.enable_complete_nodes and bottom.exhaust_count >= 2:
                bottom.complete = True
        for node in constrainers:
            if node.intervals.has_no_free_value():
                return node
        return None

    # ------------------------------------------------------------------
    # Truncation (Algorithm 6)
    # ------------------------------------------------------------------
    def _truncate(self, node: CDSNode) -> bool:
        """Cut off a node whose intervals cover the whole line.

        Walks towards the root until the first edge labelled with a concrete
        value and rules that value out at the parent, so the search never
        descends into this dead branch again.  Returns ``False`` when every
        edge up to the root is a wildcard, meaning the entire remaining
        output space is dead and the search can stop.
        """
        self.statistics.truncations += 1
        current = node
        while current.parent is not None:
            label = current.label
            if isinstance(label, int):
                current.parent.intervals.insert(label - 1, label + 1)
                return True
            current = current.parent
        # All-wildcard pattern with a blanket interval: nothing is free.
        return False

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of allocated CDS nodes (root included)."""
        return self._node_count

    def covers(self, point: Sequence[int]) -> bool:
        """True when ``point`` is inside some stored gap box (test helper)."""
        if len(point) != self.width:
            raise ExecutionError("point width mismatch")

        def recurse(node: CDSNode, depth: int) -> bool:
            if depth >= self.width:
                return False
            if node.intervals.covers(point[depth]):
                return True
            for label in (point[depth], WILDCARD):
                child = node.children.get(label)
                if child is not None and recurse(child, depth + 1):
                    return True
            return False

        return recurse(self.root, 0)
