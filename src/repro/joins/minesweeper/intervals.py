"""Interval lists: the per-node open-interval store of the CDS (Idea 1).

Each CDS node keeps a set of disjoint *open* intervals over the integers
(with ``-inf`` / ``+inf`` endpoints allowed).  The two operations that
matter are inserting an interval (merging overlaps) and ``next_free(x)``:
the smallest value ``>= x`` not strictly inside any stored interval.  The
paper implements the node's interval set and child map as a single sorted
"point list"; here the intervals live in two parallel sorted lists of lower
and upper endpoints — the child pruning benefit of the point list is
realised separately by the CDS when an inserted interval swallows child
labels.

Both lists are exposed read-only as :attr:`IntervalList.lows` and
:attr:`IntervalList.highs`.  They stay the same list objects for the
list's lifetime (every mutation is in place), so a hot loop may bind them
once and answer ``next_free`` with one inlined ``bisect_right``, as the
CDS walk does.  The gap prober's cache (Idea 4) answers a probe with
:meth:`IntervalList.containing`, also one bisect.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple, Union

Number = Union[int, float]

NEG_INF: float = float("-inf")
POS_INF: float = float("inf")


def interval_is_empty(low: Number, high: Number) -> bool:
    """True when the open interval ``(low, high)`` contains no integer."""
    if low == NEG_INF or high == POS_INF:
        return low >= high
    return high - low <= 1


class IntervalList:
    """A set of disjoint open intervals over the integers.

    Intervals are stored sorted by lower endpoint.  Overlapping intervals
    are merged on insert; *touching* intervals such as ``(1, 3)`` and
    ``(3, 5)`` are kept separate because the shared endpoint ``3`` is not
    covered by either.
    """

    __slots__ = ("_lows", "_highs")

    def __init__(self) -> None:
        self._lows: List[Number] = []
        self._highs: List[Number] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lows)

    def __bool__(self) -> bool:
        return bool(self._lows)

    def __iter__(self) -> Iterator[Tuple[Number, Number]]:
        return iter(zip(self._lows, self._highs))

    @property
    def lows(self) -> List[Number]:
        """The lower endpoints, ascending (live and read-only; see the
        module docstring)."""
        return self._lows

    @property
    def highs(self) -> List[Number]:
        """The upper endpoints, ascending, paired with :attr:`lows`."""
        return self._highs

    def intervals(self) -> List[Tuple[Number, Number]]:
        """The stored intervals as (low, high) pairs, sorted by low."""
        return list(zip(self._lows, self._highs))

    def __repr__(self) -> str:
        parts = ", ".join(f"({low}, {high})" for low, high in self)
        return f"IntervalList([{parts}])"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def covers(self, value: Number) -> bool:
        """True when ``value`` lies strictly inside some stored interval."""
        return self.containing(value) is not None

    def containing(self, value: Number) -> Optional[Tuple[Number, Number]]:
        """The stored interval strictly containing ``value``, or ``None``."""
        index = bisect_right(self._lows, value) - 1
        if index >= 0 and self._lows[index] < value < self._highs[index]:
            return self._lows[index], self._highs[index]
        return None

    def next_free(self, value: Number) -> Number:
        """Smallest ``y >= value`` not strictly inside any stored interval.

        Returns ``POS_INF`` when every value from ``value`` upward is covered
        (only possible when an interval extends to ``+inf``).
        """
        index = bisect_right(self._lows, value) - 1
        if index < 0:
            return value
        low, high = self._lows[index], self._highs[index]
        if low < value < high:
            # ``high`` itself is not covered by this interval (open), and the
            # next interval starts at or after ``high`` because overlapping
            # intervals are merged on insert.
            return high
        return value

    def has_no_free_value(self) -> bool:
        """True when a single interval covers the entire line (-inf, +inf)."""
        return (
            len(self._lows) == 1
            and self._lows[0] == NEG_INF
            and self._highs[0] == POS_INF
        )

    def covered_span(self) -> Number:
        """Total integer count covered (``inf`` when unbounded); diagnostics only."""
        total: Number = 0
        for low, high in self:
            if low == NEG_INF or high == POS_INF:
                return POS_INF
            total += max(0, int(high) - int(low) - 1)
        return total

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, low: Number, high: Number) -> Tuple[Number, Number]:
        """Insert the open interval ``(low, high)``, merging overlaps.

        Returns the (possibly merged) interval that now covers the inserted
        range, which the CDS uses to prune swallowed child labels.  Empty
        intervals are ignored and returned unchanged.
        """
        if interval_is_empty(low, high):
            return low, high
        lows, highs = self._lows, self._highs
        # The stored intervals overlapping (low, high) are the run with
        # highs[i] > low and lows[i] < high; both lists are sorted because
        # the intervals are disjoint and sorted by low.
        start = bisect_right(highs, low)
        end = bisect_left(lows, high, start)
        if start == end:
            lows.insert(start, low)
            highs.insert(start, high)
            return low, high
        new_low = min(low, lows[start])
        new_high = max(high, highs[end - 1])
        lows[start:end] = [new_low]
        highs[start:end] = [new_high]
        return new_low, new_high

    def insert_many(self, intervals: List[Tuple[Number, Number]]) -> None:
        """Insert several intervals (convenience for filter constraints)."""
        for low, high in intervals:
            self.insert(low, high)

    def clear(self) -> None:
        """Drop every stored interval."""
        self._lows.clear()
        self._highs.clear()
