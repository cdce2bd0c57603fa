"""Gap boxes encoded as constraints (Definition 4.1 / Idea 3).

A constraint is an ``n``-dimensional tuple whose components are exact
values, a single open interval, and wildcards: every component before the
interval is either an exact value or a wildcard, and every component after
it is a wildcard.  The exact components form the constraint's *pattern*.
Geometrically the constraint is an axis-aligned box guaranteed to contain
no output tuple (a *gap box*); the collection of boxes discovered during a
run is the box certificate of §4.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ExecutionError
from repro.joins.minesweeper.intervals import NEG_INF, POS_INF, interval_is_empty

Number = Union[int, float]

WILDCARD = "*"
"""Sentinel label used for wildcard components in CDS patterns."""


@dataclass(frozen=True)
class Constraint:
    """A gap box over the GAO-ordered output space.

    Attributes
    ----------
    width:
        The number of attributes ``n`` of the output space.
    prefix:
        ``(gao_position, value)`` pairs for the exact components, sorted by
        position; every position is smaller than ``interval_position``.
    interval_position:
        The GAO position carrying the open interval.
    low / high:
        The open interval's endpoints (``NEG_INF`` / ``POS_INF`` allowed).
    source:
        A label describing where the gap came from (atom index, "filter",
        "partition", ...); used for diagnostics and by tests.
    """

    width: int
    prefix: Tuple[Tuple[int, int], ...]
    interval_position: int
    low: Number
    high: Number
    source: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.interval_position < self.width:
            raise ExecutionError(
                f"interval position {self.interval_position} outside 0..{self.width - 1}"
            )
        # One pass: unsorted positions are reported before repeated ones.
        previous: Number = NEG_INF
        repeated = False
        for position, _ in self.prefix:
            if position < previous:
                raise ExecutionError("constraint prefix positions must be sorted")
            repeated = repeated or position == previous
            previous = position
        if repeated:
            raise ExecutionError("constraint prefix positions must be distinct")
        if previous >= self.interval_position:
            raise ExecutionError(
                "constraint prefix positions must precede the interval position"
            )
        if self.low >= self.high:
            raise ExecutionError(
                f"constraint interval ({self.low}, {self.high}) is empty"
            )

    # ------------------------------------------------------------------
    # Pattern view
    # ------------------------------------------------------------------
    def pattern(self) -> Tuple[Union[int, str], ...]:
        """The pattern: labels for positions 0..interval_position-1."""
        exact: Dict[int, int] = dict(self.prefix)
        return tuple(
            exact.get(position, WILDCARD) for position in range(self.interval_position)
        )

    def is_empty(self) -> bool:
        """True when the interval contains no integer (the box is empty)."""
        return interval_is_empty(self.low, self.high)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def excludes(self, point: Sequence[int]) -> bool:
        """True when ``point`` lies inside the gap box."""
        if len(point) != self.width:
            raise ExecutionError(
                f"point of length {len(point)} against constraint of width {self.width}"
            )
        for position, value in self.prefix:
            if point[position] != value:
                return False
        return self.low < point[self.interval_position] < self.high

    def advance_frontier_past(self, point: Sequence[int]) -> Optional[List[int]]:
        """Smallest lexicographic successor of ``point`` outside this box.

        Used by Idea 7 for gaps that are *not* inserted into the CDS: the gap
        still lets us advance the frontier past the box.  Returns ``None``
        when no tuple ``>= point`` lies outside the box (the rest of the
        output space is dead), which only happens for an unbounded interval
        at the first GAO position with an all-wildcard pattern.

        Precondition: ``point`` is inside the box.
        """
        if not self.excludes(point):
            raise ExecutionError("advance_frontier_past requires a covered point")
        result = list(point)
        position = self.interval_position
        if self.high != POS_INF:
            result[position] = int(self.high)
            for i in range(position + 1, self.width):
                result[i] = -1
            return result
        if position == 0:
            return None
        result[position - 1] += 1
        for i in range(position, self.width):
            result[i] = -1
        return result

    def __str__(self) -> str:
        exact = dict(self.prefix)
        parts: List[str] = []
        for position in range(self.width):
            if position == self.interval_position:
                parts.append(f"({self.low},{self.high})")
            elif position in exact:
                parts.append(str(exact[position]))
            else:
                parts.append(WILDCARD)
        return "<" + ", ".join(parts) + ">"


def constraint_from_gap(width: int,
                        exact_positions: Sequence[int],
                        exact_values: Sequence[int],
                        interval_position: int,
                        low: Optional[Number],
                        high: Optional[Number],
                        source: str = "") -> Constraint:
    """Build a constraint from a trie probe result.

    ``low`` / ``high`` of ``None`` (or ``NEG_INF`` / ``POS_INF``) mean
    unbounded below / above.
    """
    return Constraint(
        width=width,
        prefix=tuple(zip(exact_positions, exact_values)),
        interval_position=interval_position,
        low=NEG_INF if low is None else low,
        high=POS_INF if high is None else high,
        source=source,
    )


def excluded_intervals(op: str, bound: int) -> List[Tuple[Number, Number]]:
    """Open intervals excluded for ``x`` by the predicate ``bound op x``.

    Used to turn a violated comparison filter into gap boxes: the returned
    intervals cover exactly the integers ``x`` for which ``bound op x`` is
    false.
    """
    if op == "<":
        return [(NEG_INF, bound + 1)]
    if op == "<=":
        return [(NEG_INF, bound)]
    if op == ">":
        return [(bound - 1, POS_INF)]
    if op == ">=":
        return [(bound, POS_INF)]
    if op == "=":
        return [(NEG_INF, bound), (bound, POS_INF)]
    if op == "!=":
        return [(bound - 1, bound + 1)]
    raise ExecutionError(f"unsupported comparison operator {op!r}")
