"""Trie indexes over relations and the iterator interfaces built on them.

A :class:`TrieIndex` views a relation, with its columns permuted into a
chosen attribute order, as a trie: level ``d`` of the trie holds the sorted
distinct values of column ``d`` among the tuples sharing the current prefix.
The index supports the two access patterns the paper's algorithms need:

* **Leapfrog Triejoin** consumes a :class:`TrieIterator` with the classic
  ``open / up / key / next / seek / at_end`` interface.
* **Minesweeper** probes the index with :meth:`TrieIndex.gap_around`, the
  combination of ``seek_glb`` / ``seek_lub`` described in Idea 4, to obtain
  the maximal gap box around a free tuple's projection.

The trie is not materialised as linked nodes; it is a binary-search view
over the relation's sorted tuple list, which keeps construction O(N log N)
and navigation O(log N) per step while staying allocation-free.  An index in
the relation's natural column order shares the relation's own tuple list and
costs nothing to build: a :class:`~repro.storage.relation.Relation` keeps its
tuples sorted and unique and never mutates them after construction, and
neither does the index.  Any other order sorts one permuted copy.

:meth:`TrieIndex.seek_value` and :meth:`TrieIndex.gap_around` memoise
prefix ranges per index: the first probe below a prefix finds the prefix's
tuple range ``[lo, hi)`` with two binary searches and records it, and every
later probe below the same prefix is one dictionary lookup plus a binary
search inside ``[lo, hi)`` on that level's column.  Leapfrog Triejoin seeks
many times below the same prefix while it intersects one attribute, and
Minesweeper probes the same prefixes free tuple after free tuple, so this is
where their time goes.  The memo holds only immutable
``(lo, hi)`` pairs, written idempotently (two threads racing on one prefix
write the same pair), never a mutable cursor: an index shared through
:meth:`repro.storage.database.Database.index` is read by concurrent queries,
and a remembered search position would let one query's seek start past
another's answer.  Only present prefixes are recorded, so the memo is
bounded by the number of distinct prefixes of the index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.relation import Relation

Tuple_ = Tuple[int, ...]


class TrieIndex:
    """A relation indexed under a specific column order.

    Parameters
    ----------
    relation:
        The base relation.
    column_order:
        Permutation of the relation's columns; ``column_order[i]`` is the
        source column stored at trie level ``i``.  This is how the library
        realises the GAO-consistency assumption: the engine asks the catalog
        for the index of each atom in the order induced by the GAO.
    """

    __slots__ = ("relation", "column_order", "_tuples", "arity", "_ranges",
                 "_columns")

    def __init__(self, relation: Relation, column_order: Sequence[int]) -> None:
        if sorted(column_order) != list(range(relation.arity)):
            raise StorageError(
                f"column order {list(column_order)} is not a permutation of "
                f"0..{relation.arity - 1} for relation {relation.name!r}"
            )
        self.relation = relation
        self.column_order = tuple(column_order)
        self.arity = relation.arity
        # A relation's tuples are sorted, unique and never mutated, so the
        # natural order shares its list (see the module docstring).
        if self.column_order == tuple(range(self.arity)):
            self._tuples: List[Tuple_] = relation.tuples
        else:
            self._tuples = sorted(
                map(itemgetter(*self.column_order), relation.tuples))
        # Prefix tuple -> (lo, hi) tuple range; see the module docstring.
        self._ranges: Dict[Tuple_, Tuple[int, int]] = {}
        # Level -> key function reading that level's value off a tuple.
        self._columns = tuple(itemgetter(level) for level in range(self.arity))

    # ------------------------------------------------------------------
    # Whole-index properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tuples)

    @property
    def tuples(self) -> List[Tuple_]:
        """The reordered, sorted tuples backing the trie (read-only)."""
        return self._tuples

    def __repr__(self) -> str:
        return (
            f"TrieIndex({self.relation.name!r}, order={list(self.column_order)}, "
            f"size={len(self)})"
        )

    # ------------------------------------------------------------------
    # Prefix navigation
    # ------------------------------------------------------------------
    def prefix_range(self, prefix: Sequence[int],
                     lo: int = 0, hi: Optional[int] = None) -> Tuple[int, int]:
        """Bounds ``[lo, hi)`` of tuples starting with ``prefix`` (trie order)."""
        if hi is None:
            hi = len(self._tuples)
        prefix_tuple = tuple(prefix)
        if len(prefix_tuple) > self.arity:
            raise StorageError(
                f"prefix of length {len(prefix_tuple)} exceeds arity {self.arity}"
            )
        if not prefix_tuple:
            return lo, hi
        lower = bisect_left(self._tuples, prefix_tuple, lo, hi)
        upper = bisect_left(
            self._tuples, prefix_tuple[:-1] + (prefix_tuple[-1] + 1,), lower, hi
        )
        return lower, upper

    def contains_prefix(self, prefix: Sequence[int]) -> bool:
        """True iff some tuple of the index starts with ``prefix``."""
        lower, upper = self.prefix_range(prefix)
        return lower < upper

    def contains(self, row: Sequence[int]) -> bool:
        """Full-tuple membership in trie order."""
        if len(row) != self.arity:
            raise StorageError(
                f"tuple of length {len(row)} does not match arity {self.arity}"
            )
        lower, upper = self.prefix_range(row)
        return lower < upper

    def children(self, prefix: Sequence[int]) -> List[int]:
        """Sorted distinct values one level below ``prefix``."""
        depth = len(prefix)
        if depth >= self.arity:
            raise StorageError("cannot descend below the last trie level")
        lower, upper = self.prefix_range(prefix)
        values: List[int] = []
        position = lower
        while position < upper:
            value = self._tuples[position][depth]
            values.append(value)
            position = bisect_left(
                self._tuples, tuple(prefix) + (value + 1,), position, upper
            )
        return values

    def count_children(self, prefix: Sequence[int]) -> int:
        """Number of distinct values one level below ``prefix``."""
        return len(self.children(prefix))

    def first_child(self, prefix: Sequence[int]) -> Optional[int]:
        """The smallest value below ``prefix`` or ``None`` if the prefix is absent."""
        depth = len(prefix)
        lower, upper = self.prefix_range(prefix)
        if lower >= upper:
            return None
        return self._tuples[lower][depth]

    def seek_value(self, prefix: Sequence[int], value: int) -> Optional[int]:
        """Least value ``>= value`` below ``prefix`` (``None`` if no such value).

        The prefix's tuple range is memoised per index, so repeated seeks
        below one prefix — in any order, from any thread — cost one
        dictionary lookup and one binary search.  The memo stores only
        immutable ``(lo, hi)`` pairs of present prefixes, which makes it safe
        to share between threads and bounds it by the number of distinct
        prefixes of the index (see the module docstring).
        """
        if type(prefix) is not tuple:
            prefix = tuple(prefix)
        bounds = self._ranges.get(prefix)
        if bounds is None:
            if len(prefix) >= self.arity:
                raise StorageError("seek_value cannot be asked below the last level")
            bounds = self.prefix_range(prefix)
            if bounds[0] >= bounds[1]:
                return None
            self._ranges[prefix] = bounds
        lower, upper = bounds
        column = self._columns[len(prefix)]
        position = bisect_left(self._tuples, value, lower, upper, key=column)
        if position >= upper:
            return None
        return column(self._tuples[position])

    def next_value(self, prefix: Sequence[int], value: int) -> Optional[int]:
        """Least value strictly greater than ``value`` below ``prefix``."""
        return self.seek_value(prefix, value + 1)

    # ------------------------------------------------------------------
    # Minesweeper probes: seek_glb / seek_lub around a point
    # ------------------------------------------------------------------
    def gap_around(self, prefix: Sequence[int],
                   value: int) -> Tuple[Optional[int], bool, Optional[int]]:
        """Return ``(glb, present, lub)`` for ``value`` one level below ``prefix``.

        ``glb`` is the greatest indexed value strictly below ``value`` (or
        ``None`` meaning -infinity), ``present`` says whether ``value`` itself
        is indexed under the prefix, and ``lub`` is the least indexed value
        strictly above ``value`` (or ``None`` meaning +infinity).  This is the
        pair of ``seek_glb`` / ``seek_lub`` probes from Idea 4, fused so a
        single binary search serves both (a second one finds ``lub`` when
        ``value`` is present).  The prefix's tuple range comes from the
        memo :meth:`seek_value` uses, so a probe below a known prefix costs
        one dictionary lookup before the searches.
        """
        if type(prefix) is not tuple:
            prefix = tuple(prefix)
        bounds = self._ranges.get(prefix)
        if bounds is None:
            if len(prefix) >= self.arity:
                raise StorageError("gap_around cannot be asked below the last level")
            bounds = self.prefix_range(prefix)
            if bounds[0] >= bounds[1]:
                return None, False, None
            self._ranges[prefix] = bounds
        lower, upper = bounds
        tuples = self._tuples
        column = self._columns[len(prefix)]
        position = bisect_left(tuples, value, lower, upper, key=column)
        glb = column(tuples[position - 1]) if position > lower else None
        if position >= upper:
            return glb, False, None
        found = column(tuples[position])
        if found != value:
            return glb, False, found
        position = bisect_right(tuples, value, position, upper, key=column)
        return glb, True, column(tuples[position]) if position < upper else None

    # ------------------------------------------------------------------
    # Iterators
    # ------------------------------------------------------------------
    def iterator(self) -> "TrieIterator":
        """A fresh trie iterator positioned at the (virtual) root."""
        return TrieIterator(self)

    def scan(self) -> Iterator[Tuple_]:
        """Iterate all tuples in trie order."""
        return iter(self._tuples)


class TrieIterator:
    """The classic Leapfrog Triejoin trie-iterator interface.

    The iterator maintains a stack of ``(lo, hi, pos)`` ranges, one per open
    level; ``pos`` points at the first tuple carrying the current key of the
    deepest open level.
    """

    __slots__ = ("_index", "_stack", "_at_end")

    def __init__(self, index: TrieIndex) -> None:
        self._index = index
        # Each frame is [lo, hi, pos]; the root frame spans the whole index.
        self._stack: List[List[int]] = [[0, len(index.tuples), 0]]
        self._at_end = len(index.tuples) == 0

    # -- introspection ---------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of open levels (0 = positioned at the root)."""
        return len(self._stack) - 1

    def at_end(self) -> bool:
        """True when the current level has been exhausted."""
        return self._at_end

    def key(self) -> int:
        """The value at the current level (undefined at the root / at end)."""
        if self.depth == 0:
            raise StorageError("key() called at the trie root")
        if self._at_end:
            raise StorageError("key() called on an exhausted iterator level")
        frame = self._stack[-1]
        return self._index.tuples[frame[2]][self.depth - 1]

    # -- vertical movement -----------------------------------------------
    def open(self) -> None:
        """Descend to the first value of the next level."""
        if self.depth >= self._index.arity:
            raise StorageError("open() below the last trie level")
        if self._at_end:
            raise StorageError("open() on an exhausted iterator level")
        lo, hi = self._current_value_range()
        self._stack.append([lo, hi, lo])
        self._at_end = lo >= hi

    def up(self) -> None:
        """Ascend one level (the parent's position is unchanged)."""
        if self.depth == 0:
            raise StorageError("up() called at the trie root")
        self._stack.pop()
        self._at_end = False

    # -- horizontal movement ----------------------------------------------
    def next(self) -> None:
        """Advance to the next distinct value at the current level."""
        if self.depth == 0:
            raise StorageError("next() called at the trie root")
        if self._at_end:
            return
        frame = self._stack[-1]
        level = self.depth - 1
        tuples = self._index.tuples
        current = tuples[frame[2]][level]
        prefix = tuples[frame[2]][:level] + (current + 1,)
        frame[2] = bisect_left(tuples, prefix, frame[2], frame[1])
        self._at_end = frame[2] >= frame[1]

    def seek(self, value: int) -> None:
        """Advance to the least value ``>= value`` at the current level."""
        if self.depth == 0:
            raise StorageError("seek() called at the trie root")
        if self._at_end:
            return
        frame = self._stack[-1]
        level = self.depth - 1
        tuples = self._index.tuples
        current = tuples[frame[2]][level]
        if value <= current:
            return
        prefix = tuples[frame[2]][:level] + (value,)
        frame[2] = bisect_left(tuples, prefix, frame[2], frame[1])
        self._at_end = frame[2] >= frame[1]

    # -- helpers -----------------------------------------------------------
    def _current_value_range(self) -> Tuple[int, int]:
        """Range of tuples sharing the key of the deepest open level."""
        frame = self._stack[-1]
        if self.depth == 0:
            return frame[0], frame[1]
        level = self.depth - 1
        tuples = self._index.tuples
        value = tuples[frame[2]][level]
        prefix = tuples[frame[2]][:level] + (value + 1,)
        upper = bisect_left(tuples, prefix, frame[2], frame[1])
        return frame[2], upper

    def current_prefix(self) -> Tuple_:
        """The values bound by the open levels, shallowest first."""
        if self._at_end:
            raise StorageError("current_prefix() on an exhausted iterator level")
        frame = self._stack[-1]
        if self.depth == 0:
            return ()
        return self._index.tuples[frame[2]][: self.depth]


class LeapfrogIterator:
    """A single-attribute view of a trie iterator used by leapfrog join.

    Leapfrog Triejoin intersects, per variable, one :class:`LeapfrogIterator`
    per atom containing that variable.  This wrapper simply re-exposes the
    horizontal operations of the underlying :class:`TrieIterator` so the
    join code reads like the published algorithm.
    """

    __slots__ = ("trie_iterator",)

    def __init__(self, trie_iterator: TrieIterator) -> None:
        self.trie_iterator = trie_iterator

    def key(self) -> int:
        return self.trie_iterator.key()

    def next(self) -> None:
        self.trie_iterator.next()

    def seek(self, value: int) -> None:
        self.trie_iterator.seek(value)

    def at_end(self) -> bool:
        return self.trie_iterator.at_end()
