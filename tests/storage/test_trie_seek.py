"""``TrieIndex.seek_value`` against a brute-force oracle.

``seek_value`` memoises each prefix's tuple range inside the index, so
these tests seek the same prefix repeatedly, with decreasing values, with
prefixes passed as tuples and as lists, and from several threads over one
index shared through ``Database.index``.
"""

import random
import sys
import threading
import time
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import Database
from repro.storage.relation import Relation
from repro.storage.trie import TrieIndex


def oracle(rows: Sequence[Tuple[int, ...]], column_order: Sequence[int],
           prefix: Sequence[int], value: int) -> Optional[int]:
    """Least value ``>= value`` below ``prefix``, by a linear scan."""
    depth = len(prefix)
    found = [
        reordered[depth]
        for reordered in (tuple(row[c] for c in column_order) for row in rows)
        if list(reordered[:depth]) == list(prefix) and reordered[depth] >= value
    ]
    return min(found) if found else None


@st.composite
def indexed_relations(draw):
    arity = draw(st.integers(1, 3))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, 6)] * arity), min_size=0, max_size=30))
    column_order = draw(st.permutations(range(arity)))
    return arity, rows, tuple(column_order)


@settings(max_examples=200, deadline=None)
@given(relation=indexed_relations(), data=st.data())
def test_seek_value_matches_linear_scan(relation, data):
    arity, rows, column_order = relation
    index = TrieIndex(Relation("R", arity, rows), column_order)
    reordered = [tuple(row[c] for c in column_order) for row in rows]
    for _ in range(data.draw(st.integers(1, 25))):
        depth = data.draw(st.integers(0, arity - 1))
        present = [row[:depth] for row in reordered]
        if present and data.draw(st.booleans()):
            prefix = data.draw(st.sampled_from(present))
        else:
            prefix = tuple(data.draw(st.lists(
                st.integers(0, 7), min_size=depth, max_size=depth)))
        # Repeat the prefix with values that go down as well as up.
        for value in data.draw(st.lists(st.integers(0, 8), min_size=1,
                                        max_size=5)):
            passed = list(prefix) if data.draw(st.booleans()) else prefix
            assert index.seek_value(passed, value) == \
                oracle(rows, column_order, prefix, value), (prefix, value)


def test_seek_value_on_empty_index():
    index = TrieIndex(Relation("R", 2, []), (0, 1))
    assert index.seek_value((), 0) is None
    assert index.seek_value((3,), 0) is None


def test_seek_value_below_last_level_rejected():
    index = TrieIndex(Relation("R", 2, [(1, 2)]), (0, 1))
    with pytest.raises(StorageError):
        index.seek_value((1, 2), 0)


class _YieldingInt(int):
    """An int that offers the interpreter lock to other threads whenever it
    is compared.

    Seeking with these values puts thread switches inside ``seek_value``
    itself, between its reads and writes of any state kept in the index,
    which is where a mutable search position shared by all seeks would
    tear.
    """

    def _yield(self, other) -> Tuple[int, int]:
        time.sleep(0)
        return int(self), int(other)

    def __lt__(self, other):
        mine, theirs = self._yield(other)
        return mine < theirs

    def __le__(self, other):
        mine, theirs = self._yield(other)
        return mine <= theirs

    def __gt__(self, other):
        mine, theirs = self._yield(other)
        return mine > theirs

    def __ge__(self, other):
        mine, theirs = self._yield(other)
        return mine >= theirs

    __hash__ = int.__hash__


def test_shared_index_is_safe_across_threads():
    rng = random.Random(5)
    rows = sorted({(rng.randrange(30), rng.randrange(30)) for _ in range(300)})
    database = Database([Relation("edge", 2, rows)])
    index = database.index("edge", (1, 0))
    assert database.index("edge", (1, 0)) is index
    prefixes = [()] + [(node,) for node in range(32)]
    expected = {(prefix, value): oracle(rows, (1, 0), prefix, value)
                for prefix in prefixes for value in range(32)}
    failures: List[str] = []
    start = threading.Barrier(4)

    def worker(seed: int) -> None:
        local = random.Random(seed)
        start.wait()
        for _ in range(3000):
            prefix = local.choice(prefixes)
            value = local.randrange(32)
            got = index.seek_value(prefix, _YieldingInt(value))
            if got != expected[prefix, value]:
                failures.append(f"seek_value({prefix}, {value}) = {got}, "
                                f"want {expected[prefix, value]}")

    threads = [threading.Thread(target=worker, args=(seed,))
               for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
