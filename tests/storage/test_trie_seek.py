"""``TrieIndex`` builds, ``seek_value`` and ``gap_around`` against
brute-force oracles.

``seek_value`` and ``gap_around`` share one memo of each prefix's tuple
range inside the index, so these tests probe the same prefix repeatedly,
with decreasing values, with prefixes passed as tuples and as lists,
mixing both probes, and from several threads over one index shared
through ``Database.index``.  Every engine reads its tries from
that catalog, so the last tests run queries from two service worker threads
over one catalog, with and without a writer replacing a relation, against
the naive join.
"""

import random
import sys
import threading
import time
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.parser import parse_query
from repro.errors import StorageError
from repro.joins.base import bindings_to_tuples
from repro.joins.naive import NaiveBacktrackingJoin
from repro.service import QueryService, ServiceConfig
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


def gap_oracle(rows: Sequence[Tuple[int, ...]], column_order: Sequence[int],
               prefix: Sequence[int],
               value: int) -> Tuple[Optional[int], bool, Optional[int]]:
    """``(glb, present, lub)`` of ``value`` below ``prefix``, by a scan."""
    depth = len(prefix)
    values = {
        reordered[depth]
        for reordered in (tuple(row[c] for c in column_order) for row in rows)
        if list(reordered[:depth]) == list(prefix)
    }
    below = [v for v in values if v < value]
    above = [v for v in values if v > value]
    return (max(below) if below else None, value in values,
            min(above) if above else None)


@st.composite
def indexed_relations(draw):
    arity = draw(st.integers(1, 3))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, 6)] * arity), min_size=0, max_size=30))
    column_order = draw(st.permutations(range(arity)))
    return arity, rows, tuple(column_order)


@settings(max_examples=200, deadline=None)
@given(relation=indexed_relations())
def test_build_matches_sorted_permutation(relation):
    arity, rows, column_order = relation
    base = Relation("R", arity, rows)
    index = TrieIndex(base, column_order)
    assert index.tuples == sorted(
        tuple(row[c] for c in column_order) for row in base)
    if column_order == tuple(range(arity)):
        assert index.tuples is base.tuples


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


@settings(max_examples=200, deadline=None)
@given(relation=indexed_relations(), data=st.data())
def test_gap_around_matches_linear_scan(relation, data):
    # Seeks and gap probes interleave on one index, so each reads prefix
    # ranges the other memoised.
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
        for value in data.draw(st.lists(st.integers(-1, 8), min_size=1,
                                        max_size=5)):
            passed = list(prefix) if data.draw(st.booleans()) else prefix
            if data.draw(st.booleans()):
                assert index.seek_value(passed, value) == \
                    oracle(rows, column_order, prefix, value), (prefix, value)
            assert index.gap_around(passed, value) == \
                gap_oracle(rows, column_order, prefix, value), (prefix, value)


def test_gap_around_below_last_level_rejected():
    index = TrieIndex(Relation("R", 2, [(1, 2)]), (0, 1))
    assert index.gap_around((1,), 2) == (None, True, None)
    for prefix in ((1, 2), [1, 2], (5, 5)):
        with pytest.raises(StorageError):
            index.gap_around(prefix, 0)


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

    Probing with these values puts thread switches inside ``seek_value``
    and ``gap_around`` themselves, between their reads and writes of any
    state kept in the index, which is where a mutable search position
    shared by all probes would tear.
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
    gaps = {(prefix, value): gap_oracle(rows, (1, 0), prefix, value)
            for prefix in prefixes for value in range(32)}
    failures: List[str] = []
    start = threading.Barrier(4)

    def worker(seed: int) -> None:
        local = random.Random(seed)
        start.wait()
        for _ in range(3000):
            prefix = local.choice(prefixes)
            value = local.randrange(32)
            if local.random() < 0.5:
                got = index.seek_value(prefix, _YieldingInt(value))
                want = expected[prefix, value]
            else:
                got = index.gap_around(prefix, _YieldingInt(value))
                want = gaps[prefix, value]
            if got != want:
                failures.append(f"probe({prefix}, {value}) = {got}, "
                                f"want {want}")

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


def _random_graph(name: str, seed: int) -> Relation:
    rng = random.Random(seed)
    return Relation(name, 2, {(rng.randrange(30), rng.randrange(30))
                              for _ in range(150)})


def _naive_rows(database: Database, text: str) -> Tuple[Tuple[int, ...], ...]:
    query = parse_query(text)
    bindings = NaiveBacktrackingJoin().enumerate_bindings(database, query)
    return tuple(bindings_to_tuples(bindings, query.variables))


@pytest.mark.parametrize("writer", [False, True], ids=["readers", "writer"])
def test_service_threads_share_the_catalog(writer):
    # Each query reads ``hot`` in exactly one atom, so while a writer swaps
    # it between two versions every answer is the naive answer on one of
    # them.  A result cache of one entry makes the workers run the engines.
    edge = _random_graph("edge", 1)
    versions = [_random_graph("hot", 2), _random_graph("hot", 3)][:1 + writer]
    queries = [("edge(a, b), edge(b, c), hot(a, c)", "lftj"),
               ("edge(a, b), hot(b, c), edge(c, d)", "ms")]
    queries += [(f"hot({node}, b), edge(b, c)", "lftj") for node in range(6)]
    queries += [(f"edge(b, {node}), hot(b, c)", "ms") for node in range(6)]
    expected = {
        text: {_naive_rows(Database([edge, version]), text)
               for version in versions}
        for text, _ in queries
    }
    database = Database([edge, versions[0]])
    service = QueryService(database, ServiceConfig(workers=2,
                                                   result_cache_size=1))
    stop = threading.Event()

    def write() -> None:
        turn = 0
        while not stop.is_set():
            turn += 1
            database.add(versions[turn % 2], replace=True)
            time.sleep(0.0005)

    writer_thread = threading.Thread(target=write) if writer else None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    failures: List[str] = []
    try:
        if writer_thread is not None:
            writer_thread.start()
        for _ in range(4):
            futures = [(text, service.submit(text, algorithm=algorithm,
                                             mode="tuples"))
                       for text, algorithm in queries]
            for text, future in futures:
                outcome = future.result(timeout=60)
                if tuple(outcome.value or ()) not in expected[text]:
                    failures.append(f"{text} [{outcome.algorithm}]: "
                                    f"{outcome.error or outcome.value}")
    finally:
        stop.set()
        if writer_thread is not None:
            writer_thread.join(timeout=60)
        sys.setswitchinterval(interval)
    try:
        assert writer_thread is None or not writer_thread.is_alive()
        assert failures == []
        # Once writes stop, every query reads the version written last.
        for version in versions:
            database.add(version, replace=True)
            final = Database([edge, version])
            for text, algorithm in queries:
                outcome = service.execute(text, algorithm=algorithm,
                                          mode="tuples")
                assert outcome.value == _naive_rows(final, text), text
    finally:
        service.close()
