"""Remote parity: ``RemoteSession.run`` must return byte-identical answers
to an in-process ``Session.run`` for every registered algorithm × every
partitioning scheme, and cursor paging must reassemble the stream exactly
regardless of page-size sequence.  The pipelined shapes — N concurrent
runs multiplexed over one async connection, and worker threads over the
sync pool — must match serial execution the same way."""

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.session import Session
from repro.engine import default_registry
from repro.errors import ReproError
from repro.net.client import RemoteSession, connect_async
from repro.net.server import ServerThread
from repro.service import QueryService

from tests.conftest import graph_database

#: Every name in the default registry, paper aliases included.
ALGORITHMS = sorted(default_registry())

#: One query per structural regime the planner distinguishes.
QUERIES = (
    "edge(a,b), edge(b,c), edge(a,c), a<b, b<c",   # cyclic
    "v1(a), v2(c), edge(a,b), edge(b,c)",          # β-acyclic, sampled
)

PARALLEL = (None, (2, "hash"), (2, "hypercube"))


@pytest.fixture(scope="module")
def service():
    with QueryService(graph_database(14, 40, seed=5)) as service:
        yield service


@pytest.fixture(scope="module")
def server(service):
    with ServerThread(service) as server:
        yield server


# The id names the row-page wire every parity case runs over.
@pytest.fixture(scope="module", params=["binary"])
def remote(server):
    with RemoteSession(server.url) as session:
        yield session


@pytest.fixture(scope="module")
def local(service):
    with Session(service.database) as session:
        yield session


def _normalized_bindings(bindings) -> List[Tuple[Tuple[str, int], ...]]:
    return sorted(
        tuple(sorted((variable.name, value)
                     for variable, value in binding.items()))
        for binding in bindings
    )


@pytest.mark.parametrize("shards_mode", PARALLEL,
                         ids=["serial", "hash2", "hypercube2"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_remote_matches_local_for_every_algorithm(algorithm, shards_mode,
                                                  remote, local):
    overrides = {} if shards_mode is None else {
        "parallel": shards_mode[0], "partition_mode": shards_mode[1],
    }
    for text in QUERIES:
        # count parity (count-only algorithms support just this).
        try:
            expected_count = local.run(
                text, algorithm=algorithm, use_cache=False, **overrides
            ).count()
        except ReproError as error:
            with pytest.raises(type(error)):
                remote.run(text, algorithm=algorithm,
                           use_cache=False, **overrides).count()
            continue
        assert remote.run(
            text, algorithm=algorithm, use_cache=False, **overrides
        ).count() == expected_count

        # tuple / binding parity for enumerating algorithms.
        try:
            expected_tuples = sorted(local.run(
                text, algorithm=algorithm, use_cache=False, **overrides
            ).fetchall())
        except ReproError as error:
            with pytest.raises(type(error)):
                remote.run(text, algorithm=algorithm,
                           use_cache=False, **overrides).fetchall()
            continue
        assert sorted(remote.run(
            text, algorithm=algorithm, use_cache=False, **overrides
        ).fetchall()) == expected_tuples
        assert _normalized_bindings(remote.run(
            text, algorithm=algorithm, use_cache=False, **overrides
        )) == _normalized_bindings(local.run(
            text, algorithm=algorithm, use_cache=False, **overrides
        ))


def test_cached_and_uncached_remote_runs_agree(remote, local):
    for text in QUERIES:
        expected = sorted(local.run(text, use_cache=False).fetchall())
        # Twice: the second pass may come from the server's result cache.
        for _ in range(2):
            assert sorted(remote.run(text).fetchall()) == expected
            assert remote.run(text).count() == len(expected)


page_sizes = st.lists(st.integers(min_value=1, max_value=50),
                      min_size=1, max_size=20)

PROPERTY_SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)


class TestPipelinedParity:
    """Concurrent, multiplexed execution returns exactly the serial
    answers — per algorithm, and property-tested over random mixes."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_gather_matches_serial_for_every_algorithm(self, algorithm,
                                                       server, local):
        texts = list(QUERIES) * 3

        def serial(text):
            try:
                return local.run(text, algorithm=algorithm,
                                 use_cache=False).count()
            except ReproError as error:
                return type(error)

        expected = [serial(text) for text in texts]

        async def main():
            async with await connect_async(server.url) as session:
                async def one(text):
                    try:
                        result_set = await session.run(
                            text, algorithm=algorithm, use_cache=False
                        )
                        return await result_set.count()
                    except ReproError as error:
                        return type(error)

                return await asyncio.gather(*[one(text) for text in texts])

        assert asyncio.run(main()) == expected

    @given(st.lists(st.sampled_from(QUERIES), min_size=1, max_size=12))
    @PROPERTY_SETTINGS
    def test_gather_over_random_mixes_matches_serial(self, server, local,
                                                     texts):
        expected = [local.run(text, use_cache=False).count()
                    for text in texts]

        async def main():
            async with await connect_async(server.url) as session:
                async def one(text):
                    result_set = await session.run(text, use_cache=False)
                    return await result_set.count()

                return await asyncio.gather(*[one(text) for text in texts])

        assert asyncio.run(main()) == expected

    @given(st.lists(st.sampled_from(QUERIES), min_size=1, max_size=12))
    @PROPERTY_SETTINGS
    def test_pooled_threads_match_serial(self, remote, local, texts):
        expected = [local.run(text, use_cache=False).count()
                    for text in texts]
        with ThreadPoolExecutor(4) as workers:
            got = list(workers.map(
                lambda text: remote.run(text, use_cache=False).count(),
                texts,
            ))
        assert got == expected


class TestCursorPagingProperties:
    """Any sequence of page sizes reassembles exactly the full stream."""

    @given(page_sizes)
    @PROPERTY_SETTINGS
    def test_paging_reassembles_the_stream(self, remote, local, sizes):
        expected = local.run(QUERIES[0], use_cache=False).fetchall()
        result_set = remote.run(QUERIES[0], use_cache=False)
        collected: List[tuple] = []
        for size in sizes:
            collected.extend(result_set.fetchmany(size))
        collected.extend(result_set.fetchall())
        assert sorted(collected) == sorted(expected)
        assert result_set.fetchmany(5) == []  # forward-only: drained

    @given(st.integers(min_value=0, max_value=60))
    @PROPERTY_SETTINGS
    def test_limit_parity(self, remote, local, limit):
        expected = local.run(QUERIES[0], use_cache=False,
                             limit=limit).fetchall()
        got = remote.run(QUERIES[0], use_cache=False, limit=limit).fetchall()
        assert len(got) == len(expected)
        assert sorted(got) == sorted(expected)
