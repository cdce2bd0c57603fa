"""The asyncio server end to end: real sockets, cursors, errors, shutdown."""

import asyncio
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

import repro
from repro.errors import (
    CursorError,
    NetworkError,
    OptionsError,
    ParseError,
    ProtocolError,
    ReproError,
    UnknownAlgorithmError,
)
from repro.joins.naive import NaiveBacktrackingJoin
from repro.net import protocol
from repro.net.client import RemoteSession, connect_async, parse_url
from repro.net.server import ServerThread
from repro.service import QueryService, ServiceConfig
from repro.storage import Database, edge_relation_from_pairs

from tests.conftest import graph_database

TRIANGLE = "edge(a,b), edge(b,c), edge(a,c), a<b, b<c"
TWO_HOP = "edge(a,b), edge(b,c)"
EMPTY = "edge(a,b), a<b, b<a"


@pytest.fixture(scope="module")
def service():
    database = graph_database(14, 40, seed=5)
    with QueryService(database) as service:
        yield service


@pytest.fixture(scope="module")
def server(service):
    with ServerThread(service) as server:
        yield server


@pytest.fixture
def session(server):
    with RemoteSession(server.url) as session:
        yield session


@pytest.fixture(scope="module")
def local(service):
    """In-process truth to compare the wire against (bypassing caches)."""
    from repro.api.session import Session

    with Session(service.database) as session:
        yield session


class TestHello:
    def test_server_introduces_itself(self, session):
        info = session.server_info
        assert info["server"] == "repro"
        assert info["protocol"] == protocol.PROTOCOL_VERSION
        assert "edge" in info["relations"]

    def test_connect_dispatches_on_scheme(self, server):
        with repro.connect(server.url) as session:
            assert isinstance(session, RemoteSession)
            assert session.run(TRIANGLE).count() > 0

    @pytest.mark.parametrize("kwargs", [
        {"selectivity": 4}, {"scale": 2.0}, {"plan_cache_size": 4},
        {"result_cache_size": 4},
    ], ids=["selectivity", "scale", "plan_cache", "result_cache"])
    def test_connect_rejects_server_owned_kwargs_for_remote(self, server,
                                                            kwargs):
        with pytest.raises(OptionsError, match="remote sessions"):
            repro.connect(server.url, **kwargs)

    def test_connection_refused_is_a_network_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(NetworkError, match="could not connect"):
            RemoteSession(f"repro://127.0.0.1:{free_port}",
                          connect_timeout=0.5)

    def test_failed_handshake_raises_and_closes_the_socket(self):
        # A TCP endpoint that is not a repro server (here: one that
        # hangs up on connect): the constructor must raise without
        # leaking its half-built connection.
        import threading

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def hang_up():
            connected, _ = listener.accept()
            connected.close()

        acceptor = threading.Thread(target=hang_up, daemon=True)
        acceptor.start()
        try:
            # Depending on timing the failure is "closed the connection"
            # or a send error; either way it must be a NetworkError and
            # the constructor must clean up after itself.
            with pytest.raises(NetworkError):
                RemoteSession(f"repro://127.0.0.1:{port}",
                              connect_timeout=1.0)
        finally:
            listener.close()
            acceptor.join(timeout=5)


class TestRawFrames:
    """Requests written straight to a socket, responses read frame by
    frame, so the frame encoding itself is under test."""

    @staticmethod
    def _exchange(stream, request):
        stream.write(protocol.encode_frame(request))
        stream.flush()
        prefix = stream.read(4)
        (word,) = protocol._LENGTH.unpack(prefix)
        body = stream.read(word & (protocol.BINARY_FLAG - 1))
        chunks = [prefix, body]
        response = protocol.read_frame(
            lambda size: chunks.pop(0) if chunks else b"")
        return bool(word & protocol.BINARY_FLAG), response

    def test_every_fetch_page_is_binary(self, server, local):
        with socket.create_connection(parse_url(server.url),
                                      timeout=10) as sock, \
                sock.makefile("rwb") as stream:
            # A protocol-v2 client still advertises encodings in hello.
            binary, hello = self._exchange(stream, {
                "id": 1, "op": "hello", "encodings": ["binary", "json"]})
            assert not binary and hello["ok"]
            assert hello["protocol"] == protocol.PROTOCOL_VERSION
            pages = []
            for request_id, extra in ((2, {}), (4, {"encoding": "binary"})):
                _, opened = self._exchange(stream, {
                    "id": request_id, "op": "cursor", "query": TWO_HOP,
                    "options": {}})
                binary, page = self._exchange(stream, dict(
                    extra, id=request_id + 1, op="fetch",
                    cursor=opened["cursor"], size=10_000))
                assert binary and page["ok"] and page["done"]
                pages.append(page["rows"])
        assert pages[0] == pages[1]
        assert sorted(pages[0]) == sorted(local.run(TWO_HOP).fetchall())


class TestRunAndFetch:
    def test_answers_match_local(self, session, local):
        expected = sorted(local.run(TRIANGLE, use_cache=False).fetchall())
        assert sorted(session.run(TRIANGLE).fetchall()) == expected

    def test_fetchmany_pages(self, session, local):
        expected = sorted(local.run(TWO_HOP, use_cache=False).fetchall())
        result_set = session.run(TWO_HOP)
        collected = []
        while True:
            page = result_set.fetchmany(7)
            if not page:
                break
            collected.extend(page)
        assert sorted(collected) == expected
        assert result_set.complete

    def test_iteration_yields_bindings_like_local(self, session, local):
        remote = [tuple(sorted((v.name, value) for v, value in b.items()))
                  for b in session.run(TRIANGLE)]
        expected = [tuple(sorted((v.name, value) for v, value in b.items()))
                    for b in local.run(TRIANGLE, use_cache=False)]
        assert sorted(remote) == sorted(expected)

    def test_count_matches_local(self, session, local):
        assert session.run(TRIANGLE).count() == \
            local.run(TRIANGLE, use_cache=False).count()

    def test_empty_result(self, session):
        result_set = session.run(EMPTY)
        assert result_set.fetchmany(5) == []
        assert result_set.fetchall() == []
        assert session.run(EMPTY).count() == 0

    def test_page_larger_than_remaining(self, session, local):
        total = local.run(TWO_HOP, use_cache=False).count()
        result_set = session.run(TWO_HOP)
        assert len(result_set.fetchmany(total + 50)) == total

    def test_limit_applies_server_side(self, session):
        assert len(session.run(TWO_HOP, limit=4).fetchall()) == 4

    def test_fetch_after_close_raises(self, session):
        result_set = session.run(TWO_HOP)
        result_set.fetchmany(2)
        result_set.close()
        with pytest.raises(CursorError):
            result_set.fetchmany(1)

    def test_closed_cursor_is_gone_server_side(self, session):
        result_set = session.run(TWO_HOP)
        result_set.fetchmany(1)  # opens the server-side cursor
        cursor_id = result_set._cursor_id
        result_set.close()
        with pytest.raises(CursorError, match="unknown cursor"):
            session._request("fetch", cursor=cursor_id, size=1)

    def test_count_only_runs_pin_no_server_state(self, session):
        before = session.stats()["cursors"]["opened"]
        for _ in range(5):
            session.run(TWO_HOP).count()
        stats = session.stats()["cursors"]
        assert stats["opened"] == before  # no cursor was ever opened
        assert stats["active"] == 0

    def test_stats_carry_plan_metadata(self, session):
        result_set = session.run(TRIANGLE, parallel=2, partition_mode="hash")
        result_set.fetchall()
        stats = result_set.stats
        assert stats.shards == 2
        assert stats.partitioning.startswith("hash[")
        assert stats.complete
        assert stats.rows_delivered == session.run(TRIANGLE).count()


class TestErrorsOverTheWire:
    def test_parse_error(self, session):
        with pytest.raises(ParseError):
            session.run("edge(a,")

    def test_unknown_algorithm(self, session):
        with pytest.raises(UnknownAlgorithmError):
            session.run(TRIANGLE, algorithm="alien")

    def test_bad_options_rejected_client_side(self, session):
        with pytest.raises(OptionsError):
            session.run(TRIANGLE, parallel=0)

    def test_bad_options_rejected_server_side_too(self, session):
        # Bypass client validation: hand-craft the frame.
        with pytest.raises(OptionsError):
            session._request("run", query=TRIANGLE,
                             options={"parallel": 0})

    def test_unknown_op(self, session):
        with pytest.raises(ProtocolError, match="unknown op"):
            session._request("teleport")

    def test_missing_query_field(self, session):
        with pytest.raises(ProtocolError, match="query"):
            session._request("run", options={})

    def test_errors_do_not_kill_the_connection(self, session):
        with pytest.raises(ParseError):
            session.run("edge(a,")
        assert session.run(TRIANGLE).count() > 0  # same socket still works

    def test_unencodable_response_becomes_an_error_envelope(self, service,
                                                            monkeypatch):
        # A fetch page too big for one frame must come back as a clean
        # protocol error on the same connection — not a dead socket.
        monkeypatch.setattr("repro.net.protocol.MAX_FRAME_BYTES", 400)
        with ServerThread(service) as server:
            with RemoteSession(server.url) as session:
                result_set = session.run(TWO_HOP, use_cache=False)
                with pytest.raises(ProtocolError, match="could not be"
                                                        " encoded"):
                    result_set.fetchmany(500)  # page >> 400 bytes of JSON
                # The connection survived and still answers.
                assert session.run(EMPTY).count() == 0


class TestServerSideState:
    def test_per_connection_stats(self, server):
        with RemoteSession(server.url) as session:
            session.run(TRIANGLE).fetchall()
            session.explain(TWO_HOP)
            stats = session.stats()
        assert stats["connection"]["queries"] == 1
        assert stats["connection"]["explains"] == 1
        assert stats["cursors"]["opened"] == 1
        assert stats["cursors"]["rows_streamed"] > 0
        assert "plan_hits" in stats["service"]

    def test_explain_matches_local_report(self, session, local):
        remote = session.explain(TRIANGLE).as_dict()
        expected = local.explain(TRIANGLE).as_dict()
        assert remote == expected
        assert session.explain(TRIANGLE).render() == \
            local.explain(TRIANGLE).render()

    def test_disconnect_releases_cursors(self, service, server):
        with RemoteSession(server.url) as session:
            session.run(TWO_HOP).fetchmany(1)  # cursor opened, never drained
        # After goodbye the connection's registry is emptied and the
        # server drops the connection — asynchronously, so poll briefly.
        deadline = time.monotonic() + 5.0
        while server.server._connections and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not server.server._connections

    def test_idle_cursor_expires(self, service):
        with ServerThread(service, cursor_ttl=0.1) as server:
            with RemoteSession(server.url) as session:
                result_set = session.run(TWO_HOP)
                result_set.fetchmany(1)
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    time.sleep(0.1)
                    try:
                        result_set.fetchmany(1)
                    except CursorError:
                        break
                else:
                    pytest.fail("idle cursor never expired")


class TestRemoteLaziness:
    """The acceptance criterion: k rows over the wire = O(k) executor work."""

    def test_fetchmany_is_step_bounded_end_to_end(self):
        database = graph_database(40, 300, seed=3, samples=())
        steps = []

        class Spy(NaiveBacktrackingJoin):
            def enumerate_bindings(self, db, query):
                for binding in super().enumerate_bindings(db, query):
                    steps.append(1)
                    yield binding

        with QueryService(database) as service:
            service.engine.register("spy", lambda budget: Spy(budget=budget))
            with ServerThread(service) as server:
                with RemoteSession(server.url) as session:
                    total = session.run(TWO_HOP, algorithm="naive").count()
                    assert total > 1000  # the join is genuinely large
                    result_set = session.run(TWO_HOP, algorithm="spy",
                                             use_cache=False)
                    assert steps == []  # run opened a cursor, executed nothing
                    first = result_set.fetchmany(5)
                    assert len(first) == 5
                    # Step bound: the executor advanced exactly 5 rows for
                    # a 5-row wire fetch — O(k) end to end.
                    assert len(steps) == 5
                    result_set.fetchmany(3)
                    assert len(steps) == 8


class TestAsyncClient:
    def test_async_run_matches_sync(self, server, session, local):
        expected = sorted(local.run(TRIANGLE, use_cache=False).fetchall())

        async def main():
            async with await connect_async(server.url) as aio:
                result_set = await aio.run(TRIANGLE)
                rows = await result_set.fetchall()
                count = await (await aio.run(TRIANGLE)).count()
                bindings = []
                async for binding in await aio.run(TRIANGLE):
                    bindings.append(binding)
                return rows, count, bindings

        rows, count, bindings = asyncio.run(main())
        assert sorted(rows) == expected
        assert count == len(expected)
        assert len(bindings) == len(expected)

    def test_async_fetchmany_and_close(self, server):
        async def main():
            aio = await connect_async(server.url)
            try:
                result_set = await aio.run(TWO_HOP)
                page = await result_set.fetchmany(5)
                await result_set.close()
                try:
                    await result_set._fetch(1)
                except CursorError:
                    closed_raises = True
                else:
                    closed_raises = False
                return page, closed_raises
            finally:
                await aio.close()

        page, closed_raises = asyncio.run(main())
        assert len(page) == 5
        assert closed_raises

    def test_async_remote_errors(self, server):
        async def main():
            async with await connect_async(server.url) as aio:
                try:
                    await aio.run("edge(a,")
                except ParseError:
                    return True
            return False

        assert asyncio.run(main())


class TestConcurrentClients:
    def test_many_connections_share_caches(self, service, server, local):
        expected = local.run(TRIANGLE, use_cache=False).count()
        import threading

        results, errors = [], []

        def worker():
            try:
                with RemoteSession(server.url) as session:
                    results.append(session.run(TRIANGLE).count())
            except ReproError as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert results == [expected] * 8


class TestFetchClamp:
    def test_fetchmany_larger_than_server_clamp_loops(self, service,
                                                      monkeypatch):
        # The server caps one fetch; a big fetchmany must transparently
        # take several round trips — a short return only ever means
        # end-of-answer, exactly like a local result set.
        monkeypatch.setattr("repro.net.server.MAX_FETCH_SIZE", 10)
        with ServerThread(service) as server:
            with RemoteSession(server.url) as session:
                total = session.run(TWO_HOP).count()
                assert total > 25
                result_set = session.run(TWO_HOP, use_cache=False)
                assert len(result_set.fetchmany(25)) == 25
                rest = result_set.fetchall()
                assert len(rest) == total - 25


class TestGracefulShutdown:
    def test_server_thread_stop_is_clean_and_idempotent(self, service):
        server = ServerThread(service).start()
        with RemoteSession(server.url) as session:
            session.run(TRIANGLE).fetchmany(1)
        server.stop()
        server.stop()  # idempotent

    def test_stop_disconnects_idle_clients_promptly(self, service):
        # Regression: on Python >= 3.12.1 wait_closed() waits for every
        # connection handler, so an idle client parked in readexactly
        # must be disconnected by stop() or shutdown hangs forever.
        server = ServerThread(service).start()
        session = RemoteSession(server.url)  # stays connected, idle
        try:
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 10.0
            assert not server._thread.is_alive()
        finally:
            session.close()  # dead socket: the goodbye degrades gracefully

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_cli_server_shuts_down_gracefully(self, signum, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(repro.__file__), os.pardir)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "server",
             "--dataset", "ca-GrQc", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=str(tmp_path),
        )
        try:
            banner = proc.stdout.readline()
            assert "repro://" in banner
            url = next(word for word in banner.split()
                       if word.startswith("repro://")).rstrip(";")
            with RemoteSession(url) as session:
                assert session.run(TRIANGLE).count() >= 0
            proc.send_signal(signum)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "Traceback" not in err
        assert "server stopped" in out
