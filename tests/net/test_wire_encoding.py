"""Wire frames and paging: frame-size limits, the payload histogram,
and ``fetch_size``.

Every successful ``fetch`` response is a binary columnar frame; the
raw-frame checks of that live in ``test_server.py``.
"""

import asyncio

import pytest

from repro.errors import FrameError, OptionsError, ProtocolError
from repro.net import protocol
from repro.net.client import RemoteSession
from repro.net.server import ServerThread
from repro.obs.metrics import global_registry
from repro.service import QueryService

from tests.conftest import graph_database

QUERY = "edge(a,b), edge(b,c)"


@pytest.fixture(scope="module")
def service():
    with QueryService(graph_database(14, 40, seed=5)) as service:
        yield service


@pytest.fixture(scope="module")
def server(service):
    with ServerThread(service) as server:
        yield server


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_payload_bytes_histogram_rendered_in_metrics(server):
    with RemoteSession(server.url) as session:
        session.run(QUERY).fetchall()
        text = session.metrics()
    buckets = [line for line in text.splitlines()
               if line.startswith("repro_wire_fetch_payload_bytes_count")]
    assert buckets and float(buckets[0].split()[-1]) > 0


# ----------------------------------------------------------------------
# fetch_size: validated, honored per option bundle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [0, -1, True, 2.5, "many"])
def test_fetch_size_validates(bad):
    from repro.api.options import QueryOptions
    with pytest.raises(OptionsError, match="fetch_size"):
        QueryOptions(fetch_size=bad)


def test_fetch_size_controls_page_count(server):
    histogram = global_registry().histogram("repro_wire_fetch_payload_bytes")
    with RemoteSession(server.url) as session:
        total = len(session.run(QUERY).fetchall())
        assert total > 8
        before = histogram.count()
        rows = session.run(QUERY, fetch_size=(total + 1) // 2).fetchall()
        assert len(rows) == total
        # ceil(total / page) pages plus the final empty "done" page at
        # most — far fewer than one per row, and more than one page.
        pages = histogram.count() - before
        assert 2 <= pages <= 3


def test_fetch_size_ignored_locally():
    from repro.api.session import Session
    with Session(graph_database(10, 30, seed=3)) as session:
        rows = session.run(QUERY, fetch_size=2)
        assert rows.count() >= 0  # validated, accepted, no paging locally


# ----------------------------------------------------------------------
# FrameError: oversized frames report size and cap, both read paths
# ----------------------------------------------------------------------
def test_encode_frame_reports_size_and_cap(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
    with pytest.raises(FrameError, match="limit") as info:
        protocol.encode_frame({"pad": "x" * 100})
    assert info.value.size > 64
    assert info.value.limit == 64
    assert str(info.value.size) in str(info.value)
    assert "64" in str(info.value)


def test_encode_binary_frame_reports_size_and_cap(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
    with pytest.raises(FrameError) as info:
        protocol.encode_binary_frame({"ok": True}, [b"y" * 100])
    assert info.value.size > 64 and info.value.limit == 64


def test_sync_read_path_reports_announced_size():
    oversized = protocol.MAX_FRAME_BYTES + 17
    data = protocol._LENGTH.pack(oversized)
    stream = [data]

    def read(n):
        return stream.pop(0) if stream else b""

    with pytest.raises(FrameError) as info:
        protocol.read_frame(read)
    assert info.value.size == oversized
    assert info.value.limit == protocol.MAX_FRAME_BYTES
    assert str(oversized) in str(info.value)


def test_async_read_path_reports_announced_size():
    oversized = protocol.MAX_FRAME_BYTES + 23

    async def readexactly(n):
        return protocol._LENGTH.pack(oversized)

    async def go():
        await protocol.read_frame_async(readexactly)

    with pytest.raises(FrameError) as info:
        asyncio.run(go())
    assert info.value.size == oversized
    assert info.value.limit == protocol.MAX_FRAME_BYTES


def test_frame_error_is_protocol_error_and_pickles():
    import pickle
    error = FrameError("too big", size=100, limit=64)
    assert isinstance(error, ProtocolError)
    clone = pickle.loads(pickle.dumps(error))
    assert (clone.size, clone.limit) == (100, 64)
