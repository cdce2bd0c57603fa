"""``repro.net`` — the wire layer: protocol, asyncio server, remote sessions.

The subsystem that turns the engine + service + api stack into an actual
multi-client system::

    RemoteSession ──frames──►  ReproServer (asyncio)  ──►  QueryService
    (sync/async)               per-connection cursors       (shared plan +
                               + stats                       result caches,
                                                             admission control)

* :mod:`repro.net.protocol` — length-prefixed frames (JSON control
  frames, binary columnar row pages) with request ids and error
  envelopes mapping onto the :class:`~repro.errors.ReproError` taxonomy
  (and therefore onto the CLI's exit codes).
* :mod:`repro.net.server` — an :mod:`asyncio` TCP server fronting one
  shared :class:`~repro.service.QueryService`; results are held open as
  **server-side cursors** the client pages with ``FETCH`` requests.
* :mod:`repro.net.client` — ``connect("repro://host:port")`` returning a
  :class:`RemoteSession` with the exact :class:`~repro.api.session.Session`
  surface (``run`` / ``explain`` / ``close``) behind a health-checked
  :class:`ConnectionPool` with bounded-backoff retry of idempotent ops,
  plus ``connect_async`` for ``await session.run(...)`` — a single
  multiplexed connection that pipelines concurrent requests.

Everything here sits at the very top of the layer stack; nothing below
:mod:`repro.cli` imports it at module level.
"""

from repro.net.client import (
    AsyncRemotePreparedHandle,
    AsyncRemoteSession,
    ConnectionPool,
    RemotePreparedHandle,
    RemoteResultSet,
    RemoteSession,
    connect,
    connect_async,
    parse_url,
)
from repro.net.protocol import PROTOCOL_VERSION
from repro.net.server import ReproServer, ServerThread

__all__ = [
    "AsyncRemotePreparedHandle",
    "AsyncRemoteSession",
    "ConnectionPool",
    "PROTOCOL_VERSION",
    "RemotePreparedHandle",
    "RemoteResultSet",
    "RemoteSession",
    "ReproServer",
    "ServerThread",
    "connect",
    "connect_async",
    "parse_url",
]
