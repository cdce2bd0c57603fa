""":class:`RemoteSession` — the client end of the wire protocol.

``connect("repro://host:port")`` opens a pooled client against a
:class:`~repro.net.server.ReproServer` and returns a session with the
exact :class:`~repro.api.session.Session` execution surface::

    with repro.connect("repro://127.0.0.1:9944") as session:
        for binding in session.run("edge(a,b), edge(b,c)", limit=10):
            ...
        session.explain("edge(a,b), edge(b,c)").render()

This is the **resilience layer** of the network stack:

* a size-bounded :class:`ConnectionPool` with health-checked checkout —
  stale sockets left behind by a server restart are detected and
  replaced, never handed to a request;
* **automatic reconnect with bounded exponential-backoff retry** for the
  idempotent operations (``hello`` / ``run`` / ``explain`` / ``count`` /
  ``stats``): a connection lost mid-request is discarded, a fresh one is
  dialled, and the request replayed up to ``retries`` times;
* **never** for a cursor ``fetch``: a server-side cursor lives on one
  server connection and dies with it, so replaying a fetch could silently
  skip or repeat rows.  A lost connection mid-stream raises a crisp
  :class:`~repro.errors.CursorError` telling the caller to re-run the
  query instead.

``run`` returns a :class:`RemoteResultSet`: the server holds the lazy
result stream as a **server-side cursor** and the client pages it with
``fetchmany``-sized ``fetch`` requests — consuming *k* rows of a huge
join moves O(k) rows over the wire and pulls O(k) rows from the
executor, the same laziness contract as a local
:class:`~repro.api.result.ResultSet`.  The cursor pins one pooled
connection from first fetch until it drains or closes (cursors are
per-connection server state); ``run`` / ``count`` / ``explain`` traffic
flows over the rest of the pool concurrently.

``connect_async`` is the :mod:`asyncio` twin — and it **multiplexes**:
one socket carries any number of in-flight requests, matched to their
responses by the protocol's request ids, so ``asyncio.gather`` over many
``session.run(...)`` calls pipelines them through a single connection
and the server overlaps their execution on its worker pool.

Server-reported failures re-raise as their original
:class:`~repro.errors.ReproError` subclasses (parse errors as
:class:`ParseError`, timeouts as :class:`TimeoutExceeded`, ...), so error
handling — including the CLI's exit-code mapping — is transport-agnostic.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from dataclasses import asdict
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.api.options import QueryOptions
from repro.api.result import ResultStats, Row, RowCursor
from repro.datalog.terms import Variable
from repro.errors import (
    AdmissionError,
    CursorError,
    NetworkError,
    OptionsError,
    PreparedError,
    ProtocolError,
    ReproError,
)
from repro.net import protocol
from repro.net.server import DEFAULT_PORT
from repro.obs.metrics import global_registry
from repro.obs.trace import new_trace_id

#: How many rows one iteration-driven fetch pulls by default.
DEFAULT_FETCH_SIZE = 512

#: Connections a :class:`ConnectionPool` may hold open at once.
DEFAULT_POOL_SIZE = 4

#: How many times an idempotent request is replayed after a transport
#: failure (so ``retries=2`` means up to three attempts in total).
DEFAULT_RETRIES = 2

#: First retry delay, seconds; doubles per attempt up to the cap below.
DEFAULT_RETRY_BACKOFF = 0.05
_MAX_RETRY_BACKOFF = 2.0

#: Operations safe to replay on a fresh connection after a transport
#: failure.  ``run`` / ``explain`` only plan, ``count`` /
#: ``stats`` / ``metrics`` only read, ``hello`` is a handshake,
#: ``prepare`` is idempotent by design (the registry dedups), and a
#: replayed ``deallocate`` frees at most the same handle.  The peer ops
#: ``cluster_run`` / ``cluster_count`` are read-only like their
#: single-server twins.  Cursor ops (``cursor`` / ``cluster_cursor`` /
#: ``fetch`` / ``close``) are deliberately absent from this set: they
#: name server-side stream state that dies with its connection (cursor
#: *opens* get their own replay loop in ``_open_cursor``, which is safe
#: because an unacknowledged cursor died with its connection).
IDEMPOTENT_OPS = frozenset(
    {"hello", "run", "explain", "count", "stats", "metrics", "events",
     "prepare", "deallocate", "cluster_run", "cluster_count"}
)


class PoolExhausted(NetworkError):
    """Every pooled connection is checked out and none freed in time.

    Deliberately distinct from transport failures: retrying cannot help
    (nothing will be checked in while the retry sleeps — the checkout
    already waited), so the retry loop re-raises this immediately and
    the caller gets the actionable message without the backoff tax.
    """


def _validate_resilience_knobs(pool_size: Optional[int], retries: int,
                               retry_backoff: float) -> None:
    """Reject nonsense knob values instead of silently clamping them.

    Same boundary discipline as :class:`QueryOptions` (zero timeouts and
    negative limits raise): a ``pool_size`` below 1, negative
    ``retries``, or non-positive ``retry_backoff`` is a typo, not a
    request for different behavior.
    """
    if pool_size is not None and int(pool_size) < 1:
        raise OptionsError(
            f"pool_size must be at least 1, got {pool_size!r}"
        )
    if int(retries) < 0:
        raise OptionsError(f"retries must be >= 0, got {retries!r}")
    if not float(retry_backoff) > 0:
        raise OptionsError(
            f"retry_backoff must be positive seconds, got {retry_backoff!r}"
        )


def _parse_host_port(entry: str, url: str) -> Tuple[str, int]:
    """Validate one ``host[:port]`` entry of a (possibly multi-host) URL.

    The per-host grammar — including the IPv6 bracket rules — is shared
    verbatim between :func:`parse_url` and :func:`parse_cluster_url`, so
    every host of a cluster URL is held to exactly the single-host
    standard.
    """
    port_text: Optional[str]
    if entry.startswith("["):
        # Bracketed IPv6 literal: [v6]  or  [v6]:port
        closing = entry.find("]")
        if closing < 0:
            raise NetworkError(
                f"remote URL {url!r} has an unclosed '[' in its host"
            )
        host = entry[1:closing]
        tail = entry[closing + 1:]
        if not tail:
            port_text = None
        elif tail.startswith(":"):
            port_text = tail[1:]
        else:
            raise NetworkError(
                f"remote URL {url!r} has trailing text after the "
                f"bracketed host"
            )
    elif ":" in entry:
        host, _, port_text = entry.rpartition(":")
        if ":" in host:
            raise NetworkError(
                f"remote URL {url!r} looks like a bare IPv6 literal; "
                f"bracket it: repro://[{entry}] or repro://[host]:port"
            )
    else:
        host, port_text = entry, None
    if not host:
        raise NetworkError(f"remote URL {url!r} names no host")
    if port_text is None:
        return host, DEFAULT_PORT
    try:
        if not port_text.isdigit():
            raise ValueError(port_text)
        port = int(port_text)
    except ValueError:
        raise NetworkError(
            f"remote URL {url!r} has a non-numeric port {port_text!r}"
        ) from None
    if not 0 < port < 65536:
        raise NetworkError(f"remote URL {url!r} port out of range")
    return host, port


def parse_cluster_url(url: str) -> Tuple[Tuple[str, int], ...]:
    """Split ``repro://host[:port][,host[:port]...]`` into endpoints.

    The multi-host grammar of :func:`repro.connect`'s cluster form::

        repro://h1:9944,h2:9944       → (("h1", 9944), ("h2", 9944))
        repro://[::1]:9944,h2         → (("::1", 9944), ("h2", DEFAULT_PORT))

    Commas separate hosts unambiguously — bracketed IPv6 literals contain
    colons, never commas — and every entry is validated by the same
    single-host rules as :func:`parse_url` (empty entries, bare IPv6
    literals, and bad ports are each rejected with the entry named).  A
    single-host URL is a valid one-server cluster.
    """
    if not isinstance(url, str) or not url.startswith("repro://"):
        raise NetworkError(
            f"remote URL must look like repro://host:port, got {url!r}"
        )
    rest = url[len("repro://"):].rstrip("/")
    entries = rest.split(",")
    endpoints = []
    for position, entry in enumerate(entries):
        if entry != entry.strip():
            raise NetworkError(
                f"remote URL {url!r} has whitespace around entry "
                f"{position + 1} ({entry!r}); separate hosts with a "
                f"bare comma"
            )
        if not entry and len(entries) > 1 and position == len(entries) - 1:
            raise NetworkError(
                f"remote URL {url!r} has a trailing comma: the empty "
                f"entry after {entries[position - 1]!r} names no host"
            )
        endpoints.append(_parse_host_port(entry, url))
    return tuple(endpoints)


def parse_url(url: str) -> Tuple[str, int]:
    """Split ``repro://host[:port]`` into ``(host, port)``.

    The grammar::

        repro://host            → (host, DEFAULT_PORT)
        repro://host:9944       → (host, 9944)
        repro://[::1]:9944      → ("::1", 9944)     # brackets stripped
        repro://[2001:db8::2]   → ("2001:db8::2", DEFAULT_PORT)

    IPv6 literals must be bracketed (their colons are ambiguous with the
    port separator otherwise); the brackets are stripped so the result
    feeds :func:`socket.create_connection` directly.  Empty hosts
    (``repro://:9944``) and empty or non-numeric ports are rejected.
    Comma-separated multi-host URLs name a *cluster*, not a single
    server — those go through :func:`parse_cluster_url` (and
    ``repro.connect``, which builds a ``ClusterSession`` for them).
    """
    endpoints = parse_cluster_url(url)
    if len(endpoints) != 1:
        raise NetworkError(
            f"remote URL {url!r} names {len(endpoints)} hosts; a "
            f"single-server session takes one — pass the multi-host URL "
            f"to repro.connect for a ClusterSession"
        )
    return endpoints[0]


def _options_payload(options: QueryOptions) -> dict:
    """The options bundle as wire JSON (``None`` = inherit server default).

    ``fetch_size`` is a client-only paging knob — every ``fetch`` request
    names its page size explicitly — so it is stripped here, which also
    keeps new clients compatible with servers that predate the field.
    ``route`` is likewise client-side routing (which *op* to send, not
    how the server should run it) and never travels.
    """
    payload = asdict(options)
    payload.pop("fetch_size", None)
    payload.pop("route", None)
    return payload


def _result(response: dict) -> dict:
    """Unwrap a response: the body on ``ok``, the original error otherwise."""
    if response.get("ok"):
        return response
    protocol.raise_remote_error(response.get("error"))


# ----------------------------------------------------------------------
# Connections and the pool
# ----------------------------------------------------------------------
class _WireConnection:
    """One framed TCP connection: request/response, no retry logic.

    The pool owns reconnection policy; this class only speaks the
    protocol.  Any transport failure (socket error, EOF, garbage frame,
    out-of-sequence id) closes the connection and raises
    :class:`NetworkError` / :class:`ProtocolError` — a poisoned stream
    must never be reused.
    """

    def __init__(self, host: str, port: int, url: str,
                 connect_timeout: float) -> None:
        self.url = url
        self.closed = False
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as error:
            raise NetworkError(
                f"could not connect to {url}: {error}"
            ) from None
        self._sock.settimeout(None)
        self._reader = self._sock.makefile("rb")
        self._bytes = global_registry().counter("repro_client_bytes_total")
        self._next_id = 0
        # Prepared statements are per-connection server state: this maps
        # a client-side (text, algorithm) shape to the handle the server
        # issued *on this connection*.  A fresh connection starts empty
        # and re-prepares lazily.
        self.prepared: Dict[Tuple[str, str], int] = {}

    def exchange(self, op: str, *, _io_timeout: Optional[float] = None,
                 **params) -> dict:
        """One request/response round trip; returns the raw response.

        ``_io_timeout`` bounds the socket wait for this one exchange —
        used for the ``hello`` handshake, so an endpoint that accepts
        TCP connections but never answers (not a repro server) cannot
        hang the client forever.  Queries stay unbounded client-side.
        """
        if self.closed:
            raise NetworkError(f"connection to {self.url} is closed")
        self._next_id += 1
        request_id = self._next_id
        frame = {"id": request_id, "op": op, **params}
        try:
            if _io_timeout is not None:
                self._sock.settimeout(_io_timeout)
            try:
                data = protocol.encode_frame(frame)
                self._sock.sendall(data)
                self._bytes.inc(len(data), direction="sent")
                response = protocol.read_frame(self._counting_read)
            finally:
                if _io_timeout is not None and not self.closed:
                    self._sock.settimeout(None)
        except OSError as error:
            self.close()
            raise NetworkError(
                f"connection to {self.url} failed: {error}"
            ) from None
        except ProtocolError:
            self.close()
            raise
        if response is None:
            self.close()
            raise NetworkError(f"server at {self.url} closed the connection")
        if response.get("id") != request_id:
            # This client sends one request at a time per connection, so
            # responses must arrive in lockstep; anything else means the
            # stream is desynchronized beyond recovery.
            self.close()
            raise ProtocolError(
                f"out-of-sequence response: sent id {request_id}, "
                f"got {response.get('id')!r}"
            )
        return response

    def _counting_read(self, size: int) -> bytes:
        """``self._reader.read`` metered into ``repro_client_bytes_total``
        — the received half of the bytes-to-client accounting that peer
        coordination exists to shrink."""
        data = self._reader.read(size)
        if data:
            self._bytes.inc(len(data), direction="received")
        return data

    def healthy(self) -> bool:
        """Cheap liveness probe: is the socket still connected and quiet?

        A non-blocking one-byte peek distinguishes the three states: no
        data pending (healthy), EOF (the server closed — e.g. it was
        restarted while this connection sat idle in the pool), and stray
        unsolicited bytes (a desynchronized stream; also unusable).
        """
        if self.closed:
            return False
        try:
            self._sock.settimeout(0.0)
            try:
                self._sock.recv(1, socket.MSG_PEEK)
            finally:
                self._sock.settimeout(None)
        except (BlockingIOError, InterruptedError):
            return True  # connected, nothing pending
        except OSError:
            return False
        return False  # EOF or unsolicited data: either way, unusable

    def close(self) -> None:
        """Idempotent teardown of the reader and socket."""
        if self.closed:
            return
        self.closed = True
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class ConnectionPool:
    """A size-bounded, health-checked pool of connections to one server.

    ``checkout`` hands back an idle connection when a healthy one exists,
    dials a new one while fewer than ``size`` are open, and otherwise
    waits (up to ``connect_timeout`` seconds) for a checkin — so the pool
    bounds both sockets and the dial rate.  Stale idle connections (a
    restarted server leaves EOF-ed sockets behind) fail the checkout
    health probe and are replaced transparently.

    Thread-safe: a :class:`RemoteSession` may be shared by worker threads
    issuing requests concurrently, each over its own pooled connection.
    """

    def __init__(self, url: str, size: int = DEFAULT_POOL_SIZE,
                 connect_timeout: float = 10.0) -> None:
        self.url = url
        self.host, self.port = parse_url(url)
        self.size = max(1, int(size))
        self.connect_timeout = connect_timeout
        self._cond = threading.Condition()
        self._idle: Deque[_WireConnection] = deque()
        self._all: Set[_WireConnection] = set()
        self._open = 0  # connections existing: idle + checked out
        self._closed = False
        # Resilience accounting, surfaced by RemoteSession.stats().
        self.checkouts = 0
        self.dialed = 0
        self.health_replaced = 0

    def __len__(self) -> int:
        with self._cond:
            return self._open

    @property
    def idle(self) -> int:
        with self._cond:
            return len(self._idle)

    def checkout(self) -> _WireConnection:
        """A healthy connection: idle, freshly dialled, or waited for."""
        deadline = time.monotonic() + self.connect_timeout
        registry = global_registry()
        with self._cond:
            while True:
                if self._closed:
                    raise NetworkError(
                        f"connection pool to {self.url} is closed"
                    )
                while self._idle:
                    conn = self._idle.popleft()
                    if conn.healthy():
                        self.checkouts += 1
                        registry.counter(
                            "repro_client_checkouts_total").inc()
                        return conn
                    self._forget(conn)
                    conn.close()
                    self.health_replaced += 1
                    registry.counter(
                        "repro_client_health_replaced_total").inc()
                if self._open < self.size:
                    self._open += 1
                    break  # dial outside the lock
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise PoolExhausted(
                        f"connection pool to {self.url} exhausted: all "
                        f"{self.size} connections are in use (undrained "
                        f"result sets pin one each — drain or close them, "
                        f"or raise pool_size)"
                    )
                self._cond.wait(remaining)
        try:
            conn = _WireConnection(self.host, self.port, self.url,
                                   self.connect_timeout)
        except BaseException:
            with self._cond:
                self._open -= 1
                self._cond.notify()
            raise
        with self._cond:
            # close() may have snapshotted its victims while we were
            # dialling; a connection registered after that snapshot
            # would outlive the pool, so drop it here instead.
            closed_meanwhile = self._closed
            if not closed_meanwhile:
                self._all.add(conn)
                self.dialed += 1
                self.checkouts += 1
        if closed_meanwhile:
            conn.close()
            raise NetworkError(f"connection pool to {self.url} is closed")
        registry.counter("repro_client_checkouts_total").inc()
        return conn

    def checkin(self, conn: _WireConnection) -> None:
        """Return a connection; unusable or post-close ones are dropped."""
        drop = False
        with self._cond:
            if self._closed or conn.closed:
                self._forget(conn)
                drop = True
            else:
                self._idle.append(conn)
                self._cond.notify()
        if drop:
            conn.close()

    def discard(self, conn: _WireConnection) -> None:
        """Drop a poisoned connection, freeing its pool slot."""
        conn.close()
        with self._cond:
            self._forget(conn)

    def _forget(self, conn: _WireConnection) -> None:
        # Caller holds the lock; closing the socket is the caller's job.
        if conn in self._all:
            self._all.discard(conn)
            self._open -= 1
            self._cond.notify()

    def pop_all_idle(self) -> List[_WireConnection]:
        """Remove and return every idle connection (for farewells)."""
        with self._cond:
            idle = list(self._idle)
            self._idle.clear()
            for conn in idle:
                self._all.discard(conn)
            self._open -= len(idle)
            self._cond.notify_all()
        return idle

    def close(self) -> None:
        """Close every connection — including checked-out ones; idempotent.

        Closing pinned connections is deliberate: a session being closed
        must not leak sockets held by abandoned, undrained result sets.
        Their next fetch fails with a :class:`CursorError`.
        """
        with self._cond:
            self._closed = True
            victims = list(self._all)
            self._all.clear()
            self._idle.clear()
            self._open = 0
            self._cond.notify_all()
        for conn in victims:
            conn.close()


class RemoteExplain:
    """A plan report fetched over the wire.

    Mirrors the read surface of :class:`~repro.api.explain.Explain`:
    :meth:`as_dict` is the server report verbatim, :meth:`render` the
    server-rendered text.
    """

    def __init__(self, report: dict, rendered: str) -> None:
        self._report = report
        self._rendered = rendered

    def as_dict(self) -> dict:
        return self._report

    def render(self) -> str:
        return self._rendered

    def __str__(self) -> str:
        return self._rendered


class RemoteResultSet(RowCursor):
    """A server-side cursor paged over the wire, with the local surface.

    The cursor is forward-only and shared across the consumption
    methods, exactly like a local :class:`~repro.api.result.ResultSet`.
    From the first fetch until the stream drains (or :meth:`close`), the
    result set pins one pooled connection: a server-side cursor is
    per-connection state and cannot migrate.  If that connection is lost
    mid-stream the cursor is gone — fetches raise :class:`CursorError`
    (never a silent retry, which could skip or repeat rows); re-run the
    query for a fresh result set.
    """

    def __init__(self, session: "RemoteSession", query_text: str,
                 options: QueryOptions, meta: dict,
                 prepared_key: Optional[Tuple[str, str]] = None) -> None:
        self._session = session
        self._text = query_text
        self._options = options
        # Set when this result set executes a prepared statement: the
        # cursor and count travel by handle, never resending query text.
        self._prepared_key = prepared_key
        # The server holds no cursor yet: one is opened lazily at the
        # first fetch, so a result set that is only counted (or never
        # consumed) pins nothing remotely — and no pool connection.
        self._cursor_id: Optional[int] = None
        self._conn: Optional[_WireConnection] = None
        self._variables = tuple(Variable(name) for name in meta["columns"])
        self._meta = meta
        self._buffer: Deque[Row] = deque()
        self._done = False
        self._closed = False
        self._gone: Optional[str] = None  # why the server stream is lost
        self._delivered = 0
        self._count: Optional[int] = None
        self._final: dict = {}
        self._open_body: dict = {}
        self._seconds = 0.0
        # With tracing on, a client-chosen id rides every wire request so
        # the server-side span tree correlates with client logs.
        self._trace_id = new_trace_id() if options.trace else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def query_text(self) -> str:
        return self._text

    @property
    def algorithm(self) -> str:
        return self._meta["algorithm"]

    @property
    def shards(self) -> int:
        return self._meta["shards"]

    @property
    def complete(self) -> bool:
        """True once the full answer has been pulled over the wire."""
        return self._done and not self._buffer

    @property
    def stats(self) -> ResultStats:
        """What this result did, merged from plan metadata and fetches."""
        return ResultStats(
            query=self._text,
            algorithm=self._meta["algorithm"],
            requested_algorithm=self._meta.get(
                "requested_algorithm", self._options.algorithm
            ),
            partitioning=self._meta.get("partitioning", "serial"),
            shards=self._meta["shards"],
            plan_cached=self._meta.get("plan_cached", False),
            result_cached=self._final.get("result_cached", False),
            plan_seconds=0.0,
            execution_seconds=self._seconds,
            rows_delivered=self._delivered,
            complete=self.complete,
            limit=self._options.limit,
            total=self._count,
            trace=self._final.get("trace"),
        )

    # ------------------------------------------------------------------
    # Paging
    # ------------------------------------------------------------------
    def _page_size(self) -> int:
        """Rows per iteration-driven fetch: per-query option, else the
        session default."""
        return self._options.fetch_size or self._session.fetch_size

    def _ensure_cursor(self) -> None:
        """Open the server-side cursor on first use, pinning a connection.

        Under ``route="peer"`` the open travels as ``cluster_cursor``
        with ``hop=0``: the server gathers from its peers and registers
        the *merged* stream in its normal cursor registry, so everything
        after the open (fetch paging, close, drain accounting) is
        byte-for-byte the single-server path.
        """
        if self._cursor_id is None:
            if self._prepared_key is not None:
                self._conn, self._cursor_id = \
                    self._session._open_prepared_cursor(
                        self._prepared_key, self._text,
                        _options_payload(self._options),
                        trace_id=self._trace_id,
                    )
            else:
                if self._options.route == "peer":
                    op, extra = "cluster_cursor", {"hop": 0}
                else:
                    op, extra = "cursor", None
                self._conn, body = self._session._open_cursor(
                    self._text, _options_payload(self._options),
                    trace_id=self._trace_id, op=op, extra=extra,
                )
                self._cursor_id = body["cursor"]
                self._open_body = body

    def _release_conn(self) -> None:
        """Hand the pinned connection back to the pool (if still held)."""
        if self._conn is not None:
            self._session._pool.checkin(self._conn)
            self._conn = None

    def _fetch(self, size: int) -> List[Row]:
        """One wire ``fetch`` of up to ``size`` rows; updates done state."""
        if self._closed:
            raise CursorError("this remote cursor was closed")
        if self._gone is not None:
            raise CursorError(self._gone)
        started = time.perf_counter()
        self._ensure_cursor()
        try:
            response = self._conn.exchange("fetch", cursor=self._cursor_id,
                                           size=size)
        except (NetworkError, ProtocolError) as error:
            # The connection carrying the cursor is gone, and with it the
            # server-side stream.  A fetch is NOT idempotent — replaying
            # it on a new connection could skip or repeat rows — so this
            # is a hard stop, not a retry.
            self._session._pool.discard(self._conn)
            self._conn = None
            self._gone = (
                f"the server-side cursor for this result set is gone "
                f"({error}); a cursor lives on one server connection and "
                f"a fetch is never retried — re-run the query for a "
                f"fresh result set"
            )
            raise CursorError(self._gone) from error
        try:
            body = _result(response)
        except AdmissionError:
            # Transient overload: admission control rejected the fetch
            # *before* it reached the stream, so the cursor is untouched
            # server-side.  Keep the pin — the caller may simply fetch
            # again when the queue drains.
            raise
        except ReproError:
            # A server-reported fetch failure (cursor expired, execution
            # error, timeout mid-stream): the connection is healthy but
            # the server has dropped the cursor.  Release the pin and
            # re-raise the original error class.
            self._gone = (
                "the server-side cursor for this result set failed and "
                "was dropped by the server; re-run the query for a "
                "fresh result set"
            )
            self._release_conn()
            raise
        self._seconds += time.perf_counter() - started
        rows = body["rows"]
        if body["done"]:
            self._done = True
            self._final = body.get("stats") or {}
            if self._final.get("total") is not None:
                self._count = self._final["total"]
            self._release_conn()
        return rows

    def _check_open(self) -> None:
        """A closed-but-undrained cursor must not read like a clean end."""
        if self._closed and not self._done:
            raise CursorError(
                "this remote cursor was closed before it was drained; "
                "re-run the query for a fresh result set"
            )

    def _pull(self) -> Optional[Row]:
        if not self._buffer:
            self._check_open()
            if self._done:
                return None
            self._buffer.extend(self._fetch(self._page_size()))
            if not self._buffer:
                return None
        self._delivered += 1
        return self._buffer.popleft()

    def fetchmany(self, size: int = 1) -> List[Row]:
        """Up to ``size`` more rows off the shared forward-only cursor.

        Rows already buffered by iteration are served first.  The
        remainder is requested from the server, which clamps one wire
        ``fetch`` to its ``MAX_FETCH_SIZE`` (65536 by default) — so a
        request for more than the clamp transparently loops over several
        round trips, each advancing the server's executor by at most one
        clamp's worth of rows.  A short return therefore only ever means
        end-of-answer, exactly like a local result set; a request within
        the clamp costs a single round trip.
        """
        out: List[Row] = []
        while self._buffer and len(out) < size:
            out.append(self._buffer.popleft())
        try:
            if len(out) < size:
                self._check_open()
            while len(out) < size and not self._done:
                page = self._fetch(size - len(out))
                if not page:
                    break
                out.extend(page)
        except BaseException:
            # A failed wire fetch must not lose rows already in hand
            # (buffered by iteration or pulled by an earlier loop page):
            # push them back so a retried call — e.g. after a transient
            # AdmissionError — resumes at exactly the same position.
            self._buffer.extendleft(reversed(out))
            raise
        self._delivered += len(out)
        return out

    def fetchall(self) -> List[Row]:
        """Every remaining row; a failed wire fetch keeps rows in hand
        (they return to the buffer for the retry) instead of losing them."""
        out: List[Row] = list(self._buffer)
        self._buffer.clear()
        try:
            self._check_open()
            while not self._done:
                out.extend(self._fetch(self._page_size()))
        except BaseException:
            self._buffer.extendleft(reversed(out))
            raise
        self._delivered += len(out)
        return out

    # ------------------------------------------------------------------
    # Whole-answer paths
    # ------------------------------------------------------------------
    def count(self) -> int:
        """The number of answers, via the server's count path.

        Like a local result set's :meth:`~repro.api.result.ResultSet.count`,
        this is a side execution — the cursor position is untouched and
        counting-optimized algorithms / the server's result cache apply.
        It travels over the pool (not the pinned cursor connection), so
        it is retried like any idempotent request.
        """
        if self._count is not None:
            return self._count
        started = time.perf_counter()
        if self._prepared_key is not None:
            extra = ({"trace_id": self._trace_id}
                     if self._trace_id is not None else None)
            response = self._session._prepared_request(
                "count", self._prepared_key, self._text,
                _options_payload(self._options), extra,
            )
        else:
            op = ("cluster_count" if self._options.route == "peer"
                  else "count")
            params = {"query": self._text,
                      "options": _options_payload(self._options)}
            if op == "cluster_count":
                params["hop"] = 0
            if self._trace_id is not None:
                params["trace_id"] = self._trace_id
            response = self._session._request(op, **params)
        self._seconds += time.perf_counter() - started
        self._count = response["count"]
        if response.get("result_cached"):
            self._final.setdefault("result_cached", True)
        if response.get("trace") is not None:
            self._final["trace"] = response["trace"]
        return self._count

    @property
    def open_body(self) -> dict:
        """The raw cursor-open response body (peer opens carry gather
        summary scalars: shard map, hedges, coordinator)."""
        return self._open_body

    def close(self) -> None:
        """Release the server-side cursor early; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._buffer.clear()
        if self._conn is not None and self._cursor_id is not None \
                and not self._done:
            try:
                _result(self._conn.exchange("close", cursor=self._cursor_id))
            except (NetworkError, CursorError):
                pass  # connection gone or cursor already expired
        # checkin drops a connection the failed exchange closed.
        self._release_conn()


class RemotePreparedHandle:
    """A server-side prepared statement with the local handle surface.

    Returned by :meth:`RemoteSession.prepare`.  ``run`` builds a result
    set whose cursor and count travel by handle — the query text is
    never resent and never reparsed.  Handles are per-connection server
    state under the hood; the session re-prepares transparently on
    whichever pooled connection carries each execute (the server dedups,
    so this costs one extra round trip per connection, once), which is
    also what revives a handle the server expired or lost to a restart.
    """

    def __init__(self, session: "RemoteSession", text: str,
                 options: QueryOptions, meta: dict,
                 key: Tuple[str, str]) -> None:
        self._session = session
        self._text = text
        self._options = options
        self._meta = meta
        self._key = key
        self._closed = False

    @property
    def text(self) -> str:
        return self._text

    @property
    def algorithm(self) -> str:
        return self._meta["algorithm"]

    def run(self, options: Optional[QueryOptions] = None,
            **overrides) -> "RemoteResultSet":
        """Execute the prepared shape; nothing touches the wire until
        the result set is consumed (the plan metadata is already in
        hand from ``prepare``)."""
        if self._closed:
            raise PreparedError("this prepared handle is closed")
        opts = self._session.options(
            options if options is not None else self._options, **overrides
        )
        return RemoteResultSet(self._session, self._text, opts,
                               dict(self._meta), prepared_key=self._key)

    def explain(self) -> "RemoteExplain":
        return self._session.explain(self._text, self._options)

    def close(self) -> None:
        """Deallocate (best effort) and refuse further runs; idempotent.

        Deallocation is sent on one pooled connection; entries on other
        connections fall to the server's idle TTL.
        """
        if self._closed:
            return
        self._closed = True
        try:
            conn = self._session._pool.checkout()
        except (NetworkError, ProtocolError):
            return
        try:
            handle = conn.prepared.pop(self._key, None)
            if handle is not None:
                _result(conn.exchange("deallocate", handle=handle))
        except (NetworkError, ProtocolError, ReproError):
            pass
        finally:
            self._session._pool.checkin(conn)

    def __enter__(self) -> "RemotePreparedHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"RemotePreparedHandle(text={self._text!r}, "
                f"algorithm={self.algorithm!r}, {state})")


class RemoteSession:
    """A connected remote client with the local ``Session`` surface.

    Parameters
    ----------
    url:
        ``repro://host[:port]`` (bracket IPv6 literals: ``repro://[::1]``).
    options:
        Session-default :class:`QueryOptions`; per-call overrides apply
        exactly as on a local session.
    fetch_size:
        Page size for iteration-driven fetches (explicit ``fetchmany(k)``
        always fetches exactly ``k``).
    connect_timeout:
        Seconds to wait for a TCP connection — and for a free pooled
        connection when all are checked out (queries themselves are not
        bounded client-side; use ``QueryOptions.timeout`` for that).
    pool_size:
        Upper bound on concurrently open connections.  Worker threads
        sharing one session each check out their own; every undrained
        result set pins one for its server-side cursor.
    retries:
        How many times an idempotent request (:data:`IDEMPOTENT_OPS`) is
        replayed on a fresh connection after a transport failure, with
        exponential backoff starting at ``retry_backoff`` seconds.
        Cursor fetches are never retried.
    """

    def __init__(self, url: str, *, options: Optional[QueryOptions] = None,
                 fetch_size: int = DEFAULT_FETCH_SIZE,
                 connect_timeout: float = 10.0,
                 pool_size: int = DEFAULT_POOL_SIZE,
                 retries: int = DEFAULT_RETRIES,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF) -> None:
        _validate_resilience_knobs(pool_size, retries, retry_backoff)
        self.url = url
        self.defaults = options if options is not None else QueryOptions()
        self.fetch_size = max(1, int(fetch_size))
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self._pool = ConnectionPool(url, size=pool_size,
                                    connect_timeout=connect_timeout)
        self._retries_attempted = 0
        self._closed = False
        try:
            self.server_info = self._request("hello")
        except BaseException:
            # A failed handshake (e.g. the endpoint is not a repro
            # server) must not leak sockets out of a constructor the
            # caller never got a handle from.
            self._closed = True
            self._pool.close()
            raise

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _attempts(self, op: str) -> int:
        return 1 + (self.retries if op in IDEMPOTENT_OPS else 0)

    def _retry_exchange(self, op: str, params: dict,
                        attempts: int) -> Tuple[_WireConnection, dict]:
        """Checkout + exchange with bounded-backoff retry; the one retry
        loop every request path shares.

        Transport failures (dead socket, EOF, garbage frame) discard the
        connection and replay on a fresh one — what rides out a server
        restart.  :class:`PoolExhausted` is not retried (nothing frees a
        connection while the retry sleeps).  Returns the raw response
        *and* the connection it arrived on; the caller owns checking the
        connection back in.
        """
        if self._closed:
            raise NetworkError("this remote session is closed")
        delay = self.retry_backoff
        # The handshake is the one op with a client-side wait bound: a
        # TCP endpoint that accepts but never answers must not hang us.
        io_timeout = self._pool.connect_timeout if op == "hello" else None
        for attempt in range(attempts):
            try:
                conn = self._pool.checkout()
                try:
                    response = conn.exchange(op, _io_timeout=io_timeout,
                                             **params)
                except (NetworkError, ProtocolError):
                    self._pool.discard(conn)
                    raise
            except PoolExhausted:
                raise
            except (NetworkError, ProtocolError):
                if attempt + 1 >= attempts:
                    raise
                self._retries_attempted += 1
                global_registry().counter("repro_client_retries_total").inc()
                time.sleep(delay)
                delay = min(delay * 2, _MAX_RETRY_BACKOFF)
                continue
            return conn, response
        raise AssertionError("unreachable")  # pragma: no cover

    def _request(self, op: str, **params) -> dict:
        """One request over the pool, with retry for idempotent ops.

        Server-reported errors are *not* retried: they re-raise as their
        original exception classes and the connection, which is still
        healthy, goes back to the pool.
        """
        conn, response = self._retry_exchange(op, params,
                                              self._attempts(op))
        try:
            return _result(response)
        finally:
            self._pool.checkin(conn)

    def _open_cursor(self, text: str, payload: dict,
                     trace_id: Optional[str] = None,
                     op: str = "cursor",
                     extra: Optional[dict] = None
                     ) -> Tuple[_WireConnection, dict]:
        """Open a server-side cursor, returning its pinned connection
        and the full open-response body (``body["cursor"]`` is the id).

        Opening is retried like an idempotent op: a cursor that was
        opened but whose open *response* was lost died with its
        connection (registries are per-connection), so replaying on a
        fresh connection leaks nothing.  ``op`` selects the open verb
        (``cluster_cursor`` for peer-routed opens) and ``extra`` rides
        extra frame fields (``hop``, ``peers``).
        """
        params = {"query": text, "options": payload}
        if trace_id is not None:
            params["trace_id"] = trace_id
        if extra:
            params.update(extra)
        conn, response = self._retry_exchange(
            op, params, 1 + self.retries,
        )
        try:
            body = _result(response)
        except ReproError:
            self._pool.checkin(conn)
            raise
        return conn, body

    # ------------------------------------------------------------------
    # Prepared-statement plumbing
    # ------------------------------------------------------------------
    def _ensure_prepared(self, conn: _WireConnection,
                         key: Tuple[str, str], text: str,
                         payload: dict) -> int:
        """The handle for ``key`` on *this* connection, preparing on
        first use.  Handles are per-connection server state; the server
        dedups, so re-preparing an already-known shape is one cheap
        round trip, not a recompile."""
        handle = conn.prepared.get(key)
        if handle is None:
            body = _result(conn.exchange("prepare", query=text,
                                         options=payload))
            handle = body["handle"]
            conn.prepared[key] = handle
        return handle

    def _prepared_once(self, conn: _WireConnection, op: str,
                       key: Tuple[str, str], text: str, payload: dict,
                       extra: Optional[dict]) -> dict:
        handle = self._ensure_prepared(conn, key, text, payload)
        params = {"handle": handle, "options": payload}
        if extra:
            params.update(extra)
        return _result(conn.exchange(op, **params))

    def _prepared_exchange(self, op: str, key: Tuple[str, str], text: str,
                           payload: dict, extra: Optional[dict] = None
                           ) -> Tuple[_WireConnection, dict]:
        """Execute-by-handle with the standard retry loop plus one
        transparent re-prepare.

        A :class:`PreparedError` means *this connection's* handle is
        gone (idle-expired, deallocated elsewhere, or the server
        restarted): drop the stale mapping and re-prepare once on the
        same connection.  Transport failures discard the connection as
        usual — the retry lands on a fresh connection whose own
        ``_ensure_prepared`` re-prepares there.
        """
        if self._closed:
            raise NetworkError("this remote session is closed")
        attempts = 1 + self.retries
        delay = self.retry_backoff
        for attempt in range(attempts):
            try:
                conn = self._pool.checkout()
                try:
                    try:
                        body = self._prepared_once(conn, op, key, text,
                                                   payload, extra)
                    except PreparedError:
                        conn.prepared.pop(key, None)
                        body = self._prepared_once(conn, op, key, text,
                                                   payload, extra)
                except (NetworkError, ProtocolError):
                    self._pool.discard(conn)
                    raise
                except ReproError:
                    self._pool.checkin(conn)
                    raise
            except PoolExhausted:
                raise
            except (NetworkError, ProtocolError):
                if attempt + 1 >= attempts:
                    raise
                self._retries_attempted += 1
                global_registry().counter("repro_client_retries_total").inc()
                time.sleep(delay)
                delay = min(delay * 2, _MAX_RETRY_BACKOFF)
                continue
            return conn, body
        raise AssertionError("unreachable")  # pragma: no cover

    def _open_prepared_cursor(self, key: Tuple[str, str], text: str,
                              payload: dict,
                              trace_id: Optional[str] = None
                              ) -> Tuple[_WireConnection, int]:
        """Open a cursor by prepared handle, returning its pinned
        connection.  Retry-safe for the same reason as ``_open_cursor``:
        a cursor whose open response was lost died with its connection.
        """
        extra = {"trace_id": trace_id} if trace_id is not None else None
        conn, body = self._prepared_exchange("cursor", key, text,
                                             payload, extra)
        return conn, body["cursor"]

    def _prepared_request(self, op: str, key: Tuple[str, str], text: str,
                          payload: dict,
                          extra: Optional[dict] = None) -> dict:
        conn, body = self._prepared_exchange(op, key, text, payload, extra)
        self._pool.checkin(conn)
        return body

    # ------------------------------------------------------------------
    # The Session surface
    # ------------------------------------------------------------------
    def options(self, options: Optional[QueryOptions] = None,
                **overrides) -> QueryOptions:
        """Resolve per-call options against the session defaults."""
        return QueryOptions.resolve(options, overrides,
                                    defaults=self.defaults)

    def run(self, query, options: Optional[QueryOptions] = None,
            **overrides) -> RemoteResultSet:
        """Open a server-side cursor for ``query``; nothing executes yet.

        Options validate client-side (the same
        :class:`~repro.errors.OptionsError` boundary as a local session)
        before anything touches the wire.  With ``route="peer"`` the
        plan probe travels as ``cluster_run`` (``hop=0``): the server
        answers with its peer-fleet plan (shards, partitioning) and
        later consumption gathers server-side.
        """
        opts = self.options(options, **overrides)
        text = str(query)
        if opts.route == "peer":
            meta = self._request("cluster_run", query=text,
                                 options=_options_payload(opts), hop=0)
        else:
            meta = self._request("run", query=text,
                                 options=_options_payload(opts))
        return RemoteResultSet(self, text, opts, meta)

    def prepare(self, query, options: Optional[QueryOptions] = None,
                **overrides) -> RemotePreparedHandle:
        """Register ``query`` server-side and return a reusable handle.

        Preparing pays the parse/decompose/plan cost once; every
        subsequent :meth:`RemotePreparedHandle.run` sends only the
        integer handle — the server never reparses, and the client
        never resends the text.  Preparing the same text twice dedups
        to the same server-side statement.
        """
        opts = self.options(options, **overrides)
        text = str(query)
        key = (text, opts.algorithm)
        conn, response = self._retry_exchange(
            "prepare", {"query": text, "options": _options_payload(opts)},
            self._attempts("prepare"))
        try:
            meta = _result(response)
            conn.prepared[key] = meta["handle"]
        finally:
            self._pool.checkin(conn)
        return RemotePreparedHandle(self, text, opts, meta, key)

    def explain(self, query, options: Optional[QueryOptions] = None,
                **overrides) -> RemoteExplain:
        """The server's structured plan report for ``query``."""
        opts = self.options(options, **overrides)
        response = self._request("explain", query=str(query),
                                 options=_options_payload(opts))
        return RemoteExplain(response["report"], response["rendered"])

    def stats(self) -> dict:
        """Connection, cursor, and service counters from the server.

        ``connection`` and ``cursors`` describe whichever pooled
        connection carried this request; ``service`` is global.
        ``client`` is local: this session's resilience accounting —
        retries attempted, stale connections replaced by the pool's
        health probe, connections dialled.
        """
        response = self._request("stats")
        stats = {key: response[key]
                 for key in ("connection", "cursors", "prepared", "service")}
        stats["client"] = {
            "retries": self._retries_attempted,
            "health_replaced": self._pool.health_replaced,
            "dialed": self._pool.dialed,
            "checkouts": self._pool.checkouts,
        }
        return stats

    def metrics(self) -> str:
        """The server's metrics registry in Prometheus text format."""
        return self._request("metrics")["metrics"]

    def events(self, limit: Optional[int] = None) -> List[dict]:
        """The server's flight-recorder ring, oldest first."""
        params = {} if limit is None else {"limit": int(limit)}
        return self._request("events", **params)["events"]

    def close(self) -> None:
        """Say goodbye on idle connections and close the pool; idempotent.

        Connections pinned by undrained result sets are closed too (no
        socket outlives the session); their cursors die with them.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._pool.pop_all_idle():
            try:
                conn.exchange("goodbye")
            except (NetworkError, ProtocolError):
                pass
            conn.close()
        self._pool.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"RemoteSession({self.url!r}, {state}, "
                f"pool={self._pool.size})")


def connect(url: str, *,
            algorithm: str = "auto",
            parallel: Optional[int] = None,
            partition_mode: str = "auto",
            timeout: Optional[float] = None,
            use_cache: bool = True,
            limit: Optional[int] = None,
            trace: bool = False,
            route: Optional[str] = None,
            fetch_size: int = DEFAULT_FETCH_SIZE,
            connect_timeout: float = 10.0,
            pool_size: int = DEFAULT_POOL_SIZE,
            retries: int = DEFAULT_RETRIES,
            retry_backoff: float = DEFAULT_RETRY_BACKOFF) -> RemoteSession:
    """Open a :class:`RemoteSession`; keyword args become its defaults.

    ``route="peer"`` makes every query travel as a peer-coordinated
    cluster op: the server sub-shards across its ``--peers`` fleet and
    merges server-side, so only the merged answer crosses this hop.
    """
    options = QueryOptions(
        algorithm=algorithm, parallel=parallel,
        partition_mode=partition_mode, timeout=timeout,
        use_cache=use_cache, limit=limit, trace=trace, route=route,
    )
    return RemoteSession(url, options=options, fetch_size=fetch_size,
                         connect_timeout=connect_timeout,
                         pool_size=pool_size, retries=retries,
                         retry_backoff=retry_backoff)


# ----------------------------------------------------------------------
# Async variant
# ----------------------------------------------------------------------
class AsyncRemoteResultSet:
    """The awaitable twin of :class:`RemoteResultSet`.

    Supports ``async for`` (bindings), ``await fetchmany/fetchall/count``,
    and ``await close``.  Shares one forward-only position.  The cursor
    lives on the session's single multiplexed connection; if that
    connection is re-established (a reconnect after a server restart),
    the cursor did not survive and fetches raise :class:`CursorError`.
    """

    def __init__(self, session: "AsyncRemoteSession", query_text: str,
                 options: QueryOptions, meta: dict,
                 prepared_key: Optional[Tuple[str, str]] = None,
                 shard: Optional[dict] = None,
                 trace_id: Optional[str] = None,
                 span: Optional[dict] = None,
                 open_op: str = "cursor",
                 open_extra: Optional[dict] = None) -> None:
        import asyncio

        self._session = session
        self._text = query_text
        self._options = options
        self._prepared_key = prepared_key
        # Which verb opens the cursor ("cluster_cursor" for peer-routed
        # or peer-dispatched opens) and extra frame fields riding the
        # open ("hop", "peers").  Fetching afterwards is op-agnostic:
        # a cursor id names the same registry either way.
        self._open_op = open_op
        self._open_extra = open_extra
        self._open_body: dict = {}
        # Optional shard restriction (the distributed coordinator's
        # {"scheme": ..., "cell": ...} wire form); rides on every cursor
        # open and count for this result set.
        self._shard = shard
        # Optional distributed trace context: the coordinator's trace id
        # plus its {"id", "shard", "attempt"} span descriptor; stamped on
        # every cursor open and count so the server executes under the
        # adopted context and its span subtree correlates back.
        self._trace_id = trace_id
        self._span = span
        self._server_stats: dict = {}
        self._cursor_id: Optional[int] = None  # opened at first fetch
        self._generation: Optional[int] = None  # connection it lives on
        self._variables = tuple(Variable(name) for name in meta["columns"])
        self._meta = meta
        self._buffer: Deque[Row] = deque()
        self._done = False
        self._closed = False
        self._gone: Optional[str] = None
        self._count: Optional[int] = None
        # A server cursor allows one fetch in flight (a stream has one
        # position); concurrent fetchmany calls on this result set
        # serialize here instead of tripping the server's busy-guard.
        self._fetch_lock = asyncio.Lock()

    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self._variables)

    @property
    def algorithm(self) -> str:
        return self._meta["algorithm"]

    @property
    def complete(self) -> bool:
        return self._done and not self._buffer

    def _page_size(self) -> int:
        return self._options.fetch_size or self._session.fetch_size

    async def _ensure_cursor(self) -> None:
        if self._cursor_id is None:
            if self._prepared_key is not None:
                body, generation = await self._session._prepared_send(
                    "cursor", self._prepared_key, self._text,
                    _options_payload(self._options)
                )
                self._cursor_id, self._generation = body["cursor"], generation
            else:
                body, self._generation = \
                    await self._session._open_cursor(
                        self._text, _options_payload(self._options),
                        shard=self._shard, trace_id=self._trace_id,
                        span=self._span, op=self._open_op,
                        extra=self._open_extra,
                    )
                self._cursor_id = body["cursor"]
                self._open_body = body

    async def _fetch(self, size: int) -> List[Row]:
        async with self._fetch_lock:
            return await self._fetch_page(size)

    async def _fetch_page(self, size: int) -> List[Row]:
        if self._closed:
            raise CursorError("this remote cursor was closed")
        if self._gone is not None:
            raise CursorError(self._gone)
        if self._done:
            # A concurrent fetch drained the stream while this one
            # waited on the lock.
            return []
        await self._ensure_cursor()
        if self._generation != self._session._generation:
            self._gone = (
                "the server-side cursor for this result set is gone: the "
                "connection was re-established (server restart or network "
                "failure) and cursors do not survive reconnection — "
                "re-run the query for a fresh result set"
            )
            raise CursorError(self._gone)
        try:
            response = await self._session._send(
                "fetch", {"cursor": self._cursor_id, "size": size})
        except (NetworkError, ProtocolError) as error:
            self._gone = (
                f"the server-side cursor for this result set is gone "
                f"({error}); a fetch is never retried — re-run the query "
                f"for a fresh result set"
            )
            raise CursorError(self._gone) from error
        try:
            body = _result(response)
        except AdmissionError:
            # Transient overload, rejected before the stream moved: the
            # cursor is untouched — fetch again when the queue drains.
            raise
        except ReproError:
            self._gone = (
                "the server-side cursor for this result set failed and "
                "was dropped by the server; re-run the query for a "
                "fresh result set"
            )
            raise
        rows = body["rows"]
        if body["done"]:
            self._done = True
            stats = body.get("stats") or {}
            self._server_stats = stats
            if stats.get("total") is not None:
                self._count = stats["total"]
        return rows

    def __aiter__(self):
        return self

    def _check_open(self) -> None:
        if self._closed and not self._done:
            raise CursorError(
                "this remote cursor was closed before it was drained; "
                "re-run the query for a fresh result set"
            )

    async def __anext__(self):
        if not self._buffer:
            self._check_open()
            if self._done:
                raise StopAsyncIteration
            self._buffer.extend(await self._fetch(self._page_size()))
            if not self._buffer:
                raise StopAsyncIteration
        return dict(zip(self._variables, self._buffer.popleft()))

    async def fetchmany(self, size: int = 1) -> List[Row]:
        """Up to ``size`` more rows; loops past the server's per-fetch
        clamp, so a short return only ever means end-of-answer."""
        out: List[Row] = []
        while self._buffer and len(out) < size:
            out.append(self._buffer.popleft())
        try:
            if len(out) < size:
                self._check_open()
            while len(out) < size and not self._done:
                page = await self._fetch(size - len(out))
                if not page:
                    break
                out.extend(page)
        except BaseException:
            # Rows already in hand go back to the buffer: a retried call
            # (e.g. after a transient AdmissionError) must not skip them.
            self._buffer.extendleft(reversed(out))
            raise
        return out

    async def fetchall(self) -> List[Row]:
        out: List[Row] = list(self._buffer)
        self._buffer.clear()
        try:
            self._check_open()
            while not self._done:
                out.extend(await self._fetch(self._page_size()))
        except BaseException:
            self._buffer.extendleft(reversed(out))
            raise
        return out

    async def count(self) -> int:
        if self._count is not None:
            return self._count
        if self._prepared_key is not None:
            body, _ = await self._session._prepared_send(
                "count", self._prepared_key, self._text,
                _options_payload(self._options)
            )
        else:
            op = ("cluster_count" if self._options.route == "peer"
                  else "count")
            params = {"query": self._text,
                      "options": _options_payload(self._options)}
            if op == "cluster_count":
                params["hop"] = 0
            if self._shard is not None:
                params["shard"] = self._shard
            if self._trace_id is not None:
                params["trace_id"] = self._trace_id
            if self._span is not None:
                params["span"] = self._span
            body = await self._session._request(op, **params)
        if body.get("trace") is not None:
            self._server_stats = dict(self._server_stats,
                                      trace=body["trace"])
        self._count = body["count"]
        return self._count

    @property
    def open_body(self) -> dict:
        """The raw cursor-open response body (peer opens carry gather
        summary scalars: shard map, hedges, coordinator)."""
        return self._open_body

    @property
    def server_stats(self) -> dict:
        """The final server-side stats (set once the stream drains)."""
        return self._server_stats

    @property
    def server_trace(self) -> Optional[dict]:
        """The server's span subtree, if the response carried one."""
        trace = self._server_stats.get("trace")
        return trace if isinstance(trace, dict) else None

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._buffer.clear()
        if self._cursor_id is not None and not self._done \
                and self._gone is None \
                and self._generation == self._session._generation:
            try:
                _result(await self._session._send(
                    "close", {"cursor": self._cursor_id}
                ))
            except (NetworkError, CursorError):
                pass


class AsyncRemoteSession:
    """An asyncio remote session that **multiplexes** one connection.

    Obtained from :func:`connect_async`.  Any number of requests may be
    in flight at once: each is written to the shared socket with a fresh
    id, a background reader task matches responses to their ids, and the
    server overlaps the work on its pool — so ``asyncio.gather`` over
    many ``session.run(...)`` / ``.count()`` calls pipelines them all
    through a single TCP connection.

    On a transport failure the session reconnects lazily and replays
    idempotent requests (:data:`IDEMPOTENT_OPS`) with exponential
    backoff, like the sync pool.  Open cursors do not survive a
    reconnect: their fetches raise :class:`CursorError`.
    """

    def __init__(self, url: str, *, options: Optional[QueryOptions] = None,
                 fetch_size: int = DEFAULT_FETCH_SIZE,
                 retries: int = DEFAULT_RETRIES,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 connect_timeout: float = 10.0) -> None:
        _validate_resilience_knobs(None, retries, retry_backoff)
        self.url = url
        self.defaults = options if options is not None else QueryOptions()
        self.fetch_size = max(1, int(fetch_size))
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self.connect_timeout = connect_timeout
        # (text, algorithm) -> (handle, connection generation).  Handles
        # are per-connection server state, so a reconnect (generation
        # bump) strands every mapping; _ensure_prepared re-prepares.
        self._prepared: Dict[Tuple[str, str], Tuple[int, int]] = {}
        self._reader = None
        self._writer = None
        self._reader_task = None
        self._pending: Dict[int, "asyncio.Future"] = {}
        self._conn_lock = None   # created on the running loop in _open
        self._write_lock = None
        self._next_id = 0
        self._generation = 0  # bumped per (re)connect; cursors pin one
        self._retries_attempted = 0
        self._closed = False
        self.server_info: dict = {}

    async def _open(self) -> "AsyncRemoteSession":
        import asyncio

        self._conn_lock = asyncio.Lock()
        self._write_lock = asyncio.Lock()
        try:
            await self._ensure_connected()
            self.server_info = await self._request("hello")
        except BaseException:
            # A failed handshake must not leak the transport or the
            # reader task out of a constructor the caller never got a
            # handle from (mirrors the sync constructor's pool close).
            self._closed = True
            await self._teardown_transport()
            raise
        return self

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    async def _ensure_connected(self) -> None:
        import asyncio

        async with self._conn_lock:
            if self._closed:
                raise NetworkError("this remote session is closed")
            if self._writer is not None and self._reader_task is not None \
                    and not self._reader_task.done():
                return
            await self._teardown_transport()
            host, port = parse_url(self.url)
            try:
                self._reader, self._writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port),
                    self.connect_timeout,
                )
            except (OSError, asyncio.TimeoutError) as error:
                raise NetworkError(
                    f"could not connect to {self.url}: {error}"
                ) from None
            self._generation += 1
            if self._generation > 1:
                # Anything past the first connect is a reconnect.
                global_registry().counter(
                    "repro_client_reconnects_total").inc()
            self._pending = {}
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop(self._reader, self._pending)
            )

    async def _read_loop(self, reader, pending: Dict[int, object]) -> None:
        """Match every inbound frame to its waiting request by id.

        This is the demultiplexer that makes pipelining work: responses
        arrive in completion order, not request order.  On any transport
        failure every in-flight request fails with the same error.
        """
        import asyncio

        missing = object()
        error: Optional[ReproError] = None
        bytes_counter = global_registry().counter("repro_client_bytes_total")

        async def counting_readexactly(size):
            data = await reader.readexactly(size)
            if data:
                bytes_counter.inc(len(data), direction="received")
            return data

        try:
            while True:
                frame = await protocol.read_frame_async(counting_readexactly)
                if frame is None:
                    error = NetworkError(
                        f"server at {self.url} closed the connection"
                    )
                    break
                future = pending.pop(frame.get("id"), missing)
                if future is missing:
                    error = ProtocolError(
                        f"response for unknown request id "
                        f"{frame.get('id')!r}"
                    )
                    break
                if future is None:
                    continue  # tombstone: the request was cancelled
                if not future.done():
                    future.set_result(frame)
        except ProtocolError as exc:
            error = exc
        except OSError as exc:
            error = NetworkError(f"connection to {self.url} failed: {exc}")
        except asyncio.CancelledError:
            error = NetworkError(f"connection to {self.url} was closed")
        finally:
            if error is None:  # pragma: no cover - belt and braces
                error = NetworkError(f"connection to {self.url} was lost")
            for future in list(pending.values()):
                if future is not None and not future.done():
                    future.set_exception(error)
            pending.clear()

    async def _send(self, op: str, params: dict) -> dict:
        """Write one frame and await its matched response (no retry)."""
        import asyncio

        if self._closed:
            raise NetworkError("this remote session is closed")
        if self._writer is None or self._reader_task is None \
                or self._reader_task.done():
            raise NetworkError(f"not connected to {self.url}")
        # Snapshot the transport: if a concurrent request triggers a
        # reconnect while this one waits on the write lock, writing to
        # the *old* (now closed) writer fails cleanly — never a frame on
        # the new connection whose response the new reader can't match.
        writer = self._writer
        pending = self._pending
        self._next_id += 1
        request_id = self._next_id
        future = asyncio.get_running_loop().create_future()
        pending[request_id] = future
        frame = {"id": request_id, "op": op, **params}
        try:
            async with self._write_lock:
                data = protocol.encode_frame(frame)
                writer.write(data)
                await writer.drain()
                global_registry().counter(
                    "repro_client_bytes_total"
                ).inc(len(data), direction="sent")
        except (OSError, RuntimeError) as error:
            pending.pop(request_id, None)
            raise NetworkError(
                f"connection to {self.url} failed: {error}"
            ) from None
        try:
            return await future
        except asyncio.CancelledError:
            if pending.get(request_id) is future:
                # Tombstone: the response is still on its way; the read
                # loop must discard it rather than treat it as protocol
                # desync (which would fail every other in-flight call).
                pending[request_id] = None
            raise

    async def _teardown_transport(self) -> None:
        import asyncio

        task, self._reader_task = self._reader_task, None
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def _retry_send(self, op: str, params: dict,
                          attempts: int) -> Tuple[dict, int]:
        """(Re)connect + send with bounded-backoff retry; the one retry
        loop every async request path shares.

        Returns the raw response and the connection *generation* it was
        exchanged on (cursor opens pin their cursor to it).  The
        ``hello`` handshake is additionally bounded by
        ``connect_timeout``: an endpoint that accepts TCP but never
        answers must not hang the client forever.
        """
        import asyncio

        delay = self.retry_backoff
        for attempt in range(attempts):
            try:
                await self._ensure_connected()
                generation = self._generation
                if op == "hello":
                    try:
                        response = await asyncio.wait_for(
                            self._send(op, params), self.connect_timeout
                        )
                    except asyncio.TimeoutError:
                        raise NetworkError(
                            f"server at {self.url} did not answer the "
                            f"handshake within {self.connect_timeout}s"
                        ) from None
                else:
                    response = await self._send(op, params)
            except (NetworkError, ProtocolError):
                if attempt + 1 >= attempts:
                    raise
                self._retries_attempted += 1
                global_registry().counter("repro_client_retries_total").inc()
                await asyncio.sleep(delay)
                delay = min(delay * 2, _MAX_RETRY_BACKOFF)
                continue
            return response, generation
        raise AssertionError("unreachable")  # pragma: no cover

    async def _request(self, op: str, **params) -> dict:
        """One request, reconnecting + retrying idempotent ops."""
        attempts = 1 + (self.retries if op in IDEMPOTENT_OPS else 0)
        response, _ = await self._retry_send(op, params, attempts)
        return _result(response)

    async def _open_cursor(self, text: str, payload: dict,
                           shard: Optional[dict] = None,
                           trace_id: Optional[str] = None,
                           span: Optional[dict] = None,
                           op: str = "cursor",
                           extra: Optional[dict] = None
                           ) -> Tuple[dict, int]:
        """Open a server cursor; returns (open body, connection
        generation) — ``body["cursor"]`` is the id.

        Retried like an idempotent op — a cursor whose open response was
        lost died with its connection, so a replay leaks nothing.
        ``shard`` (optional) restricts the cursor to one grid cell of a
        distributed partitioning; ``trace_id``/``span`` carry the
        coordinator's distributed trace context; ``op``/``extra`` select
        the open verb (``cluster_cursor``) and its extra frame fields
        (``hop``, ``peers``) for peer-coordinated opens.
        """
        params = {"query": text, "options": payload}
        if shard is not None:
            params["shard"] = shard
        if trace_id is not None:
            params["trace_id"] = trace_id
        if span is not None:
            params["span"] = span
        if extra:
            params.update(extra)
        response, generation = await self._retry_send(
            op, params, 1 + self.retries,
        )
        return _result(response), generation

    # ------------------------------------------------------------------
    # Prepared-statement plumbing
    # ------------------------------------------------------------------
    async def _ensure_prepared(self, key: Tuple[str, str], text: str,
                               payload: dict) -> int:
        """The handle for ``key`` on the *current* connection, preparing
        when the mapping is missing or pinned to a pre-reconnect
        generation.  Single attempt — the callers' retry loops own
        reconnection."""
        entry = self._prepared.get(key)
        if entry is not None and entry[1] == self._generation:
            return entry[0]
        body = _result(await self._send(
            "prepare", {"query": text, "options": payload}
        ))
        self._prepared[key] = (body["handle"], self._generation)
        return body["handle"]

    async def _prepared_send(self, op: str, key: Tuple[str, str],
                             text: str, payload: dict,
                             extra: Optional[dict] = None
                             ) -> Tuple[dict, int]:
        """Execute-by-handle with the standard retry loop plus one
        transparent re-prepare on :class:`PreparedError` (the server
        idle-expired or lost the handle while the connection lived).
        Returns the result body and the generation it was exchanged on.
        """
        import asyncio

        attempts = 1 + self.retries
        delay = self.retry_backoff
        for attempt in range(attempts):
            try:
                await self._ensure_connected()
                generation = self._generation
                handle = await self._ensure_prepared(key, text, payload)
                params = {"handle": handle, "options": payload}
                if extra:
                    params.update(extra)
                try:
                    body = _result(await self._send(op, params))
                except PreparedError:
                    self._prepared.pop(key, None)
                    params["handle"] = await self._ensure_prepared(
                        key, text, payload)
                    body = _result(await self._send(op, params))
            except (NetworkError, ProtocolError):
                if attempt + 1 >= attempts:
                    raise
                self._retries_attempted += 1
                global_registry().counter("repro_client_retries_total").inc()
                await asyncio.sleep(delay)
                delay = min(delay * 2, _MAX_RETRY_BACKOFF)
                continue
            return body, generation
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # The Session surface
    # ------------------------------------------------------------------
    def options(self, options: Optional[QueryOptions] = None,
                **overrides) -> QueryOptions:
        return QueryOptions.resolve(options, overrides,
                                    defaults=self.defaults)

    async def run(self, query, options: Optional[QueryOptions] = None,
                  **overrides) -> AsyncRemoteResultSet:
        """Open a server-side cursor for ``query``; nothing executes yet.

        ``route="peer"`` sends the peer-coordinated ``cluster_*`` ops
        (``hop=0``) so the server gathers from its fleet and merges
        before this hop.
        """
        opts = self.options(options, **overrides)
        text = str(query)
        if opts.route == "peer":
            meta = await self._request("cluster_run", query=text,
                                       options=_options_payload(opts),
                                       hop=0)
            return AsyncRemoteResultSet(self, text, opts, meta,
                                        open_op="cluster_cursor",
                                        open_extra={"hop": 0})
        meta = await self._request("run", query=text,
                                   options=_options_payload(opts))
        return AsyncRemoteResultSet(self, text, opts, meta)

    async def prepare(self, query, options: Optional[QueryOptions] = None,
                      **overrides) -> "AsyncRemotePreparedHandle":
        """Register ``query`` server-side and return a reusable handle.

        Parse/decompose/plan happen once, at prepare time; every
        subsequent ``handle.run()`` sends only the integer handle.  A
        reconnect strands server-side handles — the session re-prepares
        transparently on the next execute.
        """
        opts = self.options(options, **overrides)
        text = str(query)
        key = (text, opts.algorithm)
        response, generation = await self._retry_send(
            "prepare", {"query": text, "options": _options_payload(opts)},
            1 + self.retries,
        )
        meta = _result(response)
        self._prepared[key] = (meta["handle"], generation)
        return AsyncRemotePreparedHandle(self, text, opts, meta, key)

    async def explain(self, query, options: Optional[QueryOptions] = None,
                      **overrides) -> RemoteExplain:
        opts = self.options(options, **overrides)
        response = await self._request("explain", query=str(query),
                                       options=_options_payload(opts))
        return RemoteExplain(response["report"], response["rendered"])

    async def stats(self) -> dict:
        """Server counters plus this session's resilience accounting:
        retries attempted and reconnects (generation bumps past the
        first connect)."""
        response = await self._request("stats")
        stats = {key: response[key]
                 for key in ("connection", "cursors", "prepared", "service")}
        stats["client"] = {
            "retries": self._retries_attempted,
            "reconnects": max(0, self._generation - 1),
            "generation": self._generation,
        }
        return stats

    async def metrics(self) -> str:
        """The server's metrics registry in Prometheus text format."""
        return (await self._request("metrics"))["metrics"]

    async def events(self, limit: Optional[int] = None) -> List[dict]:
        """The server's flight-recorder ring, oldest first."""
        params = {} if limit is None else {"limit": int(limit)}
        return (await self._request("events", **params))["events"]

    async def close(self) -> None:
        if self._closed:
            return
        if self._writer is not None and self._reader_task is not None \
                and not self._reader_task.done():
            try:
                await self._send("goodbye", {})
            except (NetworkError, ProtocolError):
                pass
        self._closed = True
        await self._teardown_transport()

    async def __aenter__(self) -> "AsyncRemoteSession":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"AsyncRemoteSession({self.url!r}, {state})"


class AsyncRemotePreparedHandle:
    """A server-side prepared statement on an async session.

    Returned by :meth:`AsyncRemoteSession.prepare`.  ``run`` is a pure
    constructor — no frame travels until the result set is consumed,
    at which point the cursor opens by handle (never by text).
    """

    def __init__(self, session: AsyncRemoteSession, text: str,
                 options: QueryOptions, meta: dict,
                 key: Tuple[str, str]) -> None:
        self._session = session
        self._text = text
        self._options = options
        self._meta = meta
        self._key = key
        self._closed = False

    @property
    def text(self) -> str:
        return self._text

    @property
    def algorithm(self) -> str:
        return self._meta["algorithm"]

    async def run(self, options: Optional[QueryOptions] = None,
                  **overrides) -> AsyncRemoteResultSet:
        if self._closed:
            raise PreparedError("this prepared handle is closed")
        opts = self._session.options(
            options if options is not None else self._options, **overrides
        )
        return AsyncRemoteResultSet(self._session, self._text, opts,
                                    dict(self._meta),
                                    prepared_key=self._key)

    async def explain(self) -> RemoteExplain:
        return await self._session.explain(self._text, self._options)

    async def close(self) -> None:
        """Deallocate (best effort) and refuse further runs; idempotent."""
        if self._closed:
            return
        self._closed = True
        entry = self._session._prepared.pop(self._key, None)
        if entry is not None and entry[1] == self._session._generation:
            try:
                _result(await self._session._send(
                    "deallocate", {"handle": entry[0]}
                ))
            except (NetworkError, ProtocolError, ReproError):
                pass

    async def __aenter__(self) -> "AsyncRemotePreparedHandle":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"AsyncRemotePreparedHandle(text={self._text!r}, "
                f"algorithm={self.algorithm!r}, {state})")


async def connect_async(url: str, *,
                        algorithm: str = "auto",
                        parallel: Optional[int] = None,
                        partition_mode: str = "auto",
                        timeout: Optional[float] = None,
                        use_cache: bool = True,
                        limit: Optional[int] = None,
                        trace: bool = False,
                        route: Optional[str] = None,
                        fetch_size: int = DEFAULT_FETCH_SIZE,
                        retries: int = DEFAULT_RETRIES,
                        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                        connect_timeout: float = 10.0
                        ) -> AsyncRemoteSession:
    """Open an :class:`AsyncRemoteSession`: ``await repro.net.connect_async(...)``."""
    options = QueryOptions(
        algorithm=algorithm, parallel=parallel,
        partition_mode=partition_mode, timeout=timeout,
        use_cache=use_cache, limit=limit, trace=trace, route=route,
    )
    session = AsyncRemoteSession(url, options=options, fetch_size=fetch_size,
                                 retries=retries, retry_backoff=retry_backoff,
                                 connect_timeout=connect_timeout)
    return await session._open()
