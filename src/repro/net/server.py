""":class:`ReproServer` — the asyncio TCP front end over one shared service.

Every connection speaks the length-prefixed JSON protocol of
:mod:`repro.net.protocol` against one shared
:class:`~repro.service.QueryService`: all clients hit the *same* plan and
result caches, and every piece of blocking work (planning, cursor
fetches, counts, explains) runs on the service's worker pool — so the
pool's admission control backpressures remote clients exactly like local
ones, and the event loop itself never blocks on query execution.

Requests on one connection are **pipelined**: the read loop dispatches
every arriving frame as its own task (up to ``max_pipeline`` in flight),
so a client may send many requests without waiting and the responses
come back *as they complete* — out of order, matched by the request ids
already on the wire.  Fetches on one cursor stay serialized by the
registry's busy-guard (a stream has a single position); everything else
overlaps freely on the worker pool.

Results never ship whole.  A ``run`` opens a **server-side cursor** (a
lazy :class:`~repro.api.result.ResultSet` parked in the connection's
:class:`~repro.service.cursors.CursorRegistry`) and each ``fetch`` pulls
exactly the requested number of rows off the stream; idle cursors expire
on a background sweep so abandoned clients cannot pin executor state.

Shutdown is graceful: :meth:`ReproServer.run` installs SIGINT/SIGTERM
handlers that stop accepting connections, close every open cursor, and
return — the CLI then drains the worker pool by closing the service.

:class:`ServerThread` runs a server on a private event loop in a daemon
thread — the harness the tests and the remote-vs-local benchmark use to
stand up a real serving boundary in-process.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.api.result import ResultStats
from repro.api.session import Session
from repro.errors import (
    OptionsError,
    ProtocolError,
    ReproError,
    ServiceError,
    TimeoutExceeded,
)
from repro.exec.partitioner import Cell, Partitioner, PartitionScheme
from repro.net import columnar, protocol
from repro.obs.events import global_events
from repro.obs.logs import get_logger
from repro.obs.metrics import global_registry
from repro.service.cursors import CursorRegistry
from repro.service.prepared import PreparedRegistry
from repro.service.service import QueryService

_log = get_logger("net.server")

#: Default server port; unassigned in the IANA registry.
DEFAULT_PORT = 9944

#: Hard cap on one fetch request, protocol-level (cursors stay lazy, a
#: client wanting more issues more fetches).
MAX_FETCH_SIZE = 65536

#: Shard catalogs the server keeps warm for distributed coordinators —
#: one entry per (query, scheme, cell, catalog version), so repeated
#: shard executions skip re-filtering the input relations.
MAX_SHARD_SESSIONS = 32

#: Peer coordinators the server keeps alive, one per distinct peer list
#: (the configured ``--peers`` fleet plus any client-supplied lists).
MAX_PEER_COORDINATORS = 4


@dataclass
class ConnectionStats:
    """Per-connection counters, reported by the ``stats`` op."""

    requests: int = 0
    queries: int = 0
    counts: int = 0
    explains: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "queries": self.queries,
            "counts": self.counts,
            "explains": self.explains,
            "errors": self.errors,
        }


class _MergedRows:
    """A peer-merged answer wearing the server-cursor interface.

    The gather already materialized (the merge needs every shard), so
    this is a position over a list — but parking it in the connection's
    :class:`~repro.service.cursors.CursorRegistry` lets the client page
    it with ordinary ``fetch`` frames: ``fetchmany(k)`` ships O(k) rows
    on the final hop regardless of how much the peers sent the merging
    server, and the drain path (stats, stitched trace, slow-log
    observation) is shared with single-node cursors.
    """

    def __init__(self, rows, query: str, options: dict, info: dict,
                 meta: dict, plan) -> None:
        self._rows = list(rows)
        self._position = 0
        scheme = plan.scheme
        self.stats = ResultStats(
            query=query,
            algorithm=meta["algorithm"],
            requested_algorithm=meta.get("requested_algorithm",
                                         meta["algorithm"]),
            partitioning=scheme.key() if scheme is not None else "serial",
            shards=plan.shards,
            plan_cached=meta.get("plan_cached", False),
            result_cached=False,
            plan_seconds=0.0,
            execution_seconds=info.get("seconds") or 0.0,
            rows_delivered=0,
            complete=True,
            limit=options.get("limit"),
            total=len(self._rows),
            trace=info.get("trace"),
        )
        # _op_fetch's drain path forwards this to observe_query, which
        # correlates the merged query with the client's trace id.
        trace_id = info.get("trace_id")
        self._wire_context = {"trace_id": trace_id} if trace_id else {}

    def fetchmany(self, size: int):
        page = self._rows[self._position:self._position + size]
        self._position += len(page)
        return page

    @property
    def drained(self) -> bool:
        return self._position >= len(self._rows)

    def close(self) -> None:
        self._rows = []


class _Connection:
    """One client connection: cursors, prepared statements, counters,
    transport, in-flight tasks."""

    def __init__(self, cursor_ttl: Optional[float], max_cursors: int,
                 prepared_ttl: Optional[float], max_prepared: int,
                 writer: asyncio.StreamWriter) -> None:
        self.registry = CursorRegistry(ttl=cursor_ttl,
                                       max_cursors=max_cursors)
        self.prepared = PreparedRegistry(ttl=prepared_ttl,
                                         max_statements=max_prepared)
        self.stats = ConnectionStats()
        self.writer = writer
        # Responses from pipelined requests interleave on one socket;
        # the lock keeps each frame write atomic.
        self.write_lock = asyncio.Lock()
        self.tasks: Set[asyncio.Task] = set()


class ReproServer:
    """Serve a :class:`~repro.service.QueryService` over TCP.

    Parameters
    ----------
    service:
        The shared service; its session, caches, and worker pool are the
        execution surface for every connection.  The server borrows it —
        the caller closes it (which drains the pool) after :meth:`stop`.
    host / port:
        Bind address.  ``port=0`` picks an ephemeral port, readable from
        :attr:`port` (and :attr:`url`) after :meth:`start`.
    cursor_ttl:
        Idle expiry for server-side cursors, seconds (``None`` disables).
    max_cursors:
        Per-connection open-cursor bound.
    prepared_ttl:
        Idle expiry for prepared-statement handles, seconds (``None``
        disables).
    max_prepared:
        Per-connection prepared-statement bound.
    max_pipeline:
        Per-connection bound on pipelined (in-flight) requests; when a
        client has this many unanswered requests the read loop simply
        stops reading its socket until one completes, so TCP backpressure
        does the queueing instead of server memory.
    peers:
        Comma-separated ``host:port`` list naming the fleet this server
        belongs to (normally including itself).  Enables **peer
        coordination**: a ``cluster_*`` frame with ``hop=0`` makes this
        server sub-shard the query across the fleet (each sub-request
        stamped ``hop=1`` so receivers never re-fan-out) and merge the
        answers before replying — only the merged answer crosses back
        to the client.  ``None`` (the default) keeps the server a plain
        single-node endpoint; ``cluster_*`` frames then need an explicit
        ``peers`` list in the request.
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT, *,
                 cursor_ttl: Optional[float] = 300.0,
                 max_cursors: int = 64,
                 prepared_ttl: Optional[float] = 300.0,
                 max_prepared: int = 64,
                 max_pipeline: int = 32,
                 peers: Optional[str] = None) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.cursor_ttl = cursor_ttl
        self.max_cursors = max_cursors
        self.prepared_ttl = prepared_ttl
        self.max_prepared = max_prepared
        self.max_pipeline = max(1, int(max_pipeline))
        self.peers = peers
        # Peer coordinators, one per distinct peer list (LRU-bounded):
        # entries tuple -> PeerCoordinator.  Built lazily on the first
        # hop-0 cluster_* frame so plain servers pay nothing.
        self._peer_coordinators: "OrderedDict[tuple, object]" = OrderedDict()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._sweeper: Optional[asyncio.Task] = None
        # Shard-restricted execution state (the distributed coordinator's
        # server half): (text, scheme, cell, version) -> (Session over the
        # cell's catalog, rewritten per-atom-fragment query).
        self._shard_lock = threading.Lock()
        self._shard_sessions: "OrderedDict[tuple, Tuple[Session, object]]" \
            = OrderedDict()

    @property
    def url(self) -> str:
        # IPv6 bind addresses are bracketed so the printed URL feeds
        # straight back into parse_url / --connect.
        host = f"[{self.host}]" if ":" in self.host else self.host
        return f"repro://{host}:{self.port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        if self._server is not None:
            raise ServiceError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info("server listening on %s", self.url,
                  extra={"data": {"url": self.url}})
        ttls = [ttl for ttl in (self.cursor_ttl, self.prepared_ttl)
                if ttl is not None]
        if ttls:
            interval = max(0.05, min(ttls) / 4)
            self._sweeper = asyncio.get_running_loop().create_task(
                self._sweep_idle_cursors(interval)
            )

    async def stop(self) -> None:
        """Stop accepting, disconnect every client, close cursors; idempotent.

        Live client transports are closed *before* awaiting
        ``wait_closed()``: since Python 3.12.1 that call waits for every
        connection handler to finish, and a handler parked in
        ``readexactly`` on an idle client would otherwise block shutdown
        forever.
        """
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            for connection in list(self._connections):
                connection.writer.close()
            await self._server.wait_closed()
            self._server = None
            _log.info("server stopped", extra={"data": {"url": self.url}})
        for connection in list(self._connections):
            connection.registry.close_all()
            connection.prepared.close_all()
        coordinators = list(self._peer_coordinators.values())
        self._peer_coordinators.clear()
        for coordinator in coordinators:
            await coordinator.close()
        with self._shard_lock:
            shard_sessions = list(self._shard_sessions.values())
            self._shard_sessions.clear()
        for session, _ in shard_sessions:
            session.close()

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Start, run until ``stop`` is set, then shut down gracefully."""
        await self.start()
        try:
            await stop.wait()
        finally:
            await self.stop()

    def run(self, ready=None) -> None:
        """Block serving until SIGINT/SIGTERM; shut down gracefully.

        ``ready`` (optional) is called once the socket is bound — the CLI
        prints the URL from it, which matters with ``port=0``.
        """
        asyncio.run(self._run_with_signals(ready))

    async def _run_with_signals(self, ready) -> None:
        import signal

        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                # Platforms/threads without loop signal support fall back
                # to KeyboardInterrupt, handled by asyncio.run's cleanup.
                pass
        try:
            await self.start()
            if ready is not None:
                ready(self)
            await stop.wait()
        finally:
            await self.stop()
            for signum in installed:
                loop.remove_signal_handler(signum)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Read frames and dispatch each as its own task (pipelining).

        The loop never waits for a response before reading the next
        frame: a client may keep ``max_pipeline`` requests in flight on
        one connection, their blocking work overlaps on the service's
        worker pool, and each response is written the moment it is ready
        — out of order, matched by request id.
        """
        connection = _Connection(self.cursor_ttl, self.max_cursors,
                                 self.prepared_ttl, self.max_prepared,
                                 writer)
        self._connections.add(connection)
        limiter = asyncio.Semaphore(self.max_pipeline)

        async def counted_readexactly(size: int) -> bytes:
            # Counting wrapper: every byte read off the socket — length
            # prefixes included — lands on the bytes-in counter.
            data = await reader.readexactly(size)
            global_registry().counter("repro_server_bytes_total").inc(
                len(data), direction="in"
            )
            return data

        try:
            while True:
                try:
                    frame = await protocol.read_frame_async(counted_readexactly)
                except ProtocolError:
                    break  # peer is speaking garbage; cut the connection
                if frame is None:
                    break
                global_registry().counter("repro_server_frames_total").inc(
                    direction="in", op=self._op_label(frame.get("op"))
                )
                await limiter.acquire()
                task = asyncio.get_running_loop().create_task(
                    self._serve_frame(connection, frame, limiter)
                )
                connection.tasks.add(task)
                task.add_done_callback(connection.tasks.discard)
                if frame.get("op") == "goodbye":
                    break  # stop reading; in-flight responses still flush
            if connection.tasks:
                await asyncio.gather(*list(connection.tasks),
                                     return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            for task in list(connection.tasks):
                task.cancel()
            connection.registry.close_all()
            connection.prepared.close_all()
            self._connections.discard(connection)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                # Loop teardown may cancel us during this last await (a
                # peer coordinator's connection can outlive stop());
                # everything is already closed, so finish cleanly rather
                # than surface a cancelled handler task.
                pass

    @classmethod
    def _op_label(cls, op: object) -> str:
        """Clamp the op to the known set so label cardinality is bounded."""
        return op if isinstance(op, str) and op in cls._OPS else "unknown"

    async def _serve_frame(self, connection: _Connection, frame: dict,
                           limiter: asyncio.Semaphore) -> None:
        """Dispatch one pipelined frame and write its response."""
        registry = global_registry()
        inflight = registry.gauge("repro_server_inflight")
        inflight.inc()
        try:
            response = await self._dispatch(connection, frame)
            page = frame.get("op") == "fetch" and response.get("ok")
            try:
                if page:
                    rows = response.pop("rows")
                    meta, blocks = columnar.encode_columns(rows)
                    payload = protocol.encode_binary_frame(
                        dict(response, cols=meta, n=len(rows)), blocks
                    )
                else:
                    payload = protocol.encode_frame(response)
            except (ProtocolError, TypeError, ValueError) as error:
                # An unencodable response (oversized frame, stray
                # non-JSON value) must come back as an error
                # envelope, not kill the connection.
                connection.stats.errors += 1
                payload = protocol.encode_frame(protocol.error_response(
                    frame.get("id"),
                    ProtocolError(
                        f"response could not be encoded: {error}"
                    ),
                ))
                page = False
            if page:
                registry.histogram("repro_wire_fetch_payload_bytes").observe(
                    len(payload) - 4
                )
            registry.counter("repro_server_frames_total").inc(
                direction="out", op=self._op_label(frame.get("op"))
            )
            registry.counter("repro_server_bytes_total").inc(
                len(payload), direction="out"
            )
            async with connection.write_lock:
                connection.writer.write(payload)
                await connection.writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass  # peer vanished mid-write; the read loop tears down
        finally:
            inflight.dec()
            limiter.release()

    async def _sweep_idle_cursors(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            for connection in list(self._connections):
                connection.registry.expire_idle()
                connection.prepared.expire_idle()

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, connection: _Connection, frame: dict) -> dict:
        request_id = frame.get("id")
        connection.stats.requests += 1
        try:
            handler = self._OPS.get(frame.get("op"))
            if handler is None:
                raise ProtocolError(f"unknown op {frame.get('op')!r}")
            body = await handler(self, connection, frame)
            return protocol.ok_response(request_id, **body)
        except ReproError as error:
            connection.stats.errors += 1
            return protocol.error_response(request_id, error)
        except Exception as error:  # never kill the connection on a bug
            connection.stats.errors += 1
            return protocol.error_response(
                request_id, ReproError(f"internal server error: {error}")
            )

    async def _call(self, fn, *args):
        """Run blocking work on the service's worker pool.

        Admission control applies: a full queue raises
        :class:`~repro.errors.AdmissionError` here, which goes back to
        the client as an ``admission`` error envelope.
        """
        future = self.service.pool.submit(fn, *args)
        return await asyncio.wrap_future(future)

    @staticmethod
    def _query_and_options(frame: dict):
        query = frame.get("query")
        if not isinstance(query, str) or not query:
            raise ProtocolError("request needs a non-empty 'query' string")
        options = frame.get("options") or {}
        if not isinstance(options, dict):
            raise ProtocolError("'options' must be a JSON object")
        return query, options

    @staticmethod
    def _handle_id(frame: dict) -> int:
        handle = frame.get("handle")
        if isinstance(handle, bool) or not isinstance(handle, int):
            raise ProtocolError("'handle' must be an integer id")
        return handle

    def _query_or_handle(self, connection: _Connection, frame: dict):
        """Resolve the request's query: prepared handle or raw text.

        Executing by handle hands the session the compiled
        :class:`~repro.engine.PreparedQuery` — no parse, no analysis —
        which is the entire point of preparing.
        """
        if frame.get("handle") is not None:
            statement = connection.prepared.resolve(self._handle_id(frame))
            query = statement.query
        else:
            query = frame.get("query")
            if not isinstance(query, str) or not query:
                raise ProtocolError(
                    "request needs a non-empty 'query' string or a "
                    "prepared 'handle'"
                )
        options = frame.get("options") or {}
        if not isinstance(options, dict):
            raise ProtocolError("'options' must be a JSON object")
        return query, options

    @staticmethod
    def _adopt_trace_id(result_set, frame: dict) -> None:
        """Carry a client-chosen trace id into the server-side span tree."""
        trace_id = frame.get("trace_id")
        if isinstance(trace_id, str) and trace_id:
            result_set.adopt_trace_id(trace_id)

    @staticmethod
    def _span_context(frame: dict, shard=None) -> dict:
        """The coordinator-stamped shard span context of one request.

        A distributed dispatch carries ``span = {"id", "shard",
        "attempt"}`` next to ``trace_id``; hedges and re-routes of the
        same logical shard reuse the span id with distinct attempt
        tags, which is what lets two servers' logs correlate.
        """
        context: dict = {}
        trace_id = frame.get("trace_id")
        if isinstance(trace_id, str) and trace_id:
            context["trace_id"] = trace_id
        span = frame.get("span")
        if isinstance(span, dict):
            span_id = span.get("id")
            if isinstance(span_id, str) and span_id:
                context["span_id"] = span_id
            index = span.get("shard")
            if isinstance(index, int) and not isinstance(index, bool):
                context["shard"] = index
            attempt = span.get("attempt")
            if isinstance(attempt, str) and attempt:
                context["attempt"] = attempt
        if shard is not None:
            context["cell"] = str(tuple(shard[1]))
        return context

    @staticmethod
    def _adopt_span_context(result_set, context: dict) -> None:
        """Stamp the shard span context onto the server-side trace root."""
        annotations = {key: context[key]
                       for key in ("span_id", "shard", "attempt", "cell")
                       if key in context}
        if annotations:
            result_set.annotate_trace(**annotations)

    # -- shard-restricted execution -------------------------------------
    @staticmethod
    def _shard_request(frame: dict
                       ) -> Optional[Tuple[PartitionScheme, Cell]]:
        """Parse and validate an optional ``shard`` request parameter.

        A distributed coordinator constrains ``cursor`` / ``count`` to one
        grid cell by sending ``{"scheme": PartitionScheme.to_wire(),
        "cell": [...]}``; plain requests carry no ``shard`` key.
        """
        shard = frame.get("shard")
        if shard is None:
            return None
        if not isinstance(shard, dict):
            raise ProtocolError(
                "'shard' must be an object with 'scheme' and 'cell'"
            )
        scheme = PartitionScheme.from_wire(shard.get("scheme"))
        return scheme, scheme.validate_cell(shard.get("cell"))

    def _shard_run(self, query, opts, scheme: PartitionScheme, cell: Cell):
        """Evaluate the shard of ``query`` that lives in grid cell ``cell``.

        Runs on the worker pool.  The shard evaluates in a *dedicated*
        session over the cell's catalog — never through the shared
        service session — because the shared result cache keys on query
        text and a one-cell answer stored under the full query's text
        would poison every later client.  Per-cell sessions are cached
        (keyed by catalog version, so data changes invalidate) and the
        per-atom-fragment rewrite makes the cell's answer exactly the
        cell's slice of the serial answer.
        """
        prepared = self.service.session.engine.prepare(query, opts.algorithm)
        key = (prepared.text, scheme.key(), cell,
               self.service.database.version)
        with self._shard_lock:
            entry = self._shard_sessions.get(key)
            if entry is not None:
                self._shard_sessions.move_to_end(key)
        if entry is None:
            partitioner = Partitioner(prepared.query, scheme)
            shard_db = partitioner.shard_database(
                self.service.database, cell
            )
            entry = (Session(shard_db), partitioner.rewritten_query)
            with self._shard_lock:
                existing = self._shard_sessions.get(key)
                if existing is not None:  # lost a build race; keep theirs
                    entry[0].close()
                    entry = existing
                    self._shard_sessions.move_to_end(key)
                else:
                    self._shard_sessions[key] = entry
                    while len(self._shard_sessions) > MAX_SHARD_SESSIONS:
                        _, (old, _) = self._shard_sessions.popitem(last=False)
                        old.close()
        session, rewritten = entry
        global_registry().counter("repro_dist_shards_total").inc(
            event="served"
        )
        return session.run(rewritten, opts)

    # -- ops ------------------------------------------------------------
    async def _op_hello(self, connection: _Connection, frame: dict) -> dict:
        import repro

        return {
            "server": "repro",
            "protocol": protocol.PROTOCOL_VERSION,
            "version": repro.__version__,
            "relations": sorted(self.service.database.names()),
        }

    async def _op_run(self, connection: _Connection, frame: dict) -> dict:
        """Validate and plan; no cursor, no execution, no held state.

        The client opens a cursor (the ``cursor`` op) only when it first
        fetches — so count-only and never-consumed result sets pin
        nothing on the server, mirroring the local laziness contract.
        """
        query, options = self._query_and_options(frame)

        def plan_only():
            opts = self.service.session.options(**options)
            return self.service.session.run(query, opts)

        result_set = await self._call(plan_only)
        connection.stats.queries += 1
        return {
            "columns": list(result_set.columns),
            "algorithm": result_set.algorithm,
            "requested_algorithm":
                result_set.plan.prepared.requested_algorithm,
            "shards": result_set.shards,
            "partitioning": result_set.plan.partition_key(),
            "plan_cached": result_set.stats.plan_cached,
        }

    async def _op_cursor(self, connection: _Connection, frame: dict) -> dict:
        """Open a server-side cursor: the lazy stream the client pages."""
        query, options = self._query_or_handle(connection, frame)
        shard = self._shard_request(frame)
        context = self._span_context(frame, shard)
        received = time.perf_counter()

        def open_cursor():
            queue_wait = time.perf_counter() - received
            opts = self.service.session.options(**options)
            if shard is not None:
                result_set = self._shard_run(query, opts, *shard)
            else:
                result_set = self.service.session.run(query, opts)
            self._adopt_trace_id(result_set, frame)
            self._adopt_span_context(result_set, context)
            result_set.record_queue_wait(queue_wait)
            # _op_fetch observes the query when the cursor drains; the
            # dispatch context must survive until then.
            result_set._wire_context = context
            return connection.registry.open(result_set)

        cursor = await self._call(open_cursor)
        return {"cursor": cursor.cursor_id}

    async def _op_fetch(self, connection: _Connection, frame: dict) -> dict:
        cursor_id = frame.get("cursor")
        size = frame.get("size")
        if not isinstance(cursor_id, int):
            raise ProtocolError("'cursor' must be an integer id")
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise ProtocolError(f"'size' must be a positive int, got {size!r}")
        size = min(size, MAX_FETCH_SIZE)
        rows, done, cursor = await self._call(
            connection.registry.fetch, cursor_id, size
        )
        # _serve_frame packs the row tuples column-major into a binary
        # frame.
        body = {"rows": rows, "done": done}
        if done:
            stats = cursor.result_set.stats
            body["stats"] = {
                "result_cached": stats.result_cached,
                "execution_seconds": stats.execution_seconds,
                "total": stats.total,
            }
            trace = getattr(stats, "trace", None)
            if trace is not None:
                body["stats"]["trace"] = trace
            # A drained cursor is one completed streamed query; remote
            # queries never pass through QueryService.execute, so this
            # is where they land on the request metrics and slow log.
            context = getattr(cursor.result_set, "_wire_context", None) or {}
            self.service.observe_query(
                query=stats.query,
                seconds=stats.plan_seconds + stats.execution_seconds,
                mode="tuples", algorithm=stats.algorithm, trace=trace,
                **context,
            )
        return body

    async def _op_close(self, connection: _Connection, frame: dict) -> dict:
        cursor_id = frame.get("cursor")
        if not isinstance(cursor_id, int):
            raise ProtocolError("'cursor' must be an integer id")
        return {"closed": connection.registry.close(cursor_id)}

    async def _op_count(self, connection: _Connection, frame: dict) -> dict:
        query, options = self._query_or_handle(connection, frame)
        shard = self._shard_request(frame)
        context = self._span_context(frame, shard)
        received = time.perf_counter()

        def count():
            queue_wait = time.perf_counter() - received
            opts = self.service.session.options(**options)
            started = time.perf_counter()
            if shard is not None:
                result_set = self._shard_run(query, opts, *shard)
            else:
                result_set = self.service.session.run(query, opts)
            self._adopt_trace_id(result_set, frame)
            self._adopt_span_context(result_set, context)
            try:
                value = result_set.count()
            except ReproError as error:
                self.service.observe_query(
                    query=result_set.query_text,
                    seconds=time.perf_counter() - started,
                    mode="count", algorithm=result_set.algorithm,
                    outcome="timeout" if isinstance(error, TimeoutExceeded)
                    else "error",
                    **context,
                )
                raise
            result_set.record_queue_wait(queue_wait)
            self.service.observe_query(
                query=result_set.query_text,
                seconds=time.perf_counter() - started,
                mode="count", algorithm=result_set.algorithm,
                trace=result_set.stats.trace,
                **context,
            )
            return value, result_set

        value, result_set = await self._call(count)
        connection.stats.counts += 1
        stats = result_set.stats
        body = {
            "count": value,
            "algorithm": result_set.algorithm,
            "shards": result_set.shards,
            "result_cached": stats.result_cached,
            "plan_cached": stats.plan_cached,
            "execution_seconds": stats.execution_seconds,
        }
        trace = getattr(stats, "trace", None)
        if trace is not None:
            body["trace"] = trace
        return body

    async def _op_prepare(self, connection: _Connection,
                          frame: dict) -> dict:
        """Compile a query shape once; return its per-connection handle.

        Idempotent: re-preparing the same (query, algorithm) returns the
        existing handle.  The response carries the same plan metadata as
        ``run`` so the client can build result sets for handle executes
        without another round trip.
        """
        query, options = self._query_and_options(frame)

        def prepare():
            opts = self.service.session.options(**options)
            statement = connection.prepared.register(
                query, opts.algorithm,
                lambda: self.service.session.engine.prepare(
                    query, opts.algorithm
                ),
            )
            # Plan through the session so the plan cache is warmed under
            # the prepared text — every execute after this is a plan-
            # cache hit.
            result_set = self.service.session.run(statement.query, opts)
            return statement, result_set

        statement, result_set = await self._call(prepare)
        return {
            "handle": statement.handle,
            "columns": list(result_set.columns),
            "algorithm": result_set.algorithm,
            "requested_algorithm":
                result_set.plan.prepared.requested_algorithm,
            "shards": result_set.shards,
            "partitioning": result_set.plan.partition_key(),
            "plan_cached": result_set.stats.plan_cached,
        }

    async def _op_deallocate(self, connection: _Connection,
                             frame: dict) -> dict:
        return {
            "deallocated":
                connection.prepared.deallocate(self._handle_id(frame)),
        }

    async def _op_explain(self, connection: _Connection,
                          frame: dict) -> dict:
        query, options = self._query_and_options(frame)

        def explain():
            opts = self.service.session.options(**options)
            return self.service.session.explain(query, opts)

        report = await self._call(explain)
        connection.stats.explains += 1
        return {"report": report.as_dict(), "rendered": report.render()}

    async def _op_stats(self, connection: _Connection, frame: dict) -> dict:
        return {
            "connection": connection.stats.as_dict(),
            "cursors": connection.registry.stats.as_dict(),
            "prepared": connection.prepared.stats.as_dict(),
            "service": self.service.stats().as_dict(),
        }

    async def _op_metrics(self, connection: _Connection,
                          frame: dict) -> dict:
        """The process-wide metrics registry in Prometheus text format."""
        return {"metrics": global_registry().render()}

    async def _op_events(self, connection: _Connection,
                         frame: dict) -> dict:
        """The flight recorder's recent query events, oldest first.

        ``limit`` must be a positive int (or absent for the full ring):
        a zero or negative limit is an options error — it would silently
        select nothing or everything, and the CLI maps it to the
        bad-options exit code instead of guessing.
        """
        limit = frame.get("limit")
        if limit is not None and (isinstance(limit, bool)
                                  or not isinstance(limit, int)
                                  or limit < 1):
            raise OptionsError(
                f"events limit must be a positive int, got {limit!r}"
            )
        return {"events": global_events().snapshot(limit)}

    # -- peer coordination ----------------------------------------------
    def _peer_entries(self, frame_peers) -> tuple:
        """Resolve the peer topology one ``cluster_*`` frame targets.

        The frame's ``peers`` list wins (it names the fleet the *client*
        was configured with); otherwise the server's own ``--peers``
        configuration applies; a plain server with neither cannot
        coordinate and says so as an options error.
        """
        if frame_peers is not None:
            if (not isinstance(frame_peers, list) or not frame_peers
                    or not all(isinstance(peer, str) and peer
                               for peer in frame_peers)):
                raise ProtocolError(
                    "'peers' must be a non-empty list of 'host:port' "
                    "strings"
                )
            return tuple(frame_peers)
        if self.peers:
            return tuple(self.peers.split(","))
        raise OptionsError(
            "this server has no peer topology; start it with "
            "--peers h1:p1,h2:p2 or send a 'peers' list in the request"
        )

    def _peer_coordinator(self, frame_peers):
        """The (cached) coordinator for one peer list; LRU-bounded."""
        # Imported lazily: repro.dist.gather imports the client module,
        # which imports this one for DEFAULT_PORT.
        from repro.dist.gather import PeerCoordinator

        entries = self._peer_entries(frame_peers)
        coordinator = self._peer_coordinators.get(entries)
        if coordinator is not None:
            self._peer_coordinators.move_to_end(entries)
            return coordinator
        coordinator = PeerCoordinator(self.service, entries)
        self._peer_coordinators[entries] = coordinator
        while len(self._peer_coordinators) > MAX_PEER_COORDINATORS:
            _, old = self._peer_coordinators.popitem(last=False)
            asyncio.get_running_loop().create_task(old.close())
        return coordinator

    @staticmethod
    def _hop_of(frame: dict) -> int:
        """The frame's fan-out hop count: 0 fans out, ≥ 1 never does."""
        hop = frame.get("hop", 0)
        if isinstance(hop, bool) or not isinstance(hop, int) or hop < 0:
            raise ProtocolError(
                f"'hop' must be a non-negative int, got {hop!r}"
            )
        return hop

    @staticmethod
    def _gather_scalars(info: dict, plan, meta: dict) -> dict:
        """The merge summary every hop-0 ``cluster_*`` response carries."""
        scheme = plan.scheme
        body = {
            "algorithm": meta["algorithm"],
            "shards": plan.shards,
            "partitioning": scheme.key() if scheme is not None
            else "serial",
            "seconds": info.get("seconds"),
            "shard_map": info.get("shard_map") or {},
            "hedges": info.get("hedges", 0),
            "reroutes": info.get("reroutes", 0),
            "trace_id": info.get("trace_id"),
            "fanout": True,
        }
        return body

    async def _op_cluster_run(self, connection: _Connection,
                              frame: dict) -> dict:
        """Peer-coordinated ``run``: plan-only, like its single-node twin.

        At ``hop >= 1`` this *is* the single-node op — a peer that
        receives a forwarded frame executes locally and never re-fans
        out, whatever the topology claims.
        """
        if self._hop_of(frame) >= 1:
            body = await self._op_run(connection, frame)
            global_registry().counter("repro_peer_total").inc(event="leaf")
            return dict(body, route="leaf", fanout=False)
        query, options = self._query_and_options(frame)
        coordinator = self._peer_coordinator(frame.get("peers"))
        return await coordinator.describe(query, options)

    async def _op_cluster_count(self, connection: _Connection,
                                frame: dict) -> dict:
        """Peer-coordinated count: per-shard counts summed *here*.

        The merge happens before the final hop, so the client receives
        one integer no matter how many peers answered.
        """
        if self._hop_of(frame) >= 1:
            body = await self._op_count(connection, frame)
            global_registry().counter("repro_peer_total").inc(event="leaf")
            return dict(body, fanout=False)
        query, options = self._query_and_options(frame)
        coordinator = self._peer_coordinator(frame.get("peers"))
        value, info, meta, plan = await coordinator.gather(
            "count", query, options, frame.get("trace_id"),
        )
        connection.stats.counts += 1
        body = dict(self._gather_scalars(info, plan, meta), count=value)
        if info.get("trace") is not None:
            body["trace"] = info["trace"]
        return body

    async def _op_cluster_cursor(self, connection: _Connection,
                                 frame: dict) -> dict:
        """Peer-coordinated cursor: gather, merge, then stream the
        *merged* answer through the normal cursor registry.

        The client pages the merged rows with plain ``fetch`` frames, so
        ``fetchmany(k)`` moves O(k) rows on the final hop even when the
        peers shipped far more to the merging server.  The stitched
        gather trace rides the drained cursor's stats, exactly like a
        single-node traced query.
        """
        if self._hop_of(frame) >= 1:
            body = await self._op_cursor(connection, frame)
            global_registry().counter("repro_peer_total").inc(event="leaf")
            return dict(body, fanout=False)
        query, options = self._query_and_options(frame)
        coordinator = self._peer_coordinator(frame.get("peers"))
        rows, info, meta, plan = await coordinator.gather(
            "rows", query, options, frame.get("trace_id"),
        )
        connection.stats.queries += 1
        merged = _MergedRows(rows, query, options, info, meta, plan)
        cursor = connection.registry.open(merged)
        return dict(self._gather_scalars(info, plan, meta),
                    cursor=cursor.cursor_id)

    async def _op_goodbye(self, connection: _Connection,
                          frame: dict) -> dict:
        connection.registry.close_all()
        connection.prepared.close_all()
        return {"goodbye": True}

    _OPS = {
        "hello": _op_hello,
        "run": _op_run,
        "prepare": _op_prepare,
        "deallocate": _op_deallocate,
        "cursor": _op_cursor,
        "fetch": _op_fetch,
        "close": _op_close,
        "count": _op_count,
        "explain": _op_explain,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "events": _op_events,
        "cluster_run": _op_cluster_run,
        "cluster_count": _op_cluster_count,
        "cluster_cursor": _op_cluster_cursor,
        "goodbye": _op_goodbye,
    }


class ServerThread:
    """A :class:`ReproServer` on a private event loop in a daemon thread.

    The test-and-benchmark harness for standing up a real serving
    boundary in-process::

        with QueryService(database) as service:
            with ServerThread(service) as server:
                with RemoteSession(server.url) as session:
                    session.run("edge(a,b), edge(b,c)").fetchmany(10)

    ``port`` defaults to 0 (ephemeral); the bound URL is :attr:`url`.
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0, **server_kwargs) -> None:
        self.server = ReproServer(service, host, port, **server_kwargs)
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-net-server", daemon=True
        )

    @property
    def url(self) -> str:
        return self.server.url

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surfaced to start()'s caller
            self._startup_error = error
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:
            self._startup_error = error
            self._started.set()
            return
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await self.server.stop()

    def start(self) -> "ServerThread":
        """Start the thread and wait until the socket is bound."""
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._started.is_set():
            raise ServiceError("server thread did not start within 30s")
        return self

    def stop(self) -> None:
        """Request shutdown and join the thread; idempotent."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
