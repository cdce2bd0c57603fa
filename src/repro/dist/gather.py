"""The side-agnostic distributed gather engine.

:class:`GatherEngine` is the core that PR 8's client-side coordinator
was welded to: shard dispatch over multiplexed
:class:`~repro.net.client.AsyncRemoteSession` sockets, per-shard
deadlines, hedged re-dispatch, mid-gather re-route, merge under the
:mod:`repro.dist.merge` laws, and trace stitching.  It is pure asyncio
and runs wherever an event loop already lives:

* :class:`~repro.dist.coordinator.ClusterSession` drives it from a
  private loop thread — the classic client-side coordinator
  (``route="client"``).
* :class:`PeerCoordinator` drives it from a
  :class:`~repro.net.server.ReproServer`'s own loop — any server with a
  ``--peers`` topology can accept a whole cluster query
  (``cluster_run`` / ``cluster_count`` / ``cluster_cursor`` ops),
  sub-shard it across the fleet, and merge *server-side*, so only the
  merged answer crosses the final hop to the client
  (``route="peer"``).

Loop avoidance: when the engine runs inside a peer
(``peer_dispatch=True``), every sub-shard it dispatches goes out as a
``cluster_*`` frame with ``hop=1``; receiving servers refuse to
re-fan-out a frame with ``hop >= 1`` and execute the shard locally, so
a cluster query visits the fleet exactly once no matter how the peer
lists are wired.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.options import QueryOptions
from repro.datalog.hypergraph import Hypergraph
from repro.datalog.parser import parse_query
from repro.datalog.query import ConjunctiveQuery
from repro.errors import (
    CursorError,
    NetworkError,
    OptionsError,
    ProtocolError,
    ReproError,
)
from repro.exec.partitioner import Cell, PartitionScheme
from repro.net.client import (
    DEFAULT_FETCH_SIZE,
    DEFAULT_RETRIES,
    DEFAULT_RETRY_BACKOFF,
    AsyncRemoteResultSet,
    AsyncRemoteSession,
    _options_payload,
    parse_cluster_url,
)
from repro.obs.events import global_events
from repro.obs.fleet import ShardRecord, server_label, stitch_trace
from repro.obs.metrics import global_registry
from repro.obs.trace import new_trace_id
from repro.dist.merge import merge_counts, merge_rows, straggler_ratio
from repro.dist.planner import DistPlan, plan_query
from repro.dist.topology import ServerState, Topology

#: Errors that mean "this server (or this stream) is unusable" — the
#: only ones that mark a server down and re-route its shards.  Every
#: other ReproError (parse, options, timeout, execution) is the query's
#: own fault and must propagate with single-server fidelity.
_FAILOVER_ERRORS = (NetworkError, ProtocolError, CursorError)

#: Bound on the per-query planning-info cache (β-acyclicity + sizes).
_INFO_CACHE_SIZE = 128


def _endpoint_url(host: str, port: int) -> str:
    """One endpoint back to canonical single-server URL form."""
    if ":" in host:  # IPv6 literal — re-bracket
        return f"repro://[{host}]:{port}"
    return f"repro://{host}:{port}"


def parse_peers(entries: Sequence[str]) -> List[str]:
    """``host:port`` peer entries → canonical ``repro://`` URLs.

    This is the one grammar for both ``repro server --peers`` and the
    ``peers`` field of a ``cluster_*`` wire frame; it reuses the strict
    cluster-URL parser, so trailing commas, whitespace, and duplicate
    servers fail with the same errors a bad ``--cluster`` URL would.
    """
    if not entries:
        raise OptionsError(
            "peer list is empty; configure the fleet with "
            "--peers h1:p1,h2:p2 or send a non-empty 'peers' list"
        )
    cluster = "repro://" + ",".join(str(entry) for entry in entries)
    return [_endpoint_url(host, port)
            for host, port in parse_cluster_url(cluster)]


@dataclass(frozen=True)
class _QueryInfo:
    """Locally derived planning facts for one query text."""

    query: ConjunctiveQuery
    beta_acyclic: bool
    sizes: Dict[int, int]  # atom index -> relation cardinality


@dataclass(frozen=True)
class GatherContext:
    """Distributed trace context threaded through one gather.

    ``trace_id`` is always generated — even untraced queries carry it so
    server-side flight-recorder events correlate; the full span stitch
    only happens when ``traced`` (``QueryOptions.trace``) is on.
    """

    trace_id: str
    traced: bool


def resolve_query(query: object, text: str) -> ConjunctiveQuery:
    if isinstance(query, ConjunctiveQuery):
        return query
    inner = getattr(query, "query", None)  # PreparedQuery duck-type
    if isinstance(inner, ConjunctiveQuery):
        return inner
    return parse_query(text)


class GatherEngine:
    """Shard dispatch / hedge / re-route / merge over one topology.

    Parameters
    ----------
    topology:
        The fleet this engine fans out over; health state lives here.
    defaults:
        Session-default :class:`QueryOptions` handed to each underlying
        :class:`AsyncRemoteSession`.
    hedge_after / shard_deadline:
        Straggler policy — duplicate a shard to a sibling after
        ``hedge_after`` seconds (first answer wins), fail-and-re-route a
        shard that misses ``shard_deadline``.
    retries / retry_backoff / connect_timeout / fetch_size:
        Per-server resilience knobs for the underlying sessions.
    source:
        The flight-recorder source tag for this engine's gather events:
        ``"coordinator"`` client-side, ``"peer"`` server-side.
    peer_dispatch:
        When true, sub-shards go out as ``cluster_count`` /
        ``cluster_cursor`` frames stamped ``hop=1`` and carrying the
        peer list, so the receiving server executes the shard locally
        instead of re-fanning-out (loop avoidance).
    statistics:
        Optional async ``text -> explain-report body | None`` used for
        share weighting.  ``None`` means "ask any server over the wire"
        (the client-side default); a peer passes a local-service probe
        so planning costs no extra network hop.
    """

    def __init__(self, topology: Topology, *,
                 defaults: Optional[QueryOptions] = None,
                 fetch_size: int = DEFAULT_FETCH_SIZE,
                 retries: int = DEFAULT_RETRIES,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 connect_timeout: float = 10.0,
                 hedge_after: Optional[float] = None,
                 shard_deadline: Optional[float] = None,
                 source: str = "coordinator",
                 peer_dispatch: bool = False,
                 statistics: Optional[
                     Callable[[str], Awaitable[Optional[dict]]]
                 ] = None) -> None:
        self.topology = topology
        self.defaults = defaults if defaults is not None else QueryOptions()
        self.fetch_size = max(1, int(fetch_size))
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self.connect_timeout = connect_timeout
        self.hedge_after = hedge_after
        self.shard_deadline = shard_deadline
        self.source = source
        self.peer_dispatch = peer_dispatch
        self._statistics = statistics
        self._sessions: Dict[str, AsyncRemoteSession] = {}
        self._session_locks: Dict[str, asyncio.Lock] = {}
        self._info_cache: "OrderedDict[str, _QueryInfo]" = OrderedDict()

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    async def open_initial(self) -> None:
        """Dial every configured server; survivors define initial health.

        A fleet with *some* dead servers comes up degraded rather than
        failing — only an entirely unreachable fleet is an error.
        """
        errors: List[ReproError] = []
        for server in self.topology.servers:
            try:
                await self.session_for(server)
            except _FAILOVER_ERRORS as error:
                self.topology.mark_down(server)
                errors.append(error)
        if not self.topology.healthy():
            raise NetworkError(
                f"no server of the cluster is reachable "
                f"(first failure: {errors[0]})"
            )

    async def session_for(self, server: ServerState) -> AsyncRemoteSession:
        """The (lazily revived) multiplexed session for one server."""
        lock = self._session_locks.setdefault(server.url, asyncio.Lock())
        async with lock:
            session = self._sessions.get(server.url)
            if session is not None and not session._closed:
                return session
            session = AsyncRemoteSession(
                server.url, options=self.defaults,
                fetch_size=self.fetch_size, retries=self.retries,
                retry_backoff=self.retry_backoff,
                connect_timeout=self.connect_timeout,
            )
            await session._open()
            self._sessions[server.url] = session
            return session

    def candidates(self) -> List[ServerState]:
        """Failover order: healthy servers first, then down ones.

        Down servers ride at the back so a restarted server is probed
        (and revived) only after every known-good option failed —
        self-healing without a heartbeat.
        """
        up = [s for s in self.topology.servers if s.healthy]
        down = [s for s in self.topology.servers if not s.healthy]
        return up + down

    async def on_any_server(self, op: str, params: dict) -> dict:
        """One idempotent request with whole-fleet failover.

        Transport failures mark the server down and move on; any other
        server-reported error propagates untouched (it would fail the
        same way everywhere).
        """
        errors: List[ReproError] = []
        for server in self.candidates():
            try:
                session = await self.session_for(server)
                body = await session._request(op, **params)
            except _FAILOVER_ERRORS as error:
                self.topology.mark_down(server)
                errors.append(error)
                continue
            self.topology.mark_up(server)
            return body
        raise errors[-1] if errors else NetworkError(
            "every server of the cluster is marked down"
        )

    async def close_sessions(self) -> None:
        for session in list(self._sessions.values()):
            try:
                await session.close()
            except (NetworkError, ProtocolError):
                pass
        self._sessions.clear()

    def peer_list(self) -> List[str]:
        """The fleet as ``host:port`` labels — what rides in a
        ``cluster_*`` frame's ``peers`` field."""
        return [server_label(server.url)
                for server in self.topology.servers]

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    async def query_info(self, text: str,
                         query: ConjunctiveQuery) -> _QueryInfo:
        """β-acyclicity (local) + relation sizes (one Explain probe).

        Sizes feed share weighting only — stale or missing statistics
        degrade the grid's balance, never the answer — so they are
        cached per query text and fetched with ``algorithm="auto"``
        (independent of the caller's algorithm choice).
        """
        info = self._info_cache.get(text)
        if info is not None:
            self._info_cache.move_to_end(text)
            return info
        beta = Hypergraph.of_query(query).is_beta_acyclic()
        sizes: Dict[int, int] = {}
        if self._statistics is not None:
            body = await self._statistics(text)
        else:
            try:
                body = await self.on_any_server("explain", {
                    "query": text,
                    "options": _options_payload(QueryOptions()),
                })
            except _FAILOVER_ERRORS:
                raise
            except ReproError:
                body = None  # statistics are optional; planning degrades
        if body is not None:
            cardinality = {
                estimate["name"]: estimate["cardinality"]
                for estimate in body["report"].get("relation_estimates", [])
            }
            for index, atom in enumerate(query.atoms):
                if atom.name in cardinality:
                    sizes[index] = cardinality[atom.name]
        info = _QueryInfo(query=query, beta_acyclic=beta, sizes=sizes)
        self._info_cache[text] = info
        while len(self._info_cache) > _INFO_CACHE_SIZE:
            self._info_cache.popitem(last=False)
        return info

    async def plan_for(self, query: ConjunctiveQuery, text: str,
                       opts: QueryOptions) -> DistPlan:
        info = await self.query_info(text, query)
        if opts.parallel is not None:
            shards = opts.parallel
        else:
            shards = max(1, len(self.topology.healthy()))
        if not query.variables:
            shards = 1  # a variable-free query cannot partition; proxy it
        return plan_query(
            info.query, shards=shards, mode=opts.partition_mode,
            beta_acyclic=info.beta_acyclic, sizes=info.sizes,
        )

    # ------------------------------------------------------------------
    # Dispatch / gather / merge
    # ------------------------------------------------------------------
    async def gather(self, kind: str, text: str, opts: QueryOptions,
                     plan: DistPlan, meta: dict, trace_id: str):
        """Fan out, gather, merge — and account for what happened.

        Returns ``(value, info)`` where ``info`` carries the stitched
        trace (when tracing is on), the shard → server map, and the
        hedge / re-route counts; the same facts land on the flight
        recorder as one event per gather (tagged with this engine's
        ``source``), success or failure.
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        ctx = GatherContext(trace_id=trace_id, traced=bool(opts.trace))
        records: List[ShardRecord] = []
        scheme_key = plan.scheme.key() if plan.scheme is not None \
            else "serial"
        merge_interval: Optional[Tuple[float, float]] = None
        try:
            if plan.scheme is None:
                value = await self._proxy(kind, text, opts, meta, ctx,
                                          records)
            else:
                # Shards run serially server-side: the grid is already
                # the parallelism, and n_servers × n_cores of
                # over-subscription would thrash the very fleet this
                # layer exists to scale.
                shard_opts = opts.merged(parallel=1)
                assignments = self.topology.assign(plan.cells)
                records = [
                    ShardRecord(index=index, span_id=new_trace_id(),
                                cell=tuple(cell))
                    for index, (cell, _) in enumerate(assignments)
                ]
                tasks = [
                    asyncio.ensure_future(self._execute_shard(
                        kind, text, shard_opts, plan.scheme, cell,
                        server, meta, ctx, record,
                    ))
                    for (cell, server), record in zip(assignments, records)
                ]
                outcomes = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
                failure = next(
                    (o for o in outcomes if isinstance(o, BaseException)),
                    None,
                )
                if failure is not None:
                    raise failure
                payloads = [payload for payload, _ in outcomes]
                seconds = [elapsed for _, elapsed in outcomes]
                ratio = straggler_ratio(seconds)
                if ratio is not None:
                    global_registry().histogram(
                        "repro_dist_straggler_ratio").observe(ratio)
                merge_started = loop.time()
                if kind == "count":
                    value = merge_counts(payloads, opts.limit)
                else:
                    value = merge_rows(payloads, opts.limit)
                merge_interval = (merge_started, loop.time())
        except BaseException as error:
            now = loop.time()
            self._finalize_records(records, now)
            if isinstance(error, Exception):
                self._record_flight(
                    kind, text, ctx, records, started, now, meta,
                    outcome="timeout"
                    if "Timeout" in type(error).__name__ else "error",
                    error=str(error),
                )
            raise
        finished = loop.time()
        self._finalize_records(records, finished)
        info = self._gather_summary(
            kind, ctx, records, started, finished, merge_interval,
            scheme_key, meta,
        )
        self._record_flight(kind, text, ctx, records, started, finished,
                            meta, outcome="ok")
        return value, info

    @staticmethod
    def _finalize_records(records: Sequence[ShardRecord],
                          now: float) -> None:
        """Close out attempts the gather abandoned (hedge losers whose
        cancellation has not been delivered yet, failed fan-outs)."""
        for record in records:
            for attempt in record.attempts:
                attempt.finish(now, "cancelled")

    @staticmethod
    def _shard_map(records: Sequence[ShardRecord]) -> Dict[str, str]:
        return {str(record.index): server_label(record.server)
                for record in records if record.server}

    def _gather_summary(self, kind: str, ctx: GatherContext,
                        records: Sequence[ShardRecord], started: float,
                        finished: float,
                        merge_interval: Optional[Tuple[float, float]],
                        scheme_key: str, meta: dict) -> dict:
        trace = None
        if ctx.traced:
            annotations = {"mode": kind, "scheme": scheme_key,
                           "source": self.source}
            if meta.get("algorithm"):
                annotations["algorithm"] = meta["algorithm"]
            trace = stitch_trace(
                trace_id=ctx.trace_id, started=started, finished=finished,
                shards=records,
                merge_start=merge_interval[0] if merge_interval else None,
                merge_end=merge_interval[1] if merge_interval else None,
                annotations=annotations,
            )
        return {
            "trace": trace,
            "trace_id": ctx.trace_id,
            "seconds": round(finished - started, 6),
            "shard_map": self._shard_map(records),
            "hedges": sum(record.hedges for record in records),
            "reroutes": sum(record.reroutes for record in records),
        }

    def _record_flight(self, kind: str, text: str, ctx: GatherContext,
                       records: Sequence[ShardRecord], started: float,
                       finished: float, meta: dict, *, outcome: str,
                       error: Optional[str] = None) -> None:
        global_events().record(
            source=self.source, trace_id=ctx.trace_id, query=text,
            mode=kind, outcome=outcome, error=error,
            seconds=round(max(0.0, finished - started), 6),
            algorithm=meta.get("algorithm"),
            shards=len(records),
            shard_map=self._shard_map(records) or None,
            hedges=sum(record.hedges for record in records),
            reroutes=sum(record.reroutes for record in records),
        )

    def _dispatch_wire(self, shard_wire: Optional[dict]) -> dict:
        """Frame extras for one sub-request under this engine's side.

        A peer-side engine stamps every dispatch ``hop=1`` (and names
        the fleet) so the receiving server executes the shard locally
        instead of re-fanning-out; the client-side engine sends the
        classic single-server ops, which carry no hop at all.
        """
        extras: dict = {}
        if shard_wire is not None:
            extras["shard"] = shard_wire
        if self.peer_dispatch:
            extras["hop"] = 1
            extras["peers"] = self.peer_list()
        return extras

    def _ops_for(self, kind: str) -> Tuple[str, str]:
        """(count op, cursor op) for sub-dispatch under this side."""
        if self.peer_dispatch:
            return "cluster_count", "cluster_cursor"
        return "count", "cursor"

    async def _proxy(self, kind: str, text: str, opts: QueryOptions,
                     meta: dict, ctx: GatherContext,
                     records: List[ShardRecord]):
        """Single-shard path: the whole query on one server, failover."""
        payload = _options_payload(opts)
        loop = asyncio.get_running_loop()
        record = ShardRecord(index=0, span_id=new_trace_id())
        records.append(record)
        errors: List[ReproError] = []
        attempt_kind = "primary"
        count_op, cursor_op = self._ops_for(kind)
        for server in self.candidates():
            attempt = record.new_attempt(server.url, attempt_kind,
                                         loop.time())
            span_wire = {"id": record.span_id, "shard": record.index,
                         "attempt": attempt.tag}
            extras = self._dispatch_wire(None)
            try:
                session = await self.session_for(server)
                if kind == "count":
                    body = await session._request(
                        count_op, query=text, options=payload,
                        trace_id=ctx.trace_id, span=span_wire, **extras,
                    )
                    attempt.server_trace = body.get("trace")
                    value = body["count"]
                else:
                    result_set = AsyncRemoteResultSet(
                        session, text, opts, dict(meta),
                        trace_id=ctx.trace_id, span=span_wire,
                        open_op=cursor_op, open_extra=extras or None,
                    )
                    value = await result_set.fetchall()
                    attempt.server_trace = result_set.server_trace
            except _FAILOVER_ERRORS as error:
                attempt.finish(loop.time(), "error", str(error))
                self.topology.mark_down(server)
                errors.append(error)
                attempt_kind = "reroute"
                continue
            except ReproError as error:
                attempt.finish(loop.time(), "error", str(error))
                raise
            attempt.finish(loop.time(), "ok")
            record.server = server.url
            self.topology.mark_up(server)
            return value
        raise errors[-1] if errors else NetworkError(
            "every server of the cluster is marked down"
        )

    async def _execute_shard(self, kind: str, text: str,
                             opts: QueryOptions, scheme: PartitionScheme,
                             cell: Cell, server: ServerState, meta: dict,
                             ctx: GatherContext, record: ShardRecord):
        """One shard to completion: dispatch, hedge, re-route, account."""
        registry = global_registry()
        shard_counter = registry.counter("repro_dist_shards_total")
        shard_wire = {"scheme": scheme.to_wire(), "cell": list(cell)}
        shard_counter.inc(event="dispatched")
        loop = asyncio.get_running_loop()
        tried: set = set()
        attempt_kind = "primary"
        while True:
            tried.add(server.url)
            server.dispatched += 1
            started = loop.time()
            try:
                result, attempt = await self._attempt_shard(
                    kind, text, opts, shard_wire, server, meta, ctx,
                    record, attempt_kind,
                )
            except _FAILOVER_ERRORS as error:
                self.topology.mark_down(server)
                sibling = self.topology.sibling(server, exclude=tried)
                if sibling is None:
                    shard_counter.inc(event="failed")
                    raise NetworkError(
                        f"shard {tuple(cell)} failed on every reachable "
                        f"server (last, from {server.url}: {error})"
                    ) from error
                shard_counter.inc(event="rerouted")
                server = sibling
                attempt_kind = "reroute"
                continue
            elapsed = loop.time() - started
            registry.histogram("repro_dist_server_seconds").observe(
                elapsed, server=attempt.server,
            )
            record.server = attempt.server
            self.topology.mark_up(server)
            return result, elapsed

    async def _attempt_shard(self, kind: str, text: str,
                             opts: QueryOptions, shard_wire: dict,
                             server: ServerState, meta: dict,
                             ctx: GatherContext, record: ShardRecord,
                             attempt_kind: str):
        """One dispatch attempt, bounded by the shard deadline."""
        if self.shard_deadline is None:
            return await self._hedged(kind, text, opts, shard_wire,
                                      server, meta, ctx, record,
                                      attempt_kind)
        try:
            return await asyncio.wait_for(
                self._hedged(kind, text, opts, shard_wire, server, meta,
                             ctx, record, attempt_kind),
                self.shard_deadline,
            )
        except asyncio.TimeoutError:
            raise NetworkError(
                f"shard on {server.url} missed its "
                f"{self.shard_deadline}s deadline"
            ) from None

    async def _hedged(self, kind: str, text: str, opts: QueryOptions,
                      shard_wire: dict, server: ServerState, meta: dict,
                      ctx: GatherContext, record: ShardRecord,
                      attempt_kind: str):
        """Primary dispatch with hedged re-dispatch of stragglers.

        After ``hedge_after`` seconds with no answer, the same shard is
        duplicated to a sibling; the first success wins and the loser is
        cancelled (its server-side cursor, if any, falls to the cursor
        registry's idle expiry).  Safe because shards are disjoint and
        shard reads are idempotent — the duplicate computes the exact
        same rows.  The hedge reuses the shard's span id with a distinct
        attempt tag, so both servers' logs name the same logical shard.
        """
        primary = asyncio.ensure_future(
            self._shard_once(kind, text, opts, shard_wire, server, meta,
                             ctx, record, attempt_kind)
        )
        if self.hedge_after is None:
            return await primary
        done, _ = await asyncio.wait({primary}, timeout=self.hedge_after)
        if done:
            return primary.result()
        sibling = self.topology.sibling(server)
        if sibling is None:
            return await primary
        global_registry().counter(
            "repro_dist_shards_total").inc(event="hedged")
        hedge = asyncio.ensure_future(
            self._shard_once(kind, text, opts, shard_wire, sibling, meta,
                             ctx, record, "hedge")
        )
        pending = {primary, hedge}
        first_error: Optional[BaseException] = None
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED,
                )
                for task in done:
                    if task.exception() is None:
                        return task.result()
                    if first_error is None:
                        first_error = task.exception()
            raise first_error
        finally:
            for task in pending:
                task.cancel()

    async def _shard_once(self, kind: str, text: str, opts: QueryOptions,
                          shard_wire: dict, server: ServerState,
                          meta: dict, ctx: GatherContext,
                          record: ShardRecord, attempt_kind: str):
        """One shard request on one server, no retries beyond the
        session's own idempotent-op replay.  Returns ``(value, attempt)``
        so the caller knows which dispatch actually answered."""
        loop = asyncio.get_running_loop()
        attempt = record.new_attempt(server.url, attempt_kind, loop.time())
        span_wire = {"id": record.span_id, "shard": record.index,
                     "attempt": attempt.tag}
        count_op, cursor_op = self._ops_for(kind)
        extras = self._dispatch_wire(shard_wire)
        try:
            session = await self.session_for(server)
            if kind == "count":
                body = await session._request(
                    count_op, query=text, options=_options_payload(opts),
                    trace_id=ctx.trace_id, span=span_wire, **extras,
                )
                attempt.server_trace = body.get("trace")
                value = body["count"]
            else:
                result_set = AsyncRemoteResultSet(
                    session, text, opts, dict(meta),
                    trace_id=ctx.trace_id, span=span_wire,
                    open_op=cursor_op, open_extra=extras or None,
                )
                value = await result_set.fetchall()
                attempt.server_trace = result_set.server_trace
        except asyncio.CancelledError:
            attempt.finish(loop.time(), "cancelled")
            raise
        except ReproError as error:
            attempt.finish(loop.time(), "error", str(error))
            raise
        attempt.finish(loop.time(), "ok")
        return value, attempt


class PeerCoordinator:
    """A server-side front end over :class:`GatherEngine`.

    Lives inside a :class:`~repro.net.server.ReproServer` and runs on
    the server's own event loop — no extra thread.  A ``cluster_*``
    frame with ``hop=0`` lands here: the query is planned against the
    *local* service (plan cache and statistics, no extra network hop),
    sub-sharded across the configured peers with ``hop=1``, and merged
    server-side, so only the merged answer crosses back to the client.

    The peer list may (and normally does) include this server itself —
    its own shards just loop back over TCP like anyone else's, which
    keeps the topology uniform and the code path single.
    """

    def __init__(self, service, peers: Sequence[str], *,
                 defaults: Optional[QueryOptions] = None,
                 fetch_size: int = DEFAULT_FETCH_SIZE,
                 retries: int = DEFAULT_RETRIES,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 connect_timeout: float = 10.0,
                 hedge_after: Optional[float] = None,
                 shard_deadline: Optional[float] = None) -> None:
        self.service = service
        self.peers = tuple(peers)
        urls = parse_peers(self.peers)
        self.engine = GatherEngine(
            Topology(urls), defaults=defaults, fetch_size=fetch_size,
            retries=retries, retry_backoff=retry_backoff,
            connect_timeout=connect_timeout, hedge_after=hedge_after,
            shard_deadline=shard_deadline,
            source="peer", peer_dispatch=True,
            statistics=self._statistics,
        )
        self._opened = False

    async def _call(self, fn):
        """Run blocking service work on the service's worker pool."""
        return await asyncio.wrap_future(self.service.pool.submit(fn))

    async def _statistics(self, text: str) -> Optional[dict]:
        """Share-weighting statistics from the local service.

        Failure degrades the grid's balance, never the answer, so any
        query-level error collapses to "no statistics".
        """
        def probe():
            report = self.service.session.explain(text)
            return {"report": report.as_dict()}

        try:
            return await self._call(probe)
        except ReproError:
            return None

    async def _ensure_open(self) -> None:
        if not self._opened:
            await self.engine.open_initial()
            self._opened = True

    async def _plan_probe(self, text: str, options: dict):
        """Plan the query against the local service: validates text and
        options with single-server fidelity and yields the meta the
        client's ``run`` response mirrors."""
        def plan():
            opts = self.service.session.options(**dict(options or {}))
            result_set = self.service.session.run(text, opts)
            return opts, result_set

        opts, result_set = await self._call(plan)
        meta = {
            "columns": list(result_set.columns),
            "algorithm": result_set.algorithm,
            "requested_algorithm":
                result_set.plan.prepared.requested_algorithm,
            "plan_cached": result_set.stats.plan_cached,
        }
        query = resolve_query(result_set.plan.prepared, text)
        return opts, meta, query

    async def describe(self, text: str, options: dict) -> dict:
        """The ``cluster_run`` body: plan-probe meta plus the
        distributed shape this fleet would use."""
        await self._ensure_open()
        opts, meta, query = await self._plan_probe(text, options)
        plan = await self.engine.plan_for(query, text, opts)
        global_registry().counter("repro_peer_total").inc(event="plan")
        scheme = plan.scheme
        return dict(
            meta,
            shards=plan.shards,
            partitioning=scheme.key() if scheme is not None else "serial",
            route="peer",
            fanout=True,
        )

    async def gather(self, kind: str, text: str, options: dict,
                     trace_id: Optional[str] = None):
        """Plan locally, fan out with ``hop=1``, merge server-side.

        Returns ``(value, info, meta, plan)`` — ``info`` is the engine's
        gather summary (stitched trace included when tracing is on, with
        the client's trace id adopted so the merge subtree lands under
        the client's query span).
        """
        await self._ensure_open()
        opts, meta, query = await self._plan_probe(text, options)
        plan = await self.engine.plan_for(query, text, opts)
        tid = trace_id if isinstance(trace_id, str) and trace_id \
            else new_trace_id()
        value, info = await self.engine.gather(
            kind, text, opts, plan, meta, tid,
        )
        global_registry().counter("repro_peer_total").inc(event="gather")
        return value, info, meta, plan

    async def close(self) -> None:
        await self.engine.close_sessions()
