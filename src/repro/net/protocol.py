"""The wire protocol: length-prefixed frames and error envelopes.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of body.  The high bit of the length word selects the body
encoding (the frame cap is far below 2**31, so the bit is free):

==========  ==========================================================
prefix bit  body
==========  ==========================================================
``0``       UTF-8 JSON object (all requests and control responses)
``1``       binary columnar: 4-byte header length, UTF-8 JSON header,
            then concatenated column blocks (every successful
            ``fetch`` response)
==========  ==========================================================

A binary header is a normal response object plus ``"n"`` (row count)
and ``"cols"`` (``[kind, count, nbytes]`` per column, see
:mod:`repro.net.columnar`); the frame readers decode it transparently,
handing back the response dict with ``rows`` already materialized as
tuples.  Row pages have one encoding, so nothing is negotiated: a
failed ``fetch`` answers with an ordinary JSON error envelope.

Requests carry a client-chosen ``id`` (monotonically increasing per
connection) and an ``op``.  Ids are what make **pipelining** work: a
client may send many requests on one connection without waiting, the
server dispatches them concurrently, and each response echoes the id of
the request it answers — responses may therefore arrive *out of order*,
and a client multiplexing a connection must match them by id rather
than by position.  (A client that sends one request at a time per
connection still sees strictly ordered responses.)

::

    {"id": 7, "op": "run", "query": "edge(a,b), edge(b,c)",
     "options": {"algorithm": "auto", ...}}

Responses echo the ``id`` and carry ``ok``::

    {"id": 7, "ok": true, "cursor": 3, "columns": ["a", "b"], ...}
    {"id": 7, "ok": false, "error": {"code": "parse", "exit_code": 3,
                                     "message": "..."}}

The error envelope maps onto the :class:`~repro.errors.ReproError`
taxonomy, carrying the same distinct exit codes the CLI uses (3 parse,
4 unknown algorithm, 5 bad options, 6 timeout, 1 anything else), so a
remote failure re-raises client-side as the *same exception class* and an
existing ``except ParseError`` — including the CLI's own error mapping —
keeps working unchanged across the network boundary.

Operations
----------
=============== ==================================== =========================
op              request fields                       response fields
=============== ==================================== =========================
``hello``       —                                    server, protocol, version,
                                                     relations
``run``         query, options                       columns, algorithm,
                                                     shards, partitioning,
                                                     plan_cached
``prepare``     query, options                       handle, columns,
                                                     algorithm, ...
``deallocate``  handle                               deallocated
``cursor``      query|handle, options                cursor
``fetch``       cursor, size                         rows, done[, stats]
``close``       cursor                               closed
``count``       query|handle, options                count, algorithm, shards,
                                                     result_cached
``explain``     query, options                       report, rendered
``stats``       —                                    connection, cursors,
                                                     prepared, service
``metrics``     —                                    metrics (Prometheus text)
``events``      [limit]                              events (flight recorder;
                                                     limit must be ≥ 1)
``cluster_run`` query, options, hop[, peers]         columns, algorithm,
                                                     shards, partitioning,
                                                     route, fanout
``cluster_count`` query, options, hop[, peers,       count, shards, seconds,
                trace_id]                            shard_map, hedges,
                                                     reroutes, fanout
``cluster_cursor`` query, options, hop[, peers,      cursor, shards, seconds,
                trace_id]                            shard_map, hedges,
                                                     reroutes, fanout
``goodbye``     —                                    goodbye
=============== ==================================== =========================

``run`` only validates and plans — no cursor, no execution, no server
state.  The client opens a **server-side cursor** (the ``cursor`` op)
when it first fetches; each ``fetch`` then pulls exactly ``size`` more
rows from the executor's stream, so consuming *k* rows of a huge join
costs O(k) end-to-end, and a result set that is only counted or never
consumed pins nothing on the server.

``prepare`` compiles a query once and registers the compiled shape
per-connection (idle TTL + cap, like cursors); ``cursor`` and
``count`` may then reference the ``handle`` instead of resending query
text, skipping parse/analysis/attribute-ordering on every call
and letting the plan cache key on the prepared text.

The ``cluster_*`` ops are **peer coordination**: a frame with ``hop=0``
asks the receiving server to sub-shard the query across its peer fleet
(the frame's ``peers`` list, or the server's ``--peers`` configuration)
and merge the answers *before* replying, so only the merged answer
crosses the final hop.  Every sub-request the merging server dispatches
is stamped ``hop=1`` — a server receiving ``hop >= 1`` executes the
shard locally and never re-fans-out, whatever topology the frame names,
which is what makes routing loops impossible.  A merged tuple answer
streams back through the ordinary cursor registry: the ``cluster_cursor``
response carries a plain ``cursor`` id and the client pages it with
``fetch`` frames, so ``fetchmany(k)`` stays O(k) on the client hop.
"""

from __future__ import annotations

import json
import struct
from typing import (
    Awaitable,
    Callable,
    Dict,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.errors import (
    AdmissionError,
    CursorError,
    DatasetError,
    ExecutionError,
    FrameError,
    NetworkError,
    OptionsError,
    ParseError,
    PlanningError,
    PreparedError,
    ProtocolError,
    QueryError,
    ReproError,
    SchemaError,
    ServiceError,
    StorageError,
    TimeoutExceeded,
    UnknownAlgorithmError,
    WorkloadError,
)
from repro.net import columnar

#: Bumped on incompatible protocol changes; exchanged in ``hello``.
#: Version 3: ``fetch`` row pages are binary columnar frames only.
PROTOCOL_VERSION = 3

#: Hard upper bound on one frame.  Large answers stream as many ``fetch``
#: pages, so a frame this size indicates a broken peer, not a big result.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: High bit of the length prefix marks a binary columnar body.  Safe
#: because ``MAX_FRAME_BYTES`` (2**26) is far below 2**31.
BINARY_FLAG = 0x80000000

_LENGTH = struct.Struct("!I")

#: The full error taxonomy on the wire, most-specific first (the first
#: ``isinstance`` match wins), so a remote failure re-raises as exactly
#: the class an in-process call would have raised.  ``exit_code``
#: mirrors ``repro.cli`` (3 parse, 4 unknown algorithm, 5 bad options,
#: 6 timeout, 1 everything else).
_ERROR_TABLE: Tuple[Tuple[str, Type[ReproError], int], ...] = (
    ("parse", ParseError, 3),
    ("unknown_algorithm", UnknownAlgorithmError, 4),
    ("options", OptionsError, 5),
    ("timeout", TimeoutExceeded, 6),
    ("query", QueryError, 1),
    ("execution", ExecutionError, 1),
    ("planning", PlanningError, 1),
    ("schema", SchemaError, 1),
    ("storage", StorageError, 1),
    ("dataset", DatasetError, 1),
    ("cursor", CursorError, 1),
    ("prepared", PreparedError, 1),
    ("admission", AdmissionError, 1),
    ("workload", WorkloadError, 1),
    ("protocol", ProtocolError, 1),
    ("network", NetworkError, 1),
    ("service", ServiceError, 1),
    ("error", ReproError, 1),
)

_CODE_TO_CLASS: Dict[str, Type[ReproError]] = {
    code: cls for code, cls, _ in _ERROR_TABLE
}


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(payload: dict) -> bytes:
    """Serialize one JSON frame: 4-byte length prefix + UTF-8 JSON body."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit",
            size=len(body),
            limit=MAX_FRAME_BYTES,
        )
    return _LENGTH.pack(len(body)) + body


def encode_binary_frame(header: dict, blocks: Sequence[bytes]) -> bytes:
    """Serialize one binary columnar frame.

    ``header`` must already carry the ``"cols"`` descriptors and ``"n"``
    row count matching ``blocks`` (see :func:`repro.net.columnar.
    encode_columns`); this function only frames them.
    """
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    size = _LENGTH.size + len(head) + sum(len(block) for block in blocks)
    if size > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {size} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit",
            size=size,
            limit=MAX_FRAME_BYTES,
        )
    parts = [_LENGTH.pack(size | BINARY_FLAG), _LENGTH.pack(len(head)), head]
    parts.extend(blocks)
    return b"".join(parts)


def _decode_body(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _decode_binary_body(body: bytes) -> dict:
    if len(body) < _LENGTH.size:
        raise ProtocolError(
            f"binary frame of {len(body)} bytes is too short for its "
            f"header length"
        )
    (head_size,) = _LENGTH.unpack_from(body)
    head_end = _LENGTH.size + head_size
    if head_end > len(body):
        raise ProtocolError(
            f"binary frame header of {head_size} bytes overruns the "
            f"{len(body)}-byte frame"
        )
    header = _decode_body(body[_LENGTH.size:head_end])
    meta = header.pop("cols", [])
    count = header.pop("n", 0)
    try:
        columns = columnar.decode_columns(meta, body, head_end)
        header["rows"] = columnar.rows_from_columns(columns, count)
    except (ValueError, TypeError) as error:
        raise ProtocolError(
            f"malformed binary columnar frame: {error}"
        ) from None
    return header


def _decode_length(prefix: bytes) -> Tuple[int, bool]:
    """Split the length word into (body size, is-binary flag)."""
    (word,) = _LENGTH.unpack(prefix)
    binary = bool(word & BINARY_FLAG)
    length = word & (BINARY_FLAG - 1)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"peer announced a {length}-byte frame, over the "
            f"{MAX_FRAME_BYTES}-byte limit",
            size=length,
            limit=MAX_FRAME_BYTES,
        )
    return length, binary


def read_frame(read: Callable[[int], bytes]) -> Optional[dict]:
    """Read one frame from a blocking byte source.

    ``read(n)`` must behave like ``io.RawIOBase.read`` on a blocking
    stream: return up to ``n`` bytes, or ``b""`` at EOF.  Returns the
    decoded frame, or ``None`` on a clean EOF at a frame boundary; EOF
    in the middle of a frame raises :class:`ProtocolError`.
    """
    prefix = _read_exact(read, _LENGTH.size, at_boundary=True)
    if prefix is None:
        return None
    length, binary = _decode_length(prefix)
    body = _read_exact(read, length, at_boundary=False)
    body = body if body is not None else b""
    return _decode_binary_body(body) if binary else _decode_body(body)


def _read_exact(read: Callable[[int], bytes], size: int,
                at_boundary: bool) -> Optional[bytes]:
    chunks = []
    remaining = size
    while remaining:
        chunk = read(remaining)
        if not chunk:
            if at_boundary and remaining == size:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({size - remaining} of "
                f"{size} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


async def read_frame_async(
        readexactly: Callable[[int], Awaitable[bytes]]) -> Optional[dict]:
    """The asyncio twin of :func:`read_frame`.

    ``readexactly`` is :meth:`asyncio.StreamReader.readexactly` (or any
    coroutine with its contract: raises ``IncompleteReadError`` on EOF).
    """
    import asyncio

    try:
        prefix = await readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError(
            "connection closed mid-frame (in the length prefix)"
        ) from None
    length, binary = _decode_length(prefix)
    try:
        body = await readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            f"connection closed mid-frame ({len(error.partial)} of "
            f"{error.expected} body bytes read)"
        ) from None
    return _decode_binary_body(body) if binary else _decode_body(body)


# ----------------------------------------------------------------------
# Responses and error envelopes
# ----------------------------------------------------------------------
def ok_response(request_id: object, **body) -> dict:
    """A success response echoing ``request_id``."""
    return {"id": request_id, "ok": True, **body}


def classify_error(error: ReproError) -> Tuple[str, int]:
    """The (wire code, CLI exit code) for an exception, most-specific first."""
    for code, cls, exit_code in _ERROR_TABLE:
        if isinstance(error, cls):
            return code, exit_code
    return "error", 1


def error_envelope(error: ReproError) -> dict:
    """Serialize an exception into the wire error envelope."""
    code, exit_code = classify_error(error)
    envelope = {"code": code, "exit_code": exit_code, "message": str(error)}
    if isinstance(error, TimeoutExceeded):
        envelope["elapsed"] = error.elapsed
        envelope["budget"] = error.budget
    return envelope


def error_response(request_id: object, error: ReproError) -> dict:
    """A failure response echoing ``request_id``."""
    return {"id": request_id, "ok": False, "error": error_envelope(error)}


def raise_remote_error(envelope: object) -> NoReturn:
    """Re-raise a server-reported failure as its original exception class.

    Unknown or malformed envelopes degrade to :class:`ReproError` rather
    than hiding the failure behind a protocol error.
    """
    if not isinstance(envelope, dict):
        raise ReproError(f"server reported an unintelligible error: {envelope!r}")
    code = envelope.get("code", "error")
    message = envelope.get("message", "remote execution failed")
    if code == "timeout":
        raise TimeoutExceeded(
            float(envelope.get("elapsed", 0.0)),
            float(envelope.get("budget", 0.0)),
        )
    raise _CODE_TO_CLASS.get(code, ReproError)(message)
