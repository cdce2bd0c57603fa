"""The benchmark's own span recorder and the wrappers it installs.

Nothing under ``src/`` is edited: every layer is measured from outside,
by wrapping its public entry points for the length of a traced pass.  A
span is ``[id, parent, op, name, layer, thread, start, end, self]`` with
times in ``time.perf_counter_ns()`` ticks — CLOCK_MONOTONIC on Linux, so
spans written by a traced server or a forked pool worker line up with the
driver's.

**Self time** is the time a span spent as the innermost active span of its
thread, accumulated at every push and pop.  For a plain call that equals
"span minus children"; for a generator (``enumerate_bindings`` streams
rows to a consumer that does its own work between rows) it counts only
the time the generator body actually ran.  The self times of one
operation's spans therefore add up to the operation's own span exactly;
``check_tree`` verifies that on every recorded tree.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.perf_counter_ns

ID, PARENT, OP, NAME, LAYER, THREAD, START, END, SELF = range(9)
Span = list

#: Layers in report order; ``bench`` is the benchmark's own per-op work
#: (issuing, checksumming, comparing with the oracle).
LAYERS = ("datalog", "engine", "storage", "joins", "exec", "api",
          "service", "net", "dist", "bench")

#: Spans whose self time is the driver *waiting* for work that other
#: threads or processes record (pool workers, servers, the cluster loop
#: thread).  ``layer_shares`` hands that time to whoever did the work.
WAITING = frozenset({
    "exec.process.count", "exec.process.bindings", "net.read_frame",
    "dist.run", "dist.count", "dist.fetchall",
})


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.last = 0
        self.op: Optional[int] = None


class Recorder:
    """Spans kept in memory; written out once, at the end."""

    def __init__(self, spool_path: Optional[str] = None) -> None:
        self.spans: List[Span] = []
        #: operation id -> the workload cell it ran, for the per-cell view.
        self.cells: Dict[int, str] = {}
        self.owner_pid = os.getpid()
        #: Where forked pool workers append their spans (they cannot hand
        #: them back through ``pool.map``'s return value).
        self.spool_path = spool_path
        self._state = _ThreadState()
        self._ids = itertools.count(1)

    # -- the stack ---------------------------------------------------------
    def push(self, name: str, layer: str) -> Span:
        state, now = self._state, clock()
        parent = 0
        if state.stack:
            top = state.stack[-1]
            top[SELF] += now - state.last
            parent = top[ID]
        span = [next(self._ids), parent, state.op, name, layer,
                threading.get_ident(), now, 0, 0]
        state.last = now
        state.stack.append(span)
        self.spans.append(span)
        return span

    def resume(self, span: Span) -> None:
        """Make a suspended generator span innermost again."""
        state, now = self._state, clock()
        if state.stack:
            state.stack[-1][SELF] += now - state.last
        state.last = now
        state.stack.append(span)

    def pop(self) -> Span:
        state, now = self._state, clock()
        span = state.stack.pop()
        span[SELF] += now - state.last
        span[END] = now
        state.last = now
        return span

    def top_id(self) -> int:
        stack = self._state.stack
        return stack[-1][ID] if stack else 0

    # -- operations --------------------------------------------------------
    def begin_op(self, op: int, cell: str) -> None:
        self._state.op = op
        self.cells[op] = cell
        self.push("op", "bench")

    def end_op(self) -> Span:
        span = self.pop()
        self._state.op = None
        return span

    # -- persistence -------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle,
                      separators=(",", ":"))

    def reset_after_fork(self) -> None:
        """A forked worker inherits the parent's spans and stack; drop them."""
        self.spans = []
        self._state.stack = []
        self._state.op = None


def load_spans(path: str) -> List[Span]:
    with open(path) as handle:
        return json.load(handle)["spans"]


def load_spool(path: str) -> List[Span]:
    """Spans appended by pool workers, one JSON list of spans per line."""
    spans: List[Span] = []
    if os.path.exists(path):
        with open(path) as handle:
            for line in handle:
                spans.extend(json.loads(line))
    return spans


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def wrap(recorder: Recorder, func: Callable, name, layer: str) -> Callable:
    """``func`` recorded as a span; generator functions are recorded only
    while their body runs.  ``name`` is a string or ``f(first_arg)``."""
    label = name if callable(name) else (lambda _first, _name=name: _name)

    if inspect.isgeneratorfunction(func):
        @functools.wraps(func)
        def traced_generator(*args, **kwargs):
            inner = func(*args, **kwargs)
            text = label(args[0] if args else None)
            span: Optional[Span] = None
            try:
                while True:
                    # One span per consumer: a generator paged by several
                    # requests (server-side cursors) must not outlive the
                    # span it was first pulled under.
                    if span is None or span[PARENT] != recorder.top_id() \
                            or span[THREAD] != threading.get_ident():
                        span = recorder.push(text, layer)
                    else:
                        recorder.resume(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder.pop()
                    yield item
            finally:
                inner.close()
        return traced_generator

    @functools.wraps(func)
    def traced(*args, **kwargs):
        recorder.push(label(args[0] if args else None), layer)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.pop()
    return traced


def _spooling_run_shard(recorder: Recorder, original: Callable) -> Callable:
    """``repro.exec.executor.run_shard`` for forked pool workers: record
    the shard's spans, then append them to the parent's spool file."""

    @functools.wraps(original)
    def run_shard(task):
        if os.getpid() == recorder.owner_pid:
            return original(task)
        recorder.reset_after_fork()
        recorder.push("exec.run_shard", "exec")
        try:
            return original(task)
        finally:
            recorder.pop()
            if recorder.spool_path:
                with open(recorder.spool_path, "a") as handle:
                    handle.write(json.dumps(recorder.spans,
                                            separators=(",", ":")) + "\n")
    return run_shard


#: ``(module, "Class.method" or "function", span name, layer)``.  A name of
#: ``None`` means "joins.<algorithm name>.<method>", resolved per call.
_FUNCTIONS = (
    ("repro.datalog.parser", "parse_query", "datalog.parse_query", "datalog"),
    ("repro.datalog.gao", "select_gao", "datalog.select_gao", "datalog"),
    ("repro.net.columnar", "encode_columns", "net.encode_columns", "net"),
    ("repro.net.columnar", "decode_columns", "net.decode_columns", "net"),
    ("repro.net.columnar", "rows_from_columns", "net.rows_from_columns",
     "net"),
    ("repro.net.protocol", "read_frame", "net.read_frame", "net"),
    ("repro.dist.planner", "plan_query", "dist.plan_query", "dist"),
    ("repro.dist.merge", "merge_rows", "dist.merge_rows", "dist"),
)
_METHODS = (
    ("repro.engine", "QueryEngine", "prepare", "engine.prepare", "engine"),
    ("repro.engine", "QueryEngine", "plan", "engine.plan", "engine"),
    ("repro.storage.database", "Database", "index", "storage.index",
     "storage"),
    ("repro.storage.database", "Database", "add", "storage.add", "storage"),
    ("repro.storage.trie", "TrieIndex", "__init__", "storage.trie_build",
     "storage"),
    ("repro.service.result_cache", "ResultCache", "lookup",
     "service.cache_lookup", "service"),
    ("repro.service.result_cache", "ResultCache", "store",
     "service.cache_store", "service"),
    ("repro.service.result_cache", "ResultCache", "invalidate_relation",
     "service.cache_invalidate", "service"),
    ("repro.service.plan_cache", "PlanCache", "get_or_plan",
     "service.plan_cache", "service"),
    ("repro.service.service", "QueryService", "execute", "service.execute",
     "service"),
    ("repro.api.session", "Session", "run", "api.run", "api"),
    ("repro.api.result", "ResultSet", "count", "api.count", "api"),
    ("repro.api.result", "ResultSet", "fetchall", "api.fetchall", "api"),
    ("repro.api.result", "ResultSet", "answer", "api.answer", "api"),
    ("repro.exec.executor", "SerialPlanExecutor", "count",
     "exec.serial.count", "exec"),
    ("repro.exec.executor", "SerialPlanExecutor", "bindings",
     "exec.serial.bindings", "exec"),
    ("repro.exec.executor", "ProcessPlanExecutor", "count",
     "exec.process.count", "exec"),
    ("repro.exec.executor", "ProcessPlanExecutor", "bindings",
     "exec.process.bindings", "exec"),
    ("repro.net.client", "RemoteSession", "run", "net.run", "net"),
    ("repro.net.client", "RemoteSession", "prepare", "net.prepare", "net"),
    ("repro.net.client", "RemotePreparedHandle", "run", "net.handle_run",
     "net"),
    ("repro.net.client", "RemoteResultSet", "count", "net.count", "net"),
    ("repro.net.client", "RemoteResultSet", "fetchall", "net.fetchall",
     "net"),
    ("repro.dist.coordinator", "ClusterSession", "run", "dist.run", "dist"),
    ("repro.dist.coordinator", "ClusterResultSet", "count", "dist.count",
     "dist"),
    ("repro.dist.coordinator", "ClusterResultSet", "fetchall",
     "dist.fetchall", "dist"),
)


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that undoes it."""
    undo: List[Callable[[], None]] = []

    def set_attr(owner, attr: str, value) -> None:
        if attr in vars(owner):
            previous = vars(owner)[attr]
            undo.append(lambda: setattr(owner, attr, previous))
        else:  # inherited: shadow it on the subclass, delete to restore
            undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    importlib.import_module("repro.cli")  # pulls in every layer
    for module_name, attr, name, layer in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        traced = wrap(recorder, original, name, layer)
        # ``from x import f`` copies the binding: patch every copy.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        set_attr(module, key, traced)
    for module_name, cls_name, attr, name, layer in _METHODS:
        owner = getattr(importlib.import_module(module_name), cls_name)
        set_attr(owner, attr, wrap(recorder, getattr(owner, attr), name,
                                   layer))

    from repro.engine import default_registry

    seen = set()
    for factory in default_registry().values():
        for method in ("count", "enumerate_bindings"):
            owner = next(cls for cls in type(factory(None)).__mro__
                         if method in vars(cls))
            if (owner, method) in seen:
                continue
            seen.add((owner, method))
            set_attr(owner, method, wrap(
                recorder, vars(owner)[method],
                lambda self, _m=method: f"joins.{type(self).name}.{_m}",
                "joins",
            ))

    executor = importlib.import_module("repro.exec.executor")
    set_attr(executor, "run_shard",
             _spooling_run_shard(recorder, executor.run_shard))

    def uninstall() -> None:
        while undo:
            undo.pop()()
    return uninstall


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def check_tree(spans: Sequence[Span], tolerance: float = 0.05) -> List[str]:
    """Span-tree invariants of one process's spans; returns the breaches."""
    problems: List[str] = []
    by_id = {span[ID]: span for span in spans}
    self_by_op: Dict[int, int] = {}
    for span in spans:
        if span[END] == 0:
            problems.append(f"span {span[ID]} ({span[NAME]}) never closed")
            continue
        parent = by_id.get(span[PARENT])
        if parent is not None and parent[END] and not (
                parent[START] <= span[START] and span[END] <= parent[END]):
            problems.append(
                f"span {span[ID]} ({span[NAME]}) escapes its parent "
                f"{parent[ID]} ({parent[NAME]})")
        if span[OP] is not None:
            self_by_op[span[OP]] = self_by_op.get(span[OP], 0) + span[SELF]
    for span in spans:
        if span[NAME] == "op" and span[END]:
            total = span[END] - span[START]
            summed = self_by_op.get(span[OP], 0)
            if total and abs(summed - total) > tolerance * total:
                problems.append(
                    f"op {span[OP]}: self times sum to {summed} ns, "
                    f"span is {total} ns")
    return problems


def in_window(spans: Iterable[Span], start: int, end: int) -> List[Span]:
    return [span for span in spans
            if span[END] and span[START] >= start and span[END] <= end]


def layer_shares(driver: Sequence[Span],
                 foreign: Sequence[Span]) -> Tuple[Dict[str, float], float]:
    """Each layer's self time as a share of total operation time.

    ``driver`` are the spans of the operation trees (``op`` set);
    ``foreign`` are spans other threads and processes recorded while the
    driver waited.  Foreign self time is taken out of the driver's
    ``WAITING`` spans — never more than they hold, so with two shards
    working in parallel the shares still partition the operation time —
    and whatever waiting is left stays with the layer that waited (wire,
    queueing, unwrapped server code).  Returns ``(shares, op_seconds)``.
    """
    own = dict.fromkeys(LAYERS, 0.0)
    waiting = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    for span in driver:
        own[span[LAYER]] += span[SELF]
        if span[NAME] in WAITING:
            waiting[span[LAYER]] += span[SELF]
        if span[NAME] == "op":
            total += span[END] - span[START]
    remote = dict.fromkeys(LAYERS, 0.0)
    for span in foreign:
        remote[span[LAYER]] += span[SELF]
    waited, worked = sum(waiting.values()), sum(remote.values())
    explained = min(waited, worked)
    for layer in LAYERS:
        if waited:
            own[layer] -= explained * waiting[layer] / waited
        if worked:
            own[layer] += explained * remote[layer] / worked
    shares = {layer: (own[layer] / total if total else 0.0)
              for layer in LAYERS}
    return shares, total / 1e9


def cell_shares(kept: dict) -> List[Tuple[str, int, float, Dict[str, float]]]:
    """The per-cell view of a kept trace (``trace-<workload>.json``):
    ``(cell, operations, median op ms, layer shares)`` per workload cell,
    so one pattern can be followed through the depths it runs at."""
    by_op: Dict[int, List[Span]] = {}
    for span in kept["driver"]:
        by_op.setdefault(span[OP], []).append(span)
    foreign = sorted(kept["foreign"], key=lambda span: span[START])
    starts = [span[START] for span in foreign]
    by_cell: Dict[str, List[Tuple[float, Dict[str, float]]]] = {}
    for op, spans in by_op.items():
        root = next(span for span in spans if span[NAME] == "op")
        during = [span for span in foreign[
            bisect_left(starts, root[START]):bisect_right(starts, root[END])]
            if span[END] <= root[END]]
        shares, seconds = layer_shares(spans, during)
        by_cell.setdefault(kept["cells"][str(op)], []).append(
            (seconds, shares))
    view = []
    for cell, samples in sorted(by_cell.items()):
        durations = sorted(seconds for seconds, _ in samples)
        mean = {layer: sum(shares[layer] for _, shares in samples)
                / len(samples) for layer in LAYERS}
        view.append((cell, len(samples),
                     durations[len(durations) // 2] * 1e3, mean))
    return view


def main(argv: Sequence[str]) -> int:
    if not argv:
        print("usage: trace.py perf/out/trace-<workload>.json ...",
              file=sys.stderr)
        return 2
    for path in argv:
        with open(path) as handle:
            kept = json.load(handle)
        for cell, count, median_ms, shares in cell_shares(kept):
            print(f"{kept['workload']:13s} {cell:20s} n={count:5d} "
                  f"op {median_ms:8.2f} ms  " + "  ".join(
                      f"{layer} {shares[layer] * 100:.1f}%"
                      for layer in LAYERS if shares[layer] >= 0.0005))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
