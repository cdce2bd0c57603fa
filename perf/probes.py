"""Per-layer probes: each layer's public functions, timed from outside.

A probe calls one layer the way the layers above it do and reports a
median.  Storage, datalog and engine probes run on the workload's own
dataset and query texts; pattern-shaped probes (the join cells, exec, api,
net pages, dist) run on a fixed reference input — ``ego-Facebook`` at
selectivity 8, the cold workloads' database — because the paper's patterns
cost minutes on the larger served graph.  Every traced run measures every
probe, so each number is a real measurement on every workload.
"""

from __future__ import annotations

import io
import random
import statistics
import time
import tracemalloc
from typing import Callable, Dict, List, Sequence

from repro.api.options import QueryOptions
from repro.api.session import Session, connect
from repro.data.catalog import dataset
from repro.data.sampling import attach_samples
from repro.datalog import Hypergraph, parse_query, select_gao
from repro.dist.merge import merge_rows, straggler_ratio
from repro.dist.planner import plan_query
from repro.engine import QueryEngine
from repro.exec.executor import SerialPlanExecutor
from repro.exec.shards import decode_database, encode_relation
from repro.net import columnar, protocol
from repro.queries import build_query
from repro.service.service import QueryService
from repro.storage import Database, TrieIndex, edge_relation_from_pairs
from repro.storage.loader import nodes_of

from perf.harness import free_ports, start_servers
from perf.workloads import SAMPLES, Workload, hubs, reference_database

REFERENCE = ("ego-Facebook", 8)
CYCLIC_CELLS = (("lftj", "3-clique"), ("ms", "3-clique"), ("lftj", "4-clique"),
                ("lftj", "4-cycle"), ("ms", "4-cycle"))
ACYCLIC_CELLS = (("ms", "3-path"), ("lftj", "3-path"), ("ms", "2-comb"),
                 ("yannakakis", "2-comb"), ("ms", "1-tree"))
PAGE = 1024


def median_seconds(call: Callable[[], object], repeat: int = 5,
                   number: int = 1) -> float:
    """Median over ``repeat`` timings of ``number`` back-to-back calls."""
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        for _ in range(number):
            call()
        samples.append((time.perf_counter() - started) / number)
    return statistics.median(samples)


def overhead_seconds(base: Callable[[], object],
                     wrapped: Callable[[], object], repeat: int = 7,
                     number: int = 50) -> float:
    """Median of ``wrapped − base`` per call over interleaved timings: a
    change of machine speed hits both sides of each difference."""
    differences = []
    for _ in range(repeat):
        started = time.perf_counter()
        for _ in range(number):
            base()
        middle = time.perf_counter()
        for _ in range(number):
            wrapped()
        ended = time.perf_counter()
        differences.append((ended - 2 * middle + started) / number)
    return statistics.median(differences)


def adaptive_median(call: Callable[[], object]) -> float:
    """Three runs of a cheap cell, two of a dear one."""
    first = median_seconds(call, repeat=1)
    rest = [median_seconds(call, repeat=1)
            for _ in range(2 if first < 0.15 else 1)]
    return statistics.median([first] + rest)


def direct_algorithm(engine: QueryEngine, name: str, query):
    """The algorithm instance the executor would build: registry factory
    plus the prepared attribute order."""
    instance = engine.make_algorithm(name)
    order = engine.prepare(query, name).gao_names
    if order is not None and getattr(instance, "variable_order", 0) is None:
        instance.variable_order = order
    return instance


# ----------------------------------------------------------------------
# Probes on the workload's own dataset
# ----------------------------------------------------------------------
def data_and_storage(workload: Workload, rng: random.Random
                     ) -> Dict[str, float]:
    spec = dataset(workload.dataset)
    selectivity = workload.selectivity or REFERENCE[1]
    metrics = {"data.generate_s": median_seconds(
        lambda: spec.generate_edges(scale=workload.scale), repeat=3)}
    edges = spec.generate_edges(scale=workload.scale)

    def load() -> Database:
        database = Database([edge_relation_from_pairs(edges)])
        attach_samples(database, selectivity, sample_names=SAMPLES)
        return database
    metrics["storage.load_s"] = median_seconds(load, repeat=3)

    database = load()
    relation = database.relation("edge")
    orders = ((0, 1), (1, 0))
    build = sum(median_seconds(lambda o=order: TrieIndex(relation, o),
                               repeat=3) for order in orders)
    metrics["storage.index_build_us_per_ktuple"] = \
        build * 1e6 / (len(orders) * len(relation) / 1000.0)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    keep = [TrieIndex(relation, order) for order in orders]
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    metrics["storage.index_bytes_per_tuple"] = \
        (after - before) / (len(keep) * len(relation))

    index = database.index("edge", (0, 1))
    nodes = nodes_of(relation)
    walk = [((rng.choice(nodes),), rng.choice(nodes)) for _ in range(20000)]

    def seek_walk() -> None:
        seek = index.seek_value
        for prefix, value in walk:
            seek(prefix, value)

    def gap_walk() -> None:
        gap = index.gap_around
        for prefix, value in walk:
            gap(prefix, value)
    metrics["storage.seek_ns"] = \
        median_seconds(seek_walk, repeat=3) * 1e9 / len(walk)
    metrics["storage.gap_around_ns"] = \
        median_seconds(gap_walk, repeat=3) * 1e9 / len(walk)

    twin = edge_relation_from_pairs(edges[1:])
    versions = [twin, relation]

    def write() -> None:
        versions.reverse()
        database.add(versions[0], replace=True)
    metrics["storage.write_ms"] = median_seconds(write, repeat=5,
                                                 number=20) * 1e3

    texts = []
    for cycle in workload.cycles:
        for spec_ in cycle:
            if spec_.text and spec_.text not in texts:
                texts.append(spec_.text)
    texts = texts[:16]
    queries = [parse_query(text) for text in texts]
    engine = QueryEngine(database)
    metrics["datalog.parse_us"] = statistics.median(
        median_seconds(lambda t=text: parse_query(t), number=5)
        for text in texts) * 1e6
    metrics["datalog.gao_us"] = statistics.median(
        median_seconds(lambda q=query: select_gao(q, policy="auto"),
                       number=3)
        for query in queries) * 1e6
    metrics["engine.prepare_us"] = statistics.median(
        median_seconds(lambda t=text: engine.prepare(t), number=3)
        for text in texts) * 1e6
    metrics["engine.plan_us"] = statistics.median(
        median_seconds(lambda t=text: engine.plan(t), number=3)
        for text in texts) * 1e6
    return metrics


# ----------------------------------------------------------------------
# Probes on the reference input
# ----------------------------------------------------------------------
def kernels(database: Database) -> Dict[str, float]:
    """The paper's cells as direct ``Algorithm.count`` calls."""
    engine = QueryEngine(database)
    metrics: Dict[str, float] = {}
    for name, pattern_name in CYCLIC_CELLS + ACYCLIC_CELLS:
        query = build_query(pattern_name)
        instance = direct_algorithm(engine, name, query)
        metrics[f"joins.{name}.{pattern_name}_ms"] = adaptive_median(
            lambda: instance.count(database, query)) * 1e3

    # Waste ratios, in the paper's vocabulary: work per output row.
    calls = [0]
    original = TrieIndex.seek_value

    def counting(self, prefix, value):
        calls[0] += 1
        return original(self, prefix, value)
    triangle = build_query("3-clique")
    instance = direct_algorithm(engine, "lftj", triangle)
    TrieIndex.seek_value = counting
    try:
        rows = instance.count(database, triangle)
    finally:
        TrieIndex.seek_value = original
    metrics["joins.lftj.seeks_per_row"] = calls[0] / max(rows, 1)
    path = build_query("3-path")
    minesweeper = direct_algorithm(engine, "ms", path)
    rows = minesweeper.count(database, path)
    stats = minesweeper.last_statistics
    probes = sum(entry.get("probes", 0) for entry in stats.probe_statistics)
    metrics["joins.ms.probes_per_row"] = probes / max(rows, 1)
    metrics["joins.ms.constraints_per_row"] = \
        stats.constraints_inserted / max(rows, 1)
    return metrics


def exec_api_service(database: Database) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    engine = QueryEngine(database)
    first, second = hubs(database, 2)
    cheap = f"edge({first},c), edge({second},c)"
    cheap_query = parse_query(cheap)
    instance = direct_algorithm(engine, "lftj", cheap_query)
    plan = engine.plan(cheap, "lftj")
    executor = SerialPlanExecutor()

    def through_executor() -> int:
        return executor.count(database, plan, factory=engine.make_algorithm)
    metrics["exec.serial_overhead_us"] = overhead_seconds(
        lambda: instance.count(database, cheap_query), through_executor,
        number=200) * 1e6

    triangle = build_query("3-clique")
    sharded = engine.plan(triangle, "lftj", parallel=2)
    metrics["exec.partition_ms"] = median_seconds(
        lambda: sharded.partitioner.fragments(database), repeat=5) * 1e3
    edge = database.relation("edge")
    metrics["exec.shard_codec_ns_per_tuple"] = median_seconds(
        lambda: decode_database({"edge": encode_relation(edge)}),
        repeat=5) * 1e9 / len(edge)

    with Session(database, options=QueryOptions(
            use_cache=False, parallel=2, algorithm="lftj")) as session:
        session.engine.warm_up()
        session.run(triangle).count()
        serial = median_seconds(
            lambda: session.run(triangle, parallel=1).count(), repeat=3)
        two = median_seconds(lambda: session.run(triangle).count(), repeat=3)
        # Base: the serial 3-clique·lftj cell on the reference graph.
        metrics["exec.p2_speedup"] = serial / two

    with Session(database, options=QueryOptions(
            use_cache=False, algorithm="lftj")) as session:
        # What a cold Session.run adds to the executor call: option
        # resolution, re-planning the text, the ResultSet.
        metrics["api.run_overhead_us"] = overhead_seconds(
            through_executor, lambda: session.run(cheap).count()) * 1e6
        path = build_query("3-path")
        rows = session.run(path).count()
        metrics["api.emit_ns_per_row"] = overhead_seconds(
            lambda: session.run(path).count(),
            lambda: session.run(path).fetchall(),
            repeat=5, number=1) * 1e9 / rows
        plain = median_seconds(lambda: session.run(triangle).count(),
                               repeat=3)
        traced = median_seconds(
            lambda: session.run(triangle, trace=True).count(), repeat=3)
        # Base: untraced 3-clique·lftj through Session.run.
        metrics["obs.query_trace_overhead"] = traced / plain

    with QueryService(database) as service:
        service.execute(cheap)
        metrics["service.hit_us"] = median_seconds(
            lambda: service.execute(cheap), repeat=7, number=100) * 1e6
    return metrics


def wire_codec(rows: Sequence[tuple]) -> Dict[str, float]:
    """Encode, frame and decode one real 1024-row page."""
    page = list(rows[:PAGE])
    meta, blocks = columnar.encode_columns(page)
    payload = b"".join(blocks)
    header = {"id": 1, "ok": True, "done": False, "cols": meta,
              "n": len(page)}
    frame = protocol.encode_binary_frame(header, blocks)
    encode = median_seconds(lambda: columnar.encode_columns(page),
                            repeat=7, number=5)

    def decode() -> None:
        columnar.rows_from_columns(columnar.decode_columns(meta, payload),
                                   len(page))
    decoded = median_seconds(decode, repeat=7, number=5)

    def framing() -> None:
        protocol.read_frame(io.BytesIO(
            protocol.encode_binary_frame(header, blocks)).read)
    # Frame cost net of the column decode read_frame performs inside.
    framed = median_seconds(framing, repeat=7, number=5) - decoded
    if protocol.read_frame(io.BytesIO(frame).read)["rows"] != page:
        raise RuntimeError("the probe's page did not survive its own frame")
    return {
        "net.encode_ns_per_row": encode * 1e9 / len(page),
        "net.decode_ns_per_row": decoded * 1e9 / len(page),
        "net.frame_us": framed * 1e6,
    }


def dist_local(database: Database, rows: Sequence[tuple]) -> Dict[str, float]:
    triangle = build_query("3-clique")
    sizes = {index: len(database.relation(atom.name))
             for index, atom in enumerate(triangle.atoms)}
    acyclic = Hypergraph.of_query(triangle).is_beta_acyclic()
    half = len(rows) // 2
    pages = [list(rows[:half]), list(rows[half:])]
    return {
        "dist.plan_us": median_seconds(
            lambda: plan_query(triangle, shards=2, beta_acyclic=acyclic,
                               sizes=sizes), repeat=7, number=5) * 1e6,
        "dist.merge_ns_per_row": median_seconds(
            lambda: merge_rows(pages), repeat=7, number=5) * 1e9 / len(rows),
    }


def _shard_seconds(trace: dict) -> List[float]:
    """Each shard's server-reported execution time in a stitched trace."""
    seconds = []

    def server_node(node: dict):
        if node.get("name") == "server":
            return node
        for child in node.get("children", ()):
            found = server_node(child)
            if found is not None:
                return found
        return None
    for shard in trace["root"].get("children", ()):
        if shard.get("name") == "shard":
            node = server_node(shard)
            if node is not None:
                seconds.append(float(node["duration"]))
    return seconds


def fleet(scale: float) -> Dict[str, float]:
    """Two real ``repro server --peers`` subprocesses on the reference
    input: round trip, page fetch, and what fan-out adds."""
    name, selectivity = REFERENCE
    ports = free_ports(2)
    peers = ",".join(f"127.0.0.1:{port}" for port in ports)
    servers = start_servers([
        ["--dataset", name, "--selectivity", str(selectivity), "--scale",
         str(scale), "--port", str(port), "--peers", peers]
        for port in ports])
    metrics = {"cli.server_ready_s": max(s.ready_s for s in servers)}
    try:
        path, triangle = str(build_query("3-path")), \
            str(build_query("3-clique"))
        with connect(servers[0].url, pool_size=1) as session:
            metrics["net.rtt_us"] = median_seconds(
                session.stats, repeat=7, number=40) * 1e6
            session.run(path).fetchall()  # the pages come from the cache
            fetches = []
            for _ in range(3):
                result = session.run(path)
                while True:
                    started = time.perf_counter()
                    page = result.fetchmany(PAGE)
                    if len(page) < PAGE:
                        break
                    fetches.append(time.perf_counter() - started)
            metrics["net.page_fetch_us"] = statistics.median(
                fetches or [0.0]) * 1e6
        with connect(f"repro://{peers}", use_cache=False,
                     parallel=2) as cluster:
            cluster.run(triangle).count()
            overheads, ratios, client, peer = [], [], [], []
            for _ in range(5):
                started = time.perf_counter()
                result = cluster.run(triangle, trace=True)
                result.count()
                elapsed = time.perf_counter() - started
                shards = _shard_seconds(result.stats.trace)
                if shards:
                    overheads.append(elapsed - max(shards))
                    ratios.append(straggler_ratio(shards) or 1.0)
                client.append(median_seconds(
                    lambda: cluster.run(triangle).count(), repeat=1))
                peer.append(median_seconds(
                    lambda: cluster.run(triangle, route="peer").count(),
                    repeat=1))
            metrics["dist.fanout_overhead_ms"] = statistics.median(
                overheads or [0.0]) * 1e3
            metrics["dist.straggler_ratio"] = \
                statistics.median(ratios or [1.0])
            # Base: the client-coordinated 3-clique count, same fleet.
            metrics["dist.peer_over_client"] = \
                statistics.median(peer) / statistics.median(client)
    finally:
        for server in servers:
            server.stop()
    return metrics


def run_all(workload: Workload) -> Dict[str, float]:
    rng = random.Random(f"probes/{workload.seed}")
    reference = reference_database(REFERENCE[0], REFERENCE[1],
                                   workload.scale)
    with Session(reference, options=QueryOptions(
            use_cache=False, algorithm="lftj")) as session:
        rows = session.run(build_query("3-path")).fetchall()
    metrics = data_and_storage(workload, rng)
    metrics.update(kernels(reference))
    metrics.update(exec_api_service(reference))
    metrics.update(wire_codec(rows))
    metrics.update(dist_local(reference, rows))
    metrics.update(fleet(workload.scale))
    return metrics
