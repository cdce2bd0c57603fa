"""The six workloads.

Each workload is a *cycle*: a short, fixed, seeded list of operations that
the closed loop repeats, whole cycles only, for the length of the run.
The graph and the node samples are the catalog's own: a second graph seed
moves triangle counts, and with them every throughput number, by ±10 %,
and a second draw of Zipf parameters would do the same (two-hop counts
from one hub and from the next differ by 10×).  So the operation *mix* of a
cycle is fixed — Zipf frequencies are dealt, not drawn — and ``--seed``
drives what is left: the order of the operations, which client issues
which, and the edge toggles of the write stream.  The program only ever
sees the inputs.

Lifecycle: ``plan()`` (the benchmark's own input generation) → ``setup()``
(what ``setup_s`` measures) → ``oracle()`` (expected answers from an
independent algorithm; the benchmark's cost) → ``clients()`` → ``teardown()``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.options import QueryOptions
from repro.api.session import Session, connect
from repro.data.catalog import dataset
from repro.data.sampling import attach_samples, sample_nodes
from repro.datalog import Hypergraph, parse_query
from repro.queries import build_query
from repro.service.service import QueryService
from repro.storage import Database, edge_relation_from_pairs, node_relation
from repro.storage.loader import nodes_of

from perf.harness import Answer, Op, ServerProc, consume, free_ports, \
    start_servers

SAMPLES = ("v1", "v2", "v3", "v4")


@dataclass(frozen=True)
class Spec:
    """One operation, declaratively: the loop binds it to a session and
    the oracle answers it on its own database."""

    cell: str
    text: str = ""
    mode: str = "count"            # "count" | "rows"
    algorithm: Optional[str] = None
    parallel: Optional[int] = None
    route: Optional[str] = None
    prepared: bool = False
    write: Optional[Tuple[str, int]] = None   # (relation, version index)

    def options(self) -> Dict[str, object]:
        pairs = (("algorithm", self.algorithm), ("parallel", self.parallel),
                 ("route", self.route))
        return {key: value for key, value in pairs if value is not None}


def pattern(name: str) -> str:
    return str(build_query(name))


def zipf_counts(total: int, size: int, exponent: float) -> List[int]:
    """``total`` draws dealt over ranks ``0..size-1`` in Zipf proportion
    (largest remainders).  Dealing the expected counts instead of drawing
    them keeps the operation mix, hence the work, identical for every
    seed; the seed only orders the operations."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(range(size), key=lambda r: counts[r] - exact[r])
    for rank in by_remainder[:total - sum(counts)]:
        counts[rank] += 1
    return counts


def hubs(database: Database, count: int) -> List[int]:
    """The ``count`` highest-degree nodes, highest first (ties by id)."""
    degree: Dict[int, int] = {}
    for source, _ in database.relation("edge"):
        degree[source] = degree.get(source, 0) + 1
    return sorted(degree, key=lambda node: (-degree[node], node))[:count]


def reference_database(name: str, selectivity: Optional[int],
                       scale: float = 1.0) -> Database:
    """What ``repro server --dataset name --selectivity s`` serves, built
    through the same public loaders."""
    edges = dataset(name).generate_edges(scale=scale)
    database = Database([edge_relation_from_pairs(edges)])
    if selectivity is not None:
        attach_samples(database, selectivity, sample_names=SAMPLES)
    return database


def independent_algorithm(text: str, used: Optional[str]) -> str:
    """An algorithm other than the one the operation runs."""
    if used != "generic":
        return "generic"
    acyclic = Hypergraph.of_query(parse_query(text)).is_beta_acyclic()
    return "yannakakis" if acyclic else "lftj"


class Workload:
    name = ""
    dataset = "ego-Facebook"
    selectivity: Optional[int] = None
    #: Server processes do the work: on whichever vCPU, so the machine
    #: speed sampled on the driver's thread does not apply and times are
    #: reported raw.
    served = False

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self.scale = 0.5 if quick else 1.0
        #: Set for the traced pass: servers run under the wrappers and
        #: leave their spans here.
        self.spans_dir: Optional[str] = None
        self.rng = random.Random(f"{self.name}/{seed}")
        self.cycles: List[List[Spec]] = []
        self.expected: Dict[Spec, Answer] = {}
        self.servers: List[ServerProc] = []
        self.span_files: List[str] = []
        #: What set-up opened, closed in reverse by ``teardown``.
        self.closers: list = []

    # -- lifecycle ----------------------------------------------------------
    def plan(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        while self.closers:
            self.closers.pop()()
        for server in self.servers:
            server.stop()
        self.servers = []

    def oracle(self) -> None:
        """Expected answers, from an independent algorithm on the
        benchmark's own copy of the data."""
        with Session(self.load(),
                     options=QueryOptions(use_cache=False)) as session:
            for spec in self.specs():
                self.expected[spec] = self.answer(session, spec)

    @staticmethod
    def answer(session: Session, spec: Spec) -> Answer:
        result = session.run(spec.text, algorithm=independent_algorithm(
            spec.text, spec.algorithm))
        if spec.mode == "count":
            return result.count(), None
        return consume(result.fetchall())

    def clients(self) -> List[List[Op]]:
        return [[Op(spec.cell, self.bind(spec), self.expected.get(spec))
                 for spec in cycle] for cycle in self.cycles]

    def bind(self, spec: Spec):
        raise NotImplementedError

    def specs(self) -> List[Spec]:
        """The distinct operations: what set-up warms and the oracle
        answers."""
        return list(dict.fromkeys(
            spec for cycle in self.cycles for spec in cycle))

    def warm(self) -> None:
        """One untimed pass over the distinct operations (part of set-up)."""
        for spec in self.specs():
            self.bind(spec)()

    def counters(self) -> Dict[str, float]:
        """Cumulative layer counters; the traced pass reports deltas."""
        return {}

    # -- helpers ------------------------------------------------------------
    def load(self) -> Database:
        """A fresh copy of what the workload's servers serve."""
        return reference_database(self.dataset, self.selectivity, self.scale)

    def spawn(self, argument_sets: Sequence[Sequence[str]]) -> List[str]:
        paths = None
        if self.spans_dir is not None:
            paths = [f"{self.spans_dir}/spans-{self.name}-{index}.json"
                     for index in range(len(argument_sets))]
            self.span_files = paths
        self.servers = start_servers(argument_sets, paths)
        return [server.url for server in self.servers]

    def server_arguments(self) -> List[str]:
        arguments = ["--dataset", self.dataset, "--scale", str(self.scale)]
        if self.selectivity is not None:
            arguments += ["--selectivity", str(self.selectivity)]
        return arguments


def run_on(session, spec: Spec):
    """Bind ``spec`` to anything with the ``Session.run`` surface."""
    options = spec.options()
    if spec.mode == "count":
        return lambda: (session.run(spec.text, **options).count(), None)
    return lambda: consume(session.run(spec.text, **options).fetchall())


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
class ColdCyclic(Workload):
    name = "cold-cyclic"
    CELLS = (("3-clique", "lftj", 1), ("3-clique", "ms", 1),
             ("4-clique", "lftj", 1), ("4-cycle", "lftj", 1),
             ("4-cycle", "ms", 1), ("3-clique", "lftj", 2),
             ("4-cycle", "lftj", 2))

    def plan(self) -> None:
        # An odd number of equal-weight cells keeps the median latency
        # inside one cell's mass instead of on a boundary between two.
        cells = [
            Spec(cell=f"{name}.{algorithm}" + (".p2" if shards > 1 else ""),
                 text=pattern(name), algorithm=algorithm, parallel=shards)
            for name, algorithm, shards in self.CELLS
        ]
        self.rng.shuffle(cells)
        self.cycles = [cells]

    def setup(self) -> None:
        self.database = self.load()
        # parallel=2 as the session default installs the process-pool
        # executor; the serial cells ask for parallel=1 per call.
        self.session = Session(self.database, options=QueryOptions(
            use_cache=False, parallel=2))
        self.closers.append(self.session.close)
        self.session.engine.warm_up()  # fork the pool while single-threaded
        self.warm()

    def bind(self, spec: Spec):
        return run_on(self.session, spec)


class ColdAcyclic(Workload):
    name = "cold-acyclic"
    selectivity = 8
    CELLS = (("3-path", "ms"), ("3-path", "lftj"), ("2-comb", "ms"),
             ("2-comb", "yannakakis"), ("1-tree", "ms"))

    def plan(self) -> None:
        cells = [Spec(cell=f"{name}.{algorithm}", text=pattern(name),
                      mode="rows", algorithm=algorithm)
                 for name, algorithm in self.CELLS]
        self.rng.shuffle(cells)
        self.cycles = [cells]

    def setup(self) -> None:
        self.database = self.load()
        self.session = Session(self.database,
                               options=QueryOptions(use_cache=False))
        self.closers.append(self.session.close)
        self.warm()

    def bind(self, spec: Spec):
        return run_on(self.session, spec)


class Churn(Workload):
    name = "churn"
    dataset = "soc-LiveJournal1"
    selectivity = 300
    VERSIONS = 5          # edge and v1 versions a cycle walks through

    def plan(self) -> None:
        base = self.load()
        domain = hubs(base, 6)
        self.edge_versions = [base.relation("edge")]
        pairs = sorted({(min(u, v), max(u, v))
                        for u, v in base.relation("edge")})
        nodes = nodes_of(base.relation("edge"))
        for _ in range(1, self.VERSIONS):
            # Toggle ~1 % of the edges: half removed, half new.
            toggled = set(pairs)
            flips = max(2, len(pairs) // 100)
            toggled.difference_update(self.rng.sample(pairs, flips // 2))
            while len(toggled) < len(pairs):
                u, v = self.rng.sample(nodes, 2)
                toggled.add((min(u, v), max(u, v)))
            self.edge_versions.append(edge_relation_from_pairs(toggled))
        # Re-samples of v1 are numbered, not seeded: at selectivity 300 a
        # sample is four nodes, and which four decides what 1-tree costs.
        self.v1_versions = [base.relation("v1")] + [
            node_relation(sample_nodes(nodes, self.selectivity,
                                       sample_index=1, seed=version), "v1")
            for version in range(1, self.VERSIONS)
        ]
        # The reads between two writes: two unparameterised patterns and
        # two Zipf(1.1)-dealt lookups over three hot keys each.  9 of the
        # 19 are distinct, so most reads are result-cache hits and the
        # median latency sits inside the hit mass, not on its edge.
        # 1-tree·ms runs under both of its registry names: two cache
        # keys, one cost, so the dearest tenth of the operations is one
        # homogeneous mass and the 95th percentile falls in its middle
        # instead of on the boundary with the next-dearest cell.
        epoch = [Spec("v1-edge-v2", "v1(a), edge(a,b), v2(b)")] * 2 + [
            Spec("1-tree.ms", pattern("1-tree"), algorithm=name)
            for name in ("ms", "lb/ms")]
        for rank, count in enumerate(zipf_counts(8, 3, 1.1)):
            x, y = domain[2 * rank], domain[2 * rank + 1]
            epoch += [Spec("common", f"edge({x},c), edge({y},c)",
                           mode="rows")] * count
        for rank, count in enumerate(zipf_counts(7, 3, 1.1)):
            epoch += [Spec("nbr-in-v1", f"edge({domain[rank]},b), v1(b)")] \
                * count
        cycle: List[Spec] = []
        self.writes_per_cycle = 2 * self.VERSIONS
        for number in range(1, self.writes_per_cycle + 1):
            reads = list(epoch)
            self.rng.shuffle(reads)
            cycle += reads
            # edge, v1, edge, v1, ...; the last two writes restore
            # version 0 so every cycle starts from the same catalog.
            relation = "edge" if number % 2 else "v1"
            version = ((number + 1) // 2) % self.VERSIONS
            cycle.append(Spec(f"write-{relation}", write=(relation, version)))
        self.cycles = [cycle]
        self.expected_sequence: List[Answer] = []

    def version(self, relation: str, index: int):
        versions = self.edge_versions if relation == "edge" \
            else self.v1_versions
        return versions[index]

    def setup(self) -> None:
        self.database = self.load()
        self.service = QueryService(self.database)
        self.closers.append(self.service.close)
        self.warm()

    def warm(self) -> None:
        # One whole cycle: it ends on version 0 of both relations.
        for spec in self.cycles[0]:
            self.bind(spec)()

    def bind(self, spec: Spec):
        if spec.write is not None:
            relation = self.version(*spec.write)

            def write() -> Answer:
                self.database.add(relation, replace=True)
                if self.database.relation(relation.name) is not relation:
                    raise RuntimeError(f"write of {relation.name} was lost")
                return 0, None
            return write

        def read() -> Answer:
            outcome = self.service.execute(
                spec.text, algorithm=spec.algorithm,
                mode="count" if spec.mode == "count" else "tuples")
            if not outcome.succeeded:
                raise RuntimeError(outcome.error or "timed out")
            if spec.mode == "count":
                return outcome.value, None
            return consume(outcome.value)
        return read

    def oracle(self) -> None:
        """Replay the cycle's writes on a private catalog; a read's answer
        is keyed by the versions it ran against."""
        database = self.load()
        self.expected_sequence = []
        memo: Dict[tuple, Answer] = {}
        state = {"edge": 0, "v1": 0}
        with Session(database,
                     options=QueryOptions(use_cache=False)) as session:
            for spec in self.cycles[0]:
                if spec.write is not None:
                    relation, version = spec.write
                    state[relation] = version
                    database.add(self.version(*spec.write), replace=True)
                    self.expected_sequence.append((0, None))
                    continue
                key = (spec, state["edge"], state["v1"])
                if key not in memo:
                    memo[key] = self.answer(session, spec)
                self.expected_sequence.append(memo[key])

    def clients(self) -> List[List[Op]]:
        expected = self.expected_sequence or [None] * len(self.cycles[0])
        return [[Op(spec.cell, self.bind(spec), answer)
                 for spec, answer in zip(self.cycles[0], expected)]]

    def counters(self) -> Dict[str, float]:
        return dict(self.service.stats().as_dict())


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------
class ServeHot(Workload):
    name = "serve-hot"
    served = True
    dataset = "soc-LiveJournal1"
    selectivity = 10
    DOMAIN = 32
    CLIENTS = 2

    def plan(self) -> None:
        base = self.load()
        domain = hubs(base, self.DOMAIN)
        templates = (
            lambda x, y: Spec("two-hop", f"edge({x},b), edge(b,c)",
                              prepared=True),
            lambda x, y: Spec(
                "triangle", f"edge({x},b), edge(b,c), edge({x},c), b<c"),
            lambda x, y: Spec("fof-in-v1", f"edge({x},b), edge(b,c), v1(c)",
                              mode="rows", prepared=True),
            lambda x, y: Spec("common", f"edge({x},c), edge({y},c)",
                              mode="rows"),
        )
        per_template = 50 if self.quick else 250
        counts = zipf_counts(per_template, len(domain), 1.2)
        # Every (template, node) pair: what set-up warms.
        self.domain_specs, deck = [], []
        for template in templates:
            for rank, node in enumerate(domain):
                spec = template(node, domain[(rank + 1) % len(domain)])
                self.domain_specs.append(spec)
                deck += [spec] * counts[rank]
        self.rng.shuffle(deck)
        self.cycles = [deck[client::self.CLIENTS]
                       for client in range(self.CLIENTS)]

    def setup(self) -> None:
        url, = self.spawn([self.server_arguments() + [
            "--port", "0", "--max-prepared", "256"]])
        # lftj for every template: the two-hop and sample templates are
        # β-acyclic, and Minesweeper would make warming the domain 4×
        # dearer without changing anything the loop measures.
        self.session = connect(url, algorithm="lftj",
                               pool_size=self.CLIENTS)
        self.closers.append(self.session.close)
        self.handles = {spec: self.session.prepare(spec.text)
                        for spec in self.domain_specs if spec.prepared}
        self.warm()   # the whole domain: fills the server's result cache

    def bind(self, spec: Spec):
        if not spec.prepared:
            return run_on(self.session, spec)
        handle = self.handles[spec]
        if spec.mode == "count":
            return lambda: (handle.run().count(), None)
        return lambda: consume(handle.run().fetchall())

    def specs(self) -> List[Spec]:
        return self.domain_specs

    def counters(self) -> Dict[str, float]:
        return remote_counters(self.session)


class RemoteDrain(Workload):
    name = "remote-drain"
    served = True
    dataset = "soc-LiveJournal1"
    selectivity = 10
    FETCH_SIZE = 1024
    SETS = (
        ("edges-2col", "edge(a,b), a<b"),
        ("two-hop-3col", "v1(a), edge(a,b), edge(b,c), a<c"),
        ("three-path-4col",
         "v1(a), edge(a,b), edge(b,c), edge(c,d), v2(d), a<d"),
    )

    def plan(self) -> None:
        # generic builds these answers several times faster than the auto
        # choice; after warm-up no kernel runs, so only set-up notices.
        cells = [Spec(cell, text, mode="rows", algorithm="generic")
                 for cell, text in (self.SETS[:2] if self.quick
                                    else self.SETS)] * 2
        self.rng.shuffle(cells)
        self.cycles = [cells]

    def setup(self) -> None:
        url, = self.spawn([self.server_arguments() + ["--port", "0"]])
        self.session = connect(url, pool_size=1, fetch_size=self.FETCH_SIZE)
        self.closers.append(self.session.close)
        self.warm()

    def bind(self, spec: Spec):
        return run_on(self.session, spec)

    def counters(self) -> Dict[str, float]:
        return remote_counters(self.session)


class FleetFanout(Workload):
    name = "fleet-fanout"
    served = True
    selectivity = 8
    CELLS = (("3-clique", "client", "count"), ("4-cycle", "client", "count"),
             ("3-path", "client", "count"), ("3-clique", "peer", "count"),
             ("4-cycle", "peer", "count"), ("3-path", "peer", "count"),
             ("3-path", "client", "rows"))

    def plan(self) -> None:
        cells = [
            Spec(cell=f"{name}.{route}" + (".rows" if mode == "rows" else ""),
                 text=pattern(name), mode=mode, route=route)
            for name, route, mode in self.CELLS
        ]
        self.rng.shuffle(cells)
        self.cycles = [cells]
        self.hedged = self.rerouted = 0

    def setup(self) -> None:
        ports = free_ports(2)
        peers = ",".join(f"127.0.0.1:{port}" for port in ports)
        self.spawn([self.server_arguments() + [
            "--port", str(port), "--peers", peers] for port in ports])
        self.session = connect(f"repro://{peers}", use_cache=False,
                               parallel=2)
        self.closers.append(self.session.close)
        self.warm()

    def bind(self, spec: Spec):
        options = spec.options()

        def run() -> Answer:
            result = self.session.run(spec.text, **options)
            answer = (result.count(), None) if spec.mode == "count" \
                else consume(result.fetchall())
            info = result.gather_info
            self.hedged += info.get("hedges", 0)
            self.rerouted += info.get("reroutes", 0)
            return answer
        return run

    def counters(self) -> Dict[str, float]:
        return {"hedged": self.hedged, "rerouted": self.rerouted}


def remote_counters(session) -> Dict[str, float]:
    """Service counters over the ``stats`` op, wire bytes over ``metrics``."""
    stats = session.stats()
    counters = dict(stats["service"])
    counters["retries"] = stats["client"]["retries"]
    for line in session.metrics().splitlines():
        if line.startswith("repro_wire_fetch_payload_bytes_sum"):
            counters["fetch_payload_bytes"] = \
                counters.get("fetch_payload_bytes", 0.0) \
                + float(line.rsplit(" ", 1)[1])
    return counters


WORKLOADS = {cls.name: cls for cls in (
    ColdCyclic, ColdAcyclic, Churn, ServeHot, RemoteDrain, FleetFanout)}
