"""The query-engine façade: one entry point over every join algorithm.

:class:`QueryEngine` owns a registry of algorithm factories keyed by the
system names used throughout the paper's tables (``lb/lftj``, ``lb/ms``,
``psql``, ``monetdb``, ``graphlab``, ...), runs queries with an optional
soft timeout, and returns structured :class:`ExecutionResult` records that
the benchmark harness aggregates into paper-style tables.

The engine also implements the automatic algorithm selection a
general-purpose system would apply (``algorithm="auto"``): Minesweeper for
β-acyclic queries (where it is instance optimal), LFTJ otherwise — which is
exactly the "summary" recommendation of §5.2.

Compilation is separated from execution twice over.  The *logical* half:
:meth:`QueryEngine.prepare` performs the per-query-shape work exactly once
— parsing, hypergraph analysis, algorithm selection, and
global-attribute-order (GAO) search — and returns a reusable
:class:`PreparedQuery`.  The *physical* half: :meth:`QueryEngine.plan`
lowers a prepared query onto a :class:`~repro.exec.plan.PhysicalPlan`
(scan → partition → per-shard join → merge), and every execution entry
point (:meth:`count`, :meth:`bindings`, :meth:`tuples`, :meth:`execute`)
routes through the engine's pluggable
:class:`~repro.exec.executor.PlanExecutor` — serial by default
(behavior-identical to direct algorithm calls), or a multiprocessing
worker pool when the engine is built with ``parallel=N``.  Entry points
accept raw query text, a :class:`ConjunctiveQuery`, a
:class:`PreparedQuery`, or a :class:`~repro.exec.plan.PhysicalPlan`; the
service layer's plan cache (:mod:`repro.service.plan_cache`) stores
compiled plans so repeated parameterized queries skip both halves.

Execution itself has one surface: :meth:`QueryEngine.run` takes a frozen
:class:`~repro.api.options.QueryOptions` bundle — validated at this
boundary — and returns a lazy, streaming
:class:`~repro.api.result.ResultSet`.  The historical entry points
(:meth:`count`, :meth:`bindings`, :meth:`tuples`, :meth:`execute`) are
thin shims over it, and the session facade (:func:`repro.connect`)
layers plan/result caches on the same path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.options import QueryOptions
from repro.api.result import ResultCacheHooks, ResultSet
from repro.errors import (
    ExecutionError,
    ReproError,
    TimeoutExceeded,
    UnknownAlgorithmError,
)
from repro.datalog.gao import GAOChoice, select_gao
from repro.datalog.hypergraph import Hypergraph
from repro.datalog.parser import parse_query
from repro.datalog.query import ConjunctiveQuery
from repro.exec.executor import (
    PlanExecutor,
    ProcessPlanExecutor,
    SerialPlanExecutor,
    _apply_gao,
)
from repro.exec.partitioner import ParallelConfig, choose_scheme
from repro.exec.plan import PhysicalPlan, compile_plan
from repro.joins.base import JoinAlgorithm
from repro.joins.columnar import ColumnAtATimeJoin
from repro.joins.generic import GenericJoin
from repro.joins.graph_engine import GraphEngine
from repro.joins.hybrid import HybridMinesweeperLeapfrog
from repro.joins.leapfrog import LeapfrogTrieJoin
from repro.joins.minesweeper import MinesweeperJoin, MinesweeperOptions
from repro.joins.naive import NaiveBacktrackingJoin
from repro.joins.pairwise import PairwiseHashJoin
from repro.joins.yannakakis import YannakakisJoin
from repro.obs import trace as obs_trace
from repro.storage.database import Database
from repro.util import TimeBudget

AlgorithmFactory = Callable[[Optional[TimeBudget]], JoinAlgorithm]

# Algorithms that evaluate attribute-at-a-time following a GAO.  For the
# Minesweeper family the precomputed order is only valid when the query is
# β-acyclic (a NEO); on cyclic queries the engine's skeleton logic must
# choose the order itself.
_GAO_DRIVEN = frozenset({"lftj", "lb/lftj", "generic"})
_NEO_DRIVEN = frozenset({"ms", "lb/ms"})


@dataclass
class ExecutionResult:
    """Outcome of one query execution."""

    algorithm: str
    query: str
    count: Optional[int]
    seconds: float
    timed_out: bool = False
    error: Optional[str] = None
    shards: int = 1

    @property
    def succeeded(self) -> bool:
        return not self.timed_out and self.error is None

    def cell(self, precision: int = 1) -> str:
        """The paper-style table cell: seconds, or "-" for a timeout/error."""
        if not self.succeeded:
            return "-"
        return f"{self.seconds:.{precision}f}"


def run_to_record(supplier: Callable[[], ResultSet], algorithm: str,
                  query) -> ExecutionResult:
    """Drive a lazy result set to a count and record the outcome.

    The shared error-to-record mapping behind :meth:`QueryEngine.execute`
    and ``Session.execute``: planning errors, timeouts, and unsupported
    queries become error/timeout records instead of exceptions, so a
    benchmark grid or a serving worker never crashes on one bad cell.
    ``supplier`` runs the (validating, planning) half and returns the
    :class:`~repro.api.result.ResultSet` to count.
    """
    try:
        result_set = supplier()
    except ReproError as error:
        return ExecutionResult(
            algorithm=algorithm, query=str(query), count=None,
            seconds=0.0, error=str(error),
        )
    started = time.perf_counter()
    try:
        count = result_set.count()
    except TimeoutExceeded:
        return ExecutionResult(
            algorithm=result_set.algorithm, query=result_set.query_text,
            count=None, seconds=time.perf_counter() - started,
            timed_out=True, shards=result_set.shards,
        )
    except ReproError as error:
        # Anything the library can diagnose — unsupported queries,
        # missing relations, schema mismatches — renders as an error
        # cell rather than crashing the caller.
        return ExecutionResult(
            algorithm=result_set.algorithm, query=result_set.query_text,
            count=None, seconds=time.perf_counter() - started,
            error=str(error), shards=result_set.shards,
        )
    return ExecutionResult(
        algorithm=result_set.algorithm, query=result_set.query_text,
        count=count, seconds=time.perf_counter() - started,
        shards=result_set.shards,
    )


@dataclass(frozen=True)
class PreparedQuery:
    """A compiled query: parse + analysis + planning done once, reusable.

    Attributes
    ----------
    text:
        Canonical query text (``str(query)``); together with
        ``requested_algorithm`` this is the natural plan-cache key.
    query:
        The resolved :class:`ConjunctiveQuery`.
    algorithm:
        The concrete algorithm chosen for execution (never ``"auto"``).
    requested_algorithm:
        The algorithm as requested, with ``"auto"`` preserved so callers
        can tell an explicit choice from an automatic one.
    beta_acyclic:
        Whether the query hypergraph is β-acyclic (drives auto selection).
    gao:
        The precomputed global attribute order, or ``None`` when the chosen
        algorithm does not consume a precomputed order (e.g. Minesweeper on
        a cyclic query picks a skeleton-derived order itself).
    """

    text: str
    query: ConjunctiveQuery
    algorithm: str
    requested_algorithm: str
    beta_acyclic: bool
    gao: Optional[GAOChoice] = None

    @property
    def gao_names(self) -> Optional[Tuple[str, ...]]:
        """The precomputed GAO as attribute names, or ``None``."""
        return self.gao.names if self.gao is not None else None

    def cache_key(self) -> Tuple[str, str]:
        """The (canonical text, requested algorithm) plan-cache key."""
        return (self.text, self.requested_algorithm)


def default_registry() -> Dict[str, AlgorithmFactory]:
    """The built-in algorithm registry (worker processes rebuild this)."""
    return {
        # The paper's system names.
        "lb/lftj": lambda budget: LeapfrogTrieJoin(budget=budget),
        "lb/ms": lambda budget: MinesweeperJoin(budget=budget),
        "lb/hybrid": lambda budget: HybridMinesweeperLeapfrog(budget=budget),
        "psql": lambda budget: PairwiseHashJoin(budget=budget),
        "monetdb": lambda budget: ColumnAtATimeJoin(budget=budget),
        "graphlab": lambda budget: GraphEngine(budget=budget),
        # Library-internal aliases and extras.
        "lftj": lambda budget: LeapfrogTrieJoin(budget=budget),
        "ms": lambda budget: MinesweeperJoin(budget=budget),
        "hybrid": lambda budget: HybridMinesweeperLeapfrog(budget=budget),
        "generic": lambda budget: GenericJoin(budget=budget),
        "pairwise": lambda budget: PairwiseHashJoin(budget=budget),
        "columnar": lambda budget: ColumnAtATimeJoin(budget=budget),
        "yannakakis": lambda budget: YannakakisJoin(budget=budget),
        "naive": lambda budget: NaiveBacktrackingJoin(budget=budget),
    }


class QueryEngine:
    """Run conjunctive queries with a selectable join algorithm.

    Parameters
    ----------
    database:
        The catalog of relations to query.
    timeout:
        Default soft timeout in seconds applied to every execution (the
        paper uses 1800 s); ``None`` disables it.
    parallel:
        Default parallelism for every execution: ``None`` (serial), an
        int shard count, or a :class:`~repro.exec.partitioner.ParallelConfig`.
        Constructing the engine with ``parallel`` > 1 also installs a
        process-pool executor, so shards run on worker processes.
        Individual calls can override the *partitioning* via their
        ``parallel`` argument, but shards always run on the engine's
        executor — on a serial engine an overridden call partitions and
        executes the shards in-process (the reference behaviour the
        property tests compare against), it does not fork a pool.
    executor:
        The :class:`~repro.exec.executor.PlanExecutor` that runs physical
        plans.  Defaults to a serial executor, or a process-pool executor
        when ``parallel`` requests more than one shard.  The engine owns a
        defaulted executor (``close()`` releases it); a caller-supplied
        executor is borrowed.
    """

    def __init__(self, database: Database,
                 timeout: Optional[float] = None,
                 parallel: Optional[object] = None,
                 executor: Optional[PlanExecutor] = None) -> None:
        self.database = database
        self.timeout = timeout
        self.parallel = ParallelConfig.coerce(parallel)
        self._owns_executor = executor is None
        if executor is None:
            executor = (
                ProcessPlanExecutor(workers=self.parallel.shards)
                if self.parallel.shards > 1 else SerialPlanExecutor()
            )
        self.executor = executor
        self._registry: Dict[str, AlgorithmFactory] = default_registry()
        self._custom_algorithms: set = set()

    # ------------------------------------------------------------------
    # Registry management
    # ------------------------------------------------------------------
    def register(self, name: str, factory: AlgorithmFactory,
                 replace: bool = False) -> None:
        """Add a custom algorithm under ``name``.

        Custom factories exist only on this engine instance, so they
        cannot run on an out-of-process executor (worker processes
        rebuild the *default* registry); partitioned execution of a
        registered name is rejected rather than silently substituting
        the stock implementation.
        """
        if name in self._registry and not replace:
            raise ExecutionError(f"algorithm {name!r} is already registered")
        self._registry[name] = factory
        self._custom_algorithms.add(name)

    def algorithms(self) -> List[str]:
        """The registered algorithm names, sorted."""
        return sorted(self._registry)

    def make_algorithm(self, name: str,
                       budget: Optional[TimeBudget] = None) -> JoinAlgorithm:
        """Instantiate a registered algorithm."""
        if name == "auto":
            raise ExecutionError(
                "resolve 'auto' with select_algorithm(query) before instantiation"
            )
        factory = self._registry.get(name)
        if factory is None:
            known = ", ".join(self.algorithms())
            raise UnknownAlgorithmError(
                f"unknown algorithm {name!r}; known: {known}"
            )
        return factory(budget)

    # ------------------------------------------------------------------
    # Algorithm selection
    # ------------------------------------------------------------------
    def select_algorithm(self, query: ConjunctiveQuery) -> str:
        """The automatic choice: Minesweeper when β-acyclic, LFTJ otherwise."""
        hypergraph = Hypergraph.of_query(query)
        return "ms" if hypergraph.is_beta_acyclic() else "lftj"

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _resolve(self, query) -> ConjunctiveQuery:
        if isinstance(query, PhysicalPlan):
            return query.prepared.query
        if isinstance(query, PreparedQuery):
            return query.query
        if isinstance(query, ConjunctiveQuery):
            return query
        return parse_query(str(query))

    def prepare(self, query, algorithm: str = "auto") -> PreparedQuery:
        """Compile ``query`` once: parse, analyse, pick algorithm and GAO.

        The returned :class:`PreparedQuery` can be executed repeatedly via
        :meth:`count` / :meth:`bindings` / :meth:`execute` without paying
        parsing, hypergraph analysis, or the (potentially exponential) NEO
        search again.
        """
        if isinstance(query, PhysicalPlan):
            query = query.prepared
        if isinstance(query, PreparedQuery):
            if algorithm in ("auto", query.requested_algorithm, query.algorithm):
                return query
            return self.prepare(query.query, algorithm)
        with obs_trace.span("parse"):
            resolved = self._resolve(query)
        with obs_trace.span("analyze") as analyze_span:
            beta_acyclic = Hypergraph.of_query(resolved).is_beta_acyclic()
            if analyze_span is not None:
                analyze_span.annotate(beta_acyclic=beta_acyclic)
        if algorithm == "auto":
            name = "ms" if beta_acyclic else "lftj"
        else:
            name = algorithm
        if name != "auto" and name not in self._registry:
            known = ", ".join(self.algorithms())
            raise UnknownAlgorithmError(
                f"unknown algorithm {name!r}; known: {known}"
            )
        gao: Optional[GAOChoice] = None
        if name in _GAO_DRIVEN or (name in _NEO_DRIVEN and beta_acyclic):
            with obs_trace.span("gao"):
                gao = select_gao(resolved, policy="auto")
        return PreparedQuery(
            text=str(resolved),
            query=resolved,
            algorithm=name,
            requested_algorithm=algorithm,
            beta_acyclic=beta_acyclic,
            gao=gao,
        )

    def _instantiate(self, prepared: PreparedQuery,
                     budget: Optional[TimeBudget]) -> JoinAlgorithm:
        """Build the algorithm for a prepared query, reusing its GAO.

        Execution routes through the executor seam (which applies the
        GAO itself); this helper remains for callers that need a bare
        algorithm instance.
        """
        return _apply_gao(
            self.make_algorithm(prepared.algorithm, budget),
            prepared.gao_names,
        )

    def plan(self, query, algorithm: str = "auto",
             parallel: Optional[object] = None) -> PhysicalPlan:
        """Lower ``query`` onto a physical plan (scan → partition → join → merge).

        ``parallel`` overrides the engine's default partitioning for this
        plan (how shards *run* is the executor's business — see the class
        docstring).  An already-compiled :class:`PhysicalPlan` passes
        through untouched unless the call explicitly requests a different
        algorithm or partitioning, in which case it is recompiled from
        its prepared query — mirroring how :meth:`prepare` treats a
        :class:`PreparedQuery` with a mismatched algorithm.  Serial
        requests produce the degenerate single-shard plan whose execution
        is identical to calling the algorithm directly.
        """
        if isinstance(query, PhysicalPlan):
            prepared = query.prepared
            compatible_algorithm = algorithm in (
                "auto", prepared.requested_algorithm, prepared.algorithm
            )
            if compatible_algorithm and parallel is None:
                return query
            if parallel is None:
                # Keep the plan's own layout (not the engine default).
                parallel = (
                    ParallelConfig(shards=query.shards,
                                   mode=query.scheme.mode)
                    if query.scheme is not None else ParallelConfig()
                )
            return self.plan(prepared.query, algorithm, parallel)
        prepared = self.prepare(query, algorithm)
        config = (
            ParallelConfig.coerce(parallel) if parallel is not None
            else self.parallel
        )
        scheme = choose_scheme(
            prepared.query, config.shards, mode=config.mode,
            beta_acyclic=prepared.beta_acyclic, database=self.database,
        )
        return compile_plan(prepared, scheme)

    def _check_plan(self, plan: PhysicalPlan) -> PhysicalPlan:
        """Reject plans the engine's executor cannot run faithfully."""
        if (plan.shards > 1 and self.executor.runs_out_of_process
                and plan.algorithm in self._custom_algorithms):
            raise ExecutionError(
                f"algorithm {plan.algorithm!r} was registered on this "
                f"engine and cannot run on worker processes (they only "
                f"see the default registry); execute it serially or use "
                f"a SerialPlanExecutor"
            )
        return plan

    # ------------------------------------------------------------------
    # Execution — run(options) -> ResultSet is the one execution surface;
    # the legacy entry points below are thin shims over it.
    # ------------------------------------------------------------------
    def run(self, query, options: Optional[QueryOptions] = None,
            **overrides) -> ResultSet:
        """Run ``query`` under a :class:`QueryOptions` bundle, lazily.

        Validation happens here, at the API boundary: a ``parallel`` below
        1 or an unknown ``partition_mode`` raises
        :class:`~repro.errors.OptionsError` (a ``ValueError``) before any
        planning starts.  The returned
        :class:`~repro.api.result.ResultSet` executes nothing until
        consumed; iteration streams through the executor's shard-merge
        path.  ``use_cache`` is a session-level concern — an engine has no
        caches, so it is ignored here.
        """
        options = QueryOptions.resolve(options, overrides)
        qtrace: Optional[obs_trace.QueryTrace] = None
        if options.trace:
            qtrace = obs_trace.QueryTrace()
            plan_span = qtrace.begin("plan")
            with qtrace.activate(plan_span):
                plan = self.plan(
                    query, options.algorithm,
                    options.parallel_request(self.parallel),
                )
            plan_span.annotate(algorithm=plan.algorithm).finish()
        else:
            plan = self.plan(
                query, options.algorithm,
                options.parallel_request(self.parallel),
            )
        return self.run_plan(plan, timeout=options.timeout,
                             limit=options.limit, trace=qtrace)

    def run_plan(self, plan: PhysicalPlan, *,
                 timeout: Optional[float] = None,
                 limit: Optional[int] = None,
                 plan_seconds: float = 0.0,
                 plan_cached: bool = False,
                 hooks: Optional[ResultCacheHooks] = None,
                 trace: Optional[obs_trace.QueryTrace] = None) -> ResultSet:
        """Wrap an already-compiled plan in a lazy :class:`ResultSet`.

        The session layer calls this with its cache hooks and plan-cache
        provenance; :meth:`run` calls it bare.  ``timeout=None`` inherits
        the engine default.  ``trace`` is the per-query span tree the
        result set records execution spans into.
        """
        plan = self._check_plan(plan)
        return ResultSet(
            self, plan,
            timeout=timeout if timeout is not None else self.timeout,
            limit=limit,
            plan_seconds=plan_seconds,
            plan_cached=plan_cached,
            hooks=hooks,
            trace=trace,
        )

    def count(self, query, algorithm: str = "auto",
              timeout: Optional[float] = None,
              parallel: Optional[object] = None) -> int:
        """The number of output tuples; raises on timeout or error."""
        options = QueryOptions.from_legacy(algorithm, timeout, parallel)
        return self.run(query, options).count()

    def bindings(self, query, algorithm: str = "auto",
                 timeout: Optional[float] = None,
                 parallel: Optional[object] = None):
        """Iterate the output bindings of ``query``."""
        options = QueryOptions.from_legacy(algorithm, timeout, parallel)
        return iter(self.run(query, options))

    def tuples(self, query, algorithm: str = "auto",
               timeout: Optional[float] = None,
               parallel: Optional[object] = None) -> List[Tuple[int, ...]]:
        """The sorted output tuples in first-occurrence variable order."""
        options = QueryOptions.from_legacy(algorithm, timeout, parallel)
        rows = self.run(query, options).fetchall()
        rows.sort()
        return rows

    def execute(self, query, algorithm: str = "auto",
                timeout: Optional[float] = None,
                parallel: Optional[object] = None) -> ExecutionResult:
        """Run a count query and capture timing, timeouts, and errors."""
        return run_to_record(
            lambda: self.run(
                query, QueryOptions.from_legacy(algorithm, timeout, parallel)
            ),
            algorithm, query,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def warm_up(self) -> None:
        """Pre-start the executor's lazy resources (e.g. the process pool)."""
        self.executor.warm_up()

    def close(self) -> None:
        """Release the engine's executor if the engine created it."""
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
