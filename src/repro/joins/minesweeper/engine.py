"""The Minesweeper outer loop (Algorithm 3) and its configuration.

The engine ties together the pieces built by the rest of the subpackage:

1. choose a global attribute order (GAO) — a nested elimination order when
   the query is β-acyclic, otherwise a NEO of a β-acyclic *skeleton* of the
   query (Idea 7) extended to the remaining attributes;
2. build one :class:`~repro.joins.minesweeper.gaps.GapProber` per atom,
   indexed consistently with the GAO;
3. repeatedly ask the :class:`~repro.joins.minesweeper.cds.ConstraintTree`
   for the next free tuple, probe every atom (and every comparison filter)
   around it, and either report the tuple as an output or insert the
   discovered gap boxes;
4. for atoms outside the β-acyclic skeleton, use the gap only to advance
   the frontier instead of inserting it (Idea 7), trading possibly repeated
   probes for a CDS that stays chain-shaped.

Every optimisation from §4 can be switched off independently through
:class:`MinesweeperOptions`, which is how the ablation benchmarks
(Tables 1-3 of the paper) measure each idea's contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ExecutionError
from repro.datalog.atoms import ComparisonAtom
from repro.datalog.gao import GAOChoice, select_gao
from repro.datalog.hypergraph import Hypergraph
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Variable, is_variable
from repro.joins.base import (
    Binding,
    JoinAlgorithm,
    atom_variable_columns,
    resolve_atom_relation,
)
from repro.joins.minesweeper.cds import ConstraintTree
from repro.joins.minesweeper.constraints import (
    Constraint,
    NEG_INF,
    POS_INF,
    excluded_intervals,
)
from repro.joins.minesweeper.gaps import AtomProbePlan, GapProber
from repro.obs.metrics import record_minesweeper_run
from repro.storage.database import Database
from repro.storage.trie import TrieIndex
from repro.util import TimeBudget


_FLIPPED_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


@dataclass(frozen=True)
class MinesweeperOptions:
    """Feature switches mirroring the implementation ideas of §4.

    Attributes
    ----------
    enable_probe_cache:
        Idea 4 — remember which gaps each relation already reported and
        which projections are known to be present, so repeated
        ``seek_glb``/``seek_lub`` probes are avoided.
    enable_interval_caching:
        Idea 5 — cache the interval discovered by a ping-pong round of
        ``getFreeValue`` in the chain's bottom node.
    enable_complete_nodes:
        Idea 6 — once a bottom node has been exhausted twice, trust its own
        interval list and skip the ping-pong entirely.
    use_skeleton:
        Idea 7 — on β-cyclic queries, only insert gaps from a β-acyclic
        skeleton of the query into the CDS; gaps from the remaining atoms
        merely advance the frontier.
    gao_policy:
        How to choose the GAO when no explicit order is given; passed to
        :func:`repro.datalog.gao.select_gao` for β-acyclic queries.
    """

    enable_probe_cache: bool = True
    enable_interval_caching: bool = True
    enable_complete_nodes: bool = True
    use_skeleton: bool = True
    gao_policy: str = "auto"

    @classmethod
    def baseline(cls) -> "MinesweeperOptions":
        """Every optimisation switched off (the ablation baseline)."""
        return cls(
            enable_probe_cache=False,
            enable_interval_caching=False,
            enable_complete_nodes=False,
            use_skeleton=False,
        )


@dataclass
class MinesweeperStatistics:
    """Aggregated run statistics exposed after an execution."""

    free_tuples_examined: int = 0
    outputs: int = 0
    constraints_inserted: int = 0
    frontier_advances: int = 0
    skeleton_size: int = 0
    num_atoms: int = 0
    probe_statistics: List[Dict[str, int]] = field(default_factory=list)


@dataclass
class _FilterProbe:
    """A comparison filter viewed as a gap source.

    ``low_position`` is the earlier GAO position involved (or ``None`` when
    that side is a constant), ``high_position`` the later one; ``op`` is
    normalised so the predicate reads ``bound op value_at_high_position``.
    """

    filter: ComparisonAtom
    low_position: Optional[int]
    low_constant: Optional[int]
    high_position: int
    op: str


class MinesweeperJoin(JoinAlgorithm):
    """The Minesweeper join algorithm (Algorithms 2-6 plus Ideas 1-7).

    Parameters
    ----------
    budget:
        Optional soft time budget.
    options:
        Feature switches; defaults to everything enabled.
    variable_order:
        Explicit GAO as a list of variable names (used by the Table 4
        GAO-sensitivity benchmark).  When omitted the engine selects a NEO
        (β-acyclic queries) or a skeleton-derived order (cyclic queries).
    """

    name = "ms"

    def __init__(self, budget: Optional[TimeBudget] = None,
                 options: Optional[MinesweeperOptions] = None,
                 variable_order: Optional[Sequence[str]] = None) -> None:
        super().__init__(budget)
        self.options = options or MinesweeperOptions()
        self.variable_order = tuple(variable_order) if variable_order else None
        self.last_statistics: Optional[MinesweeperStatistics] = None
        # The GAO used by the most recent run (set even for empty outputs).
        self.last_order: Optional[Tuple[Variable, ...]] = None
        # When set to a list, every discovered gap box is appended to it,
        # which is how repro.joins.minesweeper.certificate collects the box
        # certificate of a run.
        self.certificate_sink: Optional[List[Constraint]] = None

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _explicit_order(self, query: ConjunctiveQuery) -> Tuple[Variable, ...]:
        by_name = {v.name: v for v in query.variables}
        missing = [name for name in self.variable_order or () if name not in by_name]
        if missing:
            raise ExecutionError(f"unknown variables in explicit GAO: {missing}")
        if len(self.variable_order or ()) != len(query.variables):
            raise ExecutionError("explicit GAO must mention every query variable")
        return tuple(by_name[name] for name in self.variable_order or ())

    def _select_order_and_skeleton(
            self, query: ConjunctiveQuery) -> Tuple[Tuple[Variable, ...], Set[int]]:
        """Choose the GAO and the set of skeleton atom indexes (Idea 7)."""
        hypergraph = Hypergraph.of_query(query)
        beta_acyclic = hypergraph.is_beta_acyclic()

        if self.variable_order is not None:
            order = self._explicit_order(query)
            skeleton = self._skeleton_atoms(query) if not beta_acyclic else set(
                range(len(query.atoms)))
            if not self.options.use_skeleton:
                skeleton = set(range(len(query.atoms)))
            return order, skeleton

        if beta_acyclic:
            choice = select_gao(query, policy=self.options.gao_policy)
            return choice.order, set(range(len(query.atoms)))

        # β-cyclic: pick a maximal β-acyclic skeleton and order it with a NEO.
        skeleton = self._skeleton_atoms(query)
        order = self._order_from_skeleton(query, skeleton)
        if not self.options.use_skeleton:
            skeleton = set(range(len(query.atoms)))
        return order, skeleton

    @staticmethod
    def _skeleton_atoms(query: ConjunctiveQuery) -> Set[int]:
        """A maximal subset of atom indexes whose sub-hypergraph is β-acyclic.

        Atoms are considered in descending arity (unary sample relations are
        always safe to add last), greedily keeping every atom that does not
        break β-acyclicity.  The result always contains at least one atom.
        """
        variables = query.variables
        candidate_order = sorted(
            range(len(query.atoms)),
            key=lambda i: (-query.atoms[i].arity, i),
        )
        chosen: List[int] = []
        for index in candidate_order:
            trial = chosen + [index]
            edges = [set(query.atoms[i].variables) for i in trial]
            if Hypergraph(variables, edges).is_beta_acyclic():
                chosen.append(index)
        if not chosen:
            chosen.append(candidate_order[0])
        return set(chosen)

    @staticmethod
    def _order_from_skeleton(query: ConjunctiveQuery,
                             skeleton: Set[int]) -> Tuple[Variable, ...]:
        """A GAO that is a NEO of the skeleton, extended to all attributes."""
        skeleton_atoms = [query.atoms[i] for i in sorted(skeleton)]
        sub_query = ConjunctiveQuery(skeleton_atoms)
        choice = select_gao(sub_query, policy="auto")
        order = list(choice.order)
        for variable in query.variables:
            if variable not in order:
                order.append(variable)
        return tuple(order)

    def _build_probers(self, database: Database, query: ConjunctiveQuery,
                       order: Sequence[Variable],
                       skeleton: Set[int]) -> List[GapProber]:
        position_of = {variable: index for index, variable in enumerate(order)}
        probers: List[GapProber] = []
        for atom_index, atom in enumerate(query.atoms):
            relation = resolve_atom_relation(database, atom)
            columns = atom_variable_columns(atom)
            if not columns:
                # Fully ground atom: emptiness decides the whole query.
                if len(relation) == 0:
                    raise _EmptyGroundAtom()
                continue
            ordered = sorted(columns, key=lambda pair: position_of[pair[0]])
            column_order = [column for _, column in ordered]
            index = TrieIndex(relation, column_order)
            gao_positions = tuple(position_of[variable] for variable, _ in ordered)
            plan = AtomProbePlan(
                atom_index=atom_index,
                atom_name=atom.name,
                index=index,
                gao_positions=gao_positions,
                in_skeleton=atom_index in skeleton,
            )
            probers.append(GapProber(
                plan, width=len(order),
                enable_cache=self.options.enable_probe_cache,
            ))
        return probers

    def _build_filter_probes(self, query: ConjunctiveQuery,
                             order: Sequence[Variable]) -> List[_FilterProbe]:
        position_of = {variable: index for index, variable in enumerate(order)}
        probes: List[_FilterProbe] = []
        for flt in query.filters:
            left_var = is_variable(flt.left)
            right_var = is_variable(flt.right)
            if left_var and right_var:
                left_position = position_of[flt.left]
                right_position = position_of[flt.right]
                if right_position > left_position:
                    # bound (= left value) op value-at-right-position
                    probes.append(_FilterProbe(
                        filter=flt,
                        low_position=left_position,
                        low_constant=None,
                        high_position=right_position,
                        op=flt.op,
                    ))
                else:
                    # left is the later attribute; flip so the bound comes first.
                    probes.append(_FilterProbe(
                        filter=flt,
                        low_position=right_position,
                        low_constant=None,
                        high_position=left_position,
                        op=_FLIPPED_OP[flt.op],
                    ))
            elif left_var:
                # value-at-position op constant  ==  constant flipped-op value
                probes.append(_FilterProbe(
                    filter=flt,
                    low_position=None,
                    low_constant=flt.right.value,
                    high_position=position_of[flt.left],
                    op=_FLIPPED_OP[flt.op],
                ))
            else:
                probes.append(_FilterProbe(
                    filter=flt,
                    low_position=None,
                    low_constant=flt.left.value,
                    high_position=position_of[flt.right],
                    op=flt.op,
                ))
        return probes

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def enumerate_bindings(self, database: Database,
                           query: ConjunctiveQuery) -> Iterator[Binding]:
        self._check_supported(query)
        if not query.variables:
            # A zero-width CDS does not exist: the answer is one empty
            # binding when every ground atom holds, none otherwise.
            self.last_order = ()
            self.last_statistics = MinesweeperStatistics(num_atoms=len(query.atoms))
            if all(len(resolve_atom_relation(database, atom))
                   for atom in query.atoms):
                yield {}
            return
        try:
            runner = _MinesweeperRun(self, database, query)
        except _EmptyGroundAtom:
            self.last_statistics = MinesweeperStatistics()
            return
        yield from runner.run()
        self.last_statistics = runner.statistics

    def count(self, database: Database, query: ConjunctiveQuery) -> int:
        total = 0
        for _ in self.enumerate_bindings(database, query):
            total += 1
        return total


class _EmptyGroundAtom(Exception):
    """Internal signal: a fully ground atom selected an empty relation."""


class _MinesweeperRun:
    """One execution of the Minesweeper outer loop over a fixed query."""

    def __init__(self, algorithm: MinesweeperJoin, database: Database,
                 query: ConjunctiveQuery,
                 extra_constraints: Sequence[Constraint] = (),
                 initial_frontier: Optional[Sequence[int]] = None) -> None:
        self.algorithm = algorithm
        self.query = query
        order, skeleton = algorithm._select_order_and_skeleton(query)
        self.order = order
        self.skeleton = skeleton
        algorithm.last_order = order
        self.width = len(order)
        self.probers = algorithm._build_probers(database, query, order, skeleton)
        self.filter_probes = algorithm._build_filter_probes(query, order)
        self.cds = ConstraintTree(
            width=self.width,
            enable_interval_caching=algorithm.options.enable_interval_caching,
            enable_complete_nodes=algorithm.options.enable_complete_nodes,
        )
        for constraint in extra_constraints:
            self.cds.insert_constraint(constraint)
        if initial_frontier is not None:
            self.cds.set_frontier(list(initial_frontier))
        self.statistics = MinesweeperStatistics(
            skeleton_size=len(skeleton), num_atoms=len(query.atoms)
        )

    # ------------------------------------------------------------------
    def run(self) -> Iterator[Binding]:
        budget = self.algorithm.budget
        cds = self.cds
        order = self.order
        statistics = self.statistics
        while cds.compute_free_tuple():
            budget.tick()
            free = list(cds.frontier)
            statistics.free_tuples_examined += 1
            gap_found = False
            frontier_moved = False

            sink = self.algorithm.certificate_sink
            for prober in self.probers:
                constraint = prober.seek_gap(free)
                if constraint is None:
                    continue
                gap_found = True
                if sink is not None:
                    sink.append(constraint)
                if prober.plan.in_skeleton:
                    cds.insert_constraint(constraint)
                    statistics.constraints_inserted += 1
                else:
                    moved = self._advance_past(constraint, free)
                    if moved is None:
                        self._finish()
                        return
                    frontier_moved = frontier_moved or moved
                break

            if not gap_found:
                for probe in self.filter_probes:
                    constraint = self._filter_gap(probe, free)
                    if constraint is None:
                        continue
                    gap_found = True
                    if sink is not None:
                        sink.append(constraint)
                    cds.insert_constraint(constraint)
                    statistics.constraints_inserted += 1
                    break

            if not gap_found:
                statistics.outputs += 1
                yield {order[i]: free[i] for i in range(self.width)}
                cds.advance_frontier_after_output()
            elif not frontier_moved:
                # The inserted constraint covers the free tuple; the next
                # compute_free_tuple call will move past it.
                pass
        self._finish()

    def _finish(self) -> None:
        self.statistics.probe_statistics = [
            {
                "atom": prober.plan.atom_name,
                "probes": prober.statistics.probes_issued,
                "index_seeks": prober.statistics.index_seeks,
                "cache_hits_present": prober.statistics.cache_hits_present,
                "cache_hits_gap": prober.statistics.cache_hits_gap,
                "gaps_found": prober.statistics.gaps_found,
            }
            for prober in self.probers
        ]
        self.statistics.constraints_inserted = (
            self.cds.statistics.constraints_inserted
        )
        record_minesweeper_run(self.statistics)

    # ------------------------------------------------------------------
    def _advance_past(self, constraint: Constraint,
                      free: Sequence[int]) -> Optional[bool]:
        """Advance the frontier past a non-skeleton gap (Idea 7).

        Returns ``True`` when the frontier moved, ``None`` when the rest of
        the output space is dead (the caller should stop).
        """
        successor = constraint.advance_frontier_past(free)
        if successor is None:
            return None
        self.cds.set_frontier(successor)
        self.statistics.frontier_advances += 1
        return True

    def _filter_gap(self, probe: _FilterProbe,
                    free: Sequence[int]) -> Optional[Constraint]:
        """A gap box covering ``free`` when it violates ``probe.filter``."""
        binding = {self.order[i]: free[i] for i in range(self.width)}
        if probe.filter.evaluate(binding):
            return None
        if probe.low_position is not None:
            bound = free[probe.low_position]
            prefix = ((probe.low_position, bound),) \
                if probe.low_position < probe.high_position else ()
        else:
            bound = probe.low_constant  # type: ignore[assignment]
            prefix = ()
        intervals = excluded_intervals(probe.op, int(bound))
        value = free[probe.high_position]
        for low, high in intervals:
            if low < value < high:
                return Constraint(
                    width=self.width,
                    prefix=prefix,
                    interval_position=probe.high_position,
                    low=low,
                    high=high,
                    source=f"filter:{probe.filter}",
                )
        # The filter is violated yet no excluded interval covers the value;
        # fall back to ruling out just this value of the later attribute.
        return Constraint(
            width=self.width,
            prefix=prefix,
            interval_position=probe.high_position,
            low=value - 1,
            high=value + 1,
            source=f"filter:{probe.filter}",
        )
