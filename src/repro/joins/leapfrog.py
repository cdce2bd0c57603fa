"""Leapfrog Triejoin (LFTJ): the worst-case optimal multiway join.

LFTJ evaluates the query one attribute at a time following a global
attribute order.  For the current attribute it *leapfrogs* over the sorted
value lists of every atom containing that attribute: each participant seeks
to the current candidate value, the candidate is raised to the maximum key
seen, and the process repeats until all participants agree — at which point
the value is part of the intersection — or some participant runs out.  Its
running time is ``O~(N + AGM(Q))`` (Veldhuizen 2014), i.e. worst-case
optimal.

This implementation navigates :class:`repro.storage.trie.TrieIndex` objects
directly with explicit prefixes rather than stateful iterators; the search
pattern (and therefore the asymptotics) is identical to the iterator
formulation, and it keeps the recursion easy to read.  Every seek goes
through :meth:`TrieIndex.seek_value`; the prefix stays fixed while one
attribute is intersected, so after the first seek below it each seek is a
memoised range lookup plus one binary search.  Planning resolves every
variable a level refers to (trie prefixes, filter bounds) to its integer
position in the attribute order, so the inner loop indexes a list of bound
values and hashes no variables.  The plan and the bound values are locals
of one search, so one instance may run interleaved enumerations.  A query
without variables has one empty answer when each of its ground atoms holds,
none otherwise.

Comparison filters such as ``a < b < c`` are pushed into the search: a
filter whose greater side is the current attribute tightens the lower seek
bound, one whose lesser side is the current attribute provides an upper
cutoff, and everything else is checked as soon as its variables are bound.

``count`` is the paper's Idea 8 (#Minesweeper's factorised counting): the
number of completions below a level depends only on the earlier positions
that the level and the deeper ones still read (participant prefixes, checks
and seek bounds).  Where that key is strictly shorter than the level's bound
prefix, the subtree count is memoised on it, so a subtree is counted once
per distinct key instead of once per prefix.  On the paper's example

    R1(A,B) ⋈ R2(A,C) ⋈ R3(B,D) ⋈ R4(C) ⋈ R5(D)   (GAO = A, B, C, D)

the count below ``D`` depends only on ``B``.  On a path the count below
each level depends only on the level before it; on a clique every level
reads the whole prefix, so nothing is memoised and the loop is the plain
one.  The memo is a local of one ``count`` call, never shared state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ExecutionError
from repro.datalog.atoms import ComparisonAtom
from repro.datalog.gao import GAOChoice, select_gao
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.joins.base import (
    Binding,
    JoinAlgorithm,
    atom_trie,
    atom_variable_columns,
    resolve_atom_relation,
)
from repro.storage.database import Database
from repro.storage.trie import TrieIndex
from repro.util import TimeBudget


@dataclass
class _LevelPlan:
    """Per-attribute execution metadata; variables appear as GAO positions."""

    variable: Variable
    # (index, prefix positions) for every atom containing the variable: the
    # atom's trie reaches this attribute below the values bound at these GAO
    # positions, shallowest first.
    participants: List[Tuple[TrieIndex, Tuple[int, ...]]]
    # Filters that become fully checkable at this level.
    checks: List[ComparisonAtom]
    # Filters of the form ``other < var`` / ``other <= var`` giving lower
    # bounds, as (GAO position of ``other``, strict).
    lower_bounds: List[Tuple[int, bool]]
    # Filters of the form ``var < other`` / ``var <= other`` giving upper
    # cutoffs, as (GAO position of ``other``, strict).
    upper_bounds: List[Tuple[int, bool]]
    # ``count`` memoises the count below this level on the values at these
    # earlier GAO positions; None when the key would be the whole prefix.
    memo_key: Optional[Tuple[int, ...]] = None


class LeapfrogTrieJoin(JoinAlgorithm):
    """Worst-case optimal Leapfrog Triejoin.

    Parameters
    ----------
    budget:
        Optional soft time budget.
    variable_order:
        Explicit attribute order (list of variable names).  Defaults to the
        automatic GAO selection, which is what the benchmarks use unless
        they are explicitly sweeping orders.
    """

    name = "lftj"

    def __init__(self, budget: Optional[TimeBudget] = None,
                 variable_order: Optional[Sequence[str]] = None) -> None:
        super().__init__(budget)
        self.variable_order = tuple(variable_order) if variable_order else None

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _attribute_order(self, query: ConjunctiveQuery) -> Tuple[Variable, ...]:
        if self.variable_order is None:
            return select_gao(query, policy="auto").order
        by_name = {v.name: v for v in query.variables}
        missing = [name for name in self.variable_order if name not in by_name]
        if missing:
            raise ExecutionError(f"unknown variables in explicit order: {missing}")
        if len(self.variable_order) != len(query.variables):
            raise ExecutionError(
                "explicit variable order must mention every query variable"
            )
        return tuple(by_name[name] for name in self.variable_order)

    def _plan(self, database: Database, query: ConjunctiveQuery
              ) -> Tuple[Tuple[Variable, ...], Optional[List[_LevelPlan]]]:
        """The attribute order and one plan per attribute.

        The level list is ``None`` when a fully ground atom selects nothing,
        which empties the query; it is empty when the query has no variables.
        """
        order = self._attribute_order(query)
        position_of = {variable: index for index, variable in enumerate(order)}

        # Per atom: its index and the GAO positions of its trie levels.
        atom_plans: List[Tuple[TrieIndex, Tuple[int, ...]]] = []
        for atom in query.atoms:
            relation = resolve_atom_relation(database, atom)
            columns = atom_variable_columns(atom)
            if not columns:
                # Fully ground atom: an empty relation kills the query.
                if len(relation) == 0:
                    return order, None
                continue
            # Sort the atom's variables by GAO position; the trie must be
            # in that column order (GAO consistency).
            ordered = sorted(columns, key=lambda pair: position_of[pair[0]])
            column_order = [column for _, column in ordered]
            gao_positions = tuple(position_of[variable] for variable, _ in ordered)
            atom_plans.append((atom_trie(database, atom, relation, column_order),
                               gao_positions))

        levels: List[_LevelPlan] = []
        for position, variable in enumerate(order):
            participants = [
                (index, gao_positions[:gao_positions.index(position)])
                for index, gao_positions in atom_plans
                if position in gao_positions
            ]
            if not participants:
                raise ExecutionError(
                    f"variable {variable} is not covered by any atom"
                )
            checks: List[ComparisonAtom] = []
            lower_bounds: List[Tuple[int, bool]] = []
            upper_bounds: List[Tuple[int, bool]] = []
            for flt in query.filters:
                positions = [position_of[v] for v in flt.variables]
                if max(positions) != position:
                    continue
                bound_extracted = self._extract_bound(
                    flt, variable, position_of, lower_bounds, upper_bounds
                )
                if not bound_extracted:
                    checks.append(flt)
            levels.append(_LevelPlan(
                variable=variable,
                participants=participants,
                checks=checks,
                lower_bounds=lower_bounds,
                upper_bounds=upper_bounds,
            ))

        # The count below a level reads only the earlier positions that the
        # level and the deeper ones read; memoise where that is a strict
        # subset of the bound prefix.
        reads: Set[int] = set()
        for position in range(len(levels) - 1, 0, -1):
            level = levels[position]
            for _, prefix in level.participants:
                reads.update(prefix)
            reads.update(p for p, _ in level.lower_bounds)
            reads.update(p for p, _ in level.upper_bounds)
            for flt in level.checks:
                reads.update(position_of[v] for v in flt.variables)
            key = tuple(sorted(p for p in reads if p < position))
            if len(key) < position:
                level.memo_key = key
        return order, levels

    @staticmethod
    def _extract_bound(flt: ComparisonAtom, variable: Variable,
                       position_of: Dict[Variable, int],
                       lower_bounds: List[Tuple[int, bool]],
                       upper_bounds: List[Tuple[int, bool]]) -> bool:
        """Register ``flt`` as a seek bound if it has the right shape.

        Returns True when the filter was fully handled as a bound; False when
        it must be evaluated as an ordinary check.
        """
        if not isinstance(flt.left, Variable) or not isinstance(flt.right, Variable):
            return False
        left, op, right = flt.left, flt.op, flt.right
        # Normalize to "low-side OP high-side" with the current variable last.
        if op in ("<", "<="):
            if right == variable:
                lower_bounds.append((position_of[left], op == "<"))
                return True
            if left == variable:
                upper_bounds.append((position_of[right], op == "<"))
                return True
        if op in (">", ">="):
            if left == variable:
                lower_bounds.append((position_of[right], op == ">"))
                return True
            if right == variable:
                upper_bounds.append((position_of[left], op == ">"))
                return True
        return False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def enumerate_bindings(self, database: Database,
                           query: ConjunctiveQuery) -> Iterator[Binding]:
        self._check_supported(query)
        order, levels = self._plan(database, query)
        if levels is None:
            return
        if not levels:
            # No variables and every ground atom holds: one empty binding.
            yield {}
            return
        yield from self._search(0, [0] * len(order), order, levels)

    def count(self, database: Database, query: ConjunctiveQuery) -> int:
        self._check_supported(query)
        order, levels = self._plan(database, query)
        if levels is None:
            return 0
        if not levels:
            return 1
        memos: List[Dict[Tuple[int, ...], int]] = [{} for _ in levels]
        return self._count(0, [0] * len(order), order, levels, memos)

    # -- recursive search -------------------------------------------------
    def _candidate_values(self, level: _LevelPlan,
                          values: List[int]) -> Iterator[int]:
        """Yield the leapfrog intersection at ``level`` in increasing order."""
        lower = 0
        for position, strict in level.lower_bounds:
            bound = values[position]
            lower = max(lower, bound + 1 if strict else bound)
        upper: Optional[int] = None
        for position, strict in level.upper_bounds:
            bound = values[position]
            cutoff = bound - 1 if strict else bound
            upper = cutoff if upper is None else min(upper, cutoff)

        # One (seek, prefix) pair per participant; the prefix is fixed for
        # the whole intersection, so every seek below it hits the index's
        # memoised prefix range.
        participants = [
            (index.seek_value, tuple([values[p] for p in positions]))
            for index, positions in level.participants
        ]
        tick = None if self.budget.seconds is None else self.budget.tick

        candidate = lower
        while True:
            if tick is not None:
                tick()
            if upper is not None and candidate > upper:
                return
            # Leapfrog: raise the candidate to the max of all participants'
            # least keys >= candidate until they all agree.
            agreed = candidate
            changed = True
            while changed:
                changed = False
                for seek, prefix in participants:
                    key = seek(prefix, agreed)
                    if key is None:
                        return
                    if key > agreed:
                        agreed = key
                        changed = True
            if upper is not None and agreed > upper:
                return
            yield agreed
            candidate = agreed + 1

    @staticmethod
    def _filters_hold(checks: List[ComparisonAtom], depth: int,
                      values: List[int], order: Sequence[Variable]) -> bool:
        binding = dict(zip(order[:depth + 1], values))
        return all(flt.evaluate(binding) for flt in checks)

    def _search(self, depth: int, values: List[int], order: Sequence[Variable],
                levels: List[_LevelPlan]) -> Iterator[Binding]:
        checks = levels[depth].checks
        last = depth == len(order) - 1
        for value in self._candidate_values(levels[depth], values):
            values[depth] = value
            if checks and not self._filters_hold(checks, depth, values, order):
                continue
            if last:
                yield dict(zip(order, values))
            else:
                yield from self._search(depth + 1, values, order, levels)

    def _count(self, depth: int, values: List[int], order: Sequence[Variable],
               levels: List[_LevelPlan],
               memos: List[Dict[Tuple[int, ...], int]]) -> int:
        level = levels[depth]
        memo_key = level.memo_key
        if memo_key is not None:
            key = tuple([values[p] for p in memo_key])
            cached = memos[depth].get(key)
            if cached is not None:
                return cached
        checks = level.checks
        last = depth == len(order) - 1
        total = 0
        for value in self._candidate_values(level, values):
            values[depth] = value
            if checks and not self._filters_hold(checks, depth, values, order):
                continue
            total += 1 if last else self._count(depth + 1, values, order, levels,
                                                memos)
        if memo_key is not None:
            memos[depth][key] = total
        return total
