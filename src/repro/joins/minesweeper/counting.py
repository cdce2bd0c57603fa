"""#Minesweeper-style counting (Idea 8).

The paper's #Minesweeper keeps a count next to every value of a complete
node's point list; when a node becomes complete, the sum of its counts is
multiplied into the count of the branch point it hangs off, so disjoint
parts of the search space are counted once and *combined* instead of being
re-enumerated ("micro message passing").

The essential property this buys is factorisation: the number of
completions of a prefix depends only on the prefix coordinates that the
*remaining* atoms and filters can see.  This module realises exactly that
property directly: a depth-first count over the GAO where the count of each
subtree is memoised on the projection of the prefix onto the positions that
still matter.  On the paper's example query

    R1(A,B) ⋈ R2(A,C) ⋈ R3(B,D) ⋈ R4(C) ⋈ R5(D)   (GAO = A, B, C, D)

the count below depth C depends only on ``A`` — the same sharing that the
point-list counts provide — so the C- and D-subtrees are counted once per
distinct ``A`` instead of once per ``(A, B)`` pair.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ExecutionError
from repro.datalog.atoms import ComparisonAtom
from repro.datalog.gao import select_gao
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.joins.base import (
    Binding,
    JoinAlgorithm,
    atom_trie,
    atom_variable_columns,
    resolve_atom_relation,
)
from repro.joins.minesweeper.engine import MinesweeperJoin, MinesweeperOptions
from repro.storage.database import Database
from repro.storage.trie import TrieIndex
from repro.util import TimeBudget


class SharingMinesweeperCounter(JoinAlgorithm):
    """Count query outputs with #Minesweeper-style sharing.

    ``count`` runs the memoised search; ``enumerate_bindings`` delegates to
    the ordinary :class:`MinesweeperJoin` engine, because enumeration cannot
    share subtrees (every output has to be produced).
    """

    name = "ms-count"

    def __init__(self, budget: Optional[TimeBudget] = None,
                 options: Optional[MinesweeperOptions] = None,
                 variable_order: Optional[Sequence[str]] = None) -> None:
        super().__init__(budget)
        self.options = options or MinesweeperOptions()
        self.variable_order = tuple(variable_order) if variable_order else None
        self.last_cache_hits = 0
        self.last_cache_entries = 0

    # ------------------------------------------------------------------
    def enumerate_bindings(self, database: Database,
                           query: ConjunctiveQuery) -> Iterator[Binding]:
        engine = MinesweeperJoin(
            budget=self.budget, options=self.options,
            variable_order=self.variable_order,
        )
        yield from engine.enumerate_bindings(database, query)

    # ------------------------------------------------------------------
    def count(self, database: Database, query: ConjunctiveQuery) -> int:
        self._check_supported(query)
        order = self._attribute_order(query)
        position_of = {variable: index for index, variable in enumerate(order)}
        width = len(order)

        participants, empty_ground = self._build_participants(
            database, query, order, position_of
        )
        if empty_ground:
            return 0

        participants_per_level: List[List[Tuple[TrieIndex, Tuple[int, ...], int]]] = [
            [] for _ in range(width)
        ]
        for index, gao_positions in participants:
            for level, position in enumerate(gao_positions):
                participants_per_level[position].append((index, gao_positions, level))
        for position, entries in enumerate(participants_per_level):
            if not entries:
                raise ExecutionError(
                    f"variable {order[position]} is not covered by any atom"
                )

        filters_per_level, filter_positions = self._filter_plan(
            query.filters, order, position_of
        )
        relevant = self._relevant_positions(
            width, [gp for _, gp in participants], filter_positions
        )

        memo: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        self.last_cache_hits = 0
        values = [0] * width

        def candidates_at(depth: int) -> List[int]:
            entries = participants_per_level[depth]
            best: Optional[List[int]] = None
            for index, gao_positions, level in entries:
                prefix = tuple(values[gao_positions[k]] for k in range(level))
                children = index.children(prefix)
                if best is None or len(children) < len(best):
                    best = children
                if not best:
                    return []
            assert best is not None
            if len(entries) == 1:
                return best
            out: List[int] = []
            for value in best:
                keep = True
                for index, gao_positions, level in entries:
                    prefix = tuple(values[gao_positions[k]] for k in range(level))
                    if index.seek_value(prefix, value) != value:
                        keep = False
                        break
                if keep:
                    out.append(value)
            return out

        def filters_ok(depth: int) -> bool:
            binding = {order[i]: values[i] for i in range(depth + 1)}
            return all(flt.evaluate(binding) for flt in filters_per_level[depth])

        def count_from(depth: int) -> int:
            self.budget.tick()
            if depth == width:
                return 1
            key = (depth, tuple(values[p] for p in relevant[depth]))
            cached = memo.get(key)
            if cached is not None:
                self.last_cache_hits += 1
                return cached
            total = 0
            for value in candidates_at(depth):
                values[depth] = value
                if not filters_ok(depth):
                    continue
                total += count_from(depth + 1)
            memo[key] = total
            return total

        result = count_from(0)
        self.last_cache_entries = len(memo)
        return result

    # ------------------------------------------------------------------
    # Planning helpers
    # ------------------------------------------------------------------
    def _attribute_order(self, query: ConjunctiveQuery) -> Tuple[Variable, ...]:
        if self.variable_order is None:
            return select_gao(query, policy=self.options.gao_policy).order
        by_name = {v.name: v for v in query.variables}
        missing = [name for name in self.variable_order if name not in by_name]
        if missing:
            raise ExecutionError(f"unknown variables in explicit GAO: {missing}")
        if len(self.variable_order) != len(query.variables):
            raise ExecutionError("explicit GAO must mention every query variable")
        return tuple(by_name[name] for name in self.variable_order)

    @staticmethod
    def _build_participants(database: Database, query: ConjunctiveQuery,
                            order: Sequence[Variable],
                            position_of: Dict[Variable, int]
                            ) -> Tuple[List[Tuple[TrieIndex, Tuple[int, ...]]], bool]:
        participants: List[Tuple[TrieIndex, Tuple[int, ...]]] = []
        for atom in query.atoms:
            relation = resolve_atom_relation(database, atom)
            columns = atom_variable_columns(atom)
            if not columns:
                if len(relation) == 0:
                    return [], True
                continue
            ordered = sorted(columns, key=lambda pair: position_of[pair[0]])
            column_order = [column for _, column in ordered]
            gao_positions = tuple(position_of[variable] for variable, _ in ordered)
            participants.append((atom_trie(database, atom, relation, column_order),
                                 gao_positions))
        return participants, False

    @staticmethod
    def _filter_plan(filters: Sequence[ComparisonAtom], order: Sequence[Variable],
                     position_of: Dict[Variable, int]
                     ) -> Tuple[List[List[ComparisonAtom]], List[Set[int]]]:
        """Group filters by the depth at which they become checkable."""
        per_level: List[List[ComparisonAtom]] = [[] for _ in order]
        positions: List[Set[int]] = []
        for flt in filters:
            flt_positions = {position_of[v] for v in flt.variables}
            per_level[max(flt_positions)].append(flt)
            positions.append(flt_positions)
        return per_level, positions

    @staticmethod
    def _relevant_positions(width: int,
                            atom_positions: Sequence[Tuple[int, ...]],
                            filter_positions: Sequence[Set[int]]) -> List[Tuple[int, ...]]:
        """For each depth, the earlier positions the remaining work depends on.

        A position ``p < depth`` is relevant at ``depth`` when some atom or
        filter mentions both ``p`` and a position ``>= depth``; only those
        coordinates can influence the count of completions, so they form the
        memoisation key.
        """
        relevant: List[Tuple[int, ...]] = []
        groups = list(atom_positions) + [tuple(sorted(ps)) for ps in filter_positions]
        for depth in range(width):
            needed: Set[int] = set()
            for positions in groups:
                if any(p >= depth for p in positions):
                    needed.update(p for p in positions if p < depth)
            relevant.append(tuple(sorted(needed)))
        return relevant
