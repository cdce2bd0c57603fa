"""A column-at-a-time executor (the MonetDB stand-in).

MonetDB evaluates queries as a sequence of full-column operations, always
materialising the operand and result columns, and its optimizer picks join
orders greedily from base-table sizes rather than from estimated
intermediate sizes.  The paper observes the consequence on graph patterns:
"MonetDB starts from either of the random node samples, and immediately
does a self-join between two edges, which is a slow execution plan".

This module reproduces that regime:

* join order = smallest base relation first, then grow greedily
  (:func:`repro.joins.optimizer.greedy_smallest_first_order`);
* every step materialises *positional* column vectors (with duplicates) for
  the whole intermediate, as a column store would, rather than hashed sets
  of rows;
* filters are applied only when all their columns are materialised.

The executor is still exact — it is a baseline, not a strawman — but its
work is proportional to the blown-up intermediates, which is what Tables 6
and 7 show.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ExecutionError
from repro.datalog.atoms import ComparisonAtom
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.joins.base import (
    Binding,
    JoinAlgorithm,
    atom_variable_columns,
    resolve_atom_relation,
)
from repro.joins.optimizer import greedy_smallest_first_order
from repro.storage.database import Database
from repro.util import TimeBudget


class _ColumnBlock:
    """A bag-semantics intermediate stored column-wise."""

    __slots__ = ("schema", "columns", "length")

    def __init__(self, schema: Sequence[Variable],
                 columns: Sequence[List[int]]) -> None:
        self.schema = tuple(schema)
        self.columns = [list(column) for column in columns]
        self.length = len(self.columns[0]) if self.columns else 0
        for column in self.columns:
            if len(column) != self.length:
                raise ExecutionError("ragged column block")

    def row(self, index: int) -> Tuple[int, ...]:
        return tuple(column[index] for column in self.columns)

    def __len__(self) -> int:
        return self.length


class ColumnAtATimeJoin(JoinAlgorithm):
    """Greedy, fully materialising, column-at-a-time join executor."""

    name = "columnar"

    def __init__(self, budget: Optional[TimeBudget] = None) -> None:
        super().__init__(budget)
        self.last_intermediate_sizes: List[int] = []
        self.last_atom_order: List[int] = []

    # ------------------------------------------------------------------
    def enumerate_bindings(self, database: Database,
                           query: ConjunctiveQuery) -> Iterator[Binding]:
        self._check_supported(query)
        block = self._evaluate(database, query)
        variables = query.variables
        positions = [block.schema.index(v) for v in variables]
        seen: Set[Tuple[int, ...]] = set()
        for index in range(len(block)):
            row = block.row(index)
            key = tuple(row[p] for p in positions)
            if key in seen:
                continue
            seen.add(key)
            yield dict(zip(variables, key))

    def count(self, database: Database, query: ConjunctiveQuery) -> int:
        self._check_supported(query)
        block = self._evaluate(database, query)
        variables = query.variables
        positions = [block.schema.index(v) for v in variables]
        distinct: Set[Tuple[int, ...]] = set()
        for index in range(len(block)):
            row = block.row(index)
            distinct.add(tuple(row[p] for p in positions))
        return len(distinct)

    # ------------------------------------------------------------------
    def _evaluate(self, database: Database,
                  query: ConjunctiveQuery) -> _ColumnBlock:
        order = greedy_smallest_first_order(database, query)
        self.last_atom_order = list(order)
        self.last_intermediate_sizes = []
        pending_filters = list(query.filters)

        current: Optional[_ColumnBlock] = None
        for atom_index in order:
            scan = self._scan(database, query, atom_index)
            if scan is None:
                return _ColumnBlock(query.variables,
                                    [[] for _ in query.variables])
            if not scan.schema:
                # A satisfied ground atom adds no columns; skip it.
                continue
            current = scan if current is None else self._join(current, scan)
            current = self._apply_filters(current, pending_filters)
            self.last_intermediate_sizes.append(len(current))
            if len(current) == 0:
                return _ColumnBlock(query.variables,
                                    [[] for _ in query.variables])
        if current is None:
            # Every atom is a satisfied ground atom: one empty row.
            current = _ColumnBlock((), [])
            current.length = 1
        missing = [v for v in query.variables if v not in current.schema]
        if missing:
            raise ExecutionError(f"columnar plan failed to bind {missing}")
        return current

    def _scan(self, database: Database, query: ConjunctiveQuery,
              atom_index: int) -> Optional[_ColumnBlock]:
        atom = query.atoms[atom_index]
        relation = resolve_atom_relation(database, atom)
        columns = atom_variable_columns(atom)
        if not columns:
            if len(relation) == 0:
                return None
            return _ColumnBlock((), [])
        schema = [variable for variable, _ in columns]
        vectors: List[List[int]] = [[] for _ in schema]
        for row in relation:
            for position, (_, column) in enumerate(columns):
                vectors[position].append(row[column])
        return _ColumnBlock(schema, vectors)

    def _join(self, left: _ColumnBlock, right: _ColumnBlock) -> _ColumnBlock:
        """Column-at-a-time equi-join: build on the right, probe column-wise."""
        shared = [v for v in left.schema if v in right.schema]
        right_extra = [v for v in right.schema if v not in shared]
        out_schema = tuple(left.schema) + tuple(right_extra)

        right_key_positions = [right.schema.index(v) for v in shared]
        right_extra_positions = [right.schema.index(v) for v in right_extra]
        left_key_positions = [left.schema.index(v) for v in shared]

        index: Dict[Tuple[int, ...], List[int]] = {}
        for row_id in range(len(right)):
            self.budget.tick()
            key = tuple(right.columns[p][row_id] for p in right_key_positions)
            index.setdefault(key, []).append(row_id)

        out_columns: List[List[int]] = [[] for _ in out_schema]
        num_left = len(left.schema)
        for row_id in range(len(left)):
            self.budget.tick()
            key = tuple(left.columns[p][row_id] for p in left_key_positions)
            for match in index.get(key, ()):  # positional fan-out
                for position in range(num_left):
                    out_columns[position].append(left.columns[position][row_id])
                for offset, right_position in enumerate(right_extra_positions):
                    out_columns[num_left + offset].append(
                        right.columns[right_position][match]
                    )
        if not out_schema:
            # Joining two empty-schema blocks: keep a single unit row if both
            # sides are non-empty.
            length = 1 if len(left) and len(right) else 0
            block = _ColumnBlock((), [])
            block.length = length
            return block
        return _ColumnBlock(out_schema, out_columns)

    def _apply_filters(self, block: _ColumnBlock,
                       pending: List[ComparisonAtom]) -> _ColumnBlock:
        available = set(block.schema)
        ready = [f for f in pending if set(f.variables) <= available]
        if not ready or len(block) == 0:
            return block
        for flt in ready:
            pending.remove(flt)
        position_of = {v: i for i, v in enumerate(block.schema)}
        keep: List[int] = []
        for row_id in range(len(block)):
            self.budget.tick()
            binding = {v: block.columns[i][row_id] for v, i in position_of.items()}
            if all(flt.evaluate(binding) for flt in ready):
                keep.append(row_id)
        columns = [[column[row_id] for row_id in keep] for column in block.columns]
        return _ColumnBlock(block.schema, columns)
