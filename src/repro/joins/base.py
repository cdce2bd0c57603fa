"""Shared contract and helpers for every join algorithm.

All algorithms implement the same two entry points:

* ``enumerate_bindings(database, query)`` — yield each output tuple as a
  mapping from :class:`~repro.datalog.terms.Variable` to ``int``;
* ``count(database, query)`` — return the number of output tuples.

The default ``count`` simply drains ``enumerate_bindings``; algorithms with
smarter counting (LFTJ's factorised #Minesweeper count, Yannakakis) override
it.  Outputs are
*set semantics* over the query's variables, matching the paper's count
queries.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.datalog.atoms import Atom, ComparisonAtom
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import Constant, Variable, is_variable
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.trie import TrieIndex
from repro.util import TimeBudget

Binding = Dict[Variable, int]


class BindingIterator:
    """Type alias helper: an iterator of variable bindings."""

    def __class_getitem__(cls, item):  # pragma: no cover - typing sugar
        return Iterator[Binding]


class JoinAlgorithm(abc.ABC):
    """Abstract base class for join algorithms.

    Subclasses must implement :meth:`enumerate_bindings`; :meth:`count` has a
    drain-the-iterator default.  ``name`` is the identifier used by the
    :class:`repro.engine.QueryEngine` registry and the benchmark harness.
    """

    name: str = "abstract"

    def __init__(self, budget: Optional[TimeBudget] = None) -> None:
        self.budget = budget or TimeBudget.unlimited()

    @abc.abstractmethod
    def enumerate_bindings(self, database: Database,
                           query: ConjunctiveQuery) -> Iterator[Binding]:
        """Yield every output binding of ``query`` over ``database``."""

    def count(self, database: Database, query: ConjunctiveQuery) -> int:
        """Number of output tuples (default: drain the enumerator)."""
        total = 0
        for _ in self.enumerate_bindings(database, query):
            total += 1
        return total

    # ------------------------------------------------------------------
    # Shared pre-processing helpers
    # ------------------------------------------------------------------
    def _check_supported(self, query: ConjunctiveQuery) -> None:
        """Reject atoms with repeated variables (not used by the workload)."""
        for atom in query.atoms:
            seen: List[Variable] = []
            for term in atom.terms:
                if is_variable(term):
                    if term in seen:
                        raise ExecutionError(
                            f"{self.name}: atom {atom} repeats variable {term}; "
                            f"rewrite with an explicit equality filter"
                        )
                    seen.append(term)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ----------------------------------------------------------------------
# Constant elimination
# ----------------------------------------------------------------------
def resolve_atom_relation(database: Database, atom: Atom) -> Relation:
    """The relation for ``atom`` with constant arguments pre-selected away.

    An all-variable atom reads its base relation unchanged.  For an atom with
    constants, like ``edge(5, b)``, the answer is ``σ_{src=5}(edge)``
    projected to the variable columns, so that downstream algorithms only
    ever deal with all-variable atoms.  It is cut out of the catalog trie
    whose leading columns are the constant columns, followed by the variable
    columns in position order: the rows under the constants' prefix are one
    contiguous range of that trie, and with the prefix stripped they are
    already sorted and unique, so the cost is one prefix search plus the
    rows copied.  The result keeps one column per variable *occurrence*, in
    position order, matching :func:`atom_variable_columns`.
    """
    constants = [(position, term.value)
                 for position, term in enumerate(atom.terms)
                 if isinstance(term, Constant)]
    if not constants:
        return database.relation(atom.name)
    variable_columns = [
        position for position, term in enumerate(atom.terms) if is_variable(term)
    ]
    index = database.index(
        atom.name, [position for position, _ in constants] + variable_columns)
    lower, upper = index.prefix_range(tuple(value for _, value in constants))
    rows = index.tuples[lower:upper]
    attributes = index.relation.attributes
    if not variable_columns:
        # Fully ground atom: keep a single marker column so emptiness checks work.
        return Relation.from_sorted(f"{atom.name}_ground", 1,
                                    [row[:1] for row in rows], attributes[:1])
    width = len(constants)
    return Relation.from_sorted(
        f"{atom.name}_bound", len(variable_columns),
        [row[width:] for row in rows],
        [attributes[column] for column in variable_columns])


def atom_trie(database: Database, atom: Atom, relation: Relation,
               column_order: Sequence[int]) -> TrieIndex:
    """The trie of ``relation``, which :func:`resolve_atom_relation` resolved
    for ``atom``, under ``column_order``.

    This is the catalog trie when the catalog's trie was built from that very
    relation object: the atom has no constants, and the relation was not
    replaced since it was resolved.  Otherwise, for a constant slice or a
    relation that a concurrent write replaced, it is a new trie over the
    resolved relation, so the trie always holds exactly the rows the atom
    resolved.
    """
    if all(is_variable(term) for term in atom.terms):
        index = database.index(atom.name, column_order)
        if index.relation is relation:
            return index
    return TrieIndex(relation, column_order)


def atom_variable_columns(atom: Atom) -> List[Tuple[Variable, int]]:
    """(variable, column) pairs of an all-variable view of ``atom``.

    When the atom has constants, columns refer to the projected relation
    produced by :func:`resolve_atom_relation` (variable columns only, in
    positional order).
    """
    pairs: List[Tuple[Variable, int]] = []
    next_column = 0
    for term in atom.terms:
        if is_variable(term):
            pairs.append((term, next_column))
            next_column += 1
    return pairs


# ----------------------------------------------------------------------
# Filters
# ----------------------------------------------------------------------
def filters_satisfied(binding: Binding,
                      filters: Sequence[ComparisonAtom]) -> bool:
    """Evaluate the filters that are fully bound; unbound filters pass."""
    for flt in filters:
        if all(v in binding for v in flt.variables):
            if not flt.evaluate(binding):
                return False
    return True


def newly_checkable_filters(filters: Sequence[ComparisonAtom],
                            order: Sequence[Variable]) -> List[List[ComparisonAtom]]:
    """Group filters by the first position in ``order`` where they become checkable.

    ``result[i]`` holds the filters whose variables are all bound once the
    first ``i + 1`` variables of ``order`` are bound.  Attribute-at-a-time
    algorithms use this to check each filter exactly once, as early as
    possible.
    """
    groups: List[List[ComparisonAtom]] = [[] for _ in order]
    position_of = {variable: index for index, variable in enumerate(order)}
    for flt in filters:
        last = max(position_of[v] for v in flt.variables)
        groups[last].append(flt)
    return groups


# ----------------------------------------------------------------------
# Output shaping
# ----------------------------------------------------------------------
def bindings_to_tuples(bindings: Iterable[Binding],
                       variables: Sequence[Variable]) -> List[Tuple[int, ...]]:
    """Convert bindings to tuples in the canonical variable order (sorted)."""
    rows = [tuple(binding[v] for v in variables) for binding in bindings]
    rows.sort()
    return rows


def canonical_variable_order(query: ConjunctiveQuery) -> Tuple[Variable, ...]:
    """First-occurrence variable order used to canonicalize outputs in tests."""
    return query.variables
