"""Tests for the shared join-algorithm helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.datalog.atoms import Atom, ComparisonAtom
from repro.datalog.parser import parse_query
from repro.datalog.terms import Constant, Variable, is_variable
from repro.joins.base import (
    atom_variable_columns,
    bindings_to_tuples,
    filters_satisfied,
    newly_checkable_filters,
    resolve_atom_relation,
)
from repro.joins.naive import NaiveBacktrackingJoin
from repro.storage import Database, Relation
from repro.storage.trie import TrieIndex

A, B, C = Variable("a"), Variable("b"), Variable("c")


class TestResolveAtomRelation:
    @pytest.fixture
    def database(self):
        return Database([Relation("edge", 2, [(1, 2), (1, 3), (2, 3)])])

    def test_plain_atom_returns_base_relation(self, database):
        atom = Atom("edge", (A, B))
        assert len(resolve_atom_relation(database, atom)) == 3

    def test_constant_is_selected_and_projected(self, database):
        atom = Atom("edge", (A, Constant(3)))
        relation = resolve_atom_relation(database, atom)
        assert relation.arity == 1
        assert set(relation.tuples) == {(1,), (2,)}

    def test_fully_ground_atom(self, database):
        atom = Atom("edge", (Constant(1), Constant(2)))
        relation = resolve_atom_relation(database, atom)
        assert len(relation) == 1
        empty = resolve_atom_relation(database, Atom("edge", (Constant(9), Constant(9))))
        assert len(empty) == 0

    def test_constant_atoms_slice_one_catalog_trie(self, database, monkeypatch):
        builds = []
        build = TrieIndex.__init__

        def counted(self, relation, column_order):
            builds.append(tuple(column_order))
            build(self, relation, column_order)

        monkeypatch.setattr(TrieIndex, "__init__", counted)
        for _ in range(3):
            relation = resolve_atom_relation(database, Atom("edge", (A, Constant(3))))
            assert relation.tuples == [(1,), (2,)]
        assert builds == [(1, 0)]

    def test_variable_columns_skip_constants(self):
        atom = Atom("edge", (A, Constant(3)))
        assert atom_variable_columns(atom) == [(A, 0)]
        atom = Atom("r", (Constant(1), B, C))
        assert atom_variable_columns(atom) == [(B, 0), (C, 1)]


def select_then_project(database: Database, atom: Atom) -> Relation:
    """The former ``resolve_atom_relation``: a scan per constant, then a
    projection onto the variable columns."""
    relation = database.relation(atom.name)
    variable_columns = []
    for position, term in enumerate(atom.terms):
        if is_variable(term):
            variable_columns.append(position)
        else:
            relation = relation.select_eq(position, term.value)
    if len(variable_columns) == len(atom.terms):
        return relation
    if not variable_columns:
        return relation.project([0], name=f"{atom.name}_ground")
    return relation.project(variable_columns, name=f"{atom.name}_bound")


@st.composite
def constant_atoms(draw):
    arity = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 3)] * arity), max_size=30))
    # Constants range one past the data, so some are absent; the small
    # domain repeats constants across columns and grounds whole atoms.
    terms = [draw(st.one_of(st.integers(0, 4).map(Constant),
                            st.just(Variable(f"v{position}"))))
             for position in range(arity)]
    return Relation("r", arity, rows), Atom("r", tuple(terms))


@settings(max_examples=300, deadline=None)
@given(case=constant_atoms())
def test_catalog_slice_matches_select_then_project(case):
    relation, atom = case
    database = Database([relation])
    expected = select_then_project(database, atom)
    for _ in range(2):  # the second read slices the stored trie
        resolved = resolve_atom_relation(database, atom)
        assert resolved == expected
        assert resolved.attributes == expected.attributes


class TestFilterHelpers:
    def test_filters_satisfied_ignores_unbound(self):
        filters = [ComparisonAtom(A, "<", B), ComparisonAtom(B, "<", C)]
        assert filters_satisfied({A: 1, B: 2}, filters)
        assert not filters_satisfied({A: 3, B: 2}, filters)

    def test_newly_checkable_filters_groups_by_last_variable(self):
        filters = [ComparisonAtom(A, "<", B), ComparisonAtom(A, "<", C)]
        groups = newly_checkable_filters(filters, [A, B, C])
        assert groups[0] == []
        assert groups[1] == [filters[0]]
        assert groups[2] == [filters[1]]

    def test_bindings_to_tuples_sorted(self):
        rows = bindings_to_tuples([{A: 2, B: 1}, {A: 1, B: 2}], [A, B])
        assert rows == [(1, 2), (2, 1)]


class TestRepeatedVariableRejection:
    def test_repeated_variable_in_atom_rejected(self):
        database = Database([Relation("edge", 2, [(1, 1), (1, 2)])])
        query = parse_query("edge(a, a)")
        with pytest.raises(ExecutionError):
            list(NaiveBacktrackingJoin().enumerate_bindings(database, query))
