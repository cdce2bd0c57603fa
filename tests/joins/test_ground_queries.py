"""Queries without variables: a yes/no question with one empty answer or none.

``edge(1, 2)`` holds in the fixture graph, so every algorithm must count
one answer and enumerate one empty binding; ``edge(5, 5)`` does not hold,
so the answer is empty.
"""

import pytest

from repro.datalog.parser import parse_query
from repro.engine import default_registry
from repro.errors import ExecutionError
from repro.storage import Database, edge_relation_from_pairs

# The graph engine runs fixed clique kernels and rejects any other query.
PATTERN_KERNELS = {"graphlab"}


@pytest.fixture
def database() -> Database:
    return Database([edge_relation_from_pairs([(1, 2), (2, 3), (1, 3)])])


@pytest.mark.parametrize("text, answers", [
    ("edge(1, 2)", 1),
    ("edge(1, 2), edge(3, 2)", 1),
    ("edge(5, 5)", 0),
    ("edge(1, 2), edge(5, 5)", 0),
])
@pytest.mark.parametrize("name", sorted(default_registry()))
def test_query_without_variables(database, name, text, answers):
    query = parse_query(text)
    algorithm = default_registry()[name](None)
    if name in PATTERN_KERNELS:
        with pytest.raises(ExecutionError):
            algorithm.count(database, query)
        return
    assert algorithm.count(database, query) == answers
    assert list(algorithm.enumerate_bindings(database, query)) == [{}] * answers
