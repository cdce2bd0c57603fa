"""A small catalog: named relations plus the trie indexes every engine reads.

The catalog holds one :class:`~repro.storage.trie.TrieIndex` per (relation,
column order), built on first request.  LFTJ and Minesweeper get their
tries here (through :func:`repro.joins.base.atom_trie`), and atoms with
constants are answered as slices of a catalog trie
(:func:`repro.joins.base.resolve_atom_relation`), so every query, engine and
service thread over one catalog shares the same tries and their memoised
prefix ranges.

There is no lock.  Each catalog entry remembers the relation object it was
built from, and :meth:`Database.index` hands it out only while that object
is still the one registered under the name; otherwise it builds and stores a
fresh trie.  A reader racing :meth:`Database.add` therefore gets a trie of
either the old or the new relation, never a stale one cached for good.  The
catalog offers no snapshot: a query resolves its atoms one after another, so
one that reads a relation in several atoms can see two versions of it.
:meth:`Database.copy` carries no trie over.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SchemaError, StorageError
from repro.storage.relation import Relation
from repro.storage.trie import TrieIndex
from repro.storage.statistics import RelationStatistics, collect_statistics

ChangeListener = Callable[[str], None]


class Database:
    """Named relations with on-demand trie indexes shared by every engine.

    The paper's engines assume each relation is available in one or more
    attribute orders consistent with the query's GAO.  Real systems maintain
    those as persistent indexes; here the catalog builds them lazily the
    first time an (attribute-order-specific) index is requested and keeps
    them, so repeated queries, engines and threads do not pay the sort again.
    Entries are checked against the registered relation object on every
    read instead of under a lock (see the module docstring); replacing or
    removing a relation also drops its tries so they do not stay resident.
    """

    def __init__(self, relations: Optional[Iterable[Relation]] = None) -> None:
        self._relations: Dict[str, Relation] = {}
        self._indexes: Dict[Tuple[str, Tuple[int, ...]], TrieIndex] = {}
        self._statistics: Dict[str, RelationStatistics] = {}
        # Monotonic change counters: the catalog-wide version bumps on every
        # add/remove, and each relation name carries its own version so
        # caches (e.g. the service result cache) can validate entries per
        # relation instead of flushing wholesale.
        self._version = 0
        self._relation_versions: Dict[str, int] = {}
        self._listeners: List[ChangeListener] = []
        for relation in relations or ():
            self.add(relation)

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------
    def add(self, relation: Relation, replace: bool = False) -> None:
        """Register ``relation`` under its name."""
        if relation.name in self._relations and not replace:
            raise SchemaError(f"relation {relation.name!r} already exists")
        self._relations[relation.name] = relation
        # Any cached indexes or statistics for a replaced relation are stale.
        self._drop_indexes(relation.name)
        self._statistics.pop(relation.name, None)
        self._note_change(relation.name)

    def remove(self, name: str) -> None:
        """Remove a relation and every cached index built over it."""
        if name not in self._relations:
            raise SchemaError(f"relation {name!r} does not exist")
        del self._relations[name]
        self._drop_indexes(name)
        self._statistics.pop(name, None)
        self._note_change(name)

    def _drop_indexes(self, name: str) -> None:
        # ``list()`` snapshots the keys in one step: a query thread may
        # insert an entry meanwhile, and iterating the live dict would fail.
        for key in list(self._indexes):
            if key[0] == name:
                self._indexes.pop(key, None)

    # ------------------------------------------------------------------
    # Change tracking
    # ------------------------------------------------------------------
    def _note_change(self, name: str) -> None:
        self._version += 1
        self._relation_versions[name] = self._version
        for listener in list(self._listeners):
            listener(name)

    @property
    def version(self) -> int:
        """Catalog-wide version: bumps whenever any relation changes."""
        return self._version

    def relation_version(self, name: str) -> int:
        """Version of one relation name (0 if it never existed)."""
        return self._relation_versions.get(name, 0)

    def subscribe(self, listener: ChangeListener) -> ChangeListener:
        """Register ``listener(name)`` to fire on every add/remove.

        Returns the listener so callers can keep the handle for
        :meth:`unsubscribe`.  Listeners run synchronously inside the
        mutating call, after the catalog and version counters are updated.
        """
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: ChangeListener) -> None:
        """Remove a previously registered change listener (idempotent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def relation(self, name: str) -> Relation:
        """Look up a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def names(self) -> List[str]:
        """All relation names, sorted."""
        return sorted(self._relations)

    def relations(self) -> List[Relation]:
        """All relations, sorted by name."""
        return [self._relations[name] for name in self.names()]

    def __len__(self) -> int:
        return len(self._relations)

    def total_tuples(self) -> int:
        """Sum of relation cardinalities (the paper's N)."""
        return sum(len(rel) for rel in self._relations.values())

    def copy(self) -> "Database":
        """A shallow copy sharing the (immutable) relations but no trie index."""
        return Database(self._relations.values())

    # ------------------------------------------------------------------
    # Indexes and statistics
    # ------------------------------------------------------------------
    def index(self, name: str, column_order: Sequence[int]) -> TrieIndex:
        """The catalog trie of relation ``name`` under ``column_order``.

        ``column_order`` is the permutation of the relation's columns that
        the index should be sorted by.  The stored trie is returned only if
        it was built from the relation currently registered under ``name``;
        otherwise a new one is built over that relation and stored.
        """
        relation = self.relation(name)
        key = (name, tuple(column_order))
        index = self._indexes.get(key)
        if index is None or index.relation is not relation:
            if sorted(column_order) != list(range(relation.arity)):
                raise StorageError(
                    f"column order {list(column_order)} invalid for relation "
                    f"{name!r} of arity {relation.arity}"
                )
            index = TrieIndex(relation, column_order)
            self._indexes[key] = index
        return index

    def statistics(self, name: str) -> RelationStatistics:
        """Cached per-relation statistics for the cost-based optimizer."""
        if name not in self._statistics:
            self._statistics[name] = collect_statistics(self.relation(name))
        return self._statistics[name]

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}[{len(rel)}]" for name, rel in sorted(self._relations.items())
        )
        return f"Database({parts})"
