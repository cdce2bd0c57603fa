"""Probing input relations for gap boxes around a free tuple (Ideas 3 and 4).

For every atom, the engine gets a trie index whose column order follows
the GAO restricted to the atom's variables (the GAO-consistency assumption
of §4.1; see :func:`repro.joins.base.atom_trie`).  ``seek_gap`` projects
the free tuple onto the atom's attributes, walks the trie level by level,
and either confirms the projection is present or returns the maximal gap
box around it, exactly as described in §4.5: find the first level ``j``
whose prefix is present but whose extended prefix is not, and report the
``(glb, lub)`` interval at that level.

Idea 4 avoids repeated probes: gaps already reported by a relation and
projections already confirmed present are remembered, so the (conceptually
expensive, index-walking) ``seek_glb`` / ``seek_lub`` operations are only
issued when the cache cannot answer.  The walk grows the prefix as a tuple,
one level at a time, and that tuple is both the gap cache's key and the
prefix handed to :meth:`~repro.storage.trie.TrieIndex.gap_around`, whose
prefix-range memo it hits.  The gaps known below one prefix live in an
:class:`~repro.joins.minesweeper.intervals.IntervalList`, so a cached gap
is found with one bisect (:meth:`IntervalList.containing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.joins.minesweeper.constraints import Constraint, constraint_from_gap
from repro.joins.minesweeper.intervals import (
    NEG_INF,
    POS_INF,
    IntervalList,
    Number,
)
from repro.storage.trie import TrieIndex


@dataclass
class AtomProbePlan:
    """Everything needed to probe one atom against free tuples."""

    atom_index: int
    atom_name: str
    index: TrieIndex
    # GAO positions of the atom's variables, ascending; trie level k holds
    # the variable at GAO position ``gao_positions[k]``.
    gao_positions: Tuple[int, ...]
    in_skeleton: bool = True

    @property
    def arity(self) -> int:
        return len(self.gao_positions)


@dataclass
class ProbeStatistics:
    """Counters for the probing layer (reported by the ablation benchmarks)."""

    probes_issued: int = 0
    index_seeks: int = 0
    cache_hits_present: int = 0
    cache_hits_gap: int = 0
    gaps_found: int = 0


class GapProber:
    """Stateful prober over one atom's trie index with Idea 4 caching."""

    def __init__(self, plan: AtomProbePlan, width: int,
                 enable_cache: bool = True) -> None:
        self.plan = plan
        self.width = width
        self.enable_cache = enable_cache
        self.statistics = ProbeStatistics()
        # Projections confirmed to be present in the relation, as read by
        # ``_project`` (a bare value when the atom has one variable).
        self._project = itemgetter(*plan.gao_positions)
        self._present: Set[object] = set()
        # Known gap intervals keyed by the prefix projection they lie below
        # (its length is the trie level).
        self._gap_cache: Dict[Tuple[int, ...], IntervalList] = {}
        self._source = f"{plan.atom_name}#{plan.atom_index}"

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def seek_gap(self, point: Sequence[int]) -> Optional[Constraint]:
        """Return the gap box around ``point``'s projection, or ``None``.

        ``None`` means the projection is present in the relation, i.e. this
        atom does not rule the free tuple out.
        """
        statistics = self.statistics
        statistics.probes_issued += 1
        cache = self._gap_cache if self.enable_cache else None
        if cache is not None and self._project(point) in self._present:
            statistics.cache_hits_present += 1
            return None

        gap_around = self.plan.index.gap_around
        prefix: Tuple[int, ...] = ()
        for level, position in enumerate(self.plan.gao_positions):
            value = point[position]
            intervals = cache.get(prefix) if cache is not None else None
            if intervals is not None:
                known = intervals.containing(value)
                if known is not None:
                    statistics.cache_hits_gap += 1
                    statistics.gaps_found += 1
                    return self._make_constraint(level, prefix, *known)
            statistics.index_seeks += 1
            glb, present, lub = gap_around(prefix, value)
            if present:
                prefix += (value,)
                continue
            statistics.gaps_found += 1
            if cache is not None:
                if intervals is None:
                    intervals = cache[prefix] = IntervalList()
                intervals.insert(NEG_INF if glb is None else glb,
                                 POS_INF if lub is None else lub)
            return self._make_constraint(level, prefix, glb, lub)

        if cache is not None:
            self._present.add(self._project(point))
        return None

    def _make_constraint(self, level: int, prefix: Tuple[int, ...],
                         low: Optional[Number], high: Optional[Number]) -> Constraint:
        positions = self.plan.gao_positions
        return constraint_from_gap(
            width=self.width,
            exact_positions=positions[:level],
            exact_values=prefix,
            interval_position=positions[level],
            low=low,
            high=high,
            source=self._source,
        )


def build_probe_plans(atoms_meta: Sequence[Tuple[int, str, TrieIndex, Tuple[int, ...]]],
                      skeleton: Set[int]) -> List[AtomProbePlan]:
    """Assemble probe plans; ``skeleton`` holds the atom indexes whose gaps
    are inserted into the CDS (Idea 7)."""
    plans = []
    for atom_index, name, index, gao_positions in atoms_meta:
        plans.append(AtomProbePlan(
            atom_index=atom_index,
            atom_name=name,
            index=index,
            gao_positions=gao_positions,
            in_skeleton=atom_index in skeleton,
        ))
    return plans
