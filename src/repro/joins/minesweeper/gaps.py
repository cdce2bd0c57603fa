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
issued when the cache cannot answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.datalog.terms import Variable
from repro.joins.minesweeper.constraints import Constraint, constraint_from_gap
from repro.joins.minesweeper.intervals import IntervalList
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
        # Projections confirmed to be present in the relation (full length).
        self._present: Set[Tuple[int, ...]] = set()
        # Known gap intervals keyed by (level, prefix projection).
        self._gap_cache: Dict[Tuple[int, Tuple[int, ...]], IntervalList] = {}

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def seek_gap(self, point: Sequence[int]) -> Optional[Constraint]:
        """Return the gap box around ``point``'s projection, or ``None``.

        ``None`` means the projection is present in the relation, i.e. this
        atom does not rule the free tuple out.
        """
        self.statistics.probes_issued += 1
        plan = self.plan
        projection = tuple(point[p] for p in plan.gao_positions)

        if self.enable_cache and projection in self._present:
            self.statistics.cache_hits_present += 1
            return None

        prefix: List[int] = []
        for level, position in enumerate(plan.gao_positions):
            value = projection[level]
            cached = self._cached_gap(level, tuple(prefix), value)
            if cached is not None:
                self.statistics.cache_hits_gap += 1
                self.statistics.gaps_found += 1
                low, high = cached
                return self._make_constraint(level, prefix, low, high)
            self.statistics.index_seeks += 1
            glb, present, lub = plan.index.gap_around(prefix, value)
            if present:
                prefix.append(value)
                continue
            self.statistics.gaps_found += 1
            if self.enable_cache:
                interval_list = self._gap_cache.setdefault(
                    (level, tuple(prefix)), IntervalList()
                )
                interval_list.insert(
                    glb if glb is not None else float("-inf"),
                    lub if lub is not None else float("inf"),
                )
            return self._make_constraint(level, prefix, glb, lub)

        if self.enable_cache:
            self._present.add(projection)
        return None

    def _cached_gap(self, level: int, prefix: Tuple[int, ...],
                    value: int) -> Optional[Tuple[float, float]]:
        """Look up a previously discovered gap covering ``value``."""
        if not self.enable_cache:
            return None
        interval_list = self._gap_cache.get((level, prefix))
        if interval_list is None or not interval_list.covers(value):
            return None
        for low, high in interval_list:
            if low < value < high:
                return low, high
        return None

    def _make_constraint(self, level: int, prefix: Sequence[int],
                         low, high) -> Constraint:
        plan = self.plan
        return constraint_from_gap(
            width=self.width,
            exact_positions=plan.gao_positions[:level],
            exact_values=list(prefix),
            interval_position=plan.gao_positions[level],
            low=None if low in (None, float("-inf")) else int(low),
            high=None if high in (None, float("inf")) else int(high),
            source=f"{plan.atom_name}#{plan.atom_index}",
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
