"""Minesweeper: the beyond-worst-case join algorithm of the paper.

The subpackage mirrors the structure of §4 of the paper:

* :mod:`intervals` — the point-list / interval-list machinery (Idea 1),
* :mod:`constraints` — gap boxes encoded as constraints (Idea 3),
* :mod:`cds` — the Constraint Data Structure: ``insert_constraint`` and
  ``compute_free_tuple`` with the moving frontier (Idea 2), ping-pong
  ``get_free_value`` with interval caching and truncation (Idea 5), and
  complete nodes (Idea 6),
* :mod:`gaps` — probing trie indexes for gaps with probe caching (Idea 4),
* :mod:`engine` — the outer loop, options, and the β-acyclic skeleton for
  cyclic queries (Idea 7),
* :mod:`parallel` — the output-space partitioning of §4.10.

Idea 8 (#Minesweeper's factorised counting) is not here: it is
:meth:`repro.joins.leapfrog.LeapfrogTrieJoin.count`, which memoises the
count below a level on the earlier attributes that deeper atoms and filters
still read.  ``MinesweeperJoin.count`` counts the outputs it enumerates.
"""

from repro.joins.minesweeper.constraints import Constraint, NEG_INF, POS_INF
from repro.joins.minesweeper.intervals import IntervalList
from repro.joins.minesweeper.cds import ConstraintTree
from repro.joins.minesweeper.engine import MinesweeperJoin, MinesweeperOptions
from repro.joins.minesweeper.certificate import (
    BoxCertificate,
    certificate_size,
    certified_run,
)
from repro.joins.minesweeper.parallel import (
    PartitionedMinesweeper,
    simulate_work_stealing,
)

__all__ = [
    "BoxCertificate",
    "Constraint",
    "ConstraintTree",
    "IntervalList",
    "MinesweeperJoin",
    "MinesweeperOptions",
    "NEG_INF",
    "POS_INF",
    "PartitionedMinesweeper",
    "certificate_size",
    "certified_run",
    "simulate_work_stealing",
]
