"""Join algorithms: the paper's new algorithms and every baseline.

* :mod:`repro.joins.leapfrog` — Leapfrog Triejoin (worst-case optimal); its
  ``count`` is the factorised #Minesweeper count (Idea 8).
* :mod:`repro.joins.generic` — Generic Join / NPRR-style hash variant.
* :mod:`repro.joins.minesweeper` — the Minesweeper engine (CDS, gap boxes,
  Ideas 1-7) and the parallel partitioner.
* :mod:`repro.joins.hybrid` — the MS-on-path / LFTJ-on-clique hybrid (§4.12).
* :mod:`repro.joins.pairwise` + :mod:`repro.joins.optimizer` — Selinger-style
  binary-join executor (the PostgreSQL stand-in).
* :mod:`repro.joins.columnar` — column-at-a-time greedy executor (the
  MonetDB stand-in).
* :mod:`repro.joins.yannakakis` — the classical acyclic-query algorithm.
* :mod:`repro.joins.graph_engine` — specialized clique kernels (the GraphLab
  stand-in).
* :mod:`repro.joins.naive` — an obviously-correct backtracking evaluator used
  as the test oracle.
"""

from repro.joins.base import BindingIterator, JoinAlgorithm, bindings_to_tuples
from repro.joins.naive import NaiveBacktrackingJoin
from repro.joins.leapfrog import LeapfrogTrieJoin
from repro.joins.generic import GenericJoin
from repro.joins.pairwise import PairwiseHashJoin
from repro.joins.columnar import ColumnAtATimeJoin
from repro.joins.yannakakis import YannakakisJoin
from repro.joins.graph_engine import GraphEngine
from repro.joins.hybrid import HybridMinesweeperLeapfrog
from repro.joins.minesweeper import MinesweeperJoin, MinesweeperOptions

__all__ = [
    "BindingIterator",
    "ColumnAtATimeJoin",
    "GenericJoin",
    "GraphEngine",
    "HybridMinesweeperLeapfrog",
    "JoinAlgorithm",
    "LeapfrogTrieJoin",
    "MinesweeperJoin",
    "MinesweeperOptions",
    "NaiveBacktrackingJoin",
    "PairwiseHashJoin",
    "YannakakisJoin",
    "bindings_to_tuples",
]
