"""Shared fixtures: small deterministic graphs and databases."""

from __future__ import annotations

import random
from typing import List, Set, Tuple

import pytest

from repro.storage import Database, edge_relation_from_pairs, node_relation
from repro.storage.trie import TrieIndex


def random_edge_pairs(num_nodes: int, num_edges: int, seed: int) -> List[Tuple[int, int]]:
    """A deterministic set of random undirected edge pairs (no self loops)."""
    rng = random.Random(seed)
    edges: Set[Tuple[int, int]] = set()
    max_edges = num_nodes * (num_nodes - 1) // 2
    target = min(num_edges, max_edges)
    while len(edges) < target:
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def graph_database(num_nodes: int, num_edges: int, seed: int = 0,
                   samples: Tuple[str, ...] = ("v1", "v2"),
                   sample_size: int = 6) -> Database:
    """A database with an ``edge`` relation plus small node samples."""
    pairs = random_edge_pairs(num_nodes, num_edges, seed)
    rng = random.Random(seed + 1)
    relations = [edge_relation_from_pairs(pairs)]
    nodes = sorted({node for pair in pairs for node in pair})
    for index, name in enumerate(samples):
        size = min(sample_size, len(nodes))
        relations.append(node_relation(rng.sample(nodes, size), name))
    return Database(relations)


@pytest.fixture
def triangle_db() -> Database:
    """A tiny graph with exactly two triangles: (0,1,2) and (1,2,3)."""
    pairs = [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4)]
    return Database([edge_relation_from_pairs(pairs)])


@pytest.fixture
def small_db() -> Database:
    """A 30-node, 80-edge random graph with v1/v2 samples."""
    return graph_database(30, 80, seed=7)


@pytest.fixture
def medium_db() -> Database:
    """A 50-node, 180-edge random graph with four samples (for tree queries)."""
    return graph_database(50, 180, seed=11, samples=("v1", "v2", "v3", "v4"),
                          sample_size=6)


@pytest.fixture
def seek_calls(monkeypatch) -> List[int]:
    """A one-element list counting ``TrieIndex.seek_value`` calls; the
    wrapper has the exact (self, prefix, value) shape the benchmark's seek
    counter patches in."""
    calls = [0]
    original = TrieIndex.seek_value

    def counting(self, prefix, value):
        calls[0] += 1
        return original(self, prefix, value)
    monkeypatch.setattr(TrieIndex, "seek_value", counting)
    return calls
