"""Shared helpers: seeded generators and brute-force oracles.

The oracles here deliberately avoid the library's optimized paths: norms are
recounted from raw pair iteration, canonical forms are minimized over every
permutation, subgraph searches enumerate vertex subsets directly, and the
cyclic construction is recounted from the part counts of every triple.
"""

import itertools
import random
from collections import Counter

import pytest

from turanl2.hypergraph import ThreeGraph


def oracle_l2(h: ThreeGraph) -> int:
    cnt = Counter()
    for t in h.edges:
        for p in itertools.combinations(t, 2):
            cnt[p] += 1
    return sum(d * d for d in cnt.values())


def oracle_codegree(h: ThreeGraph, pair) -> int:
    a, b = sorted(pair)
    return sum(1 for t in h.edges if a in t and b in t)


def oracle_canonical(h: ThreeGraph):
    """Minimum relabeled edge list over all n! permutations."""
    best = None
    for perm in itertools.permutations(range(h.n)):
        rel = tuple(
            sorted(tuple(sorted((perm[a], perm[b], perm[c]))) for a, b, c in h.edges)
        )
        if best is None or rel < best:
            best = rel
    return best


def oracle_contains_complete(h: ThreeGraph, k: int) -> bool:
    for sub in itertools.combinations(range(h.n), k):
        if all(t in h.edge_set for t in itertools.combinations(sub, 3)):
            return True
    return False


# Part counts (|t & V1|, |t & V2|, |t & V3|) of the cyclic construction's edges.
CYCLIC_PART_COUNTS = frozenset({(1, 1, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2)})


def oracle_cyclic_edges(parts) -> frozenset:
    """Edges of the cyclic construction on a part assignment, by counting the
    parts of every vertex triple."""
    return frozenset(
        t
        for t in itertools.combinations(range(len(parts)), 3)
        if tuple(sum(1 for v in t if parts[v] == i) for i in (1, 2, 3))
        in CYCLIC_PART_COUNTS
    )


def random_graph(rng: random.Random, n: int, density: float) -> ThreeGraph:
    edges = [
        t for t in itertools.combinations(range(n), 3) if rng.random() < density
    ]
    return ThreeGraph(n, edges, _normalized=True)


@pytest.fixture
def rng():
    return random.Random(987654321)
