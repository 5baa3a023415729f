"""The cyclic construction model against the part-count oracle in conftest.

Every fast membership path (the generator, the memo, the builder, the
per-triple table lookup, both partition optimizers and the colored
triangle scan) is compared with ``oracle_cyclic_edges``, which never reads
the table, and the memo's closed-form codegree table with ``oracle_codegrees`` counted over
those oracle edges.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CYCLIC_PART_COUNTS,
    is_construction_edge,
    oracle_codegrees,
    oracle_cyclic_edges,
    random_graph,
)
from turanl2.classification import construction_edges, optimize_partition
from turanl2.colored import ColoredGraph, cyclic_triangles, is_cyclic_triangle_free
from turanl2.constructions import (
    CYCLIC_TABLE,
    Composition3,
    Partition3,
    build_c,
    c_l2_closed,
    compositions_of,
    construction,
    cyclic_triples,
)
from turanl2.hypergraph import ThreeGraph, l2_norm, make_pair_graph

labels = st.sampled_from((1, 2, 3))


def _check_partition(parts):
    oracle = oracle_cyclic_edges(parts)
    p = Partition3(parts)
    assert tuple(cyclic_triples(parts)) == tuple(sorted(oracle))
    assert construction_edges(p) == oracle
    for t in itertools.combinations(range(len(parts)), 3):
        assert is_construction_edge(t, p) == (t in oracle)
        assert is_construction_edge(t[::-1], p) == (t in oracle)
    _check_table(parts, oracle)


def _check_table(parts, oracle):
    """The memo's closed-form table is the oracle edges' count, row-major."""
    table = construction(Partition3(parts)).codegrees()
    assert table == oracle_codegrees(ThreeGraph(len(parts), sorted(oracle), _normalized=True))
    assert list(table) == sorted(table)


def _overlap(h, parts) -> int:
    return len(h.edge_set & oracle_cyclic_edges(parts))


def test_table_matches_part_counts():
    for t in itertools.product((1, 2, 3), repeat=3):
        x, y, z = t
        counts = tuple(t.count(i) for i in (1, 2, 3))
        assert CYCLIC_TABLE[9 * x + 3 * y + z - 13] == (counts in CYCLIC_PART_COUNTS)


def test_every_partition_up_to_six_vertices():
    checked = 0
    for n in range(7):
        for parts in itertools.product((1, 2, 3), repeat=n):
            _check_partition(parts)
            checked += 1
    assert checked == sum(3**n for n in range(7))


def test_build_c_every_composition_up_to_six_vertices():
    for n in range(7):
        for comp in compositions_of(n):
            h, p = build_c(comp)
            assert p.sizes == comp.sizes
            assert h.edges == tuple(sorted(oracle_cyclic_edges(p.parts)))


@settings(max_examples=60, deadline=None)
@given(st.lists(labels, max_size=30))
def test_random_partitions(parts):
    _check_partition(tuple(parts))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
def test_random_compositions(n1, n2, n3):
    h, p = build_c(Composition3(n1, n2, n3))
    assert h.edges == tuple(sorted(oracle_cyclic_edges(p.parts)))


@settings(max_examples=40, deadline=None)
@given(st.lists(labels, max_size=40))
def test_closed_form_table_on_random_partitions(parts):
    parts = tuple(parts)
    _check_table(parts, oracle_cyclic_edges(parts))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 14), st.integers(0, 14), st.integers(0, 14))
def test_closed_form_table_sums_to_the_closed_norm(n1, n2, n3):
    comp = Composition3(n1, n2, n3)
    h = construction(comp.partition())
    assert sum(d * d for d in h.codegrees().values()) == c_l2_closed(comp) == l2_norm(h)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6), st.floats(0, 1), st.integers(0, 2**32))
def test_optimizer_scores_match_oracle(n, density, seed):
    h = random_graph(random.Random(seed), n, density)
    best = max(
        (_overlap(h, parts) for parts in itertools.product((1, 2, 3), repeat=n)),
        default=0,
    )
    p, score = optimize_partition(h, "exhaustive")
    assert score == _overlap(h, p.parts) == best
    p, score = optimize_partition(h, "vertexMoves")
    assert score == _overlap(h, p.parts) <= best


def test_memo_keeps_only_the_last_partition():
    first_p, second_p = Partition3.balanced(13), Partition3.from_sizes(3, 5, 5)
    first = construction(first_p)
    assert construction(first_p) is first
    second = construction(second_p)
    assert construction(second_p) is second
    rebuilt = construction(first_p)
    assert rebuilt is not first and rebuilt == first
    assert rebuilt.edge_set == oracle_cyclic_edges(first_p.parts)
    assert construction(second_p) is not second


def test_construction_edges_share_the_memo_tuples():
    p = Partition3.balanced(12)
    h = construction(p)
    assert construction_edges(p) is h.edge_set
    by_value = {t: t for t in h.edges}
    assert all(by_value[t] is t for t in construction_edges(p))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_colored_scan_matches_oracle(data):
    parts = tuple(data.draw(st.lists(labels, max_size=10)))
    n = len(parts)
    all_pairs = list(itertools.combinations(range(n), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(all_pairs), max_size=len(all_pairs)))
    pairs = {e for e, k in zip(all_pairs, keep) if k}
    cg = ColoredGraph(make_pair_graph(n, sorted(pairs)), Partition3(parts))
    expected = {
        t
        for t in oracle_cyclic_edges(parts)
        if all(e in pairs for e in itertools.combinations(t, 2))
    }
    found = cyclic_triangles(cg)
    assert len(found) == len(set(found)) and set(found) == expected
    assert is_cyclic_triangle_free(cg) == (not expected)
