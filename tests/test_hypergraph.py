import gc
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_canonical,
    oracle_codegree,
    oracle_codegrees,
    oracle_contains_complete,
    oracle_l2,
    random_graph,
)
from turanl2.constructions import Composition3, build_balanced_c, build_c
from turanl2.errors import DegenerateEdge, SizeLimitExceeded, VertexOutOfRange
from turanl2.hypergraph import (
    FLAT_COUNT_MAX_N,
    Graph,
    ThreeGraph,
    canonical_blocks,
    canonical_form,
    codegree,
    contains_k43,
    count_s2,
    delete_vertex,
    edit_sorted,
    find_k43,
    induce,
    l2_norm,
    least_relabeling,
    link,
    make_graph,
    make_pair_graph,
    shadow,
    two_norm_degree,
)

K4 = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def test_make_graph_normalizes_and_dedupes():
    h = make_graph(4, [[0, 1, 2]])
    assert h.edges == ((0, 1, 2),)
    h = make_graph(4, [[2, 1, 0], [0, 1, 2]])
    assert h.edges == ((0, 1, 2),)


def test_make_graph_rejects_bad_input():
    with pytest.raises(VertexOutOfRange):
        make_graph(3, [[0, 1, 3]])
    with pytest.raises(DegenerateEdge):
        make_graph(4, [[0, 1, 1]])
    with pytest.raises(DegenerateEdge):
        make_graph(4, [[0, 1]])


def test_make_pair_graph_normalizes_dedupes_and_rejects_bad_input():
    assert make_pair_graph(3, [[2, 0], [0, 2], (1, 2)]).edges == ((0, 2), (1, 2))
    for n, pairs, error in ((3, [[0, 3]], VertexOutOfRange), (3, [[1, 1]], DegenerateEdge),
                            (3, [[0, 1, 2]], DegenerateEdge), (-1, [], VertexOutOfRange)):
        with pytest.raises(error):
            make_pair_graph(n, pairs)
    with pytest.raises(VertexOutOfRange):
        make_graph(-1, [])


def test_builders_normalize_each_item_once(monkeypatch):
    from turanl2 import hypergraph

    calls = []
    for name in ("normalize_triple", "normalize_pair"):
        def counted(item, n, real=getattr(hypergraph, name), name=name):
            calls.append(name)
            return real(item, n)

        monkeypatch.setattr(hypergraph, name, counted)
    assert make_graph(4, [[2, 1, 0], [0, 1, 2], [1, 2, 3]]).edges == ((0, 1, 2), (1, 2, 3))
    assert calls == ["normalize_triple"] * 3
    calls.clear()
    assert make_pair_graph(3, [[1, 0], [0, 1]]).edges == ((0, 1),)
    assert calls == ["normalize_pair"] * 2


def test_codegree_small_cases():
    h = make_graph(3, [[0, 1, 2]])
    assert codegree(h, (0, 1)) == 1
    k4 = make_graph(4, K4)
    for pair in itertools.combinations(range(4), 2):
        assert codegree(k4, pair) == 2


def test_codegree_on_balanced_cyclic_construction():
    # internal pairs sit in 2 edges, crossing pairs in 3 (enumerated oracle)
    c6, _ = build_balanced_c(6)
    for pair in itertools.combinations(range(6), 2):
        assert codegree(c6, pair) == oracle_codegree(c6, pair)
    assert codegree(c6, (0, 1)) == 2
    assert codegree(c6, (2, 3)) == 2
    assert codegree(c6, (4, 5)) == 2
    assert codegree(c6, (0, 2)) == 3
    assert codegree(c6, (0, 4)) == 3


def test_link_cases():
    h = make_graph(3, [[0, 1, 2]])
    assert link(h, 0).edges == ((1, 2),)
    h2 = make_graph(4, [[0, 1, 2], [0, 1, 3]])
    assert link(h2, 0).edges == ((1, 2), (1, 3))
    c6, _ = build_balanced_c(6)
    for v in range(6):
        lk = link(c6, v)
        assert len(lk.edges) == 7  # every vertex has degree 7 (handshake: 3*14/6)
        for u in range(6):
            if u != v:
                assert lk.degree(u) == codegree(c6, tuple(sorted((u, v))))


def test_shadow():
    assert shadow(make_graph(3, [[0, 1, 2]])).edges == ((0, 1), (0, 2), (1, 2))
    assert shadow(make_graph(5, [])).edges == ()
    k4 = make_graph(4, K4)
    assert shadow(k4).edges == tuple(itertools.combinations(range(4), 2))


def test_l2_norm_values():
    assert l2_norm(make_graph(3, [[0, 1, 2]])) == 3
    star = make_graph(5, [[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    assert l2_norm(star) == 15  # pairs: 01 thrice, six pairs once
    c6, _ = build_balanced_c(6)
    assert l2_norm(c6) == 120


def test_l2_norm_matches_oracle_on_randoms(rng):
    for _ in range(300):
        h = random_graph(rng, rng.randint(0, 9), rng.random())
        assert l2_norm(h) == oracle_l2(h)


def test_two_norm_degree():
    h = make_graph(3, [[0, 1, 2]])
    assert two_norm_degree(h, 0) == 3
    empty = make_graph(5, [])
    assert all(two_norm_degree(empty, v) == 0 for v in range(5))
    k4_minus = make_graph(4, K4[:3])
    assert two_norm_degree(k4_minus, 0) == l2_norm(k4_minus) - l2_norm(
        delete_vertex(k4_minus, 0)
    )


def test_two_norm_degree_equals_deletion_difference(rng):
    for _ in range(400):
        n = rng.randint(1, 9)
        h = random_graph(rng, n, rng.random())
        v = rng.randrange(n)
        assert two_norm_degree(h, v) == l2_norm(h) - l2_norm(delete_vertex(h, v))


def test_count_s2():
    assert count_s2(make_graph(3, [[0, 1, 2]])) == 0
    assert count_s2(make_graph(4, [[0, 1, 2], [0, 1, 3]])) == 1
    k4 = make_graph(4, K4)
    assert count_s2(k4) == 6
    assert l2_norm(k4) == 2 * 6 + 3 * 4 == 24


def test_sharing_identity_and_handshake(rng):
    for _ in range(500):
        h = random_graph(rng, rng.randint(0, 9), rng.random())
        cd = h.codegrees()
        assert l2_norm(h) == 2 * count_s2(h) + 3 * len(h.edges)
        assert sum(cd.values()) == 3 * len(h.edges)


def test_contains_k43():
    k4 = make_graph(4, K4)
    assert contains_k43(k4)
    assert find_k43(k4) == (0, 1, 2, 3)
    assert not contains_k43(make_graph(4, K4[:3]))
    c6, _ = build_balanced_c(6)
    assert not contains_k43(c6)


def test_contains_k43_matches_subset_oracle(rng):
    for _ in range(200):
        h = random_graph(rng, rng.randint(4, 8), rng.random())
        assert contains_k43(h) == oracle_contains_complete(h, 4)


def test_induce():
    h = make_graph(4, [[0, 1, 2], [0, 1, 3]])
    sub = induce(h, {0, 1, 2})
    assert sub.n == 3 and sub.edges == ((0, 1, 2),)
    assert induce(h, range(4)) == h
    # relabeling is by ascending original label
    sub2 = induce(h, {1, 3, 0})
    assert sub2.edges == ((0, 1, 2),)  # {0,1,3} -> {0,1,2}


def test_induce_on_construction_preserves_profile_counts():
    c6, p6 = build_balanced_c(6)
    keep = [0, 1, 2, 3]  # one full part plus another
    sub = induce(c6, keep)
    assert len(sub.edges) == sum(1 for t in c6.edges if set(t) <= set(keep))


def test_edge_addition_strictly_raises_l2(rng):
    for _ in range(200):
        n = rng.randint(3, 8)
        h = random_graph(rng, n, rng.random() * 0.6)
        missing = [t for t in itertools.combinations(range(n), 3) if t not in h.edge_set]
        if not missing:
            continue
        t = rng.choice(missing)
        bigger = h.with_changes(add=[t])
        assert l2_norm(bigger) >= l2_norm(h) + 3


@st.composite
def _edit(draw):
    n = draw(st.integers(3, 8))
    arity = draw(st.sampled_from((2, 3)))
    edges = st.sampled_from(list(itertools.combinations(range(n), arity)))
    base = sorted(draw(st.sets(edges)))
    return base, draw(st.sets(edges)), draw(st.sets(edges))


@settings(max_examples=300, deadline=None)
@given(_edit())
# an edge added and removed, an absent remove, a present add; then no edits
@example(([(0, 1, 2), (0, 1, 3)], {(0, 1, 3), (1, 2, 3)}, {(0, 1, 3), (0, 2, 3)}))
@example(([(0, 1), (0, 2)], {(0, 2), (1, 2)}, {(0, 2), (0, 3)}))
@example(([(0, 1, 2)], set(), set()))
def test_merge_edit_property(edit):
    base, add, rem = edit
    expected = sorted((set(base) - rem) | add)
    assert edit_sorted(tuple(base), sorted(add), tuple(rem))[0] == expected
    assert edit_sorted(base) == (base, [], [])
    merged, gained, lost = edit_sorted(base, add, rem)
    assert merged == expected
    assert gained == sorted(add - set(base))
    assert lost == sorted((rem - add) & set(base))
    if all(len(e) == 2 for e in [*base, *add, *rem]):
        g = Graph(8, base, _normalized=True)
        assert list(g.with_changes(add, rem).edges) == expected
        assert g.with_changes(add, rem).edge_set == frozenset(expected)


@st.composite
def _edit_chain(draw):
    n = draw(st.integers(3, 8))
    edges = st.sampled_from(list(itertools.combinations(range(n), 3)))
    base = sorted(draw(st.sets(edges)))
    steps = draw(st.lists(st.tuples(st.sets(edges), st.sets(edges)), max_size=6))
    return n, base, steps


@settings(max_examples=300, deadline=None)
@given(_edit_chain())
# a present add, an absent remove, an edge in both, an empty edit
@example((4, [(0, 1, 2), (0, 1, 3)], [
    ({(0, 1, 2), (0, 2, 3)}, {(1, 2, 3), (0, 1, 3)}),
    ({(0, 1, 3)}, {(0, 1, 3), (0, 1, 2)}),
    (set(), set()),
]))
@example((4, [(0, 1, 2)], [
    ({(0, 1, 3)}, set()),
    (set(), {(0, 1, 2), (1, 2, 3)}),
    ({(0, 2, 3)}, {(0, 2, 3)}),
]))
def test_with_changes_chain_tables(chain):
    n, base, steps = chain
    h = root = ThreeGraph(n, base, _normalized=True)
    assert list(root.codegrees()) == sorted(root.codegrees())
    assert root.edits_from(root) is None
    chain_graphs = [h]
    for add, rem in steps:
        child = h.with_changes(add=add, remove=rem)
        # the child's table exists once the child is made, as its own dict,
        # and the parent's still counts the parent's edges
        assert child._codegrees is not None
        assert child._codegrees is not h._codegrees
        assert child.codegrees() == oracle_codegrees(child)
        assert h.codegrees() == oracle_codegrees(h)
        # the derivation record is one step deep: only a child of the directly
        # built root has one, and it matches the set differences
        if h is root:
            gained, lost = child.edits_from(root)
            assert gained == sorted(child.edge_set - root.edge_set)
            assert lost == sorted(root.edge_set - child.edge_set)
        else:
            assert child.edits_from(h) is None and child.edits_from(root) is None
            assert not _reaches(child, root)
        assert child.edits_from(ThreeGraph(n, base, _normalized=True)) is None
        assert h.edits_from(child) is None
        h = child
        chain_graphs.append(h)
    for g in chain_graphs:
        table = g.codegrees()
        assert table == oracle_codegrees(g)
        assert 0 not in table.values()


def _reaches(obj, target, depth: int = 2) -> bool:
    """Whether ``target`` is among ``obj``'s referents or, ``depth`` levels
    down, those of the tuples it refers to."""
    return any(
        r is target or (depth > 1 and isinstance(r, tuple) and _reaches(r, target, depth - 1))
        for r in gc.get_referents(obj)
    )


def test_codegrees_beyond_flat_count():
    n = FLAT_COUNT_MAX_N + 1
    h = ThreeGraph(n, [(0, 1, 2), (0, 1, n - 1), (1, n - 2, n - 1)], _normalized=True)
    assert h.codegrees() == oracle_codegrees(h)
    child = h.with_changes(add=[(0, n - 2, n - 1)], remove=[(0, 1, 2)])
    assert child.codegrees() == oracle_codegrees(child)
    assert ThreeGraph(n, child.edges, _normalized=True).codegrees() == child.codegrees()


def test_merge_edit_matches_set_semantics(rng):
    for _ in range(200):
        n = rng.randint(3, 8)
        allt = list(itertools.combinations(range(n), 3))
        base = sorted(rng.sample(allt, rng.randint(0, len(allt))))
        add = set(rng.sample(allt, rng.randint(0, len(allt) // 2)))
        rem = set(rng.sample(allt, rng.randint(0, len(allt) // 2)))
        assert edit_sorted(base, add, rem)[0] == sorted((set(base) - rem) | add)


class TestCanonicalForm:
    def test_relabelings_of_single_edge(self):
        forms = {
            canonical_form(make_graph(4, [perm]))[0]
            for perm in itertools.permutations(range(4), 3)
        }
        assert len(forms) == 1

    def test_construction_iso_to_tetrahedron_minus_edge(self):
        c4, _ = build_c(Composition3(2, 1, 1))
        assert len(c4.edges) == 3
        k4_minus = make_graph(4, K4[:3])
        assert canonical_form(c4)[0] == canonical_form(k4_minus)[0]

    def test_random_relabelings_agree(self, rng):
        c6, _ = build_balanced_c(6)
        base = canonical_form(c6)[0]
        for _ in range(20):
            perm = list(range(6))
            rng.shuffle(perm)
            relabeled = make_graph(
                6, [(perm[a], perm[b], perm[c]) for a, b, c in c6.edges]
            )
            assert canonical_form(relabeled)[0] == base

    def test_permutation_invariance_many_randoms(self, rng):
        # 50 random graphs x 50 relabelings, n <= 7
        for _ in range(50):
            n = rng.randint(2, 7)
            h = random_graph(rng, n, rng.random())
            base = canonical_form(h)[0]
            for _ in range(50):
                perm = list(range(n))
                rng.shuffle(perm)
                relabeled = ThreeGraph(
                    n,
                    sorted(
                        tuple(sorted((perm[a], perm[b], perm[c]))) for a, b, c in h.edges
                    ),
                    _normalized=True,
                )
                assert canonical_form(relabeled)[0] == base

    def test_equality_contract_matches_full_permutation_oracle(self, rng):
        # equal canonical forms exactly when the all-permutations minimum
        # agrees, i.e. exactly for isomorphic graphs
        graphs = [random_graph(rng, 5, rng.random()) for _ in range(25)]
        # add some genuinely isomorphic pairs
        for h in graphs[:5]:
            perm = list(range(5))
            rng.shuffle(perm)
            graphs.append(
                make_graph(5, [(perm[a], perm[b], perm[c]) for a, b, c in h.edges])
            )
        for ha in graphs:
            for hb in graphs:
                ours = canonical_form(ha)[0] == canonical_form(hb)[0]
                oracle = oracle_canonical(ha) == oracle_canonical(hb)
                assert ours == oracle

    def test_returned_relabeling_produces_the_form(self, rng):
        for _ in range(40):
            n = rng.randint(2, 6)
            h = random_graph(rng, n, rng.random())
            form, mapping = canonical_form(h)
            relabeled = tuple(
                sorted(
                    tuple(sorted((mapping[a], mapping[b], mapping[c])))
                    for a, b, c in h.edges
                )
            )
            assert relabeled == form

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            canonical_form(make_graph(9, []))


def _random_blocks(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
    return [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]


def _relabel(edges, perm):
    return tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in edges))


class TestLeastRelabeling:
    def test_pair_forms_match_color_preserving_oracle(self, rng):
        # equal forms exactly when some color-preserving permutation of all
        # n! maps one edge set onto the other
        for sizes in ((1, 1, 1), (2, 1, 2), (2, 2, 2), (0, 2, 1)):
            n = sum(sizes)
            color = [i for i, k in enumerate(sizes) for _ in range(k)]
            blocks = [[v for v in range(n) if color[v] == i] for i in range(3)]
            all_pairs = list(itertools.combinations(range(n), 2))
            graphs = [
                [p for p in all_pairs if rng.random() < rng.random()] for _ in range(12)
            ]
            keeps_color = [
                perm
                for perm in itertools.permutations(range(n))
                if all(color[perm[v]] == color[v] for v in range(n))
            ]
            for edges in graphs[:5]:
                graphs.append(list(_relabel(edges, rng.choice(keeps_color))))
            images = [{_relabel(e, perm) for perm in keeps_color} for e in graphs]
            forms = [least_relabeling(n, e, blocks)[0] for e in graphs]
            for i, ea in enumerate(graphs):
                for j, eb in enumerate(graphs):
                    assert (forms[i] == forms[j]) == (_relabel(eb, range(n)) in images[i])

    def test_relabeling_reproduces_the_form(self, rng):
        for arity in (2, 3):
            for _ in range(40):
                n = rng.randint(arity, 7)
                edges = [
                    e for e in itertools.combinations(range(n), arity) if rng.random() < 0.4
                ]
                blocks = _random_blocks(rng, n)
                form, mapping, _ = least_relabeling(n, edges, blocks)
                assert _relabel(edges, mapping) == form
                start = 0
                for block in blocks:
                    labels = sorted(mapping[v] for v in block)
                    assert labels == list(range(start, start + len(block)))
                    start += len(block)


@st.composite
def _graph_with_blocks(draw):
    arity = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(0, 6))
    edges = [e for e in itertools.combinations(range(n), arity) if draw(st.booleans())]
    order = draw(st.permutations(range(n)))
    cuts = [i for i in range(1, n) if draw(st.booleans())]
    blocks = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    return arity, n, edges, blocks


def _edge_set_fixers(n, edges, keeps):
    """Brute force: the permutations of all n! that pass ``keeps`` and map
    the edge set onto itself."""
    edge_set = _relabel(edges, range(n))
    return sum(
        1
        for perm in itertools.permutations(range(n))
        if keeps(perm) and _relabel(edges, perm) == edge_set
    )


@settings(max_examples=200, deadline=None)
@given(_graph_with_blocks())
def test_tie_count_is_the_order_of_the_edge_set_stabilizer(case):
    arity, n, edges, blocks = case
    block_of = {v: i for i, block in enumerate(blocks) for v in block}
    _, _, ties = least_relabeling(n, edges, blocks)
    assert ties == _edge_set_fixers(
        n, edges, lambda perm: all(block_of[perm[v]] == block_of[v] for v in range(n))
    )
    if arity == 3:
        # every automorphism preserves the refined blocks, so there the
        # count is the order of the whole automorphism group
        h = ThreeGraph(n, edges, _normalized=True)
        _, _, automorphisms = least_relabeling(n, h.edges, canonical_blocks(h))
        assert automorphisms == _edge_set_fixers(n, edges, lambda perm: True)
