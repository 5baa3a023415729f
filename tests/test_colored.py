import hashlib
import itertools
import random

import pytest

from conftest import oracle_path_degree
from turanl2.colored import (
    ColoredGraph,
    DirectedView,
    Partition3,
    _merge,
    build_lambda,
    check_symmetrized_facts,
    cyclic_triangles,
    equivalence_classes,
    is_cyclic_triangle_free,
    locally_symmetrize,
    random_cyclic_triangle_free,
)
from turanl2.errors import NotLocallySymmetrized
from turanl2.hypergraph import graph_l2_norm, make_pair_graph
from turanl2.util import dump_json


def colored(n, colors, edges):
    return ColoredGraph(make_pair_graph(n, edges), Partition3.from_string(colors))


def test_rho3_triangle_types():
    # rho3, the cyclic-triangle density, counts the triangles this scan lists
    triangle = [(0, 1), (0, 2), (1, 2)]
    assert cyclic_triangles(colored(3, "123", triangle)) == [(0, 1, 2)]
    assert cyclic_triangles(colored(3, "113", triangle)) == []
    assert cyclic_triangles(colored(3, "112", triangle)) == [(0, 1, 2)]
    assert cyclic_triangles(colored(3, "221", triangle)) == []  # V2V2V1 not cyclic
    assert cyclic_triangles(build_lambda(2, 2, 2)) == []


def test_cyclically_triangle_free():
    assert is_cyclic_triangle_free(build_lambda(2, 2, 2))
    assert not is_cyclic_triangle_free(colored(3, "123", [(0, 1), (0, 2), (1, 2)]))
    assert is_cyclic_triangle_free(colored(4, "1123", []))


def test_build_lambda_counts():
    lam1 = build_lambda(1, 1, 1)
    assert lam1.graph.edges == ((0, 1), (1, 2))
    assert graph_l2_norm(lam1.graph) == 6  # equals closed form 9 - 4 + 1
    lam2 = build_lambda(2, 2, 2)
    assert len(lam2.graph.edges) == 9
    assert graph_l2_norm(lam2.graph) == 58  # 9*8 - 4*4 + 2
    for n in (1, 2, 3, 4):
        lam = build_lambda(n, n, n)
        assert len(lam.graph.edges) == (5 * n * n - n) // 2
        assert graph_l2_norm(lam.graph) == 9 * n**3 - 4 * n**2 + n
    lam_only3 = build_lambda(0, 0, 2)
    assert lam_only3.graph.edges == ((0, 1),)


def test_graph_l2_norm_path():
    g = make_pair_graph(3, [(0, 1), (1, 2)])
    assert graph_l2_norm(g) == 6
    assert graph_l2_norm(make_pair_graph(4, [])) == 0


def test_symmetrize_cases():
    # one mover with an equal neighborhood: a no-op
    cg = colored(4, "1122", [(0, 2), (1, 2)])
    assert _merge(cg, (0,), 1).graph == cg.graph
    # adjacent pair loses its connecting edge
    cg2 = colored(2, "11", [(0, 1)])
    assert _merge(cg2, (0,), 1).graph.edges == ()
    # leaf copies a star center, dropping the mutual edge
    star = colored(4, "1111", [(0, 1), (0, 2), (0, 3)])
    out = _merge(star, (1,), 0)
    assert out.graph.edges == ((0, 2), (0, 3), (1, 2), (1, 3))


def test_equivalence_classes():
    cg = colored(6, "112233", [])
    ec = equivalence_classes(cg)
    assert len(ec.classes) == 3
    lam = build_lambda(2, 2, 2)
    ec2 = equivalence_classes(lam)
    assert len(ec2.classes) == 4  # part 3 splits into two adjacent singletons
    assert ec2.classes[0] == (0, 1) and ec2.classes[1] == (2, 3)
    bip = colored(6, "112233", [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert len(equivalence_classes(bip).classes) == 3


def test_class_symmetrize():
    # two singleton classes, disjoint neighborhoods: mover becomes a twin
    cg = colored(5, "11223", [(0, 2), (1, 4)])
    out = _merge(cg, (1,), 0)
    assert out.graph.neighbors(1) == out.graph.neighbors(0) == frozenset({2})
    # every member of a twin class takes the target's neighborhood
    twins = colored(5, "11123", [(0, 3), (1, 3), (2, 4)])
    movers = equivalence_classes(twins).class_members(0)
    assert movers == (0, 1)
    assert _merge(twins, movers, 2).graph.edges == ((0, 4), (1, 4), (2, 4))
    # merging the adjacent part-3 singletons of the reference drops one edge
    lam = build_lambda(2, 2, 2)
    merged = _merge(lam, equivalence_classes(lam).class_members(4), 5)
    assert len(merged.graph.edges) == 8
    assert is_cyclic_triangle_free(merged)


def test_class_symmetrize_preserves_freeness_on_nonadjacent_merges(rng):
    checked = 0
    while checked < 500:
        n = rng.randint(4, 11)
        cg = random_cyclic_triangle_free(rng, n, rng.random())
        ec = equivalence_classes(cg)
        parts = cg.partition.parts
        candidates = []
        for ca, cb in itertools.combinations(ec.classes, 2):
            if parts[ca[0]] != parts[cb[0]]:
                continue
            if cb[0] not in cg.graph.neighbors(ca[0]):
                candidates.append((ca[0], cb[0]))
        if not candidates:
            continue
        u, v = candidates[rng.randrange(len(candidates))]
        if rng.random() < 0.5:
            u, v = v, u
        out = _merge(cg, ec.class_members(u), v)
        assert is_cyclic_triangle_free(out)
        checked += 1


def test_class_symmetrize_adjacent_merge_can_break_freeness():
    # two twins pointing at v, v also adjacent to a part-2 vertex: merging the
    # twin class into [v] creates a two-in-part-1 triangle
    cg = colored(4, "1112", [(0, 2), (1, 2), (2, 3)])
    assert is_cyclic_triangle_free(cg)
    out = _merge(cg, equivalence_classes(cg).class_members(0), 2)
    assert not is_cyclic_triangle_free(out)


def test_locally_symmetrize_fixpoints():
    lam = build_lambda(2, 2, 2)
    out, log = locally_symmetrize(lam)
    assert out == lam and log == []
    edgeless = colored(6, "112233", [])
    out2, log2 = locally_symmetrize(edgeless)
    assert out2 == edgeless and log2 == []


def test_locally_symmetrize_properties(rng):
    for _ in range(120):
        n = rng.randint(3, 12)
        cg = random_cyclic_triangle_free(rng, n, rng.random())
        out, log = locally_symmetrize(cg)
        assert len(out.graph.edges) >= len(cg.graph.edges)
        assert is_cyclic_triangle_free(out)
        # every nonadjacent same-part pair has one neighborhood
        parts, adj = out.partition.parts, out.graph.adjacency()
        assert all(
            adj[u] == adj[v]
            for u, v in itertools.combinations(range(n), 2)
            if parts[u] == parts[v] and v not in adj[u]
        )
        report = check_symmetrized_facts(out)
        assert report.all_pass, report.to_json_dict()
        for step in log:
            assert step.edges_after >= step.edges_before


def test_check_symmetrized_facts_on_reference():
    report = check_symmetrized_facts(build_lambda(2, 2, 2))
    assert report.all_pass and report.cyclic_triangle_free
    ids = [f.id for f in report.facts]
    assert "classes-independent" in ids and "in-neighborhood-single-class" in ids


def test_check_symmetrized_facts_flags_planted_violation():
    from turanl2.colored import EquivalenceClasses

    lam = build_lambda(2, 2, 2)
    # claim the two adjacent part-3 vertices are one class: independence fails
    fake = EquivalenceClasses(((0, 1), (2, 3), (4, 5)), (0, 0, 1, 1, 2, 2))
    report = check_symmetrized_facts(lam, classes=fake)
    flags = {f.id: f.passed for f in report.facts}
    assert flags["classes-independent"] is False


def test_check_symmetrized_facts_requires_fixpoint():
    # part-1 vertices nonadjacent with different neighborhoods
    cg = colored(4, "1123", [(0, 2)])
    with pytest.raises(NotLocallySymmetrized):
        check_symmetrized_facts(cg)


def test_check_symmetrized_facts_vacuous_on_edgeless():
    report = check_symmetrized_facts(colored(6, "112233", []))
    assert report.all_pass


def test_directed_structure():
    lam = build_lambda(2, 2, 2)
    view = DirectedView(lam)
    assert view.shortest_directed_cycle() is None
    tri = colored(3, "123", [(0, 1), (0, 2), (1, 2)])
    view2 = DirectedView(tri)
    assert view2.shortest_directed_cycle() == [0, 1, 2]
    assert view2.minimum_directed_cycles() == [[0, 1, 2]]
    empty = colored(4, "1233", [])
    view3 = DirectedView(empty)
    assert view3.shortest_directed_cycle() is None


def test_degree_sum_on_path_reference():
    for n in (2, 3, 4):
        lam = build_lambda(n, n, n)
        # x has no part-3 neighbor; degrees n, 2n and 2n - 1 against 3 * 2 * n
        assert oracle_path_degree(lam, [0, n, 2 * n]) == (n + 2 * n + (2 * n - 1), 6 * n)


def test_degree_sum_bound_on_synthetic_symmetrized_graphs(rng):
    # every directed path with one or two full segments obeys the bound after
    # symmetrization (exhaustive over all such paths)
    for _ in range(25):
        cg = random_cyclic_triangle_free(rng, rng.randint(6, 9), rng.random())
        out, _ = locally_symmetrize(cg)
        by_part = {i: sorted(out.partition.part_sets()[i - 1]) for i in (1, 2, 3)}
        adj = out.graph.adjacency()
        segs = [
            (x, y, z)
            for x in by_part[1]
            for y in by_part[2]
            if y in adj[x]
            for z in by_part[3]
            if z in adj[y]
        ]
        paths = [list(seg) for seg in segs] + [
            list(s1) + list(s2)
            for s1 in segs
            for s2 in segs
            if not set(s1) & set(s2) and s1[2] in adj[s2[0]]
        ]
        for path in paths:
            found = oracle_path_degree(out, path)
            assert found is None or found[0] <= found[1], path


def _double_cycle(pad1=0, pad2=0, pad3=0):
    """Two singleton classes per part wired into a directed six-cycle, plus
    optional extra part vertices joined to everything inside their part.
    Locally symmetrized (every same-part pair is adjacent) and cyclically
    triangle-free, yet it contains a directed cycle."""
    sizes = (2 + pad1, 2 + pad2, 2 + pad3)
    n1, n2, n3 = sizes
    v1 = list(range(0, n1))
    v2 = list(range(n1, n1 + n2))
    v3 = list(range(n1 + n2, n1 + n2 + n3))
    edges = set()
    for part in (v1, v2, v3):
        edges.update(itertools.combinations(part, 2))
    x1, x2 = v1[0], v1[1]
    y1, y2 = v2[0], v2[1]
    z1, z2 = v3[0], v3[1]
    edges.update(
        tuple(sorted(e))
        for e in [(x1, y1), (x2, y2), (y1, z1), (y2, z2), (z2, x1), (z1, x2)]
    )
    return colored(sum(sizes), "1" * n1 + "2" * n2 + "3" * n3, sorted(edges))


def test_minimum_cycles_class_distinct_when_present():
    # directed cycles alternate the three parts, so the shortest possible one
    # has six vertices; a locally symmetrized cyclically-triangle-free graph
    # can carry one when each part holds two classes
    for pads in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 1)]:
        cg = _double_cycle(*pads)
        assert is_cyclic_triangle_free(cg)
        fixed, log = locally_symmetrize(cg)
        assert fixed == cg and log == []  # already a fixpoint
        view = DirectedView(cg)
        cycle = view.shortest_directed_cycle()
        assert cycle is not None and len(cycle) == 6
        report = check_symmetrized_facts(cg)
        assert report.all_pass
        flags = {f.id: f.passed for f in report.facts}
        assert flags["minimum-cycles-class-distinct"]


def test_rho3_color_preserving_equivariance(rng):
    for _ in range(60):
        n = rng.randint(3, 9)
        parts = Partition3(tuple(rng.choice((1, 2, 3)) for _ in range(n)))
        density = rng.random()
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        cg = ColoredGraph(make_pair_graph(n, edges), parts)
        # only color-preserving relabelings keep the partition aligned
        mapping = {}
        for members in parts.part_sets():
            vs = sorted(members)
            shuffled = vs[:]
            rng.shuffle(shuffled)
            mapping.update(zip(vs, shuffled))
        moved_edges = [(mapping[a], mapping[b]) for a, b in edges]
        relabeled = ColoredGraph(make_pair_graph(n, moved_edges), parts)
        moved = sorted(tuple(sorted(mapping[x] for x in t)) for t in cyclic_triangles(cg))
        assert sorted(cyclic_triangles(relabeled)) == moved


def _symmetrization_digest(seed: int = 9, trials: int = 300) -> str:
    """sha256 over the symmetrized edges, the merge log and the fact report
    of ``trials`` seeded random inputs drawn as criterion 9 draws them."""
    rng = random.Random(seed)
    records = []
    for _ in range(trials):
        n = rng.randint(3, 12)
        out, log = locally_symmetrize(random_cyclic_triangle_free(rng, n, rng.random()))
        records.append(
            {
                "edges": out.graph.edges,
                "log": [
                    [s.part, s.merged_class, s.target_class, s.edges_before, s.edges_after]
                    for s in log
                ],
                "facts": check_symmetrized_facts(out).to_json_dict(),
            }
        )
    return hashlib.sha256(dump_json(records).encode()).hexdigest()


def test_symmetrization_results_are_pinned():
    assert _symmetrization_digest() == (
        "d9b513391f99fb1854e01858ca45bcf45b0d903ee912ce2a391afe35f593ea38"
    )
