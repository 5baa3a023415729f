import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from turanl2.colored import (
    LONGEST_PATH_CAP,
    ColoredGraph,
    DirectedView,
    Partition3,
    build_lambda,
    check_symmetrized_facts,
    class_symmetrize,
    cyclic_triangles,
    degree_sum_on_path,
    equivalence_classes,
    graph_l2_norm,
    is_cyclic_triangle_free,
    is_locally_maximal,
    is_locally_symmetrized,
    locally_symmetrize,
    random_cyclic_triangle_free,
    rho3,
    symmetrize,
)
from turanl2.errors import (
    CrossPartClasses,
    MalformedPath,
    NotLocallySymmetrized,
    SameClass,
    SameVertex,
    SizeLimitExceeded,
    TooFewVertices,
)
from turanl2.hypergraph import make_pair_graph
from turanl2.util import dump_json


def colored(n, colors, edges):
    return ColoredGraph(make_pair_graph(n, edges), Partition3.from_string(colors))


def test_rho3_triangle_types():
    assert rho3(colored(3, "123", [(0, 1), (0, 2), (1, 2)])) == 1
    assert rho3(colored(3, "113", [(0, 1), (0, 2), (1, 2)])) == 0
    assert rho3(colored(3, "112", [(0, 1), (0, 2), (1, 2)])) == Fraction(1, 1)
    assert rho3(colored(3, "221", [(0, 1), (0, 2), (1, 2)])) == 0  # V2V2V1 not cyclic
    lam = build_lambda(2, 2, 2)
    assert rho3(lam) == 0
    with pytest.raises(TooFewVertices):
        rho3(colored(2, "12", [(0, 1)]))


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


def test_locally_maximal():
    assert is_locally_maximal(build_lambda(2, 2, 2))[0]
    ok, idx = is_locally_maximal(colored(6, "112233", []))
    assert ok and idx == 1
    ok, idx = is_locally_maximal(colored(6, "112233", [(0, 1)]))
    assert ok and idx == 2  # the single internal part-1 edge kills i=1


def test_symmetrize_cases():
    # equal neighborhoods: a no-op
    cg = colored(4, "1122", [(0, 2), (1, 2)])
    assert symmetrize(cg, 0, 1).graph == cg.graph
    # adjacent pair loses its connecting edge
    cg2 = colored(2, "11", [(0, 1)])
    assert symmetrize(cg2, 0, 1).graph.edges == ()
    # leaf copies a star center, dropping the mutual edge
    star = colored(4, "1111", [(0, 1), (0, 2), (0, 3)])
    out = symmetrize(star, 1, 0)
    assert out.graph.edges == ((0, 2), (0, 3), (1, 2), (1, 3))
    with pytest.raises(SameVertex):
        symmetrize(cg, 1, 1)


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
    out = class_symmetrize(cg, 1, 0)
    assert out.graph.neighbors(1) == out.graph.neighbors(0) == frozenset({2})
    # merging the adjacent part-3 singletons of the reference drops one edge
    lam = build_lambda(2, 2, 2)
    merged = class_symmetrize(lam, 4, 5)
    assert len(merged.graph.edges) == 8
    assert is_cyclic_triangle_free(merged)
    with pytest.raises(SameClass):
        class_symmetrize(colored(4, "1122", []), 0, 1)
    with pytest.raises(CrossPartClasses):
        class_symmetrize(colored(4, "1122", []), 0, 2)


def test_class_symmetrize_preserves_freeness_on_nonadjacent_merges(rng):
    checked = 0
    while checked < 500:
        n = rng.randint(4, 11)
        cg = random_cyclic_triangle_free(rng, n, rng.random())
        ec = equivalence_classes(cg)
        candidates = []
        for ca, cb in itertools.combinations(ec.classes, 2):
            if cg.part_of(ca[0]) != cg.part_of(cb[0]):
                continue
            if not cg.graph.has_edge(ca[0], cb[0]):
                candidates.append((ca[0], cb[0]))
        if not candidates:
            continue
        u, v = candidates[rng.randrange(len(candidates))]
        if rng.random() < 0.5:
            u, v = v, u
        out = class_symmetrize(cg, u, v)
        assert is_cyclic_triangle_free(out)
        checked += 1


def test_class_symmetrize_adjacent_merge_can_break_freeness():
    # two twins pointing at v, v also adjacent to a part-2 vertex: merging the
    # twin class into [v] creates a two-in-part-1 triangle
    cg = colored(4, "1112", [(0, 2), (1, 2), (2, 3)])
    assert is_cyclic_triangle_free(cg)
    out = class_symmetrize(cg, 0, 2)
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
        assert is_locally_symmetrized(out)
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
    assert view3.longest_directed_path() == (1, [0])


def test_longest_directed_path_is_exact_and_capped():
    lam = build_lambda(2, 2, 2)
    length, path = DirectedView(lam).longest_directed_path()
    assert length == 3 == len(path)  # part1 -> part2 -> part3 and no way back
    assert [lam.part_of(v) for v in path] == [1, 2, 3]
    # a directed six-cycle padded to the cap: the longest path walks the cycle
    at_cap = _double_cycle(LONGEST_PATH_CAP - 6)
    assert DirectedView(at_cap).longest_directed_path()[0] == 6
    with pytest.raises(SizeLimitExceeded):
        DirectedView(_double_cycle(LONGEST_PATH_CAP - 5)).longest_directed_path()


def test_degree_sum_on_path_reference():
    for n in (2, 3, 4):
        lam = build_lambda(n, n, n)
        x, y, z = 0, n, 2 * n
        report = degree_sum_on_path(lam, [x, y, z])
        assert report.degree_sum == n + 2 * n + (2 * n - 1)
        assert report.bound == 6 * n
        assert report.within_bound


def test_degree_sum_on_path_malformed():
    lam = build_lambda(2, 2, 2)
    with pytest.raises(MalformedPath):
        degree_sum_on_path(lam, [])
    with pytest.raises(MalformedPath):
        degree_sum_on_path(lam, [0, 2, 4, 1])  # not full segments
    with pytest.raises(MalformedPath):
        degree_sum_on_path(lam, [2, 0, 4])  # wrong part pattern
    with pytest.raises(MalformedPath):
        degree_sum_on_path(colored(3, "123", [(0, 1)]), [0, 1, 2])  # missing edge


def test_degree_sum_bound_on_synthetic_symmetrized_graphs(rng):
    # every directed path with one or two full segments obeys the bound after
    # symmetrization (exhaustive over all such paths)
    for _ in range(25):
        cg = random_cyclic_triangle_free(rng, rng.randint(6, 9), rng.random())
        out, _ = locally_symmetrize(cg)
        view = DirectedView(out)
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
        for seg in segs:
            rep = degree_sum_on_path(out, list(seg))
            if rep.start_precondition_met and rep.class_distinct:
                assert rep.within_bound
        for s1 in segs:
            for s2 in segs:
                if set(s1) & set(s2) or s1[2] not in adj[s2[0]]:
                    continue
                path = list(s1) + list(s2)
                rep = degree_sum_on_path(out, path)
                if rep.start_precondition_met and rep.class_distinct:
                    assert rep.within_bound


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
        cg = random_cyclic_triangle_free(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        # only color-preserving relabelings keep the partition aligned
        groups = {}
        for v in range(n):
            groups.setdefault(cg.part_of(v), []).append(v)
        mapping = {}
        for part, vs in groups.items():
            shuffled = vs[:]
            rng.shuffle(shuffled)
            mapping.update(dict(zip(vs, shuffled)))
        edges = [tuple(sorted((mapping[a], mapping[b]))) for a, b in cg.graph.edges]
        relabeled = ColoredGraph(make_pair_graph(n, edges), cg.partition)
        assert rho3(relabeled) == rho3(cg)


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
