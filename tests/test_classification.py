import itertools
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    cyclic_move_inequalities,
    is_construction_edge,
    link,
    oracle_cyclic_edges,
    oracle_phase_one_checklist,
    oracle_phase_two_checklist,
    part_pair_counts,
    random_graph,
)
from turanl2 import acceptance, classification
from turanl2.classification import (
    FAMILY_IDS,
    PHASES,
    TOGGLE_PHASES,
    Thresholds,
    check_phase_one_hypotheses,
    check_phase_two_hypotheses,
    classify_edges,
    construction_edges,
    family_stats,
    optimize_partition,
)
from turanl2.constructions import (
    Composition3,
    Partition3,
    build_balanced_c,
    build_c,
    construction,
    next_part,
    prev_part,
)
from turanl2.errors import (
    EdgeNotCrossing,
    EdgeNotInShadow,
    EdgeNotInternal,
    PartitionMismatch,
    SizeLimitExceeded,
    TuranL2Error,
    UnknownFamily,
)
from turanl2.hypergraph import ThreeGraph, make_graph
from turanl2.improvement import generate_phase_instance, verify_toggle_increase


def test_construction_edges_matches_builder_on_contiguous_partition():
    comp = Composition3(3, 2, 2)
    h, p = build_c(comp)
    assert construction_edges(p) == h.edge_set


def test_classify_native_construction_is_clean():
    c6, p6 = build_balanced_c(6)
    ec = classify_edges(c6, p6)
    assert not ec.b and not ec.m
    assert ec.intersection_size() == 14
    assert family_stats(ec, "B").max_vertex_degree == 0
    assert family_stats(ec, "M").max_vertex_degree == 0


def test_classify_single_misplaced_edge():
    # two part-1 vertices with a part-3 vertex is not a construction profile
    h = make_graph(4, [[0, 1, 3]])
    p = Partition3((1, 1, 2, 3))
    ec = classify_edges(h, p)
    assert ec.b == ec.b_bi == frozenset({(0, 1, 3)})
    assert not ec.b_int
    assert ec.m == construction_edges(p)


def test_classify_missing_transversal():
    c6, p6 = build_balanced_c(6)
    h = c6.with_changes(remove=[(0, 2, 4)])
    ec = classify_edges(h, p6)
    assert not ec.b
    assert ec.m == ec.m_tri == frozenset({(0, 2, 4)})


def test_family_partitions(rng):
    for _ in range(150):
        n = rng.randint(3, 10)
        h = random_graph(rng, n, rng.random() * 0.5)
        p = Partition3(tuple(rng.choice((1, 2, 3)) for _ in range(n)))
        ec = classify_edges(h, p)
        assert ec.b_int | ec.b_bi == ec.b and not ec.b_int & ec.b_bi
        assert ec.m_tri | ec.m_bi == ec.m and not ec.m_tri & ec.m_bi
        assert (h.edge_set - ec.b) | ec.m == construction_edges(p)
        assert len(h.edges) == ec.intersection_size() + len(ec.b)
        for t in h.edges:
            assert is_construction_edge(t, p) == (t not in ec.b)


def test_family_stats_recount(rng):
    for _ in range(200):
        n = rng.randint(3, 9)
        h = random_graph(rng, n, rng.random() * 0.6)
        p = Partition3(tuple(rng.choice((1, 2, 3)) for _ in range(n)))
        ec = classify_edges(h, p)
        for fam_id in ("B", "M", "B_int", "B_bi", "M_tri", "M_bi"):
            fam = ec.family(fam_id)
            stats = family_stats(ec, fam_id)
            deg = Counter()
            for t in fam:
                for v in t:
                    deg[v] += 1
            assert stats.max_vertex_degree == max(deg.values(), default=0)
            for e in itertools.combinations(range(n), 2):
                want = frozenset(t for t in fam if e[0] in t and e[1] in t)
                assert ec.through(fam_id, e) == ec.through(fam_id, e[::-1]) == want
                assert ec.codegree(fam_id, e) == len(want)
    with pytest.raises(UnknownFamily):
        ec.family("X")


def test_family_stats_missing_star():
    c6, p6 = build_balanced_c(6)
    gone = [t for t in c6.edges if 0 in t]
    h = c6.with_changes(remove=gone)
    ec = classify_edges(h, p6)
    assert family_stats(ec, "M").max_vertex_degree == len(gone) == 7


@st.composite
def _construction_chains(draw):
    """A partition of at most 40 vertices, 1 to 6 edits on the construction,
    the chain's root ("memo" for the memo's own object, "copy" for an equal
    graph built directly) and the step after which another partition evicts
    the memo (-1 for never).  Each edit draws from a small pool of triples,
    mixing construction edges with others, so steps often re-add what an
    earlier one removed, remove what it added, or name one triple twice."""
    parts = tuple(draw(st.lists(st.sampled_from((1, 2, 3)), min_size=3, max_size=40)))
    every = list(itertools.combinations(range(len(parts)), 3))
    cons = sorted(oracle_cyclic_edges(parts))
    pool = draw(st.lists(st.sampled_from(every), min_size=1, max_size=4))
    if cons:
        pool += draw(st.lists(st.sampled_from(cons), min_size=1, max_size=4))
    edits = st.sets(st.sampled_from(sorted(set(pool))))
    steps = draw(st.lists(st.tuples(edits, edits), min_size=1, max_size=6))
    root = draw(st.sampled_from(("memo", "copy")))
    evict_at = draw(st.integers(-1, len(steps) - 1))
    return parts, steps, root, evict_at


def _families(ec):
    return {f: ec.family(f) for f in FAMILY_IDS}


# (0, 2, 4) is a construction edge, (0, 1, 4) is not: remove one and add the
# other, swap them back, name both in add and remove, then edit nothing
_SWAPS = [
    ({(0, 1, 4)}, {(0, 2, 4)}),
    ({(0, 2, 4)}, {(0, 1, 4)}),
    ({(0, 1, 4), (0, 2, 4)}, {(0, 1, 4), (0, 2, 4)}),
    (set(), set()),
]


@settings(max_examples=150, deadline=None)
@given(_construction_chains())
@example(((1, 1, 2, 2, 3, 3), _SWAPS, "memo", -1))
@example(((1, 1, 2, 2, 3, 3), _SWAPS, "memo", 1))
@example(((1, 1, 2, 2, 3, 3), _SWAPS, "copy", -1))
def test_diff_route_matches_set_differences(chain):
    parts, steps, root_kind, evict_at = chain
    p = Partition3(parts)
    memo = construction(p)
    root = memo if root_kind == "memo" else ThreeGraph(p.n, memo.edges, _normalized=True)
    h = root
    evicted = False
    with mock.patch(
        "turanl2.classification.construction_edges", wraps=construction_edges
    ) as set_route:
        for i, (add, rem) in enumerate(steps):
            parent, h = h, h.with_changes(add=add, remove=rem)
            if i == evict_at:
                construction(Partition3((*parts, 1)))
                evicted = True
            # only a child of the directly built root records its edits
            edits = h.edits_from(parent)
            if i == 0:
                assert edits == (sorted(h.edge_set - root.edge_set), sorted(root.edge_set - h.edge_set))
            else:
                assert edits is None
            before = set_route.call_count
            ec = classify_edges(h, p)
            # only the set-difference route asks for the construction's edges
            took_diff = root_kind == "memo" and not evicted and i == 0
            assert set_route.call_count == before + (not took_diff)
            reference = classify_edges(ThreeGraph(h.n, h.edges, _normalized=True), p)
            assert _families(ec) == _families(reference)


def test_phase_instances_take_the_diff_route(monkeypatch):
    """Criterion 7 at smoke scale and a benchmark near-construction op
    classify every instance from its recorded edits."""
    calls = []
    real = classification.construction_edges

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(classification, "construction_edges", counted)
    [result] = acceptance.run_suite([7], printer=lambda line: None, quick=True)
    assert result.passed
    for phase in PHASES:
        xi = Fraction(1, (TOGGLE_PHASES[phase].coeff * 4) ** 2 * 4)
        h, p, pair = generate_phase_instance(random.Random(5), 66, xi, phase)
        verdict = verify_toggle_increase(h, p, pair, phase, Thresholds(xi))
        assert verdict.report.delta > 0
    assert calls == []


class TestOptimizePartition:
    def test_recovers_native_partition_of_construction(self):
        c6, _ = build_balanced_c(6)
        p, inter = optimize_partition(c6, "exhaustive")
        assert inter == 14

    def test_single_edge(self):
        h = make_graph(3, [[0, 1, 2]])
        p, inter = optimize_partition(h, "exhaustive")
        assert inter == 1
        assert is_construction_edge((0, 1, 2), p)
        # lexicographic tie-break picks the two-in-part-one profile
        assert p.parts == (1, 1, 2)

    def test_tetrahedron_minus_edge(self):
        h = make_graph(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3]])
        p, inter = optimize_partition(h, "exhaustive")
        assert inter >= 2

    def test_exhaustive_tie_break_is_lexicographic(self, rng):
        for _ in range(20):
            n = rng.randint(3, 6)
            h = random_graph(rng, n, rng.random())
            p, inter = optimize_partition(h, "exhaustive")
            # brute-force argmax with lexicographic tie-break
            best = None
            best_assign = None
            for assign in itertools.product((1, 2, 3), repeat=n):
                cand = Partition3(assign)
                score = sum(1 for t in h.edges if is_construction_edge(t, cand))
                if best is None or score > best:
                    best, best_assign = score, assign
            assert inter == best and p.parts == best_assign

    def test_vertex_moves_between_balanced_and_exhaustive(self, rng):
        for _ in range(30):
            n = rng.randint(3, 8)
            h = random_graph(rng, n, rng.random() * 0.6)
            balanced = Partition3.balanced(n)
            base = sum(1 for t in h.edges if is_construction_edge(t, balanced))
            p_lm, inter_lm = optimize_partition(h, "vertexMoves")
            _, inter_ex = optimize_partition(h, "exhaustive")
            assert base <= inter_lm <= inter_ex

    def test_vertex_moves_score_is_a_recount_and_leaves_the_memo(self, rng):
        held = construction(Partition3.balanced(12))
        for _ in range(30):
            n = rng.randint(3, 9)
            h = random_graph(rng, n, rng.random() * 0.6)
            start = Partition3(tuple(rng.choice((1, 2, 3)) for _ in range(n)))
            p, score = optimize_partition(h, "vertexMoves", start)
            assert score == sum(1 for t in h.edges if is_construction_edge(t, p))
        assert construction(Partition3.balanced(12)) is held

    def test_vertex_moves_fixpoint_satisfies_link_inequalities(self, rng):
        for _ in range(30):
            n = rng.randint(3, 9)
            h = random_graph(rng, n, rng.random() * 0.5)
            p, _ = optimize_partition(h, "vertexMoves")
            for v in range(n):
                counts = part_pair_counts(link(h, v).edges, p.parts)
                assert cyclic_move_inequalities(counts, p.parts[v]) == (True, True)

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            optimize_partition(make_graph(13, []), "exhaustive")

    def test_mismatched_partitions_are_rejected(self):
        h = make_graph(5, [(0, 1, 2), (1, 3, 4)])
        for n in (4, 6):
            with pytest.raises(PartitionMismatch):
                classify_edges(h, Partition3.balanced(n))
            with pytest.raises(PartitionMismatch):
                optimize_partition(h, "vertexMoves", Partition3.balanced(n))

    def test_link_move_inequalities_match_a_move_recount(self, rng):
        # on the link of v, the two inequalities say that moving v to the next
        # or to the previous part does not raise the construction overlap
        def overlap(h, parts):
            return sum(1 for t in h.edges if is_construction_edge(t, Partition3(parts)))

        for _ in range(200):
            n = rng.randint(1, 10)
            h = random_graph(rng, n, rng.random() * 0.6)
            p = Partition3(tuple(rng.choice((1, 2, 3)) for _ in range(n)))
            v = rng.randrange(n)
            here = overlap(h, p.parts)
            moved = [
                here >= overlap(h, p.parts[:v] + (part,) + p.parts[v + 1:])
                for part in (next_part(p.parts[v]), prev_part(p.parts[v]))
            ]
            counts = part_pair_counts(link(h, v).edges, p.parts)
            assert cyclic_move_inequalities(counts, p.parts[v]) == tuple(moved)


class TestHypothesisChecklists:
    def test_native_construction_phase_one(self):
        c6, p6 = build_balanced_c(6)
        t = Thresholds(Fraction(1, 4))
        checklist = check_phase_one_hypotheses(c6, p6, (0, 1), t)
        flags = {i.id: i.passed for i in checklist.items}
        assert flags["i"] and flags["ii"]
        assert not flags["iii"]  # nothing is missing, so the codegree is 0
        assert flags["iv"] and flags["v"]
        assert not checklist.all_pass

    def test_crossing_pair_rejected_in_phase_one(self):
        c6, p6 = build_balanced_c(6)
        with pytest.raises(EdgeNotInternal):
            check_phase_one_hypotheses(c6, p6, (0, 2), Thresholds(Fraction(1, 4)))
        with pytest.raises(EdgeNotCrossing):
            check_phase_two_hypotheses(c6, p6, (0, 1), Thresholds(Fraction(1, 4)))

    def test_shadow_requirement(self):
        h = make_graph(6, [[0, 2, 4]])
        p = Partition3((1, 1, 2, 2, 3, 3))
        with pytest.raises(EdgeNotInShadow):
            check_phase_one_hypotheses(h, p, (0, 1), Thresholds(Fraction(1, 4)))

    def test_planted_missing_neighborhood_counts(self):
        c6, p6 = build_balanced_c(6)
        # delete every construction edge through the internal pair (0, 1)
        gone = [t for t in c6.edges if 0 in t and 1 in t]
        h = c6.with_changes(remove=gone, add=[(0, 1, 4)])  # keep the pair covered
        t = Thresholds(Fraction(1, 10000))
        checklist = check_phase_one_hypotheses(h, p6, (0, 1), t)
        item3 = next(i for i in checklist.items if i.id == "iii")
        assert item3.lhs == 4  # codegree 2, squared
        assert item3.passed == (Fraction(4) >= t.sqrt_bound_squared(47, 6))

    def test_phase_two_mirror(self):
        c6, p6 = build_balanced_c(6)
        h = c6.with_changes(remove=[(0, 2, 4)])
        t = Thresholds(Fraction(1, 10000))
        checklist = check_phase_two_hypotheses(h, p6, (0, 2), t)
        flags = {i.id: i.passed for i in checklist.items}
        item3 = next(i for i in checklist.items if i.id == "iii")
        assert item3.lhs == 1  # one missing transversal edge, squared
        assert flags["iv"]

    def test_checklist_json_schema(self):
        c6, p6 = build_balanced_c(6)
        checklist = check_phase_one_hypotheses(c6, p6, (0, 1), Thresholds(Fraction(1, 4)))
        d = checklist.to_json_dict()
        assert set(d) == {"phase", "e_star", "items", "all_pass"}
        assert [i["id"] for i in d["items"]] == ["i", "ii", "iii", "iv", "v"]
        assert all(set(i) >= {"id", "lhs", "rhs", "pass"} for i in d["items"])


def test_thresholds_square_comparison():
    t = Thresholds(Fraction(1, 4))  # sqrt(xi) = 1/2 exactly
    assert t.at_least_sqrt_bound(24, 47, 1)  # 24 >= 23.5
    assert not t.at_least_sqrt_bound(23, 47, 1)


def test_thresholds_ceil_sqrt_bound(rng):
    t = Thresholds(Fraction(1, 4))
    assert t.ceil_sqrt_bound(47, 1) == 24 and t.ceil_sqrt_bound(46, 1) == 23
    for _ in range(300):
        t = Thresholds(Fraction(rng.randint(1, 50), rng.randint(1, 10**6)))
        coeff, n = rng.randint(1, 100), rng.randint(1, 200)
        d = t.ceil_sqrt_bound(coeff, n)
        assert t.at_least_sqrt_bound(d, coeff, n)
        assert d == 0 or (d - 1) ** 2 < coeff * coeff * t.xi * n * n


class TestPhaseTable:
    CHECKERS = {"one": check_phase_one_hypotheses, "two": check_phase_two_hypotheses}
    ORACLES = {"one": oracle_phase_one_checklist, "two": oracle_phase_two_checklist}

    def test_phases_are_the_table_keys_in_order(self):
        assert PHASES == tuple(TOGGLE_PHASES) == ("one", "two")
        assert TOGGLE_PHASES["one"].internal and not TOGGLE_PHASES["two"].internal
        with pytest.raises(TypeError):
            TOGGLE_PHASES["three"] = TOGGLE_PHASES["one"]

    def test_checklist_matches_one_body_per_phase(self):
        rng = random.Random(20240817)
        seen = Counter()
        for trial in range(600):
            if trial % 3 == 0:
                # a planted near-construction instance: items iii to v can pass
                xi = Fraction(1, rng.choice((4, 64, 1024, 40000, 10**6)))
                h, p, pair = generate_phase_instance(
                    rng, rng.randint(9, 30), xi, rng.choice(PHASES)
                )
            else:
                n = rng.randint(3, 12)
                h = random_graph(rng, n, rng.random() * 0.6)
                p = Partition3(tuple(rng.choice((1, 2, 3)) for _ in range(n)))
                pair = rng.sample(range(n), 2)
                xi = Fraction(1, rng.choice((1, 4, 16, 10**4)))
            t = Thresholds(xi)
            ec = classify_edges(h, p) if rng.random() < 0.5 else None
            for phase in PHASES:
                outcomes = []
                for fn in (self.CHECKERS[phase], self.ORACLES[phase]):
                    try:
                        outcomes.append(fn(h, p, pair, t, ec=ec))
                    except TuranL2Error as exc:
                        outcomes.append((type(exc), str(exc)))
                got, want = outcomes
                assert got == want, (trial, phase)
                if isinstance(got, tuple):
                    seen[phase, got[0].__name__] += 1
                else:
                    assert got.to_json_dict() == want.to_json_dict()
                    seen.update((phase, i.id, i.passed) for i in got.items)
        for phase, kind_error in (("one", "EdgeNotInternal"), ("two", "EdgeNotCrossing")):
            assert seen[phase, kind_error] and seen[phase, "EdgeNotInShadow"]
            for item in ("i", "ii", "iii", "iv", "v")[: 5 if phase == "one" else 4]:
                assert seen[phase, item, True] and seen[phase, item, False], (phase, item)
