import functools
import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_census_classes,
    oracle_max_free_subsets,
    oracle_tripartite_decompose,
    random_graph,
)
from turanl2 import census, hypergraph
from turanl2.census import (
    _blowup_value,
    best_construction_value,
    census_colored_mantel,
    census_k43,
    census_tripartite_triangle_free,
)
from turanl2.colored import ColoredGraph, is_cyclic_triangle_free
from turanl2.constructions import Composition3, Partition3, build_c, compositions_of
from turanl2.errors import SizeLimitExceeded, VertexOutOfRange
from turanl2.hypergraph import (
    ThreeGraph,
    all_triples,
    canonical_form,
    completes_k43,
    contains_k43,
    graph_l2_norm,
    l2_norm,
    make_pair_graph,
    two_norm_degree,
)
from turanl2.util import dump_json


class TestK43Census:
    def test_n4(self):
        rep = census_k43(4, method="canonical")
        assert rep.optimum == 15
        assert rep.iso_classes == 1
        assert rep.reference_attains and rep.reference_unique

    def test_n5(self):
        rep = census_k43(5, method="canonical")
        assert rep.optimum == 47
        assert rep.iso_classes == 1
        assert rep.reference_attains and rep.reference_unique

    def test_naive_and_canonical_agree(self):
        for n in (2, 3, 4, 5):
            naive = census_k43(n, method="naive")
            canon = census_k43(n, method="canonical")
            assert naive.optimum == canon.optimum
            assert naive.iso_classes == canon.iso_classes
            assert set(naive.extremal) == set(canon.extremal)
            assert naive.extra["labeled_maximizers"] == canon.extra["labeled_maximizers"]

    def test_n6_outcome_as_data(self):
        rep = census_k43(6, method="canonical")
        assert rep.optimum == 120
        assert rep.reference_attains and rep.reference_unique
        c6, _ = build_c(Composition3(2, 2, 2))
        assert canonical_form(c6)[0] in rep.extremal

    def test_extremal_graphs_are_valid_and_free(self):
        for n in (4, 5):
            rep = census_k43(n, method="canonical")
            for form in rep.extremal:
                h = ThreeGraph(n, form, _normalized=True)
                assert not contains_k43(h)
                assert l2_norm(h) == rep.optimum

    def test_census_winner_spread_is_small(self):
        # extremal graphs have 2-norm degrees within 60 n^2 of each other
        # and of their mean
        for n in (4, 5, 6):
            rep = census_k43(n, method="canonical")
            for form in rep.extremal:
                h = ThreeGraph(n, form, _normalized=True)
                values = [two_norm_degree(h, v) for v in range(n)]
                bound = 60 * n * n
                assert max(values) - min(values) <= bound
                assert all(abs(n * v - sum(values)) <= n * bound for v in values)

    def _sabotage(self, monkeypatch, forbidden=None, raise_floor=0):
        search = census._max_free_subsets

        def sabotaged(ground, tetrahedra, groups, floor):
            if forbidden is not None:
                tetrahedra = forbidden(ground)
            return search(ground, tetrahedra, groups, floor + raise_floor)

        monkeypatch.setattr(census, "_max_free_subsets", sabotaged)

    def test_unsound_pruning_fails_loudly(self, monkeypatch):
        # with every triple forbidden the search never reaches the reference,
        # and the census must refuse rather than report a smaller optimum
        self._sabotage(monkeypatch, forbidden=lambda ground: [1 << i for i in range(len(ground))])
        with pytest.raises(AssertionError):
            census_k43(4)

    def test_floor_above_the_optimum_fails_loudly(self, monkeypatch):
        # a floor no free set reaches cuts every maximizer; the census must
        # refuse rather than report the floor as an optimum nobody attains
        self._sabotage(monkeypatch, raise_floor=1)
        with pytest.raises(AssertionError):
            census_k43(4)

    @pytest.mark.parametrize("drop", (0, -1))
    def test_a_dropped_maximizer_fails_loudly(self, monkeypatch, drop):
        # the labelled maximizers are then not closed under relabeling, so
        # the orbits of the classes found cannot add up to their number
        search = census._max_free_subsets

        def dropping(*args):
            best, argmax, nodes = search(*args)
            del argmax[drop]
            return best, argmax, nodes

        monkeypatch.setattr(census, "_max_free_subsets", dropping)
        with pytest.raises(AssertionError):
            census_k43(5)

    def test_caps(self):
        with pytest.raises(SizeLimitExceeded):
            census_k43(6, method="naive")
        with pytest.raises(SizeLimitExceeded):
            census_k43(9, method="canonical")


COLORED_CENSUSES = [("edges", "exhaustive", 2), ("l2", "exhaustive", 2), ("tripartite", None, 3)]


# Every l2 maximizer at part size 2 is alone in its color-preserving class,
# so these need the classes closed under the part rotations or permutations
# too: no maximizer is fixed by the whole group, and one dropped always
# breaks the orbit count.
@pytest.mark.parametrize("drop", (0, -1))
@pytest.mark.parametrize("key", COLORED_CENSUSES, ids=str)
def test_a_dropped_maximizer_fails_loudly_in_the_colored_censuses(key, drop, monkeypatch):
    search = census._max_free_subsets

    def dropping(*args):
        best, argmax, nodes = search(*args)
        del argmax[drop]
        return best, argmax, nodes

    monkeypatch.setattr(census, "_max_free_subsets", dropping)
    with pytest.raises(AssertionError):
        _report(*key)


@pytest.mark.parametrize("key", COLORED_CENSUSES, ids=str)
def test_a_floor_above_the_optimum_fails_loudly_in_the_colored_censuses(key, monkeypatch):
    search = census._max_free_subsets

    def raised(ground, forbidden, groups, floor):
        return search(ground, forbidden, groups, floor + 1)

    monkeypatch.setattr(census, "_max_free_subsets", raised)
    with pytest.raises(AssertionError):
        _report(*key)


def _recorded(key, monkeypatch):
    """The report of a census configuration and the (arguments, result) of
    each call of its cover search."""
    calls = []
    search = census._max_free_subsets

    def recording(*args):
        result = search(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(census, "_max_free_subsets", recording)
    return _report(*key), calls


@pytest.mark.parametrize("n", range(7))
def test_classes_match_canonicalizing_every_maximizer(n, monkeypatch):
    report, [(_, (_, argmax, _))] = _recorded(("k43", "canonical", n), monkeypatch)
    forms = oracle_census_classes(n, argmax)
    assert report.extremal == tuple(sorted(forms))
    assert report.iso_classes == len(forms)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_one_permutation_search_per_class(n, monkeypatch):
    # once per isomorphism class, plus the reference construction's check
    calls = []
    search = hypergraph.least_relabeling

    def counting(*args):
        calls.append(args[0])
        return search(*args)

    monkeypatch.setattr(census, "least_relabeling", counting)
    monkeypatch.setattr(hypergraph, "least_relabeling", counting)
    report = census_k43(n)
    assert len(calls) == report.iso_classes + 1


class _Captured(Exception):
    pass


@functools.cache
def _search_input(problem: str, mode, n: int) -> tuple[list, list[int]]:
    """The ground list and forbidden masks a census hands its search."""
    seen = []

    def capture(ground, forbidden, *rest):
        seen.append((ground, forbidden))
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census, "_free_subsets" if mode == "naive" else "_max_free_subsets", capture)
        with pytest.raises(_Captured):
            _report(problem, mode, n)
    return seen[0]


def _masks_agree_with_contains_k43(n, ground, forbidden, mask):
    edges = [t for i, t in enumerate(ground) if mask >> i & 1]
    free = all(mask & f != f for f in forbidden)
    assert free == (not contains_k43(ThreeGraph(n, edges, _normalized=True))), edges


@pytest.mark.parametrize("method", ["canonical", "naive"])
@pytest.mark.parametrize("n", range(6))
def test_tetrahedron_masks_match_contains_k43(n, method):
    # the masks replace completes_k43 in both methods, so check them against
    # the independent edge-set scan on every triple subset
    ground, forbidden = _search_input("k43", method, n)
    assert ground == all_triples(n)
    for mask in range(1 << len(ground)):
        _masks_agree_with_contains_k43(n, ground, forbidden, mask)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([6, 7]), st.data())
def test_tetrahedron_masks_match_contains_k43_sampled(n, data):
    ground, forbidden = _search_input("k43", "canonical", n)
    chosen = data.draw(st.sets(st.integers(0, len(ground) - 1)))
    _masks_agree_with_contains_k43(n, ground, forbidden, sum(1 << i for i in chosen))


def _masks_agree_with_cyclic_scan(n, ground, forbidden, mask):
    edges = [p for i, p in enumerate(ground) if mask >> i & 1]
    cg = ColoredGraph(make_pair_graph(3 * n, edges), Partition3.from_sizes(n, n, n))
    assert all(mask & f != f for f in forbidden) == is_cyclic_triangle_free(cg), edges


@pytest.mark.parametrize("objective", ["edges", "l2"])
def test_cyclic_triangle_masks_match_the_colored_scan(objective):
    ground, forbidden = _search_input(objective, "exhaustive", 1)
    assert ground == list(itertools.combinations(range(3), 2))
    for mask in range(1 << len(ground)):
        _masks_agree_with_cyclic_scan(1, ground, forbidden, mask)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["edges", "l2"]), st.data())
def test_cyclic_triangle_masks_match_the_colored_scan_sampled(objective, data):
    ground, forbidden = _search_input(objective, "exhaustive", 2)
    assert ground == list(itertools.combinations(range(6), 2))
    chosen = data.draw(st.sets(st.integers(0, len(ground) - 1)))
    _masks_agree_with_cyclic_scan(2, ground, forbidden, sum(1 << i for i in chosen))


def _masks_agree_with_triangle_scan(n, ground, forbidden, mask):
    edges = {p for i, p in enumerate(ground) if mask >> i & 1}
    triangle = any(
        {(a, b), (a, c), (b, c)} <= edges
        for a in range(n)
        for b in range(n, 2 * n)
        for c in range(2 * n, 3 * n)
    )
    assert all(mask & f != f for f in forbidden) == (not triangle), sorted(edges)


def _tripartite_input(n):
    ground, forbidden = _search_input("tripartite", None, n)
    # every pair of vertices in different parts, once, in increasing order
    assert len(ground) == 3 * n * n and ground == sorted(set(ground))
    assert all(a < b and a // n != b // n for a, b in ground)
    return ground, forbidden


@pytest.mark.parametrize("n", range(3))
def test_transversal_masks_match_the_triangle_scan(n):
    ground, forbidden = _tripartite_input(n)
    for mask in range(1 << len(ground)):
        _masks_agree_with_triangle_scan(n, ground, forbidden, mask)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_transversal_masks_match_the_triangle_scan_sampled(data):
    ground, forbidden = _tripartite_input(3)
    chosen = data.draw(st.sets(st.integers(0, len(ground) - 1)))
    _masks_agree_with_triangle_scan(3, ground, forbidden, sum(1 << i for i in chosen))


def test_maximality_pruning_soundness(rng):
    # greedily completing any tetrahedron-free graph never lowers the norm
    for _ in range(500):
        n = rng.randint(4, 6)
        h = random_graph(rng, n, rng.random() * 0.5)
        while contains_k43(h):
            quad = None
            from turanl2.hypergraph import find_k43

            quad = find_k43(h)
            drop = tuple(sorted(rng.sample(quad, 3)))
            h = h.with_changes(remove=[drop])
        before = l2_norm(h)
        maximal = h
        while True:
            addable = [
                t
                for t in all_triples(n)
                if t not in maximal.edge_set and not completes_k43(maximal, t)
            ]
            if not addable:
                break
            maximal = maximal.with_changes(add=[addable[0]])
        assert not contains_k43(maximal)
        assert l2_norm(maximal) >= before


class TestColoredMantelCensus:
    def test_part_size_one(self):
        rep = census_colored_mantel(1, "edges", mode="exhaustive")
        assert rep.optimum == 2
        assert rep.reference_value == 2 and rep.reference_attains

    def test_part_size_two_edges(self):
        rep = census_colored_mantel(2, "edges", mode="exhaustive")
        assert rep.optimum == 9
        assert rep.reference_value == 9 and rep.reference_attains
        assert rep.extra["edge_bound_holds"]
        assert rep.iso_classes == 10
        assert rep.extra["iso_classes_rotation_quotient"] == 4

    def test_part_size_two_degree_squares(self):
        rep = census_colored_mantel(2, "l2", mode="exhaustive")
        assert rep.optimum == 58  # the reference closed form 9n^3-4n^2+n at n=2
        assert rep.reference_attains
        assert rep.iso_classes == 3
        assert rep.extra["iso_classes_rotation_quotient"] == 1

    def test_assisted_matches_exhaustive_edges(self):
        for n in (1, 2):
            assisted = census_colored_mantel(n, "edges", mode="assisted")
            exhaustive = census_colored_mantel(n, "edges", mode="exhaustive")
            assert assisted.optimum == exhaustive.optimum

    def test_assisted_degree_squares_is_a_lower_bound(self):
        assisted = census_colored_mantel(2, "l2", mode="assisted")
        exhaustive = census_colored_mantel(2, "l2", mode="exhaustive")
        assert assisted.optimum <= exhaustive.optimum
        assert not assisted.extra["reduction_proved_for_objective"]

    def test_assisted_reaches_reference_beyond_exhaustive_range(self):
        for n in (3, 4, 5):
            rep = census_colored_mantel(n, "edges", mode="assisted")
            assert rep.optimum >= rep.reference_value
            assert rep.extra["edge_bound_holds"]

    def test_exhaustive_cap(self):
        with pytest.raises(SizeLimitExceeded):
            census_colored_mantel(3, "edges", mode="exhaustive")

    def test_blowup_value_matches_the_explicit_blowup(self):
        profiles = [k for k in itertools.product((1, 2), repeat=3) if sum(k) <= 4]
        checked = 0
        for n in (1, 2, 3):
            for k in profiles:
                splits = [
                    [c for c in itertools.product(range(1, n + 1), repeat=ki) if sum(c) == n]
                    for ki in k
                ]
                # phi_i maps the classes of part i to 0 (no in-class) or a class of part i - 1
                in_maps = [itertools.product(range(k[i - 1] + 1), repeat=k[i]) for i in range(3)]
                for phis in itertools.product(*map(list, in_maps)):
                    for sizes in itertools.product(*splits):
                        g = _explicit_blowup(n, sizes, phis)
                        assert _blowup_value("edges", n, sizes, phis) == len(g.edges)
                        assert _blowup_value("l2", n, sizes, phis) == graph_l2_norm(g)
                        checked += 1
        assert checked == 240


@pytest.mark.parametrize("objective", ["edges", "l2"])
@pytest.mark.parametrize("n", [1, 2])
def test_mantel_cover_search_finds_the_scans_maximizers(n, objective, monkeypatch):
    report, [((pairs, cyclic, _, _), (best, argmax, _))] = _recorded(
        (objective, "exhaustive", n), monkeypatch
    )
    if objective == "edges":
        value = len
    else:
        def value(edges):
            return graph_l2_norm(make_pair_graph(3 * n, edges))
    scan_best, scan_argmax, _ = census._free_subsets(pairs, cyclic, value)
    assert best == scan_best == report.optimum
    assert sorted(argmax) == sorted(scan_argmax)
    assert report.extra["labeled_maximizers"] == len(scan_argmax)


def _explicit_blowup(n, sizes, phis):
    """The colored blow-up as a graph on 3n vertices, part by part."""
    classes, start = [], 0
    for part_sizes in sizes:
        part = []
        for size in part_sizes:
            part.append(range(start, start + size))
            start += size
        classes.append(part)
    edges = []
    for i, part in enumerate(classes):
        for a, b in itertools.combinations(part, 2):
            edges += [(x, y) for x in a for y in b]
        for j, target in enumerate(phis[i]):
            if target:
                edges += [tuple(sorted((x, y))) for x in part[j] for y in classes[i - 1][target - 1]]
    return make_pair_graph(3 * n, edges)


class TestTripartiteCensus:
    def test_values(self):
        for n, want in ((1, 2), (2, 8), (3, 18)):
            rep = census_tripartite_triangle_free(n)
            assert rep.optimum == want == 2 * n * n
            assert rep.extra["within_slack_bound"]
            assert rep.extra["all_match_split_form"]

    def test_decomposition_agrees_with_scan(self, monkeypatch):
        # the oracle decomposes; the census searches by covers
        for n in (1, 2, 3):
            monkeypatch.undo()
            rep, [(_, (best, argmax, _))] = _recorded(("tripartite", None, n), monkeypatch)
            alt, maximizers = oracle_tripartite_decompose(n)
            assert rep.optimum == best == alt
            assert {frozenset(edges) for edges in argmax} == maximizers
            assert rep.extra["labeled_maximizers"] == len(argmax) == len(maximizers)

    def test_cap(self):
        with pytest.raises(SizeLimitExceeded):
            census_tripartite_triangle_free(4)

    def test_negative_part_size_is_rejected(self):
        with pytest.raises(VertexOutOfRange):
            census_tripartite_triangle_free(-1)


def test_best_construction_value_tracks_sweep():
    for n in range(13):
        value, comp = best_construction_value(n)
        comps = compositions_of(n)
        counted = [l2_norm(build_c(c)[0]) for c in comps]
        assert value == max(counted) == l2_norm(build_c(comp)[0])
        # ties go to the first composition that reaches the maximum
        assert comp == comps[counted.index(value)]
        assert comp.near_balanced() or n < 6


# sha256 of dump_json(report.to_json_dict()) per census configuration.
# Reports are compared byte for byte across versions, so a refactor of the
# search machinery must leave every one of these unchanged.  A new search
# engine changes only its own counters (``nodes_explored``, ``extra``); the
# content digests below hold everything else of the canonical K4^3 reports.
REPORT_DIGESTS = {
    ("k43", "canonical", 0): "97f190966ed4d62d628b85a019f275a5c1c0fbcdd3816863ac028587fc1520c6",
    ("k43", "canonical", 1): "55d8b17361130d06757c94a7ac4aa22ec3b45604c78bbbf46e85ff5e23a7a43e",
    ("k43", "canonical", 2): "c4f9d621e8088982e8894ba60bc82fe714d80e742f704fdc94c586b61c807cd1",
    ("k43", "canonical", 3): "a8066a1b3df6dbe524617716e5a155d56a7ee04fb7cdefe3648ec506957ec149",
    ("k43", "canonical", 4): "69ee7d8356b127b51a06961095ca452a3075e3877e5f4a890f9ec85ae9e5137d",
    ("k43", "canonical", 5): "d3a3d8a929bbc7d0e1b7b1367ba5c439e7d2ee2fdb4ff9f5cb022bf174caa9a6",
    ("k43", "canonical", 6): "6eabc6ed5cd7d1402b9d91989fcda58815b89d43ae2e56970b4966a3d5396686",
    ("k43", "naive", 0): "b8ccb3329ee797ab9b46ec811ccce2eb3cf982e7306169407024bc9572e5ce28",
    ("k43", "naive", 1): "7356618c5d9b54ae9823a09bc203c0a6efb8f1461f6ef478c02fae4037e5f605",
    ("k43", "naive", 2): "e3918692bd17d47c9cc3d8c211f227b20cf64267b1269eb4ec82b810b0ffef66",
    ("k43", "naive", 3): "65888068b1755853037a2fb62b5849697dd513bec36ad9deb0a828350345ebb9",
    ("k43", "naive", 4): "7483a2b35c5a02d97f15fa4e07ebac3f8f3cb2e0a52566293760a7ed52948c15",
    ("k43", "naive", 5): "49daf67788a9afcfe8a0070450429adf0892dc9a5e46220be91c0e769252e647",
    ("edges", "exhaustive", 0): "2f4c7baa20ff856c982649afe65c1bf4de7d42c7f0321cdecd9b69abeec4c0a2",
    ("edges", "exhaustive", 1): "551d4bf3b404cd4b50dc8828a67e53beb28377de81feb648a86db7de3ef55588",
    ("edges", "exhaustive", 2): "305145ef75ea83923e55bdb25ba6631a13b9f4e369758cde6b88b6f5c65e584a",
    ("edges", "assisted", 3): "fceda0cce82f61c8880383c0a0025b82ef2158114b782f54a343c196263b842e",
    ("l2", "exhaustive", 0): "25658ae111a3f63747320e3de833e6a31a20e35502ef26e14fa19e7627a5f3ef",
    ("l2", "exhaustive", 1): "b4d6d4d1227b7e676ba5aa6aa74124030951fcda4cc62789869f5a7d64ad9ba4",
    ("l2", "exhaustive", 2): "0fae45f79449245ee1c3c70a61355c6f045f384abe0c1371a1058de1b6e7f252",
    ("l2", "assisted", 3): "3251b40bfc395ddea9b381e3e3f57efcf26f33f13e08083dca7c5e60f56b6789",
    ("tripartite", None, 0): "a7302ce0df6851782efc5e68b6f7db0f3fa658eff78fcf0e35c4bce5298cbcc0",
    ("tripartite", None, 1): "bb9651e4d4e0fbd1c3c3be24460137f20ef37801343c05c0565de0ee43e27e13",
    ("tripartite", None, 2): "5709fcda7cccb235dd86f2a23acc62e3e48b7c11f5dfe54833b22ed1eebf43ab",
    ("tripartite", None, 3): "70e31204b350df3a8e92a5831ec276540741b794d7be9c31569fbad7a0c28033",
}


def _report(problem, mode, n):
    if problem == "k43":
        return census_k43(n, method=mode)
    if problem == "tripartite":
        return census_tripartite_triangle_free(n)
    return census_colored_mantel(n, problem, mode=mode)


@pytest.mark.parametrize("key", sorted(REPORT_DIGESTS, key=str), ids=str)
def test_report_bytes_are_pinned(key):
    text = dump_json(_report(*key).to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[key]


# sha256 of the canonical K4^3 report without its search counters
# (``nodes_explored``, ``extra``): what the census found, whatever engine
# found it.
K43_CONTENT_DIGESTS = {
    0: "510575370a9bd33d1e25c1f8acad225ef1438b6b01ed85c9bbd465ef13727f45",
    1: "438582e967cbd30b4e439b5c6d8cea14adac46a1917dace90f7ed9e30ecdda39",
    2: "a2b5e69369986f2df3c050edc24da19c307a6bb145365bd69862e052e5facd15",
    3: "a67a2eda8c9663620f3484b457f299240561f9cb9616b0d01f1c5f861c585293",
    4: "0c9d7dd421195166ea59710f3212e7eaa8ee9b34cdb5f9e9bd7797e2e0605483",
    5: "42c332f258fae99b6898f777d673d6017045d07af9073ca80b5f3a7d3575f284",
    6: "fdabc5c71294c5bebb5b1bdb1738b000133f6164c3320a7bf88c997129c08925",
}


@pytest.mark.parametrize("n", sorted(K43_CONTENT_DIGESTS))
def test_k43_census_content_is_pinned(n):
    content = census_k43(n).to_json_dict()
    del content["nodes_explored"], content["extra"]
    assert hashlib.sha256(dump_json(content).encode()).hexdigest() == K43_CONTENT_DIGESTS[n]


# sha256 of the Mantel exhaustive and tripartite reports without
# ``nodes_explored``: what the census found, whatever engine found it.
CONTENT_DIGESTS = {
    ("edges", "exhaustive", 0): "d3c91bbb9acb666e31e1ad63176fd0a57ea5a5d43400295be20a771271ef40b2",
    ("edges", "exhaustive", 1): "9fed26ea191506f77e1e44785aeb0497e749d93cfcfed810a61c0297f1de8870",
    ("edges", "exhaustive", 2): "292bd9ff6de92b2a8700daee988300e399d4bc35f80a05ed979fc69979efeb91",
    ("l2", "exhaustive", 0): "9cef81b2b3b06def3fd7a787ee347c01ba7000d02cf32ef7dae376cafd1174df",
    ("l2", "exhaustive", 1): "29d1c6bf0e5b1b998155e843262e62d5fd716f78e18a2cc2955af4e4e5c2b858",
    ("l2", "exhaustive", 2): "e6cf4641bd8e0381622201d2f55361478f8c775a67379fed15167dc5548c0072",
    ("tripartite", None, 0): "1af121cbdf3e68c1ccdb1d9b410587bf232365f1362414da71f6cfa07b5ade84",
    ("tripartite", None, 1): "671cc79a1ac7a5beb2790d0d0ec0a7edab41d72273e3a1094720b5081e8f7ed2",
    ("tripartite", None, 2): "cf868ba2606510117aebed0a0cddb558076af910856a555724de52fe82234a8f",
    ("tripartite", None, 3): "41810dac1f18b41d43a18a6ac865d8a7733e88e972dc67c64a031d16a6d05267",
}


@pytest.mark.parametrize("key", sorted(CONTENT_DIGESTS, key=str), ids=str)
def test_report_content_is_pinned(key):
    content = _report(*key).to_json_dict()
    del content["nodes_explored"]
    assert hashlib.sha256(dump_json(content).encode()).hexdigest() == CONTENT_DIGESTS[key]


def _search_outcome(search, *args):
    """The search's (best, maximizers, nodes), or its refusal when no free
    subset reaches the floor."""
    try:
        return search(*args)
    except AssertionError:
        return "refused"


# every census configuration above that runs the cover search
SEARCH_CONFIGURATIONS = [key for key in REPORT_DIGESTS if key[1] not in ("naive", "assisted")]


@pytest.mark.parametrize("key", SEARCH_CONFIGURATIONS, ids=str)
def test_cover_search_matches_the_full_recount_in_every_census(key, monkeypatch):
    _, [(args, result)] = _recorded(key, monkeypatch)
    assert result == oracle_max_free_subsets(*args)


@st.composite
def _search_problems(draw):
    """A ground list, forbidden masks, groups covering every element, and a
    floor near the value of some free subset (sometimes above the optimum)."""
    size = draw(st.integers(1, 10))
    ground = draw(st.lists(st.integers(-99, 99), min_size=size, max_size=size, unique=True))
    whole = (1 << size) - 1
    masks = st.integers(1, whole)
    forbidden = draw(st.lists(masks, min_size=1, max_size=10))
    groups = draw(st.lists(masks, max_size=6))
    uncovered = whole & ~functools.reduce(int.__or__, groups, 0)
    if uncovered:
        groups.append(uncovered)
    free = draw(st.integers(0, whole))
    for f in forbidden:  # drop one member of each mask it still contains
        if free & f == f:
            free ^= f & -f
    value = sum((free & g).bit_count() ** 2 for g in groups)
    return ground, forbidden, groups, value + draw(st.integers(-3, 1))


@settings(max_examples=200, deadline=None)
@given(_search_problems())
def test_cover_search_matches_the_full_recount(problem):
    assert _search_outcome(census._max_free_subsets, *problem) == _search_outcome(
        oracle_max_free_subsets, *problem
    )
