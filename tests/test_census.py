import hashlib

import pytest

from conftest import random_graph
from turanl2 import census
from turanl2.census import (
    _tripartite_decompose,
    best_construction_value,
    census_colored_mantel,
    census_k43,
    census_tripartite_triangle_free,
)
from turanl2.constructions import Composition3, build_c
from turanl2.errors import SizeLimitExceeded, VertexOutOfRange
from turanl2.hypergraph import (
    ThreeGraph,
    all_triples,
    canonical_form,
    completes_k43,
    contains_k43,
    l2_norm,
)
from turanl2.inequality import s_spread
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
        # the 2-norm-degree spread diagnostic on extremal graphs
        for n in (4, 5, 6):
            rep = census_k43(n, method="canonical")
            for form in rep.extremal:
                h = ThreeGraph(n, form, _normalized=True)
                assert s_spread(h).within_reference_bound

    def test_unsound_pruning_fails_loudly(self, monkeypatch):
        # with every triple blocked the search never reaches the reference,
        # and the report must refuse rather than claim the reference's class
        monkeypatch.setattr(census, "completes_k43", lambda h, t: True)
        with pytest.raises(AssertionError):
            census_k43(4)

    def test_caps(self):
        with pytest.raises(SizeLimitExceeded):
            census_k43(6, method="naive")
        with pytest.raises(SizeLimitExceeded):
            census_k43(9, method="canonical")


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


class TestTripartiteCensus:
    def test_values(self):
        for n, want in ((1, 2), (2, 8), (3, 18)):
            rep = census_tripartite_triangle_free(n)
            assert rep.optimum == want == 2 * n * n
            assert rep.extra["within_slack_bound"]
            assert rep.extra["all_match_split_form"]

    def test_decomposition_agrees_with_scan(self):
        for n in (1, 2):
            rep = census_tripartite_triangle_free(n)
            alt, maximizers, _ = _tripartite_decompose(n)
            assert rep.optimum == alt
            assert rep.extra["labeled_maximizers"] == len(set(maximizers))

    def test_cap(self):
        with pytest.raises(SizeLimitExceeded):
            census_tripartite_triangle_free(4)

    def test_negative_part_size_is_rejected(self):
        with pytest.raises(VertexOutOfRange):
            census_tripartite_triangle_free(-1)


def test_best_construction_value_tracks_sweep():
    for n in (4, 5, 6, 7, 9):
        value, comp = best_construction_value(n)
        h, _ = build_c(comp)
        assert l2_norm(h) == value
        assert comp.near_balanced() or n < 6


# sha256 of dump_json(report.to_json_dict()) per census configuration.
# Reports are compared byte for byte across versions, so a refactor of the
# search machinery must leave every one of these unchanged.
REPORT_DIGESTS = {
    ("k43", "canonical", 0): "6ae0538726025d0b30bc3e78f12e425ab1e783ab2789cc9601a8e25411b96800",
    ("k43", "canonical", 1): "cf952ad279e48eba27631c73630fb2615f79f3a57aae415be45263f37cdbe618",
    ("k43", "canonical", 2): "e9f25c767dd5bb396e4e6dc048fe62d4c66543743b8e4373f87120d3f56521e3",
    ("k43", "canonical", 3): "17b8b07642054a78ef176fbc5566b99ac2aeb4cb2ace1097da979eed45694579",
    ("k43", "canonical", 4): "cfc85f46f87f6ab6905515a76090a8a35aba1950055940e233764333d7b34931",
    ("k43", "canonical", 5): "4d4513a6fd116f52bb599549a2d3ae3928200d2dbb0cb611dcc9b15f439a64bf",
    ("k43", "canonical", 6): "bb359eab5bdb0389c020d8eab1bce9767b718b17d4603baea7d32d80b6faf9c8",
    ("k43", "naive", 0): "b8ccb3329ee797ab9b46ec811ccce2eb3cf982e7306169407024bc9572e5ce28",
    ("k43", "naive", 1): "7356618c5d9b54ae9823a09bc203c0a6efb8f1461f6ef478c02fae4037e5f605",
    ("k43", "naive", 2): "e3918692bd17d47c9cc3d8c211f227b20cf64267b1269eb4ec82b810b0ffef66",
    ("k43", "naive", 3): "65888068b1755853037a2fb62b5849697dd513bec36ad9deb0a828350345ebb9",
    ("k43", "naive", 4): "7483a2b35c5a02d97f15fa4e07ebac3f8f3cb2e0a52566293760a7ed52948c15",
    ("k43", "naive", 5): "49daf67788a9afcfe8a0070450429adf0892dc9a5e46220be91c0e769252e647",
    ("edges", "exhaustive", 0): "2f4c7baa20ff856c982649afe65c1bf4de7d42c7f0321cdecd9b69abeec4c0a2",
    ("edges", "exhaustive", 1): "e5f0051c49f7c40dabf09274696b2a7460fd833203d45d59f441a3f02b2e9f9b",
    ("edges", "exhaustive", 2): "c1a376e9e46239a2d386d31029dedd66b63243ece9a7275a960fb6c510be1412",
    ("edges", "assisted", 3): "fceda0cce82f61c8880383c0a0025b82ef2158114b782f54a343c196263b842e",
    ("l2", "exhaustive", 0): "25658ae111a3f63747320e3de833e6a31a20e35502ef26e14fa19e7627a5f3ef",
    ("l2", "exhaustive", 1): "ca9b689c718282e923867f3b038b4522bffd4980e87e1b1a6639acb880594911",
    ("l2", "exhaustive", 2): "8b5320229fedadac63e52691bf32031cc612dd380f00aa77926282a7794d3419",
    ("l2", "assisted", 3): "3251b40bfc395ddea9b381e3e3f57efcf26f33f13e08083dca7c5e60f56b6789",
    ("tripartite", None, 0): "a7302ce0df6851782efc5e68b6f7db0f3fa658eff78fcf0e35c4bce5298cbcc0",
    ("tripartite", None, 1): "9ab7e7927ee16ce548bbbc57cad64362038a26d88a91b6ef856b1590699c2168",
    ("tripartite", None, 2): "867393f144d2831da1867dc0d09479b9790e34bd74f3b8559a151df9a4c2c05a",
    ("tripartite", None, 3): "acf1a32e71f17510b579677ee548c2b9044f07a373d5ae418812c42aff33dd1d",
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
