from fractions import Fraction

import pytest

from conftest import oracle_contains_complete, oracle_l2
from turanl2.constructions import (
    Composition3,
    balancedness_sweep,
    build_b,
    build_balanced_c,
    build_c,
    c_l2_closed,
    compositions_of,
    sweep_csv,
)
from turanl2.hypergraph import contains_k43, l2_norm


def test_build_c_edge_counts():
    h, _ = build_c(Composition3(1, 1, 1))
    assert h.edges == ((0, 1, 2),)
    h6, p6 = build_c(Composition3(2, 2, 2))
    assert len(h6.edges) == 14  # 8 transversal + 3 * 2 two-in-a-part
    assert p6.sizes == (2, 2, 2)
    h4, _ = build_c(Composition3(2, 1, 1))
    assert len(h4.edges) == 3


def test_build_b_counts():
    assert len(build_b(2, 1).edges) == 1
    assert len(build_b(2, 2).edges) == 4
    assert len(build_b(3, 0).edges) == 0


def test_build_b_small_balanced_is_k5_free():
    for n in range(1, 6):
        h = build_b(n, n)
        assert not oracle_contains_complete(h, 5)


def test_closed_form_small_values():
    assert c_l2_closed(Composition3(1, 1, 1)) == 3
    assert c_l2_closed(Composition3(2, 2, 2)) == 120
    assert c_l2_closed(Composition3(0, 0, 7)) == 0
    assert c_l2_closed(Composition3(0, 0, 0)) == 0
    # balanced specialization n^4/6 - n^3/2 + n^2/3
    for k in range(1, 8):
        n = 3 * k
        assert c_l2_closed(Composition3(k, k, k)) == Fraction(n**4, 6) - Fraction(
            n**3, 2
        ) + Fraction(n**2, 3)


def test_closed_form_equals_enumeration_small():
    for n in range(0, 13):
        for comp in compositions_of(n):
            h, _ = build_c(comp)
            assert c_l2_closed(comp) == oracle_l2(h) == l2_norm(h)


def test_construction_is_tetrahedron_free_exhaustively():
    for n in range(0, 13):
        for comp in compositions_of(n):
            h, _ = build_c(comp)
            assert not contains_k43(h)


def test_closed_form_cyclic_rotation_invariance():
    for comp in compositions_of(11):
        base = c_l2_closed(comp)
        for rot in comp.rotations():
            assert c_l2_closed(rot) == base


def test_closed_form_not_reflection_invariant():
    # the construction is cyclic, not symmetric: a transposition can change it
    assert c_l2_closed(Composition3(3, 2, 0)) != c_l2_closed(Composition3(2, 3, 0))


def test_lower_bound_check():
    # the quartic bound n^4/6 - 2 delta n^4 at two compositions whose parts
    # are at least (1/3 - delta) n with n >= 9 / (2 delta^2)
    for delta, c in ((Fraction(1, 12), Composition3(216, 216, 216)),
                     # smallest n allowed for delta = 1/4 is 9 / (2 * (1/4)^2) = 72
                     (Fraction(1, 4), Composition3(24, 24, 24))):
        n = c.n
        assert n >= Fraction(9, 2) / delta**2
        assert c_l2_closed(c) >= Fraction(n**4, 6) - 2 * delta * n**4


def test_balanced_builder():
    h7, p7 = build_balanced_c(7)
    assert p7.sizes == (3, 2, 2)
    assert l2_norm(h7) == c_l2_closed(Composition3(3, 2, 2))


class TestBalancednessSweep:
    def test_n6_unique_maximizer(self):
        rep = balancedness_sweep(6)
        assert rep.maximizers == (Composition3(2, 2, 2),)
        assert rep.maximizers_are_near_balanced

    def test_n7_maximizers_are_near_balanced(self):
        rep = balancedness_sweep(7)
        assert rep.maximizers_are_near_balanced
        assert all(c.near_balanced() for c in rep.maximizers)

    def test_gain_polynomial_examples(self):
        # moving (3,3,1) one step toward balance gains 6 + 13 + 7
        rep = balancedness_sweep(7)
        hit = [g for g in rep.gain_checks if g.family == "top-heavy-equal-pair"]
        assert hit and hit[0].parameter == 1
        assert hit[0].old == (3, 3, 1) and hit[0].new == (2, 3, 2)
        assert hit[0].expected_gain == 26 and hit[0].matches

    def test_all_gain_families_match_in_range(self):
        for n in range(4, 26):
            rep = balancedness_sweep(n)
            assert rep.all_gains_match

    def test_small_n_reported_outside_stated_range(self):
        rep = balancedness_sweep(4)
        assert not rep.in_stated_range

    def test_direct_gain_recomputation(self):
        # spot-check a family member against fully independent enumeration
        old, _ = build_c(Composition3(5, 3, 5))
        new, _ = build_c(Composition3(4, 4, 5))
        gain = oracle_l2(new) - oracle_l2(old)
        assert gain == 6 * 25 - 11 * 5 + 5


def test_sweep_csv_shape():
    text = sweep_csv(4)
    lines = text.strip().splitlines()
    assert lines[0] == "n1,n2,n3,l2"
    assert len(lines) == 1 + len(compositions_of(4))
    assert "1,1,2," in text
