import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Interval,
    center_lemma_floor,
    margin_centered,
    oracle_certify_simplex_inequality,
    oracle_margin_interval_centered,
    oracle_verify_simplex_inequality,
)
from turanl2.errors import InvalidArgument
from turanl2.hypergraph import make_graph, two_norm_degree
from turanl2.inequality import (
    CENTER_RADIUS,
    THIRD,
    _margin_centered_lower,
    _times,
    certify_simplex_inequality,
    inequality_lhs,
    inequality_rhs,
    margin,
    verify_simplex_inequality,
)


def test_margin_at_barycenter_is_zero():
    assert inequality_lhs(THIRD, THIRD, THIRD) == Fraction(5, 54)
    assert margin(THIRD, THIRD, THIRD) == 0


def test_margin_at_corner():
    x = (Fraction(1), Fraction(0), Fraction(0))
    assert inequality_lhs(*x) == 0
    assert inequality_rhs(*x) == Fraction(5, 54) - Fraction(1, 75)
    assert margin(*x) > 0


def test_recentered_identity_exactly():
    # both sides are cubics; agreement on a 5x5 rational grid decides identity
    pts = [Fraction(i, 7) for i in range(5)]
    for x1 in pts:
        for x2 in pts:
            x3 = 1 - x1 - x2
            assert margin(x1, x2, x3) == margin_centered(
                x1 - THIRD, x2 - THIRD, x3 - THIRD
            )


def test_center_lemma_constants():
    # q >= (3/2) m^2 and |p + D| <= 9 m^3 on random zero-sum rational triples
    rng = random.Random(5)
    for _ in range(400):
        u1 = Fraction(rng.randint(-40, 40), 120)
        u2 = Fraction(rng.randint(-40, 40), 120)
        u3 = -u1 - u2
        m = max(abs(u1), abs(u2), abs(u3))
        q = u1 * u1 + u2 * u2 + u3 * u3
        p = u1 * u2 * u3
        d = -(u1 - u2) * (u2 - u3) * (u3 - u1)
        assert q >= Fraction(3, 2) * m * m
        assert abs(p + d) <= 9 * m * m * m
    # the resulting floor is positive through the ball radius
    assert center_lemma_floor(CENTER_RADIUS) > 0
    for k in range(1, 26):
        assert center_lemma_floor(Fraction(k, 25 * 13)) > 0


def test_grid_margins_nonnegative_up_to_50():
    for d in range(1, 51):
        report = verify_simplex_inequality(d)
        assert report.worst_margin >= 0
        if d % 3 == 0:
            assert report.zero_margin_points == ((THIRD, THIRD, THIRD),)
            assert report.worst_margin == 0
        else:
            assert not report.zero_margin_points
            assert report.worst_margin > 0


def test_grid_report_values_recompute():
    report = verify_simplex_inequality(40)
    assert report.points == 41 * 42 // 2
    assert margin(*report.argmin) == report.worst_margin


@pytest.mark.parametrize("d", [*range(1, 61), 200])
def test_grid_report_matches_fraction_oracle(d):
    assert verify_simplex_inequality(d) == oracle_verify_simplex_inequality(d)


@pytest.mark.parametrize(
    "width",
    [
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 7),
        Fraction(1, 1024),
        Fraction(1, 10**6),
        Fraction(1, 2**40),
    ],
)
def test_certificate_matches_fraction_oracle(width):
    assert certify_simplex_inequality(width) == oracle_certify_simplex_inequality(width)


def test_sign_case_product_is_min_and_max_of_the_four_products():
    # every integer interval with ends in [-6, 6]: each sign case and zero end
    intervals = [(lo, hi) for lo in range(-6, 7) for hi in range(lo, 7)]
    assert len(intervals) == 91
    for al, ah in intervals:
        for bl, bh in intervals:
            products = (al * bl, al * bh, ah * bl, ah * bh)
            assert _times(al, ah, bl, bh) == (min(products), max(products))


def test_coarse_certificate_reports_undecided_boxes():
    for width in (Fraction(1, 2), Fraction(1, 3)):
        cert = certify_simplex_inequality(width)
        assert len(cert.undecided) == 11 and not cert.certified
        assert all(isinstance(v, Fraction) for box in cert.undecided for v in box)


def test_certificate_width_must_lie_in_unit_interval():
    for width in (0, -1, 2, Fraction(3, 2)):
        with pytest.raises(InvalidArgument, match="width"):
            certify_simplex_inequality(width)
    cert = certify_simplex_inequality(1)  # the root box still splits
    assert cert == oracle_certify_simplex_inequality(Fraction(1))
    assert cert.max_depth == 2 and len(cert.undecided) == 4


def test_default_certificate_counts():
    cert = certify_simplex_inequality()
    assert (
        cert.boxes_certified_interval,
        cert.boxes_certified_center,
        cert.boxes_skipped_outside,
        cert.max_depth,
    ) == (181, 8, 9, 11)


# The certificate at width 1/k, pinned for k = 1..200, 10^6 and 2^40: from
# each listed k on, (boxes certified by interval, by the center lemma,
# skipped, max depth, undecided boxes, sha256 of their JSON) until the next
# row.  Boxes are dyadic, so the report changes only where 1/k crosses a
# power of two.
CERTIFICATE_PINS = [
    (1, 0, 0, 0, 2, 4, "5f30baa8c1a6845835613e2c894adc6cd863ea3fb86477d907a4d0316cce6966"),
    (2, 1, 0, 2, 4, 11, "07082d4dbbf0c152ce99dc553825a1ad4785fcbc3c6ec569868da70cc1f891af"),
    (4, 10, 0, 5, 6, 28, "645d9c643bf07672be8d5b234df53d6f71aa371d1ea35006c054a736817bda41"),
    (8, 53, 0, 9, 8, 49, "585a36dc4a08100a1622f1546ddd497e538851b8715ccf5a017f4b2288c78a4b"),
    (16, 179, 6, 9, 10, 2, "c93d0a02735b712e4ad46bdbf03040ad2bdcff2cb29bc8440c7c710bd0b0fb16"),
    (32, 181, 8, 9, 11, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
]


def test_certificate_reports_are_pinned():
    for k in (*range(1, 201), 10**6, 2**40):
        _, interval, center, skipped, depth, boxes, digest = max(
            pin for pin in CERTIFICATE_PINS if pin[0] <= k
        )
        report = certify_simplex_inequality(Fraction(1, k)).to_json_dict()
        undecided = report.pop("undecided")
        assert report == {
            "min_width": Fraction(1, k),
            "boxes_certified_interval": interval,
            "boxes_certified_center": center,
            "boxes_skipped_outside": skipped,
            "max_depth": depth,
            "certified": boxes == 0,
        }, k
        assert len(undecided) == boxes, k
        assert hashlib.sha256(json.dumps(undecided).encode()).hexdigest() == digest, k


def _dyadic_interval(depth):
    one = 1 << depth
    ends = st.integers(-one, 2 * one)
    return st.tuples(ends, ends).map(sorted)


@st.composite
def _dyadic_box(draw):
    depth = draw(st.integers(0, 14))
    return depth, [draw(_dyadic_interval(depth)) for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(_dyadic_box())
def test_integer_enclosures_are_scaled_fraction_enclosures(box):
    depth, ends = box
    one = 1 << depth
    t = 3 * one
    scaled = [3 * v for end in ends for v in end]
    rational = [Interval(Fraction(lo, one), Fraction(hi, one)) for lo, hi in ends]
    assert (
        _margin_centered_lower(*scaled, one)
        == oracle_margin_interval_centered(*rational).lo * 300 * t**3
    )


def test_point_enclosure_is_the_scaled_margin():
    # a box with equal ends encloses one point exactly, so the certificate's
    # only enclosure is tied to ``margin`` itself, not just to its oracle
    for d in range(1, 61):
        scale = 300 * (3 * d) ** 3
        for a in range(d + 1):
            for b in range(d + 1 - a):
                c = d - a - b
                assert _margin_centered_lower(
                    3 * a, 3 * a, 3 * b, 3 * b, 3 * c, 3 * c, d
                ) == scale * margin(Fraction(a, d), Fraction(b, d), Fraction(c, d))


def test_certificate_has_no_undecided_boxes():
    cert = certify_simplex_inequality(Fraction(1, 10**6))
    assert cert.certified
    assert cert.boxes_certified_center >= 1
    assert cert.boxes_certified_interval >= 1


def test_certificate_json_is_exact():
    cert = certify_simplex_inequality(Fraction(1, 2**10))
    d = cert.to_json_dict()
    assert d["certified"] is True
    assert isinstance(d["min_width"], Fraction) or "/" in str(d["min_width"])


def _two_norm_degrees(h) -> list[int]:
    return [two_norm_degree(h, v) for v in range(h.n)]


class TestSpread:
    """Spreads of the 2-norm degrees on symmetric graphs."""

    def test_single_edge_symmetric(self):
        assert _two_norm_degrees(make_graph(3, [[0, 1, 2]])) == [3, 3, 3]

    def test_complete_graphs_are_transitive(self):
        for n in range(3, 6):
            h = make_graph(n, itertools.combinations(range(n), 3))
            assert len(set(_two_norm_degrees(h))) == 1

    def test_three_symmetric_vertices_of_tetrahedron_minus_edge(self):
        h = make_graph(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3]])
        values = _two_norm_degrees(h)
        # vertices 1, 2, 3 play the same role; 0 sits in every edge
        assert values[1] == values[2] == values[3]

    def test_balanced_construction_spread(self):
        from turanl2.constructions import build_balanced_c

        c6, _ = build_balanced_c(6)
        # every vertex is equivalent by symmetry
        assert len(set(_two_norm_degrees(c6))) == 1

    def test_empty(self):
        assert _two_norm_degrees(make_graph(0, [])) == []
