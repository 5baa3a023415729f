"""Exact verification of the simplex inequality.

The inequality: for nonnegative x1 + x2 + x3 = 1,

    x1*x2*x3 + (x1^2*x2 + x2^2*x3 + x3^2*x1) / 2
        <= 5/54 - (1/50) * sum_i (x_i - 1/3)^2,

with equality exactly at the barycenter.  Two verification routes:

* a grid sweep over all rational points (a/d, b/d, c/d), exact margins;
* a finite certificate: adaptive box subdivision with exact integer
  interval arithmetic on dyadic boxes, plus an exact near-center lemma.
  Writing u_i = x_i - 1/3, q = sum u_i^2, p = u1*u2*u3 and
  D = -(u1-u2)(u2-u3)(u3-u1), the margin equals (11/75) q - (p + D)/4
  identically; with m = max |u_i| one has q >= (3/2) m^2 and
  |p + D| <= 9 m^3, so the margin is at least
  (11/50) m^2 - (9/4) m^3 > 0 for 0 < m <= 2/25.  Boxes inside the
  m <= 2/25 ball are certified by that bound (interval arithmetic alone can
  never certify a box containing the equality point); everything else is
  certified by interval evaluation of the recentered form or subdivided.

Every box endpoint is a dyadic rational, so that enclosure is evaluated on
integers at a common scale, and only its lower end, the one bound a box
decision reads: that lower end equals the rational interval enclosure's
lower end on the same operation tree times a positive constant, and so
decides every box exactly as rational interval arithmetic would.  Each
interval product is picked by the signs of its factors' ends (the standard
sign-case table), which gives the same two ends as the minimum and maximum
of the four end products, so no box decision depends on that choice.

The grid sweep is evidence at grid points; the box certificate covers the
whole simplex.  Both are exact: no floating point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvalidArgument

THIRD = Fraction(1, 3)
CENTER_RADIUS = Fraction(2, 25)  # sup-norm ball where the center lemma applies


def inequality_lhs(x1: Fraction, x2: Fraction, x3: Fraction) -> Fraction:
    return x1 * x2 * x3 + (x1 * x1 * x2 + x2 * x2 * x3 + x3 * x3 * x1) / 2


def inequality_rhs(x1: Fraction, x2: Fraction, x3: Fraction) -> Fraction:
    penalty = (x1 - THIRD) ** 2 + (x2 - THIRD) ** 2 + (x3 - THIRD) ** 2
    return Fraction(5, 54) - penalty / 50


def margin(x1: Fraction, x2: Fraction, x3: Fraction) -> Fraction:
    return inequality_rhs(x1, x2, x3) - inequality_lhs(x1, x2, x3)


@dataclass(frozen=True)
class GridReport:
    resolution: int
    points: int
    worst_margin: Fraction
    argmin: tuple[Fraction, Fraction, Fraction]
    zero_margin_points: tuple

    def to_json_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "points": self.points,
            "worst_margin_num": self.worst_margin.numerator,
            "worst_margin_den": self.worst_margin.denominator,
            "argmin": [str(v) for v in self.argmin],
            "zero_margin_points": [[str(v) for v in p] for p in self.zero_margin_points],
        }


def verify_simplex_inequality(d: int) -> GridReport:
    """Exact margins over all (a/d, b/d, c/d) with a + b + c = d.

    Returns the minimum margin and where it occurs; every grid point with
    margin exactly zero is reported (the barycenter, when 3 divides d, is
    the only expected one).  Each point is decided by the integer
    2700 d^3 * margin, so Fractions are built only for the report."""
    if d < 1:
        raise InvalidArgument("resolution must be at least 1")
    top = 250 * d**3
    worst: Optional[int] = None
    arg = (0, 0, 0)
    zeros = []
    points = 0
    for a in range(d + 1):
        for b in range(d + 1 - a):
            c = d - a - b
            value = (
                top
                - 6 * d * ((3 * a - d) ** 2 + (3 * b - d) ** 2 + (3 * c - d) ** 2)
                - 2700 * a * b * c
                - 1350 * (a * a * b + b * b * c + c * c * a)
            )
            points += 1
            if value == 0:
                zeros.append((Fraction(a, d), Fraction(b, d), Fraction(c, d)))
            # points come in lexicographic order, so the first minimum wins ties
            if worst is None or value < worst:
                worst = value
                arg = (a, b, c)
    assert worst is not None
    return GridReport(
        d,
        points,
        Fraction(worst, 2700 * d**3),
        tuple(Fraction(v, d) for v in arg),
        tuple(zeros),
    )


# --- exact integer interval arithmetic on dyadic boxes ----------------------
#
# The function takes a box's ends l_i <= h_i at a scale T the caller fixes,
# 1/3 reading ``third`` = T/3, and returns the lower end, the one end the
# certificate reads, of the interval enclosure on the operation tree in its
# docstring.  Interval operations are positively homogeneous, so this lower
# end is the rational one times a positive constant and has the same sign.


def _times(al, ah, bl, bh):
    """The interval product [al, ah] * [bl, bh] as (lo, hi), picked by the
    signs of the ends: the same ends as min and max of the four products."""
    if al >= 0:
        if bl >= 0:
            return al * bl, ah * bh
        if bh <= 0:
            return ah * bl, al * bh
        return ah * bl, ah * bh
    if ah <= 0:
        if bl >= 0:
            return al * bh, ah * bl
        if bh <= 0:
            return ah * bh, al * bl
        return al * bh, al * bl
    if bl >= 0:
        return al * bh, ah * bh
    if bh <= 0:
        return ah * bl, al * bl
    return min(al * bh, ah * bl), max(al * bl, ah * bh)


def _margin_centered_lower(l1, h1, l2, h2, l3, h3, third: int) -> int:
    """Lower end of the recentered enclosure 44 T q - 75 (p + D), at scale
    300 T^3, with u_i = x_i - third, q = sum_i u_i^2, p = (u1 u2) u3 and
    D = -((u1 - u2)(u2 - u3))(u3 - u1)."""
    t = 3 * third
    # u_i - u_j = x_i - x_j, so -D needs no recentering; take its lower end
    lo, hi = _times(l1 - h2, h1 - l2, l2 - h3, h2 - l3)
    minus_d = _times(lo, hi, l3 - h1, h3 - l1)[0]
    l1, h1, l2, h2, l3, h3 = l1 - third, h1 - third, l2 - third, h2 - third, l3 - third, h3 - third
    lo, hi = _times(l1, h1, l2, h2)
    p = _times(lo, hi, l3, h3)[1]
    q = (
        (l1 * l1 if l1 > 0 else h1 * h1 if h1 < 0 else 0)
        + (l2 * l2 if l2 > 0 else h2 * h2 if h2 < 0 else 0)
        + (l3 * l3 if l3 > 0 else h3 * h3 if h3 < 0 else 0)
    )
    return 44 * t * q - 75 * (p - minus_d)


@dataclass(frozen=True)
class CertificateReport:
    min_width: Fraction
    boxes_certified_interval: int
    boxes_certified_center: int
    boxes_skipped_outside: int
    undecided: tuple
    max_depth: int

    @property
    def certified(self) -> bool:
        return not self.undecided

    def to_json_dict(self) -> dict:
        return {
            "min_width": self.min_width,
            "boxes_certified_interval": self.boxes_certified_interval,
            "boxes_certified_center": self.boxes_certified_center,
            "boxes_skipped_outside": self.boxes_skipped_outside,
            "undecided": [[str(v) for v in box] for box in self.undecided],
            "max_depth": self.max_depth,
            "certified": self.certified,
        }


def certify_simplex_inequality(min_width: Fraction = Fraction(1, 10**6)) -> CertificateReport:
    """Certify the inequality over the whole simplex by box subdivision.

    Boxes are (x1, x2) rectangles; x3 ranges over an exact enclosure of
    1 - x1 - x2 clipped to the simplex.  A box is certified when the whole
    box sits inside the center ball, where the exact cubic lower bound
    applies, or else when the interval enclosure of the recentered margin
    has a nonnegative lower end; otherwise it is split.  Boxes thinner than
    ``min_width`` that still cannot be decided are reported, not dropped;
    the width must lie in (0, 1], the root box's width.

    Every box is dyadic, since boxes start at [0, 1]^2 and are only halved,
    so a box is held as integers (a1, b1, a2, b2, depth) standing for
    [a1, b1] x [a2, b2] / 2^depth, and every test is an integer comparison.
    """
    min_width = Fraction(min_width)
    if not 0 < min_width <= 1:
        raise InvalidArgument(f"certificate width must lie in (0, 1], got {min_width}")
    width_num, width_den = min_width.numerator, min_width.denominator
    # |v - 1/3| <= CENTER_RADIUS  <=>  radius_den * |3v - 1| <= radius_num
    radius_num = 3 * CENTER_RADIUS.numerator
    radius_den = CENTER_RADIUS.denominator
    stack = [(0, 1, 0, 1, 0)]
    pop, push = stack.pop, stack.append
    certified_interval = 0
    certified_center = 0
    skipped = 0
    undecided = []
    max_depth = 0
    while stack:
        a1, b1, a2, b2, depth = pop()
        if depth > max_depth:
            max_depth = depth
        one = 1 << depth
        x3_hi = one - a1 - a2
        if x3_hi < 0:
            skipped += 1
            continue
        x3_lo = one - b1 - b2
        if x3_lo < 0:
            x3_lo = 0
        # center lemma: entire box within sup-distance 2/25 of the barycenter,
        # read off its lowest and highest ends (x3_lo <= x3_hi past the skip)
        low = a1 if a1 < a2 else a2
        if x3_lo < low:
            low = x3_lo
        high = b1 if b1 > b2 else b2
        if x3_hi > high:
            high = x3_hi
        limit = radius_num * one
        if radius_den * (one - 3 * low) <= limit and radius_den * (3 * high - one) <= limit:
            certified_center += 1
            continue
        if _margin_centered_lower(
            3 * a1, 3 * b1, 3 * a2, 3 * b2, 3 * x3_lo, 3 * x3_hi, one
        ) >= 0:
            certified_interval += 1
            continue
        w1 = b1 - a1
        w2 = b2 - a2
        if (w1 if w1 > w2 else w2) * width_den < width_num * one:
            undecided.append(tuple(Fraction(v, one) for v in (a1, b1, a2, b2)))
            continue
        # one level down every coordinate doubles and [a, b] splits at a + b
        depth += 1
        if w1 >= w2:
            mid = a1 + b1
            push((2 * a1, mid, 2 * a2, 2 * b2, depth))
            push((mid, 2 * b1, 2 * a2, 2 * b2, depth))
        else:
            mid = a2 + b2
            push((2 * a1, 2 * b1, 2 * a2, mid, depth))
            push((2 * a1, 2 * b1, mid, 2 * b2, depth))
    return CertificateReport(
        min_width=min_width,
        boxes_certified_interval=certified_interval,
        boxes_certified_center=certified_center,
        boxes_skipped_outside=skipped,
        undecided=tuple(undecided),
        max_depth=max_depth,
    )
