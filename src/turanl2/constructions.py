"""The cyclic construction model, plus the bipartite family and closed-form norms.

The cyclic family on parts (V1, V2, V3) takes all transversal triples plus,
cyclically, the triples with two vertices in a part and one in the next part.
Its edge types are also the "cyclic" triangles of the vertex-colored Mantel
problem, so this module is the one home of the part labels, the membership
table and the memoized construction that the classification, improvement,
census and colored modules share.  The bipartite family on (V1, V2) takes all
triples meeting one part twice and the other once.  Closed forms are evaluated
in exact rational arithmetic and double-checked elsewhere against direct
codegree enumeration.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import PartitionMismatch
from .hypergraph import ThreeGraph, Triple, check_vertex

# Sorted part-label multisets of the construction's edges: (1,1,1), (2,1,0),
# (0,2,1) and (1,0,2) as part counts.  The same four are the cyclic triangles.
CYCLIC_TRIANGLE_TYPES = frozenset({(1, 2, 3), (1, 1, 2), (2, 2, 3), (1, 3, 3)})

# Membership by ordered part labels: vertices in parts x, y, z (in any order)
# form a construction edge iff CYCLIC_TABLE[9 * x + 3 * y + z - 13].
CYCLIC_TABLE: tuple[bool, ...] = tuple(
    tuple(sorted(t)) in CYCLIC_TRIANGLE_TYPES
    for t in itertools.product((1, 2, 3), repeat=3)
)


def next_part(i: int) -> int:
    return 1 + (i % 3)


def prev_part(i: int) -> int:
    return 1 + ((i + 1) % 3)


def part_pair_counts(pairs: Iterable[tuple[int, int]], parts: Sequence[int]) -> Counter:
    """Edge counts of a 2-graph keyed by sorted part pair: (i, i) inside Vi."""
    return Counter(tuple(sorted((parts[a], parts[b]))) for a, b in pairs)


def cyclic_move_inequalities(counts: Counter, i: int) -> tuple[bool, bool]:
    """The two cyclic edge-count inequalities at part i, with j = i + 1 and
    k = i + 2 cyclically: e(Vi,Vj) + e(Vk) >= e(Vi,Vk) + e(Vi) and
    e(Vj,Vk) + e(Vk) >= e(Vi,Vk) + e(Vj), on ``part_pair_counts``."""
    j, k = next_part(i), prev_part(i)

    def cnt(x: int, y: int) -> int:
        return counts[(min(x, y), max(x, y))]

    first = cnt(i, j) + cnt(k, k) >= cnt(i, k) + cnt(i, i)
    second = cnt(j, k) + cnt(k, k) >= cnt(i, k) + cnt(j, j)
    return first, second


class Partition3:
    """Assignment of every vertex to one of the parts 1, 2, 3."""

    __slots__ = ("parts", "_sets")

    def __init__(self, parts: Sequence[int]):
        parts = tuple(parts)
        for c in parts:
            if c not in (1, 2, 3):
                raise PartitionMismatch(f"part labels must be 1, 2, or 3; got {c}")
        self.parts = parts
        self._sets: Optional[tuple[frozenset[int], ...]] = None

    @classmethod
    def from_string(cls, s: str) -> "Partition3":
        try:
            return cls(tuple(int(ch) for ch in s.strip()))
        except ValueError as exc:
            raise PartitionMismatch(f"bad color string {s!r}") from exc

    @classmethod
    def from_sizes(cls, n1: int, n2: int, n3: int) -> "Partition3":
        """Label ranges: [0,n1) -> 1, [n1,n1+n2) -> 2, rest -> 3."""
        return cls((1,) * n1 + (2,) * n2 + (3,) * n3)

    @classmethod
    def balanced(cls, n: int) -> "Partition3":
        """As equal as possible by ascending label."""
        return cls.from_sizes(*Composition3.balanced(n).sizes)

    @property
    def n(self) -> int:
        return len(self.parts)

    @property
    def sizes(self) -> tuple[int, int, int]:
        c = Counter(self.parts)
        return (c.get(1, 0), c.get(2, 0), c.get(3, 0))

    def part_of(self, v: int) -> int:
        check_vertex(v, self.n)
        return self.parts[v]

    def part_sets(self) -> tuple[frozenset[int], ...]:
        """(V1, V2, V3) as frozensets, index 0 unused-free: result[i-1] is Vi."""
        if self._sets is None:
            sets: list[set[int]] = [set(), set(), set()]
            for v, c in enumerate(self.parts):
                sets[c - 1].add(v)
            self._sets = tuple(frozenset(s) for s in sets)
        return self._sets

    def part_size(self, i: int) -> int:
        return len(self.part_sets()[i - 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition3) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition3({''.join(str(c) for c in self.parts)})"


def cyclic_triples(parts: Sequence[int]) -> Iterator[Triple]:
    """The construction's triples a < b < c on a part assignment, in
    lexicographic order."""
    n = len(parts)
    table = CYCLIC_TABLE
    for a in range(n):
        row_a = 9 * parts[a] - 13
        for b in range(a + 1, n):
            row = row_a + 3 * parts[b]
            for c in range(b + 1, n):
                if table[row + parts[c]]:
                    yield (a, b, c)


# The construction built last by ``construction``, keyed by ``p.parts``.  The
# improvement drivers and the classifier reuse one partition across many
# calls, and at n = 120 one construction holds about 157k edges.
_LAST_CONSTRUCTION: tuple[tuple[int, ...], Optional[ThreeGraph]] = ((), None)


def construction(p: Partition3) -> ThreeGraph:
    """The cyclic construction on ``p``, memoized for the last partition.

    Its codegree table is made in closed form on first use, in O(n^2),
    rather than counted over its edges; ``build_c`` still counts, as an
    independent check.
    """
    global _LAST_CONSTRUCTION
    parts, h = _LAST_CONSTRUCTION
    if h is None or parts != p.parts:
        h = ThreeGraph(
            p.n,
            cyclic_triples(p.parts),
            _normalized=True,
            _codegrees=lambda: _cyclic_codegrees(p),
        )
        _LAST_CONSTRUCTION = (p.parts, h)
    return h


def _cyclic_codegrees(p: Partition3) -> dict[tuple[int, int], int]:
    """Codegree table of the construction on ``p``, in row-major pair order.

    A pair in parts x and y has a co-neighbour in part z for each of the
    size_z - [x = z] - [y = z] other vertices there when CYCLIC_TABLE admits
    (x, y, z)."""
    sizes = (0, *p.sizes)
    by_parts = [0] * 16  # indexed by 4 * x + y
    for x, y, z in itertools.product((1, 2, 3), repeat=3):
        if CYCLIC_TABLE[9 * x + 3 * y + z - 13]:
            by_parts[4 * x + y] += sizes[z] - (x == z) - (y == z)
    parts = p.parts
    cd = {}
    for a, x in enumerate(parts):
        row = 4 * x
        for b in range(a + 1, len(parts)):
            d = by_parts[row + parts[b]]
            if d:
                cd[(a, b)] = d
    return cd


@dataclass(frozen=True, order=True)
class Composition3:
    """Ordered part sizes (n1, n2, n3); parts are the label ranges
    [0, n1), [n1, n1+n2), [n1+n2, n)."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        if min(self.n1, self.n2, self.n3) < 0:
            raise PartitionMismatch("part sizes must be nonnegative")

    @classmethod
    def balanced(cls, n: int) -> "Composition3":
        """The near-balanced composition of n, larger parts first by label."""
        base, rem = divmod(n, 3)
        return cls(*(base + (1 if i < rem else 0) for i in range(3)))

    @property
    def n(self) -> int:
        return self.n1 + self.n2 + self.n3

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)

    def partition(self) -> Partition3:
        return Partition3.from_sizes(self.n1, self.n2, self.n3)

    def ranges(self) -> tuple[range, range, range]:
        return (
            range(0, self.n1),
            range(self.n1, self.n1 + self.n2),
            range(self.n1 + self.n2, self.n),
        )

    def rotations(self) -> tuple["Composition3", ...]:
        a, b, c = self.sizes
        return (Composition3(a, b, c), Composition3(b, c, a), Composition3(c, a, b))

    def rotation_representative(self) -> "Composition3":
        return min(self.rotations())

    def near_balanced(self) -> bool:
        return max(self.sizes) - min(self.sizes) <= 1


def compositions_of(n: int) -> list[Composition3]:
    return [
        Composition3(a, b, n - a - b)
        for a in range(n + 1)
        for b in range(n + 1 - a)
    ]


def build_c(c: Composition3) -> tuple[ThreeGraph, Partition3]:
    """The cyclic 3-partite 3-graph on the composition's label ranges."""
    p = c.partition()
    return ThreeGraph(c.n, cyclic_triples(p.parts), _normalized=True), p


def build_balanced_c(n: int) -> tuple[ThreeGraph, Partition3]:
    """Best near-balanced composition of n (largest parts first by label)."""
    return build_c(Composition3.balanced(n))


def build_b(n1: int, n2: int) -> ThreeGraph:
    """Bipartite-type 3-graph on labels [0, n1) and [n1, n1+n2): all triples
    with two vertices in one part and one in the other."""
    if n1 < 0 or n2 < 0:
        raise PartitionMismatch("part sizes must be nonnegative")
    v1 = range(0, n1)
    v2 = range(n1, n1 + n2)
    edges = []
    for p, q in ((v1, v2), (v2, v1)):
        for a, b in itertools.combinations(p, 2):
            for w in q:
                edges.append(tuple(sorted((a, b, w))))
    return ThreeGraph(n1 + n2, sorted(edges), _normalized=True)


def c_l2_doubled(c: Composition3) -> int:
    """Twice the closed-form l2 norm of the cyclic construction, an integer.

    Cyclic sum of three terms, quartic through quadratic in the part sizes.
    """
    ns = c.sizes
    total = 0
    for i in range(3):
        a, b, d = ns[i], ns[(i + 1) % 3], ns[(i + 2) % 3]
        total += a * b * (2 * (a + d) ** 2 + a * b - 4 * a - b - 4 * d + 2)
    return total


def c_l2_closed(c: Composition3) -> Fraction:
    """Closed-form l2 norm of the cyclic construction, exact in rationals:
    half of :func:`c_l2_doubled`.  Equals l2_norm(build_c(c)) for every
    composition."""
    return Fraction(c_l2_doubled(c), 2)


# The balancedness move families: (name, parametrized old/new compositions,
# gain polynomial).  Each is an exact identity in the parameter; the sweep
# instantiates every family member whose sizes are nonnegative and sum to n.
_GAIN_FAMILIES: tuple[tuple[str, object, object, object], ...] = (
    # shrink the largest part toward the smallest, first case ladder
    ("top-heavy-equal-pair", lambda t: (t + 2, t + 2, t), lambda t: (t + 1, t + 2, t + 1),
     lambda t: 6 * t * t + 13 * t + 7),
    ("top-heavy-step-down", lambda t: (t + 2, t + 1, t), lambda t: (t + 1, t + 1, t + 1),
     lambda t: 6 * t * t + 3 * t),
    ("top-heavy-double-gap", lambda t: (t + 2, t, t), lambda t: (t + 1, t, t + 1),
     lambda t: 6 * t * t - t),
    # grow the middle slot, second case ladder
    ("middle-light-high-third", lambda s: (s, s - 2, s), lambda s: (s - 1, s - 1, s),
     lambda s: 6 * s * s - 11 * s + 5),
    ("middle-light-mid-third", lambda s: (s, s - 2, s - 1), lambda s: (s - 1, s - 1, s - 1),
     lambda s: 6 * s * s - 15 * s + 9),
    ("middle-light-low-third", lambda s: (s, s - 2, s - 2), lambda s: (s - 1, s - 1, s - 2),
     lambda s: 6 * s * s - 25 * s + 26),
)

# The four gain polynomials the acceptance gate pins explicitly.
ACCEPTANCE_GAIN_FAMILIES = (
    "top-heavy-equal-pair",
    "middle-light-high-third",
    "middle-light-mid-third",
    "middle-light-low-third",
)


@dataclass(frozen=True)
class GainCheck:
    family: str
    parameter: int
    old: tuple[int, int, int]
    new: tuple[int, int, int]
    expected_gain: int
    actual_gain: Fraction
    matches: bool


@dataclass(frozen=True)
class SweepReport:
    n: int
    values: dict  # rotation representative -> Fraction
    optimum: Fraction
    maximizers: tuple[Composition3, ...]
    near_balanced: tuple[Composition3, ...]
    maximizers_are_near_balanced: bool
    in_stated_range: bool
    gain_checks: tuple[GainCheck, ...]
    all_gains_match: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "optimum": self.optimum,
            "maximizers": [list(c.sizes) for c in self.maximizers],
            "near_balanced": [list(c.sizes) for c in self.near_balanced],
            "maximizers_are_near_balanced": self.maximizers_are_near_balanced,
            "in_stated_range": self.in_stated_range,
            "gain_checks": [
                {
                    "family": g.family,
                    "parameter": g.parameter,
                    "old": list(g.old),
                    "new": list(g.new),
                    "expected_gain": g.expected_gain,
                    "actual_gain": g.actual_gain,
                    "matches": g.matches,
                }
                for g in self.gain_checks
            ],
            "all_gains_match": self.all_gains_match,
        }


def balancedness_sweep(n: int) -> SweepReport:
    """Evaluate the closed form over all compositions of n (up to rotation).

    Confirms that the maximum is attained exactly by the near-balanced
    compositions (asserted only in the stated range n >= 6; smaller n is
    reported as data) and replays the move-gain polynomial identities for
    every family member that fits inside sum n.
    """
    reps = sorted({c.rotation_representative() for c in compositions_of(n)})
    values = {c: c_l2_closed(c) for c in reps}
    optimum = max(values.values()) if values else Fraction(0)
    maximizers = tuple(sorted(c for c, v in values.items() if v == optimum))
    near = tuple(sorted(c for c in values if c.near_balanced()))

    checks: list[GainCheck] = []
    for name, old_of, new_of, poly in _GAIN_FAMILIES:
        for t in range(0, n + 3):
            old = old_of(t)
            new = new_of(t)
            if min(old) < 0 or min(new) < 0:
                continue
            if sum(old) != n:
                continue
            actual = c_l2_closed(Composition3(*new)) - c_l2_closed(Composition3(*old))
            expected = poly(t)
            checks.append(
                GainCheck(
                    family=name,
                    parameter=t,
                    old=old,
                    new=new,
                    expected_gain=expected,
                    actual_gain=actual,
                    matches=actual == expected,
                )
            )
    return SweepReport(
        n=n,
        values=values,
        optimum=optimum,
        maximizers=maximizers,
        near_balanced=near,
        maximizers_are_near_balanced=set(maximizers) == set(near),
        in_stated_range=n >= 6,
        gain_checks=tuple(checks),
        all_gains_match=all(g.matches for g in checks),
    )


def sweep_csv(n: int) -> str:
    """CSV over ordered compositions: 'n1,n2,n3,l2'."""
    rows = ["n1,n2,n3,l2"]
    rows.extend(f"{c.n1},{c.n2},{c.n3},{c_l2_closed(c)}" for c in compositions_of(n))
    return "\n".join(rows) + "\n"
