"""Shared helpers: seeded generators and brute-force oracles.

The oracles here deliberately avoid the library's optimized paths: norms and
codegree tables are recounted from raw pair iteration, canonical forms are minimized over every
permutation, the census cover search recounts every node's value from
scratch, the K4^3 census's classes come from canonicalizing every labelled
maximizer, subgraph searches enumerate vertex subsets directly, the
tripartite census's maximizers come from a decomposition over the bipartite
graphs between two parts, the cyclic construction is recounted from the
part counts of every triple, the driver's queues come from a scan of every
pair, links and the path lemma's degree bound are read off edge lists and
adjacency sets, the simplex certificate and grid sweep are rerun in Fraction
arithmetic, the recentered margin and the center lemma's floor are written
out as the formulas the certificate's argument states, and the two toggle
checklists are written out separately, one body per phase.
"""

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from turanl2.classification import (
    Checklist,
    ChecklistItem,
    _shared_items,
    classify_edges,
)
from turanl2.constructions import CYCLIC_TABLE, next_part, prev_part
from turanl2.errors import EdgeNotCrossing, EdgeNotInShadow, EdgeNotInternal
from turanl2.hypergraph import (
    Graph,
    ThreeGraph,
    canonical_form,
    make_pair_graph,
    normalize_pair,
)
from turanl2.improvement import Queues
from turanl2.inequality import (
    CENTER_RADIUS,
    THIRD,
    CertificateReport,
    GridReport,
    margin,
)


def oracle_l2(h: ThreeGraph) -> int:
    cnt = Counter()
    for t in h.edges:
        for p in itertools.combinations(t, 2):
            cnt[p] += 1
    return sum(d * d for d in cnt.values())


def oracle_codegrees(h: ThreeGraph) -> dict:
    """Pair -> codegree, counted from the edge list; never calls ``codegrees``."""
    return dict(Counter(p for t in h.edges for p in itertools.combinations(t, 2)))


def oracle_codegree(h: ThreeGraph, pair) -> int:
    a, b = sorted(pair)
    return sum(1 for t in h.edges if a in t and b in t)


def oracle_canonical(h: ThreeGraph):
    """Minimum relabeled edge list over all n! permutations."""
    best = None
    for perm in itertools.permutations(range(h.n)):
        rel = tuple(
            sorted(tuple(sorted((perm[a], perm[b], perm[c]))) for a, b, c in h.edges)
        )
        if best is None or rel < best:
            best = rel
    return best


def oracle_census_classes(n: int, maximizers) -> set:
    """The K4^3 census's classes the direct way: the canonical form of every
    labelled maximizer, with no orbit counting."""
    return {canonical_form(ThreeGraph(n, edges, _normalized=True))[0] for edges in maximizers}


def oracle_max_free_subsets(ground, forbidden, groups, floor):
    """The census cover search with each node's square sum over ``groups``
    recounted in full and each node's scan of ``forbidden`` started at the
    first mask: the same tree, walked with nothing carried from parent to
    child.  Returns (best, maximizers in ground order, nodes visited)."""

    def value(mask):
        return sum((mask & g).bit_count() ** 2 for g in groups)

    best, argmax, nodes = floor, [], 0
    stack = [((1 << len(ground)) - 1, 0)]  # (current set, pinned members)
    while stack:
        mask, pinned = stack.pop()
        nodes += 1
        v = value(mask)
        if v < best:
            continue
        for f in forbidden:
            if mask & f == f:
                break
        else:
            if v > best:
                best, argmax = v, []
            argmax.append(mask)
            continue
        branch = f & ~pinned
        while branch:
            bit = branch & -branch
            stack.append((mask ^ bit, pinned))
            pinned |= bit
            branch ^= bit
    assert argmax, f"no free subset reaches the floor {floor}"
    return best, [[x for i, x in enumerate(ground) if m >> i & 1] for m in argmax], nodes


def _maximum_independent_sets(ground: list[int], edges) -> list[tuple[int, ...]]:
    """Every independent set of largest size of the graph ``edges`` on ``ground``."""
    for r in range(len(ground), -1, -1):  # r = 0 finds the empty set
        found = [
            cand
            for cand in itertools.combinations(ground, r)
            if not any(a in cand and b in cand for a, b in edges)
        ]
        if found:
            return found


def oracle_tripartite_decompose(n: int) -> tuple[int, set[frozenset]]:
    """The largest triangle-free tripartite graphs with parts of size n, and
    their edge count, by decomposition: every bipartite graph between the
    first two parts is scanned, and each third-part vertex then independently
    attaches to a maximum independent set of it."""
    parts = [list(range(i * n, (i + 1) * n)) for i in range(3)]
    ground = parts[0] + parts[1]
    pairs = list(itertools.product(parts[0], parts[1]))
    best, maximizers = -1, set()
    for r in range(len(pairs) + 1):
        for g12 in itertools.combinations(pairs, r):
            independent = _maximum_independent_sets(ground, g12)
            value = len(g12) + n * len(independent[0])
            if value > best:
                best, maximizers = value, set()
            if value == best:
                for choice in itertools.product(independent, repeat=n):
                    edges = set(g12)
                    for w, nbhd in zip(parts[2], choice):
                        edges.update((u, w) for u in nbhd)
                    maximizers.add(frozenset(edges))
    return best, maximizers


def oracle_contains_complete(h: ThreeGraph, k: int) -> bool:
    for sub in itertools.combinations(range(h.n), k):
        if all(t in h.edge_set for t in itertools.combinations(sub, 3)):
            return True
    return False


# Part counts (|t & V1|, |t & V2|, |t & V3|) of the cyclic construction's edges.
CYCLIC_PART_COUNTS = frozenset({(1, 1, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2)})


def oracle_cyclic_edges(parts) -> frozenset:
    """Edges of the cyclic construction on a part assignment, by counting the
    parts of every vertex triple."""
    return frozenset(
        t
        for t in itertools.combinations(range(len(parts)), 3)
        if tuple(sum(1 for v in t if parts[v] == i) for i in (1, 2, 3))
        in CYCLIC_PART_COUNTS
    )


def is_construction_edge(t, p) -> bool:
    """Membership of one triple, in any vertex order, by a ``CYCLIC_TABLE``
    lookup: the per-triple route the library's scans inline."""
    a, b, c = t
    return CYCLIC_TABLE[9 * p.part_of(a) + 3 * p.part_of(b) + p.part_of(c) - 13]


def link(h: ThreeGraph, v: int) -> Graph:
    """The link of ``v``: pairs e with {v} | e an edge of ``h``, on the same
    vertex set.  The degree of u in it is the codegree of {u, v}."""
    return make_pair_graph(h.n, [[x for x in t if x != v] for t in h.edges if v in t])


def part_pair_counts(pairs, parts) -> Counter:
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


def oracle_path_degree(cg, path) -> Optional[tuple[int, int]]:
    """(degree sum, 3 (k + 1) times the largest part) along a directed path
    x1 y1 z1 ... xk yk zk of a colored graph, or None when the path lemma's
    premises fail: two path vertices share a class (same part, same
    neighbourhood), or the in-neighbourhood of x1 (its part-3 neighbours) is
    neither empty nor the class of zk."""
    parts, adj = cg.partition.parts, cg.graph.adjacency()
    classes = [
        frozenset(u for u in range(cg.n) if parts[u] == parts[v] and adj[u] == adj[v])
        for v in path
    ]
    inn = frozenset(w for w in adj[path[0]] if parts[w] == 3)
    if len(set(classes)) < len(path) or (inn and inn != classes[-1]):
        return None
    return sum(len(adj[v]) for v in path), (len(path) + 3) * max(cg.partition.sizes)


# --- rational interval arithmetic: the oracle for the integer certificate ---


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __add__(self, other):
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        other = _as_interval(other)
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other):
        other = _as_interval(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def square(self):
        if self.lo >= 0:
            return Interval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Interval(self.hi * self.hi, self.lo * self.lo)
        return Interval(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

    def scaled(self, k: Fraction):
        if k >= 0:
            return Interval(self.lo * k, self.hi * k)
        return Interval(self.hi * k, self.lo * k)


def _as_interval(v) -> Interval:
    if isinstance(v, Interval):
        return v
    f = Fraction(v)
    return Interval(f, f)


def margin_centered(u1: Fraction, u2: Fraction, u3: Fraction) -> Fraction:
    """The simplex margin through the recentered identity (u_i = x_i - 1/3)."""
    q = u1 * u1 + u2 * u2 + u3 * u3
    p = u1 * u2 * u3
    d = -(u1 - u2) * (u2 - u3) * (u3 - u1)
    return Fraction(11, 75) * q - (p + d) / 4


def center_lemma_floor(m: Fraction) -> Fraction:
    """The center lemma's lower bound (11/50) m^2 - (9/4) m^3 on the margin."""
    m = Fraction(m)
    return Fraction(11, 50) * m * m - Fraction(9, 4) * m * m * m


def oracle_margin_interval_centered(x1: Interval, x2: Interval, x3: Interval) -> Interval:
    u1, u2, u3 = (x - THIRD for x in (x1, x2, x3))
    q = u1.square() + u2.square() + u3.square()
    p = u1 * u2 * u3
    d = -((u1 - u2) * (u2 - u3) * (u3 - u1))
    return q.scaled(Fraction(11, 75)) - (p + d).scaled(Fraction(1, 4))


def oracle_certify_simplex_inequality(min_width: Fraction) -> CertificateReport:
    """The box certificate with every endpoint a Fraction."""
    min_width = Fraction(min_width)
    one = Fraction(1)
    stack = [(Fraction(0), one, Fraction(0), one, 0)]
    certified_interval = 0
    certified_center = 0
    skipped = 0
    undecided = []
    max_depth = 0
    while stack:
        a1, b1, a2, b2, depth = stack.pop()
        max_depth = max(max_depth, depth)
        if a1 + a2 > 1:
            skipped += 1
            continue
        x3_lo = max(Fraction(0), 1 - b1 - b2)
        x3_hi = 1 - a1 - a2
        x1 = Interval(a1, b1)
        x2 = Interval(a2, b2)
        x3 = Interval(x3_lo, x3_hi)
        if (
            abs(a1 - THIRD) <= CENTER_RADIUS
            and abs(b1 - THIRD) <= CENTER_RADIUS
            and abs(a2 - THIRD) <= CENTER_RADIUS
            and abs(b2 - THIRD) <= CENTER_RADIUS
            and abs(x3_lo - THIRD) <= CENTER_RADIUS
            and abs(x3_hi - THIRD) <= CENTER_RADIUS
        ):
            certified_center += 1
            continue
        if oracle_margin_interval_centered(x1, x2, x3).lo >= 0:
            certified_interval += 1
            continue
        width = max(b1 - a1, b2 - a2)
        if width < min_width:
            undecided.append((a1, b1, a2, b2))
            continue
        if b1 - a1 >= b2 - a2:
            mid = (a1 + b1) / 2
            stack.append((a1, mid, a2, b2, depth + 1))
            stack.append((mid, b1, a2, b2, depth + 1))
        else:
            mid = (a2 + b2) / 2
            stack.append((a1, b1, a2, mid, depth + 1))
            stack.append((a1, b1, mid, b2, depth + 1))
    return CertificateReport(
        min_width=min_width,
        boxes_certified_interval=certified_interval,
        boxes_certified_center=certified_center,
        boxes_skipped_outside=skipped,
        undecided=tuple(undecided),
        max_depth=max_depth,
    )


def oracle_verify_simplex_inequality(d: int) -> GridReport:
    """The grid sweep with every margin a Fraction."""
    worst: Optional[Fraction] = None
    arg = (Fraction(0), Fraction(0), Fraction(0))
    zeros = []
    points = 0
    for a in range(d + 1):
        for b in range(d + 1 - a):
            c = d - a - b
            x = (Fraction(a, d), Fraction(b, d), Fraction(c, d))
            value = margin(*x)
            points += 1
            if value == 0:
                zeros.append(x)
            if worst is None or value < worst or (value == worst and x < arg):
                worst = value
                arg = x
    return GridReport(d, points, worst, arg, tuple(zeros))


# --- one body per phase: the oracle for the table-driven checklist ---


def _oracle_item(item_id, description, lhs, rhs, relation, passed) -> ChecklistItem:
    """A checklist item whose own pass decision must agree with ``passed``,
    the oracle's independent comparison."""
    item = ChecklistItem(item_id, description, lhs, rhs, relation)
    assert item.passed == passed, item
    return item


def oracle_phase_one_checklist(h, p, e_star, t, ec=None) -> Checklist:
    pair = normalize_pair(e_star, h.n)
    if p.part_of(pair[0]) != p.part_of(pair[1]):
        raise EdgeNotInternal(f"pair {pair} crosses parts")
    if h.codegrees().get(pair, 0) == 0:
        raise EdgeNotInShadow(f"pair {pair} is covered by no edge")
    n = h.n
    xi = t.xi
    if ec is None:
        ec = classify_edges(h, p)
    d_m = ec.codegree("M", pair)
    d_b = ec.codegree("B", pair)
    d_bbi = ec.codegree("B_bi", pair)
    items = _shared_items(h, p, t, ec)
    bound = 47 * 47 * xi * n * n
    items.append(
        _oracle_item(
            "iii",
            "squared missing codegree at e* at least 47^2 * xi * n^2",
            Fraction(d_m * d_m),
            bound,
            ">=",
            Fraction(d_m * d_m) >= bound,
        )
    )
    items.append(
        _oracle_item(
            "iv",
            "missing codegree at least bad codegree minus xi*n",
            Fraction(d_m),
            Fraction(d_b) - xi * n,
            ">=",
            Fraction(d_m) >= Fraction(d_b) - xi * n,
        )
    )
    items.append(
        _oracle_item(
            "v",
            "bi-bad codegree at e* at most xi*n",
            Fraction(d_bbi),
            xi * n,
            "<=",
            Fraction(d_bbi) <= xi * n,
        )
    )
    return Checklist("one", pair, tuple(items))


def oracle_phase_two_checklist(h, p, e_star, t, ec=None) -> Checklist:
    pair = normalize_pair(e_star, h.n)
    if p.part_of(pair[0]) == p.part_of(pair[1]):
        raise EdgeNotCrossing(f"pair {pair} lies inside one part")
    if h.codegrees().get(pair, 0) == 0:
        raise EdgeNotInShadow(f"pair {pair} is covered by no edge")
    n = h.n
    xi = t.xi
    if ec is None:
        ec = classify_edges(h, p)
    d_mtri = ec.codegree("M_tri", pair)
    d_b = ec.codegree("B", pair)
    items = _shared_items(h, p, t, ec)
    bound = 90 * 90 * xi * n * n
    items.append(
        _oracle_item(
            "iii",
            "squared transversal-missing codegree at least 90^2 * xi * n^2",
            Fraction(d_mtri * d_mtri),
            bound,
            ">=",
            Fraction(d_mtri * d_mtri) >= bound,
        )
    )
    items.append(
        _oracle_item(
            "iv",
            "transversal-missing codegree at least bad codegree minus xi*n",
            Fraction(d_mtri),
            Fraction(d_b) - xi * n,
            ">=",
            Fraction(d_mtri) >= Fraction(d_b) - xi * n,
        )
    )
    return Checklist("two", pair, tuple(items))


def oracle_queues(h: ThreeGraph, p, delta4: Fraction) -> Queues:
    """The driver's queues by scanning every pair and every bad edge, with the
    families recounted from ``oracle_cyclic_edges``."""
    parts, n = p.parts, h.n
    cons = oracle_cyclic_edges(parts)
    missing = cons - h.edge_set
    transversal = {t for t in missing if len({parts[v] for v in t}) == 3}

    def cod(family, a, b):
        return sum(1 for t in family if a in t and b in t)

    pairs = list(itertools.combinations(range(n), 2))
    i_pairs = [e for e in pairs if parts[e[0]] == parts[e[1]] and cod(missing, *e) >= delta4 * n]
    j_pairs = [e for e in pairs if parts[e[0]] != parts[e[1]]
               and cod(transversal, *e) >= Fraction(n, 10)]
    b_tilde = set()
    for t in h.edge_set - cons:
        labels = [parts[v] for v in t]
        for i in (1, 2, 3):
            # two vertices in part i and one in the part before it
            if labels.count(i) == 2 and labels.count((i - 2) % 3 + 1) == 1:
                a, b = (v for v in t if parts[v] == i)
                if cod(missing, a, b) <= delta4 * n:
                    b_tilde.add(t)
    return Queues(tuple(i_pairs), tuple(j_pairs), frozenset(b_tilde))


def random_graph(rng: random.Random, n: int, density: float) -> ThreeGraph:
    edges = [
        t for t in itertools.combinations(range(n), 3) if rng.random() < density
    ]
    return ThreeGraph(n, edges, _normalized=True)


@pytest.fixture
def rng():
    return random.Random(987654321)
