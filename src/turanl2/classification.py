"""Edge taxonomy of a 3-graph relative to a 3-partition.

Relative to the cyclic construction on a partition P, the edges of H split
into bad edges (in H but not in the construction) and missing edges (in the
construction but not in H).  Bad edges split further into internal (inside
one part) and bi (meeting exactly two parts); missing edges into transversal
(meeting all three parts) and bi.  This module classifies, computes family
degree/codegree statistics, optimizes the partition, and evaluates the
hypothesis checklists of the two local-improvement operators.  Each toggle
phase (pair kind, refilled family, coefficient, item texts) is defined once,
in ``TOGGLE_PHASES``.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .constructions import (
    CYCLIC_TABLE,
    Partition3,
    construction,
)
from .errors import (
    EdgeNotCrossing,
    EdgeNotInShadow,
    EdgeNotInternal,
    InvalidArgument,
    PartitionMismatch,
    SizeLimitExceeded,
    UnknownFamily,
)
from .hypergraph import Pair, ThreeGraph, Triple, normalize_pair

FAMILY_IDS = ("B", "M", "B_int", "B_bi", "M_tri", "M_bi")

EXHAUSTIVE_PARTITION_CAP = 12


def construction_edges(p: Partition3) -> frozenset[Triple]:
    """Edges of the cyclic construction on an arbitrary (relabeled) partition."""
    return construction(p).edge_set


@dataclass(frozen=True)
class EdgeClassification:
    """The six families; ``b`` and ``m`` always partition as int/bi, tri/bi."""

    h: ThreeGraph
    partition: Partition3
    b: frozenset[Triple]
    m: frozenset[Triple]
    b_int: frozenset[Triple]
    b_bi: frozenset[Triple]
    m_tri: frozenset[Triple]
    m_bi: frozenset[Triple]

    def family(self, family_id: str) -> frozenset[Triple]:
        try:
            return {
                "B": self.b,
                "M": self.m,
                "B_int": self.b_int,
                "B_bi": self.b_bi,
                "M_tri": self.m_tri,
                "M_bi": self.m_bi,
            }[family_id]
        except KeyError:
            raise UnknownFamily(f"unknown family {family_id!r}; use one of {FAMILY_IDS}")

    def through(self, family_id: str, e: Sequence[int]) -> frozenset[Triple]:
        """The edges of a family that contain the pair ``e``."""
        u, v = normalize_pair(e, self.h.n)
        return frozenset(t for t in self.family(family_id) if u in t and v in t)

    def codegree(self, family_id: str, e: Sequence[int]) -> int:
        return len(self.through(family_id, e))

    def intersection_size(self) -> int:
        return len(self.h.edges) - len(self.b)


def classify_edges(h: ThreeGraph, p: Partition3) -> EdgeClassification:
    """The six edge families of ``h`` relative to the construction on ``p``.

    Two routes give the same families.  When ``h`` was derived by one
    :meth:`ThreeGraph.with_changes` call from the memoized ``construction(p)``
    object itself, as :func:`improvement.generate_phase_instance` derives its
    instances, B and M are its recorded edits (``h.edits_from``), in time
    linear in the edits.  Any other graph (built directly, loaded, derived
    in more steps or from another graph, or derived before the memo moved
    on) takes the set differences against ``construction_edges(p)``, in time
    linear in the edge counts.
    """
    if p.n != h.n:
        raise PartitionMismatch(f"partition covers {p.n} vertices, graph has {h.n}")
    edits = h.edits_from(construction(p))
    if edits is None:
        cons = construction_edges(p)
        b = frozenset(h.edge_set - cons)
        m = frozenset(cons - h.edge_set)
    else:
        b, m = map(frozenset, edits)
    parts = p.parts
    b_int = frozenset(t for t in b if parts[t[0]] == parts[t[1]] == parts[t[2]])
    m_tri = frozenset(
        t for t in m if {parts[t[0]], parts[t[1]], parts[t[2]]} == {1, 2, 3}
    )
    return EdgeClassification(
        h=h,
        partition=p,
        b=b,
        m=m,
        b_int=b_int,
        b_bi=b - b_int,
        m_tri=m_tri,
        m_bi=m - m_tri,
    )


@dataclass(frozen=True)
class FamilyStats:
    family: str
    size: int
    max_vertex_degree: int
    max_pair_codegree: int
    pair_codegrees: dict

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "size": self.size,
            "max_vertex_degree": self.max_vertex_degree,
            "max_pair_codegree": self.max_pair_codegree,
        }


def family_stats(ec: EdgeClassification, family_id: str) -> FamilyStats:
    fam = ec.family(family_id)
    deg: Counter = Counter()
    cod: Counter = Counter()
    for a, b, c in fam:
        deg[a] += 1
        deg[b] += 1
        deg[c] += 1
        cod[(a, b)] += 1
        cod[(a, c)] += 1
        cod[(b, c)] += 1
    return FamilyStats(
        family=family_id,
        size=len(fam),
        max_vertex_degree=max(deg.values(), default=0),
        max_pair_codegree=max(cod.values(), default=0),
        pair_codegrees=dict(cod),
    )


def _vertex_contribution(h: ThreeGraph, parts: list[int], v: int, part: int) -> int:
    """Edges through v that would lie in the construction if v sat in ``part``."""
    count = 0
    for t in h.edges:
        if v in t:
            x, y = (w for w in t if w != v)
            count += CYCLIC_TABLE[9 * parts[x] + 3 * parts[y] + part - 13]
    return count


def optimize_partition(
    h: ThreeGraph,
    mode: str = "exhaustive",
    initial: Optional[Partition3] = None,
) -> tuple[Partition3, int]:
    """Partition maximizing the overlap between H and the cyclic construction.

    exhaustive: globally optimal over all 3^n assignments (DFS with an
    admissible remaining-edges bound); ties resolve to the lexicographically
    smallest assignment string.  Capped at ``EXHAUSTIVE_PARTITION_CAP``
    vertices.

    vertexMoves: local search from ``initial`` (balanced by label when
    omitted); repeatedly applies the first strictly improving single-vertex
    reassignment, scanning vertices from 0 and restarting the scan at 0
    after each improving move.  At the fixpoint no single move increases the
    overlap.  So for every vertex v, in part i, with j = i + 1 and k = i + 2
    cyclically and e(X, Y), e(X) counting the edges of v's link between X
    and Y and inside X: e(Vi,Vj) + e(Vk) >= e(Vi,Vk) + e(Vi) (a move to part
    j gains nothing) and e(Vj,Vk) + e(Vk) >= e(Vi,Vk) + e(Vj) (a move to
    part k gains nothing).
    """
    if mode == "exhaustive":
        if h.n > EXHAUSTIVE_PARTITION_CAP:
            raise SizeLimitExceeded(
                f"exhaustive partition search capped at {EXHAUSTIVE_PARTITION_CAP}"
                f" vertices, got {h.n}"
            )
        return _optimize_exhaustive(h)
    if mode == "vertexMoves":
        return _optimize_vertex_moves(h, initial)
    raise InvalidArgument(f"unknown mode {mode!r}")


def _optimize_exhaustive(h: ThreeGraph) -> tuple[Partition3, int]:
    n = h.n
    edges = h.edges
    # edges bucketed by their largest vertex: an edge is decided once its
    # last vertex is assigned.
    by_last: list[list[Triple]] = [[] for _ in range(n)]
    for t in edges:
        by_last[t[2]].append(t)
    undecided_after = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        undecided_after[v] = undecided_after[v + 1] + len(by_last[v])

    best_score = -1
    best_assign: Optional[tuple[int, ...]] = None
    assign = [0] * n

    def dfs(v: int, score: int):
        nonlocal best_score, best_assign
        if score + undecided_after[v] < best_score:
            return
        if v == n:
            if score > best_score:
                best_score = score
                best_assign = tuple(assign)
            return
        for part in (1, 2, 3):
            assign[v] = part
            gained = 0
            for a, b, _ in by_last[v]:
                gained += CYCLIC_TABLE[9 * assign[a] + 3 * assign[b] + part - 13]
            dfs(v + 1, score + gained)
        assign[v] = 0

    dfs(0, 0)
    assert best_assign is not None
    return Partition3(best_assign), best_score


def _optimize_vertex_moves(
    h: ThreeGraph, initial: Optional[Partition3]
) -> tuple[Partition3, int]:
    p = initial if initial is not None else Partition3.balanced(h.n)
    if p.n != h.n:
        raise PartitionMismatch("initial partition size does not match the graph")
    parts = list(p.parts)
    score = sum(CYCLIC_TABLE[9 * parts[a] + 3 * parts[b] + parts[c] - 13] for a, b, c in h.edges)
    improved = True
    while improved:
        improved = False
        for v in range(h.n):
            here = _vertex_contribution(h, parts, v, parts[v])
            for part in (1, 2, 3):
                if part == parts[v]:
                    continue
                there = _vertex_contribution(h, parts, v, part)
                if there > here:
                    parts[v] = part
                    score += there - here
                    improved = True
                    break
            if improved:
                break
    return Partition3(parts), score


@dataclass(frozen=True)
class TogglePhase:
    """One local toggle phase.

    The toggle at e* removes the bad edges through e* and refills the
    ``missing`` family through e*.  ``internal`` says whether e* lies inside
    one part (phase one) or crosses two parts (phase two); item iii of the
    checklist asks for a refilled codegree of at least coeff * sqrt(xi) * n,
    and only phase one has item v.
    """

    internal: bool
    missing: str
    coeff: int
    item_iii: str
    item_iv: str
    item_v: Optional[str] = None

    def fit_pair(self, p: Partition3, e_star: Sequence[int], n: int) -> Pair:
        """e* normalized; a pair of the wrong kind raises ``EdgeNotInternal``
        or ``EdgeNotCrossing``, both ``EdgePhaseMismatch``."""
        pair = normalize_pair(e_star, n)
        if (p.part_of(pair[0]) == p.part_of(pair[1])) != self.internal:
            if self.internal:
                raise EdgeNotInternal(f"pair {pair} crosses parts")
            raise EdgeNotCrossing(f"pair {pair} lies inside one part")
        return pair


TOGGLE_PHASES: Mapping[str, TogglePhase] = MappingProxyType(
    {
        "one": TogglePhase(
            internal=True,
            missing="M",
            coeff=47,
            item_iii="squared missing codegree at e* at least 47^2 * xi * n^2",
            item_iv="missing codegree at least bad codegree minus xi*n",
            item_v="bi-bad codegree at e* at most xi*n",
        ),
        "two": TogglePhase(
            internal=False,
            missing="M_tri",
            coeff=90,
            item_iii="squared transversal-missing codegree at least 90^2 * xi * n^2",
            item_iv="transversal-missing codegree at least bad codegree minus xi*n",
        ),
    }
)
PHASES = tuple(TOGGLE_PHASES)  # ("one", "two")


def toggle_phase(phase: str) -> TogglePhase:
    """The phase's toggle spec; an unknown phase is a usage error."""
    if phase not in PHASES:
        raise InvalidArgument(f"phase must be one of {PHASES}")
    return TOGGLE_PHASES[phase]


@dataclass(frozen=True)
class Thresholds:
    """The checklist parameter xi, with exact square-compare helpers.

    Comparisons of the form d >= coeff * sqrt(xi) * n are decided by squaring
    (both sides are nonnegative), so no irrational value is ever formed.
    """

    xi: Fraction

    def __post_init__(self):
        if not 0 < self.xi:
            raise InvalidArgument("xi must be positive")

    def at_least_sqrt_bound(self, d: int, coeff: int, n: int) -> bool:
        """d >= coeff * sqrt(xi) * n, decided exactly."""
        return d * d >= self.sqrt_bound_squared(coeff, n)

    def sqrt_bound_squared(self, coeff: int, n: int) -> Fraction:
        return coeff * coeff * self.xi * n * n

    def ceil_sqrt_bound(self, coeff: int, n: int) -> int:
        """The smallest integer d with d >= coeff * sqrt(xi) * n."""
        d = math.isqrt(math.ceil(self.sqrt_bound_squared(coeff, n)))
        while not self.at_least_sqrt_bound(d, coeff, n):
            d += 1
        return d


_RELATIONS = {"<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class ChecklistItem:
    id: str
    description: str
    lhs: Fraction
    rhs: Fraction
    relation: str  # "<=" or ">="

    @property
    def passed(self) -> bool:
        """Whether ``lhs relation rhs`` holds."""
        return _RELATIONS[self.relation](self.lhs, self.rhs)

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Checklist:
    phase: str
    e_star: Pair
    items: tuple[ChecklistItem, ...]

    @property
    def all_pass(self) -> bool:
        return all(i.passed for i in self.items)

    def to_json_dict(self) -> dict:
        return {
            "phase": self.phase,
            "e_star": list(self.e_star),
            "items": [i.to_json_dict() for i in self.items],
            "all_pass": self.all_pass,
        }


def _shared_items(
    h: ThreeGraph, p: Partition3, t: Thresholds, ec: EdgeClassification
) -> list[ChecklistItem]:
    n = h.n
    xi = t.xi
    imbalance = max(abs(Fraction(size) - Fraction(n, 3)) for size in p.sizes)
    items = [
        ChecklistItem(
            "i",
            "part sizes within xi*n of n/3",
            imbalance,
            xi * n,
            "<=",
        )
    ]
    dmax_m = family_stats(ec, "M").max_vertex_degree
    dmax_b = family_stats(ec, "B").max_vertex_degree
    worst = max(dmax_m, dmax_b)
    items.append(
        ChecklistItem(
            "ii",
            "max missing/bad vertex degree at most xi*n^2",
            Fraction(worst),
            xi * n * n,
            "<=",
        )
    )
    return items


def check_phase_one_hypotheses(
    h: ThreeGraph,
    p: Partition3,
    e_star: Sequence[int],
    t: Thresholds,
    ec: Optional[EdgeClassification] = None,
) -> Checklist:
    """Five-item checklist for an internal pair (squared form for item iii)."""
    return _phase_checklist("one", h, p, e_star, t, ec)


def check_phase_two_hypotheses(
    h: ThreeGraph,
    p: Partition3,
    e_star: Sequence[int],
    t: Thresholds,
    ec: Optional[EdgeClassification] = None,
) -> Checklist:
    """Four-item checklist for a crossing pair, transversal-missing flavored."""
    return _phase_checklist("two", h, p, e_star, t, ec)


def _phase_checklist(
    phase: str,
    h: ThreeGraph,
    p: Partition3,
    e_star: Sequence[int],
    t: Thresholds,
    ec: Optional[EdgeClassification],
) -> Checklist:
    spec = toggle_phase(phase)
    pair = spec.fit_pair(p, e_star, h.n)
    if h.codegrees().get(pair, 0) == 0:
        raise EdgeNotInShadow(f"pair {pair} is covered by no edge")
    n = h.n
    xi = t.xi
    if ec is None:
        ec = classify_edges(h, p)
    d_m = ec.codegree(spec.missing, pair)
    d_b = ec.codegree("B", pair)
    items = _shared_items(h, p, t, ec)
    items.append(
        ChecklistItem(
            "iii",
            spec.item_iii,
            Fraction(d_m * d_m),
            t.sqrt_bound_squared(spec.coeff, n),
            ">=",
        )
    )
    items.append(
        ChecklistItem(
            "iv",
            spec.item_iv,
            Fraction(d_m),
            Fraction(d_b) - xi * n,
            ">=",
        )
    )
    if spec.item_v is not None:
        d_bbi = ec.codegree("B_bi", pair)
        items.append(
            ChecklistItem(
                "v",
                spec.item_v,
                Fraction(d_bbi),
                xi * n,
                "<=",
            )
        )
    return Checklist(phase, pair, tuple(items))
