"""Exhaustive, isomorph-free extremal searches at desk scale.

Three censuses: the tetrahedron-free l2 maximum over 3-graphs, the colored
Mantel maximum (edges or degree squares) over cyclically triangle-free
colored graphs, and the tripartite triangle-free edge maximum.  The colored
Mantel census also has a symmetrization-assisted structure search above the
exhaustive range.

Every search walks the subsets of a ground list as bitmasks against a list
of forbidden masks: the four triples of a 4-set, a cyclic triangle, a
transversal triangle.  Every census searches by covers, with
:func:`_max_free_subsets`, floored at its reference construction's value;
the full scan :func:`_free_subsets` is kept as the cross-check (the naive
K4^3 method and acceptance criterion 12).  Every objective is a square sum
over group masks, counted by :func:`_square_sum`: codegree squares, degree
squares, and the edge count as the square sum over one-element groups; the
cover search counts it in full at its root and by differences below.  The
classes are closed by orbit counts in :func:`_classes`: one maximizer per
isomorphism class is canonicalized, and
the orbits found must add up to the labelled maximizers.  Colored graphs
are compared up to color-preserving relabeling by
:func:`hypergraph.least_relabeling`.

Census outcomes at these sizes are data: reference constructions are
compared against, and uniqueness flags are reported, never asserted as
general theorems.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .colored import build_lambda
from .constructions import (
    Composition3,
    build_c,
    c_l2_doubled,
    compositions_of,
    cyclic_triples,
)
from .errors import InvalidArgument, SizeLimitExceeded, VertexOutOfRange
from .hypergraph import (
    ThreeGraph,
    all_triples,
    canonical_blocks,
    canonical_form,
    graph_l2_norm,
    l2_norm,
    least_relabeling,
)

K43_CENSUS_CAP = 8
K43_NAIVE_CAP = 5
MANTEL_EXHAUSTIVE_CAP = 2  # part size; 3n <= 8
MANTEL_CLASS_CAP = 6  # classes per blow-up structure in the assisted search
TRIPARTITE_CAP = 3


@dataclass(frozen=True)
class CensusReport:
    n: int
    objective: str
    optimum: int
    extremal: tuple  # canonical representatives
    iso_classes: int
    reference: str
    reference_value: int
    reference_attains: bool
    reference_unique: bool
    nodes_explored: int
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "objective": self.objective,
            "optimum": self.optimum,
            "extremal": [[list(e) for e in form] for form in self.extremal],
            "iso_classes": self.iso_classes,
            "reference": self.reference,
            "reference_value": self.reference_value,
            "reference_attains": self.reference_attains,
            "reference_unique": self.reference_unique,
            "nodes_explored": self.nodes_explored,
            "extra": self.extra,
        }


def best_construction_value(n: int) -> tuple[int, Composition3]:
    best = -1
    arg = Composition3(n, 0, 0)
    for c in compositions_of(n):
        v = c_l2_doubled(c)
        if v > best:
            best, arg = v, c
    assert best % 2 == 0
    return best // 2, arg


def census_k43(n: int, method: str = "canonical") -> CensusReport:
    """Exact maximum l2 norm over tetrahedron-free 3-graphs on n vertices.

    Both methods walk the triples as bitmasks and forbid the four triples of
    each 4-set; only the search differs.

    canonical: :func:`_max_free_subsets`, a branch and bound over the minimal
    covers of the tetrahedra, with the reference construction's value as its
    floor and l2 the :func:`_square_sum` over per-pair triple masks: counted
    in full for all triples, then each child's from its parent's by three
    popcounts, one per pair of the dropped triple.  l2 strictly rises when
    a triple is added, so every maximizer is a maximal tetrahedron-free set
    and the search reaches each labelled maximizer once.

    naive: scan all tetrahedron-free triple subsets and count l2 on a
    ``ThreeGraph`` (for cross-validation; n <= 5).

    :func:`_classes` closes the classes under the n! relabelings.  When the
    reference construction attains the optimum, the report asserts that its
    class was found.
    """
    if method not in ("canonical", "naive"):
        raise InvalidArgument(f"unknown method {method!r}")
    if n < 0:
        raise VertexOutOfRange("vertex count must be nonnegative")
    cap = K43_NAIVE_CAP if method == "naive" else K43_CENSUS_CAP
    if n > cap:
        raise SizeLimitExceeded(f"{method} K4^3 census capped at {cap} vertices, got {n}")
    triples = all_triples(n)
    tetrahedra = _subset_masks(
        triples,
        (itertools.combinations(q, 3) for q in itertools.combinations(range(n), 4)),
    )
    ref_value, ref_comp = best_construction_value(n)
    if method == "naive":
        best, argmax, nodes = _free_subsets(
            triples, tetrahedra, lambda edges: l2_norm(ThreeGraph(n, edges, _normalized=True))
        )
    else:
        pairs = itertools.combinations(range(n), 2)
        codegree = _subset_masks(triples, ([t for t in triples if {a, b} <= set(t)] for a, b in pairs))
        best, argmax, nodes = _max_free_subsets(triples, tetrahedra, codegree, ref_value)

    def canonical(edges):
        form, _, automorphisms = least_relabeling(
            n, edges, canonical_blocks(ThreeGraph(n, edges, _normalized=True))
        )
        return form, automorphisms

    forms = _classes(argmax, canonical, math.factorial(n))
    attains = ref_value == best
    if attains:
        assert canonical_form(build_c(ref_comp)[0])[0] in forms
    return CensusReport(
        n=n,
        objective="k43-l2",
        optimum=best,
        extremal=tuple(sorted(forms)),
        iso_classes=len(forms),
        reference=f"cyclic-construction{ref_comp.sizes}",
        reference_value=ref_value,
        reference_attains=attains,
        reference_unique=attains and len(forms) == 1,
        nodes_explored=nodes,
        extra={"labeled_maximizers": len(argmax), "method": method},
    )


# ---------------------------------------------------------------------------
# the subset searches, the square count and the class closing shared by the
# censuses


def _subset_masks(ground: Sequence, groups: Iterable[Iterable]) -> list[int]:
    """One bitmask per group of ground elements; bit i stands for ground[i]."""
    index = {x: i for i, x in enumerate(ground)}
    return [sum(1 << index[x] for x in group) for group in groups]


def _free_subsets(
    ground: Sequence, forbidden: Sequence[int], value: Callable[[list], int]
) -> tuple[int, list[list], int]:
    """Best ``value`` over the subsets of ``ground`` containing no forbidden mask.

    Subsets are walked as bitmasks in increasing order.  Returns the best
    value, the maximizing subsets in mask order (each listed in ground
    order), and the number of subsets scanned, which is the number of free
    subsets.
    """
    best = -1
    argmax: list[list] = []
    scanned = 0
    for mask in range(1 << len(ground)):
        for f in forbidden:
            if mask & f == f:
                break
        else:
            scanned += 1
            subset = [x for i, x in enumerate(ground) if mask >> i & 1]
            v = value(subset)
            if v > best:
                best, argmax = v, [subset]
            elif v == best:
                argmax.append(subset)
    return best, argmax, scanned


def _max_free_subsets(
    ground: Sequence, forbidden: Sequence[int], groups: Sequence[int], floor: int
) -> tuple[int, list[list], int]:
    """Every subset of ``ground`` containing no forbidden mask whose
    :func:`_square_sum` over ``groups`` is largest, by branch and bound over
    the covers of the forbidden masks.

    Every element must lie in some group, so that the value strictly rises
    when an element is added and every maximizer is a maximal free subset.
    The search starts from the whole ground set and branches on the first
    forbidden mask the current set still contains: the i-th branch drops
    the i-th unpinned member of that mask and pins the members before it.
    The branches are disjoint and every maximal free subset is a leaf, so
    each is found once.  A node is cut when its own value, which bounds
    every subset below it, is under the best so far.  ``floor`` is a value
    that some free subset attains; it seeds the best.

    Each node carries what its parent established: its value, the parent's
    less the drop of the element it lost, and where its scan of
    ``forbidden`` starts, just past the parent's branching mask, since a
    subset contains none of the masks its superset does not contain.

    Returns the best value, the maximizing subsets (each listed in ground
    order) and the number of nodes visited.
    """
    whole = (1 << len(ground)) - 1
    value, drop = _square_sum(groups, len(ground))
    best, argmax, nodes = floor, [], 0
    stack = [(whole, 0, value, 0)]  # (current set, pinned members, value, scan start)
    pop, push = stack.pop, stack.append
    count = len(forbidden)
    while stack:
        mask, pinned, v, j = pop()
        nodes += 1
        if v < best:
            continue
        while j < count:
            f = forbidden[j]
            j += 1
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
            push((mask ^ bit, pinned, v - drop(mask, bit), j))
            pinned |= bit
            branch ^= bit
    assert argmax, f"no free subset reaches the floor {floor}"
    return best, [[x for i, x in enumerate(ground) if m >> i & 1] for m in argmax], nodes


def _square_sum(groups: Sequence[int], size: int) -> tuple[int, Callable[[int, int], int]]:
    """The sum, over the group masks, of the squared number of a subset's
    elements in each group: codegree squares over per-pair triple masks,
    degree squares over per-vertex pair masks, the element count over
    one-element masks.

    Returns the value of the whole set of ``size`` elements, counted in
    full, and the drop ``drop(mask, bit)``: removing the element ``bit``
    from ``mask`` lowers each group g holding it from d = |mask & g| to
    d - 1 squared, so the value falls by the sum of 2d - 1 over those groups.
    """
    whole = (1 << size) - 1
    total = 0
    for g in groups:
        d = (whole & g).bit_count()
        total += d * d
    holders = {1 << i: [g for g in groups if g >> i & 1] for i in range(size)}

    def drop(mask: int, bit: int) -> int:
        fall = 0
        for g in holders[bit]:
            fall += 2 * (mask & g).bit_count() - 1
        return fall

    return total, drop


def _classes(argmax: list, canonical: Callable, group_order: int) -> set:
    """The classes of the labelled maximizers ``argmax`` under a symmetry
    group of the search, of order ``group_order``.

    ``canonical(edges)`` returns the class's form and its tie count, the
    order of the stabilizer of ``edges`` in the group.  ``argmax`` holds every
    labelled maximizer, a set closed under the group, so it is covered once
    the orbits found, group_order/ties graphs each, sum to its size; only one
    maximizer per class is canonicalized.  A maximizer the search dropped
    breaks that sum unless its whole orbit was dropped, so the group should
    fix no maximizer.
    """
    forms, covered = set(), 0
    for edges in argmax:
        if covered >= len(argmax):
            break
        form, ties = canonical(edges)
        if form not in forms:
            forms.add(form)
            covered += group_order // ties
    assert covered == len(argmax), f"{len(argmax)} labelled maximizers, orbits cover {covered}"
    return forms


def _three_parts(n: int) -> list[list[int]]:
    """The three parts of size n: 0..n-1, n..2n-1 and 2n..3n-1."""
    return [list(range(i * n, (i + 1) * n)) for i in range(3)]


# part p to part map[p], the three rotations first: rotating the parts keeps
# the cyclic triangles, and every permutation keeps the transversal ones
PART_PERMUTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2))
ROTATIONS = PART_PERMUTATIONS[:3]


def _colored_canonical(edges: Sequence[tuple[int, int]], n: int, maps: Sequence[tuple]) -> tuple:
    """The class of a pair list on three parts of size n under the part
    ``maps`` and the color-preserving relabelings, and its tie count.  The
    class is the sorted tuple of the color-preserving forms of the list's
    images; the ties are the form's own ties once per image sharing it."""
    parts = _three_parts(n)
    images = []
    for m in maps:
        moved = [(m[a // n] * n + a % n, m[b // n] * n + b % n) for a, b in edges]
        images.append(least_relabeling(3 * n, moved, parts))
    form, _, ties = images[0]
    return tuple(sorted({f for f, _, _ in images})), ties * sum(f == form for f, _, _ in images)


# ---------------------------------------------------------------------------
# colored Mantel census


def census_colored_mantel(n: int, objective: str = "edges", mode: str = "auto") -> CensusReport:
    """Maximum edges or degree-square sum over cyclically triangle-free
    colored graphs with all three parts of size n.

    exhaustive (3n <= 8): :func:`_max_free_subsets` over the cyclic-triangle
    masks, floored at Lambda(n, n, n); :func:`_classes` closes the classes
    under the color-preserving relabelings and the rotations of the parts.
    assisted: exact optimization over locally symmetrized blow-up
    structures with at most ``MANTEL_CLASS_CAP`` classes (plus the three
    rotations of the reference's class profile, so the reference is always
    inside the search space).  The symmetrization reduction is proved for
    the edge objective; for the degree-square objective the assisted optimum
    is reported as a lower bound only.
    """
    if objective not in ("edges", "l2"):
        raise InvalidArgument("objective must be 'edges' or 'l2'")
    if mode == "auto":
        mode = "exhaustive" if n <= MANTEL_EXHAUSTIVE_CAP else "assisted"
    if mode == "exhaustive":
        if n > MANTEL_EXHAUSTIVE_CAP:
            raise SizeLimitExceeded(
                f"exhaustive colored census capped at part size {MANTEL_EXHAUSTIVE_CAP}"
            )
        return _mantel_exhaustive(n, objective)
    if mode == "assisted":
        if n < 1:
            raise InvalidArgument(f"assisted colored census needs part size at least 1, got {n}")
        return _mantel_assisted(n, objective)
    raise InvalidArgument(f"unknown mode {mode!r}")


def _mantel_exhaustive(n: int, objective: str) -> CensusReport:
    big_n = 3 * n
    pairs = list(itertools.combinations(range(big_n), 2))
    color = [1] * n + [2] * n + [3] * n
    cyclic = _subset_masks(pairs, (itertools.combinations(t, 2) for t in cyclic_triples(color)))
    if objective == "edges":
        groups = [1 << i for i in range(len(pairs))]
    else:
        groups = _subset_masks(pairs, ([p for p in pairs if v in p] for v in range(big_n)))
    best, argmax, nodes = _max_free_subsets(pairs, cyclic, groups, _lambda_value(n, objective))
    order = len(ROTATIONS) * math.factorial(n) ** 3
    rotated = _classes(argmax, lambda edges: _colored_canonical(edges, n, ROTATIONS), order)
    forms = set().union(*rotated)
    extra = {
        "labeled_maximizers": len(argmax),
        "iso_classes_rotation_quotient": len(rotated),
        "method": "exhaustive",
    }
    return _mantel_report(n, objective, best, forms, nodes, extra)


def _lambda_value(n: int, objective: str) -> int:
    """Edges or degree-square sum of Lambda(n, n, n), the Mantel reference."""
    lam = build_lambda(n, n, n).graph
    return len(lam.edges) if objective == "edges" else graph_l2_norm(lam)


def _mantel_report(
    n: int, objective: str, optimum: int, forms, nodes: int, extra: dict
) -> CensusReport:
    """The report of either Mantel mode, compared against Lambda(n, n, n).

    For the edge objective ``extra`` also gets the edge bound 5n^2/2 + 5n
    and whether the optimum stays within it."""
    reference = _lambda_value(n, objective)
    if objective == "edges":
        edge_bound = Fraction(5 * n * n, 2) + 5 * n
        extra["edge_bound"] = edge_bound
        extra["edge_bound_holds"] = optimum <= edge_bound
    attains = reference == optimum
    return CensusReport(
        n=n,
        objective=f"mantel-{objective}",
        optimum=optimum,
        extremal=tuple(sorted(forms)),
        iso_classes=len(forms),
        reference=f"lambda({n},{n},{n})",
        reference_value=reference,
        reference_attains=attains,
        reference_unique=attains and len(forms) == 1,
        nodes_explored=nodes,
        extra=extra,
    )


def _positive_compositions(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _positive_compositions(n - first, k - 1):
            yield (first,) + rest


def _mantel_assisted(n: int, objective: str) -> CensusReport:
    classes = range(1, MANTEL_CLASS_CAP + 1)
    profiles = {
        (k1, k2, k3)
        for k1 in classes
        for k2 in classes
        for k3 in classes
        if k1 + k2 + k3 <= MANTEL_CLASS_CAP
    }
    profiles |= {(1, 1, n), (1, n, 1), (n, 1, 1)}
    best = -1
    best_desc: Optional[dict] = None
    nodes = 0
    for k1, k2, k3 in sorted(profiles):
        in_maps_2 = itertools.product(range(k1 + 1), repeat=k2)  # 0 = no in-class
        for phi2 in in_maps_2:
            for phi3 in itertools.product(range(k2 + 1), repeat=k3):
                for phi1 in itertools.product(range(k3 + 1), repeat=k1):
                    # forbid the directed class triangle
                    cyclic = any(
                        phi2[b] == a + 1 and phi1[a] == c + 1 and phi3[c] == b + 1
                        for a in range(k1)
                        for b in range(k2)
                        for c in range(k3)
                    )
                    if cyclic:
                        continue
                    for sizes1 in _positive_compositions(n, k1):
                        for sizes2 in _positive_compositions(n, k2):
                            for sizes3 in _positive_compositions(n, k3):
                                nodes += 1
                                value = _blowup_value(
                                    objective,
                                    n,
                                    (sizes1, sizes2, sizes3),
                                    (phi1, phi2, phi3),
                                )
                                if value > best:
                                    best = value
                                    best_desc = {
                                        "class_sizes": [
                                            list(sizes1),
                                            list(sizes2),
                                            list(sizes3),
                                        ],
                                        "in_maps": [
                                            list(phi1),
                                            list(phi2),
                                            list(phi3),
                                        ],
                                    }
    extra = {
        "method": "assisted",
        "class_cap": MANTEL_CLASS_CAP,
        "search_space": "locally symmetrized blow-ups",
        "reduction_proved_for_objective": objective == "edges",
        "argmax_structure": best_desc,
    }
    return _mantel_report(n, objective, best, (), nodes, extra)


def _blowup_value(objective, n, sizes, phis) -> int:
    """Edges or degree-square sum of the blow-up with these class sizes and
    in-maps, from one degree pass: each class is independent, distinct classes
    of one part are joined completely, and class j of part i is joined
    completely to its in-class phi_i[j] in part i - 1 (0 means none)."""
    # class c of part i receives out-edges from the classes of part i + 1
    # whose in-class is c
    outs = [[0] * len(part_sizes) for part_sizes in sizes]
    for i in (0, 1, 2):
        below, part_sizes = outs[i - 1], sizes[i]
        for j, target in enumerate(phis[i]):
            if target:
                below[target - 1] += part_sizes[j]
    degree_sum = square_sum = 0
    for i in (0, 1, 2):
        phi, out, prev_sizes = phis[i], outs[i], sizes[i - 1]
        for j, size in enumerate(sizes[i]):
            deg = n - size + out[j] + (prev_sizes[phi[j] - 1] if phi[j] else 0)
            weighted = size * deg
            degree_sum += weighted
            square_sum += weighted * deg
    return degree_sum // 2 if objective == "edges" else square_sum


# ---------------------------------------------------------------------------
# tripartite triangle-free census


def _split_forms(n: int) -> set[frozenset]:
    """Edge sets of the split template: for each part and each subset of it,
    every cross pair between the subset together with the next part and the
    rest of the part together with the part after."""
    parts = [set(p) for p in _three_parts(n)]
    forms = set()
    for i, part in enumerate(parts):
        for r in range(n + 1):
            for subset in map(set, itertools.combinations(part, r)):
                side_a, side_b = subset | parts[i - 2], part - subset | parts[i - 1]
                pairs = ((min(u, v), max(u, v)) for u in side_a for v in side_b)
                forms.add(frozenset((a, b) for a, b in pairs if a // n != b // n))
    return forms


def _tripartite_ground(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The cross pairs of three parts of size n, and the mask of each
    transversal triangle's three pairs."""
    cross = [(a, b) for a, b in itertools.combinations(range(3 * n), 2) if a // n != b // n]
    transversal = _subset_masks(
        cross, (itertools.combinations(t, 2) for t in itertools.product(*_three_parts(n)))
    )
    return cross, transversal


def census_tripartite_triangle_free(n: int) -> CensusReport:
    """Maximum edges of a triangle-free tripartite graph with parts of size n.

    :func:`_max_free_subsets` over the transversal-triangle masks, floored at
    the split template's 2n^2 edges; :func:`_classes` closes the classes under
    the relabelings inside the parts and the permutations of the parts.  All
    maximizers are checked against the split-bipartite template; a failure
    to match is emitted as a witness.
    """
    if n > TRIPARTITE_CAP:
        raise SizeLimitExceeded(f"tripartite census capped at part size {TRIPARTITE_CAP}")
    if n < 0:
        raise VertexOutOfRange("vertex count must be nonnegative")
    cross, transversal = _tripartite_ground(n)
    singletons = [1 << i for i in range(len(cross))]
    optimum, argmax, nodes = _max_free_subsets(cross, transversal, singletons, 2 * n * n)
    split = _split_forms(n)
    mismatches = [edges for edges in argmax if frozenset(edges) not in split]
    order = len(PART_PERMUTATIONS) * math.factorial(n) ** 3
    classes = _classes(argmax, lambda edges: _colored_canonical(edges, n, PART_PERMUTATIONS), order)
    forms = set().union(*classes)
    slack_bound = 2 * n * n + n
    return CensusReport(
        n=n,
        objective="tripartite-edges",
        optimum=optimum,
        extremal=tuple(sorted(forms)),
        iso_classes=len(forms),
        reference="two-sided-complete-split",
        reference_value=2 * n * n,
        reference_attains=optimum >= 2 * n * n,
        reference_unique=False,
        nodes_explored=nodes,
        extra={
            "labeled_maximizers": len(argmax),
            "all_match_split_form": not mismatches,
            "mismatch_witnesses": mismatches[:3],
            "within_slack_bound": optimum <= slack_bound,
            "slack_bound": slack_bound,
        },
    )
