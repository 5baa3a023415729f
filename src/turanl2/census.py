"""Exhaustive, isomorph-free extremal searches at desk scale.

Three engines: the tetrahedron-free l2 maximum over 3-graphs (canonical
augmentation with sound branch-and-bound pruning, plus a naive full scan for
cross-validation at tiny n), the colored Mantel maximum over cyclically
triangle-free colored graphs (bitmask scan, plus a symmetrization-assisted
structure search), and the tripartite triangle-free edge maximum.

Census outcomes at these sizes are data: reference constructions are
compared against, and uniqueness flags are reported, never asserted as
general theorems.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .colored import ColoredGraph, build_lambda, graph_l2_norm
from .constructions import (
    Composition3,
    Partition3,
    build_c,
    c_l2_closed,
    compositions_of,
    cyclic_triples,
)
from .errors import SizeLimitExceeded, TuranL2Error
from .hypergraph import (
    ThreeGraph,
    all_triples,
    canonical_form,
    canonical_form_pairs,
    completes_k43,
    contains_k43,
    l2_norm,
    make_pair_graph,
)

K43_CENSUS_CAP = 8
K43_NAIVE_CAP = 5
MANTEL_EXHAUSTIVE_CAP = 2  # part size; 3n <= 8
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
    wall_time: float
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        # wall_time deliberately omitted: reports must be byte-identical
        # across runs of the same configuration.
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
    best = Fraction(-1)
    arg = Composition3(n, 0, 0)
    for c in compositions_of(n):
        v = c_l2_closed(c)
        if v > best:
            best, arg = v, c
    assert best.denominator == 1
    return int(best), arg


def census_k43(
    n: int, method: str = "canonical", cap: int = K43_CENSUS_CAP
) -> CensusReport:
    """Exact maximum l2 norm over tetrahedron-free 3-graphs on n vertices.

    canonical: isomorph-free growth by single edges with canonical-form
    deduplication; a node is cut when its sound upper bound (current l2 plus
    per-edge gain 6n-15 for each still-addable triple) cannot reach the best
    value seen.  Every optimum-achieving class survives pruning because the
    bound dominates every descendant's value.

    naive: scan all edge subsets (for cross-validation; n <= 5).
    """
    if method == "naive":
        if n > K43_NAIVE_CAP:
            raise SizeLimitExceeded(f"naive scan capped at {K43_NAIVE_CAP} vertices")
        return _census_k43_naive(n)
    if method != "canonical":
        raise ValueError(f"unknown method {method!r}")
    if n > cap:
        raise SizeLimitExceeded(f"census capped at {cap} vertices, got {n}")
    return _census_k43_canonical(n)


def _k43_report(
    n: int, optimum: int, forms: set, nodes: int, t0: float, extra: dict
) -> CensusReport:
    ref_value, ref_comp = best_construction_value(n)
    ref_h, _ = build_c(ref_comp)
    attains = ref_value == optimum
    unique = attains and len(forms) == 1
    if attains:
        assert canonical_form(ref_h)[0] in forms
    return CensusReport(
        n=n,
        objective="k43-l2",
        optimum=optimum,
        extremal=tuple(sorted(forms)),
        iso_classes=len(forms),
        reference=f"cyclic-construction{ref_comp.sizes}",
        reference_value=ref_value,
        reference_attains=attains,
        reference_unique=unique,
        nodes_explored=nodes,
        wall_time=time.monotonic() - t0,
        extra=extra,
    )


def _census_k43_naive(n: int) -> CensusReport:
    t0 = time.monotonic()
    triples = all_triples(n)
    best = -1
    argmax: list[ThreeGraph] = []
    nodes = 0
    for mask in range(1 << len(triples)):
        edges = [t for i, t in enumerate(triples) if mask >> i & 1]
        h = ThreeGraph(n, edges, _normalized=True)
        if contains_k43(h):
            continue
        nodes += 1
        v = l2_norm(h)
        if v > best:
            best = v
            argmax = [h]
        elif v == best:
            argmax.append(h)
    forms = {canonical_form(h)[0] for h in argmax}
    return _k43_report(
        n, best, forms, nodes, t0, {"labeled_maximizers": len(argmax), "method": "naive"}
    )


def _census_k43_canonical(n: int) -> CensusReport:
    t0 = time.monotonic()
    gain_bound = max(6 * n - 15, 3)
    ref_value, _ = best_construction_value(n)
    best = ref_value  # sound initial lower bound: the construction is K43-free
    best_forms: set = set()
    nodes = 0

    empty = ThreeGraph(n, (), _normalized=True)
    root_form = ()
    root_addable = tuple(all_triples(n))
    if l2_norm(empty) == best:  # only when the reference is empty (n < 3)
        best_forms.add(root_form)
    visited = {root_form}
    frontier: list[tuple[tuple, tuple]] = [(root_form, root_addable)]
    maximal_classes = 0

    while frontier:
        next_frontier: list[tuple[tuple, tuple]] = []
        for edges, addable in frontier:
            nodes += 1
            if not addable:
                maximal_classes += 1
            h = ThreeGraph(n, edges, _normalized=True)
            cur = l2_norm(h)
            for t in addable:
                child_h = h.with_changes(add=(t,))
                child_l2 = l2_norm(child_h)
                # quick sound bound before paying for canonicalization
                if child_l2 + (len(addable) - 1) * gain_bound < best:
                    continue
                form, _ = canonical_form(child_h)
                if form in visited:
                    continue
                visited.add(form)
                canon_h = ThreeGraph(n, form, _normalized=True)
                child_addable = tuple(
                    s
                    for s in all_triples(n)
                    if s not in canon_h.edge_set and not completes_k43(canon_h, s)
                )
                bound = child_l2 + len(child_addable) * gain_bound
                if child_l2 > best:
                    best = child_l2
                    best_forms = {form}
                elif child_l2 == best:
                    best_forms.add(form)
                if bound >= best:
                    next_frontier.append((form, child_addable))
        frontier = next_frontier

    if not best_forms:
        # the optimum equals the initial reference bound but was tracked only
        # via equality hits; rebuild the form set from the reference
        ref_h, _ = build_c(best_construction_value(n)[1])
        best_forms = {canonical_form(ref_h)[0]}
    return _k43_report(
        n,
        best,
        best_forms,
        nodes,
        t0,
        {"maximal_classes": maximal_classes, "method": "canonical"},
    )


# ---------------------------------------------------------------------------
# colored Mantel census


def _mantel_setup(n: int):
    big_n = 3 * n
    color = [1] * n + [2] * n + [3] * n
    pairs = list(itertools.combinations(range(big_n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    cyclic_masks = [
        1 << pair_index[(a, b)] | 1 << pair_index[(a, c)] | 1 << pair_index[(b, c)]
        for a, b, c in cyclic_triples(color)
    ]
    return big_n, color, pairs, cyclic_masks


def _mask_to_colored(mask: int, n: int, pairs) -> ColoredGraph:
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    g = make_pair_graph(3 * n, edges)
    return ColoredGraph(g, Partition3.from_sizes(n, n, n))


def _colored_canonical(cg: ColoredGraph, rotate: bool) -> tuple:
    """Canonical pair list under color-preserving relabelings; with ``rotate``
    also minimized over the three cyclic rotations of the part pattern."""
    n = cg.n // 3
    groups = [list(range(0, n)), list(range(n, 2 * n)), list(range(2 * n, 3 * n))]
    variants = [cg.graph]
    if rotate:
        shift = {v: (v + n) % (3 * n) for v in range(3 * n)}
        g = cg.graph
        for _ in range(2):
            g = make_pair_graph(
                3 * n, [tuple(sorted((shift[a], shift[b]))) for a, b in g.edges]
            )
            variants.append(g)
    return min(canonical_form_pairs(g, groups) for g in variants)


def census_colored_mantel(
    n: int,
    objective: str = "edges",
    mode: str = "auto",
    class_cap: int = 6,
) -> CensusReport:
    """Maximum edges or degree-square sum over cyclically triangle-free
    colored graphs with all three parts of size n.

    exhaustive (3n <= 8): full bitmask scan.  assisted: exact optimization
    over locally symmetrized blow-up structures with at most ``class_cap``
    classes (plus the three rotations of the reference's class profile, so
    the reference is always inside the search space).  The symmetrization
    reduction is proved for the edge objective; for the degree-square
    objective the assisted optimum is reported as a lower bound only.
    """
    if objective not in ("edges", "l2"):
        raise ValueError("objective must be 'edges' or 'l2'")
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
            raise TuranL2Error(f"assisted colored census needs part size at least 1, got {n}")
        return _mantel_assisted(n, objective, class_cap)
    raise ValueError(f"unknown mode {mode!r}")


def _lambda_value(n: int, objective: str) -> int:
    lam = build_lambda(n, n, n)
    return len(lam.graph.edges) if objective == "edges" else graph_l2_norm(lam.graph)


def _mantel_exhaustive(n: int, objective: str) -> CensusReport:
    t0 = time.monotonic()
    big_n, color, pairs, cyclic_masks = _mantel_setup(n)
    best = -1
    argmax_masks: list[int] = []
    nodes = 0
    for mask in range(1 << len(pairs)):
        ok = True
        for m in cyclic_masks:
            if mask & m == m:
                ok = False
                break
        if not ok:
            continue
        nodes += 1
        if objective == "edges":
            value = bin(mask).count("1")
        else:
            deg = [0] * big_n
            rest = mask
            i = 0
            while rest:
                if rest & 1:
                    u, v = pairs[i]
                    deg[u] += 1
                    deg[v] += 1
                rest >>= 1
                i += 1
            value = sum(d * d for d in deg)
        if value > best:
            best = value
            argmax_masks = [mask]
        elif value == best:
            argmax_masks.append(mask)

    colored = [_mask_to_colored(m, n, pairs) for m in argmax_masks]
    forms = {_colored_canonical(cg, rotate=False) for cg in colored}
    rotated = {_colored_canonical(cg, rotate=True) for cg in colored}
    ref = _lambda_value(n, objective)
    edge_cap = Fraction(5 * n * n, 2) + 5 * n
    extra = {
        "labeled_maximizers": len(argmax_masks),
        "iso_classes_rotation_quotient": len(rotated),
        "method": "exhaustive",
    }
    if objective == "edges":
        extra["edge_bound"] = edge_cap
        extra["edge_bound_holds"] = Fraction(best) <= edge_cap
    optimum_forms = tuple(sorted(forms))
    return CensusReport(
        n=n,
        objective=f"mantel-{objective}",
        optimum=best,
        extremal=optimum_forms,
        iso_classes=len(forms),
        reference=f"lambda({n},{n},{n})",
        reference_value=ref,
        reference_attains=ref == best,
        reference_unique=ref == best and len(forms) == 1,
        nodes_explored=nodes,
        wall_time=time.monotonic() - t0,
        extra=extra,
    )


def _positive_compositions(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _positive_compositions(n - first, k - 1):
            yield (first,) + rest


def _mantel_assisted(n: int, objective: str, class_cap: int) -> CensusReport:
    t0 = time.monotonic()
    profiles = {
        (k1, k2, k3)
        for k1 in range(1, class_cap + 1)
        for k2 in range(1, class_cap + 1)
        for k3 in range(1, class_cap + 1)
        if k1 + k2 + k3 <= class_cap
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
    ref = _lambda_value(n, objective)
    edge_cap = Fraction(5 * n * n, 2) + 5 * n
    extra = {
        "method": "assisted",
        "class_cap": class_cap,
        "search_space": "locally symmetrized blow-ups",
        "reduction_proved_for_objective": objective == "edges",
        "argmax_structure": best_desc,
    }
    if objective == "edges":
        extra["edge_bound"] = edge_cap
        extra["edge_bound_holds"] = Fraction(best) <= edge_cap
    return CensusReport(
        n=n,
        objective=f"mantel-{objective}",
        optimum=best,
        extremal=(),
        iso_classes=0,
        reference=f"lambda({n},{n},{n})",
        reference_value=ref,
        reference_attains=ref == best,
        reference_unique=False,
        nodes_explored=nodes,
        wall_time=time.monotonic() - t0,
        extra=extra,
    )


def _blowup_value(objective, n, sizes, phis) -> int:
    sizes1, sizes2, sizes3 = sizes
    phi1, phi2, phi3 = phis
    parts = (sizes1, sizes2, sizes3)
    if objective == "edges":
        total = 0
        for part_sizes in parts:
            total += n * (n - 1) // 2 - sum(a * (a - 1) // 2 for a in part_sizes)
        for idx, phi, prev in ((1, phi2, sizes1), (2, phi3, sizes2), (0, phi1, sizes3)):
            cur = parts[idx]
            for j, target in enumerate(phi):
                if target:
                    total += cur[j] * prev[target - 1]
        return total
    # degree-square sum
    outs: list[list[int]] = [
        [0] * len(sizes1),
        [0] * len(sizes2),
        [0] * len(sizes3),
    ]
    # out-degree contributions: class c in part i receives from classes in
    # part i+1 whose in-class is c
    for j, target in enumerate(phi2):
        if target:
            outs[0][target - 1] += sizes2[j]
    for j, target in enumerate(phi3):
        if target:
            outs[1][target - 1] += sizes3[j]
    for j, target in enumerate(phi1):
        if target:
            outs[2][target - 1] += sizes1[j]
    total = 0
    for i, (part_sizes, phi, prev_sizes) in enumerate(
        ((sizes1, phi1, sizes3), (sizes2, phi2, sizes1), (sizes3, phi3, sizes2))
    ):
        for j, size in enumerate(part_sizes):
            internal = n - size
            inward = prev_sizes[phi[j] - 1] if phi[j] else 0
            deg = internal + inward + outs[i][j]
            total += size * deg * deg
    return total


# ---------------------------------------------------------------------------
# tripartite triangle-free census


def _tripartite_setup(n: int):
    parts = [list(range(0, n)), list(range(n, 2 * n)), list(range(2 * n, 3 * n))]
    cross = []
    for i in range(3):
        for j in range(i + 1, 3):
            cross.extend(tuple(sorted(p)) for p in itertools.product(parts[i], parts[j]))
    cross = sorted(set(cross))
    return parts, cross


def _split_form_edges(n: int, i: int, subset: frozenset[int]) -> frozenset:
    """Cross-part edges of the split template: one side is the subset of part
    i together with part i+1, the other side is the rest of part i together
    with part i+2."""
    parts = [set(range(0, n)), set(range(n, 2 * n)), set(range(2 * n, 3 * n))]
    pi = parts[i - 1]
    side_a = set(subset) | parts[i % 3]
    side_b = (pi - set(subset)) | parts[(i + 1) % 3]
    edges = set()
    for u in side_a:
        for v in side_b:
            if {u, v} <= pi:
                continue  # not a legal pair of the tripartite graph
            edges.add(tuple(sorted((u, v))))
    return frozenset(edges)


def _matches_split_form(n: int, edges: frozenset) -> Optional[tuple[int, tuple]]:
    for i in (1, 2, 3):
        base = list(range((i - 1) * n, i * n))
        for r in range(n + 1):
            for subset in itertools.combinations(base, r):
                if _split_form_edges(n, i, frozenset(subset)) == edges:
                    return i, subset
    return None


def census_tripartite_triangle_free(n: int, cap: int = TRIPARTITE_CAP) -> CensusReport:
    """Maximum edges of a triangle-free tripartite graph with parts of size n.

    Part sizes 1 and 2 scan all subgraphs; part size 3 uses an exact
    decomposition: fix the bipartite graph between the first two parts, then
    every third-part vertex independently attaches to a maximum independent
    set of it.  All maximizers are checked against the split-bipartite
    template; a failure to match is emitted as a witness.
    """
    if n > cap:
        raise SizeLimitExceeded(f"tripartite census capped at part size {cap}")
    t0 = time.monotonic()
    parts, cross = _tripartite_setup(n)
    if n <= 2:
        optimum, maximizers, nodes = _tripartite_scan(n, parts, cross)
    else:
        optimum, maximizers, nodes = _tripartite_decompose(n, parts)
    mismatches = []
    for edges in maximizers:
        if _matches_split_form(n, edges) is None:
            mismatches.append(sorted(edges))
    forms = {
        canonical_form_pairs(
            make_pair_graph(3 * n, sorted(edges)), [parts[0], parts[1], parts[2]]
        )
        for edges in maximizers
    }
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
        wall_time=time.monotonic() - t0,
        extra={
            "labeled_maximizers": len(maximizers),
            "all_match_split_form": not mismatches,
            "mismatch_witnesses": mismatches[:3],
            "within_slack_bound": optimum <= slack_bound,
            "slack_bound": slack_bound,
        },
    )


def _tripartite_scan(n, parts, cross):
    tri_masks = []
    pair_index = {p: i for i, p in enumerate(cross)}
    for a in parts[0]:
        for b in parts[1]:
            for c in parts[2]:
                tri_masks.append(
                    1 << pair_index[(a, b)]
                    | 1 << pair_index[(a, c)]
                    | 1 << pair_index[(b, c)]
                )
    best = -1
    argmax: list[frozenset] = []
    nodes = 0
    for mask in range(1 << len(cross)):
        ok = True
        for m in tri_masks:
            if mask & m == m:
                ok = False
                break
        if not ok:
            continue
        nodes += 1
        e = bin(mask).count("1")
        if e > best:
            best = e
            argmax = [mask]
        elif e == best:
            argmax.append(mask)
    maximizers = [
        frozenset(p for i, p in enumerate(cross) if mask >> i & 1) for mask in argmax
    ]
    return best, maximizers, nodes


def _tripartite_decompose(n, parts):
    u12 = [tuple(sorted(p)) for p in itertools.product(parts[0], parts[1])]
    ground = parts[0] + parts[1]
    best = -1
    argmax: list[tuple[frozenset, tuple]] = []
    nodes = 0
    for mask in range(1 << len(u12)):
        nodes += 1
        g12 = [p for i, p in enumerate(u12) if mask >> i & 1]
        g12_set = set(g12)
        independent = []
        for r in range(len(ground), -1, -1):
            for cand in itertools.combinations(ground, r):
                cs = set(cand)
                if not any(a in cs and b in cs for a, b in g12_set):
                    independent.append(cand)
            if independent:
                break
        alpha = len(independent[0]) if independent else 0
        total = len(g12) + n * alpha
        if total > best:
            best = total
            argmax = [(frozenset(g12), tuple(independent))]
        elif total == best:
            argmax.append((frozenset(g12), tuple(independent)))
    maximizers = []
    for g12, mis_list in argmax:
        for choice in itertools.product(mis_list, repeat=n):
            edges = set(g12)
            for idx, nbhd in enumerate(choice):
                w = parts[2][idx]
                for u in nbhd:
                    edges.add(tuple(sorted((u, w))))
            maximizers.append(frozenset(edges))
    return best, maximizers, nodes
