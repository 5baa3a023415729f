"""Vertex-colored (3-partitioned) 2-graphs.

Covers the cyclic-triangle scan, the Lambda construction, Zykov-style
symmetrization to a locally symmetrized fixpoint, the structural fact
checkers that fixpoint satisfies, and the mixed directed view whose
minimum directed cycles those facts inspect.

Parts are numbered 1, 2, 3 and all part arithmetic is cyclic (after 3 comes
1).  A triangle on colors (i, i, i+1) or (1, 2, 3) is "cyclic"; a colored
graph is cyclically triangle-free when it has no such triangle.  The part
labels, ``Partition3`` and the cyclic types are those of the construction
model in ``constructions``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .constructions import CYCLIC_TABLE, Partition3, next_part, prev_part
from .errors import NotLocallySymmetrized, PartitionMismatch
from .hypergraph import Graph, make_pair_graph


class ColoredGraph:
    """A 2-graph together with a 3-partition of its vertex set."""

    __slots__ = ("graph", "partition")

    def __init__(self, graph: Graph, partition: Partition3):
        if partition.n != graph.n:
            raise PartitionMismatch(
                f"partition covers {partition.n} vertices, graph has {graph.n}"
            )
        self.graph = graph
        self.partition = partition

    @property
    def n(self) -> int:
        return self.graph.n

    def with_graph(self, graph: Graph) -> "ColoredGraph":
        return ColoredGraph(graph, self.partition)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredGraph)
            and self.graph == other.graph
            and self.partition == other.partition
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.partition))

    def __repr__(self) -> str:
        return f"ColoredGraph(n={self.n}, m={len(self.graph.edges)}, sizes={self.partition.sizes})"


@dataclass(frozen=True)
class EquivalenceClasses:
    """Same-part, same-neighborhood vertex classes."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    def class_members(self, v: int) -> tuple[int, ...]:
        return self.classes[self.class_of[v]]


def _cyclic_triangle_scan(cg: ColoredGraph) -> Iterator[tuple[int, int, int]]:
    g = cg.graph
    adj = g.adjacency()
    parts = cg.partition.parts
    for a, b in g.edges:
        row = 9 * parts[a] + 3 * parts[b] - 13
        for w in adj[a] & adj[b]:
            if w > b and CYCLIC_TABLE[row + parts[w]]:
                yield (a, b, w)


def cyclic_triangles(cg: ColoredGraph) -> list[tuple[int, int, int]]:
    """All triangles whose color multiset is one of the four cyclic types."""
    return list(_cyclic_triangle_scan(cg))


def is_cyclic_triangle_free(cg: ColoredGraph) -> bool:
    """Direct scan that stops at the first cyclic triangle; no division,
    defined for every vertex count."""
    return next(_cyclic_triangle_scan(cg), None) is None


def build_lambda(n1: int, n2: int, n3: int) -> ColoredGraph:
    """All part-1/part-2 pairs, all part-2/part-3 pairs, all pairs inside part 3."""
    partition = Partition3.from_sizes(n1, n2, n3)
    v1 = range(0, n1)
    v2 = range(n1, n1 + n2)
    v3 = range(n1 + n2, n1 + n2 + n3)
    edges = [(a, b) for a in v1 for b in v2]
    edges += [(a, b) for a in v2 for b in v3]
    edges += list(itertools.combinations(v3, 2))
    return ColoredGraph(make_pair_graph(n1 + n2 + n3, edges), partition)


def _merge(cg: ColoredGraph, movers: Sequence[int], to_vertex: int) -> ColoredGraph:
    """Replace the incident edges of every mover by {xw : w in N(to_vertex)},
    excluding each mover's self-pair: the one neighborhood rewrite."""
    mover_set = set(movers)
    target = cg.graph.neighbors(to_vertex)
    remove = [e for e in cg.graph.edges if e[0] in mover_set or e[1] in mover_set]
    add = {(x, w) if x < w else (w, x) for x in movers for w in target if w != x}
    return cg.with_graph(cg.graph.with_changes(add=add, remove=remove))


def _neighbors_in_part(cg: ColoredGraph, v: int, part: int) -> frozenset[int]:
    """Neighbors of the valid vertex v inside part ``part``."""
    return cg.graph.adjacency()[v] & cg.partition.part_sets()[part - 1]


def equivalence_classes(cg: ColoredGraph) -> EquivalenceClasses:
    """Group vertices by (part, exact neighborhood).

    Adjacent vertices always land in different classes: each would have to
    contain the other in its own neighborhood, which self-exclusion forbids.
    Classes are ordered by (part, least member) for determinism.
    """
    parts = cg.partition.parts
    adj = cg.graph.adjacency()
    key_to_members: dict[tuple[int, frozenset[int]], list[int]] = {}
    for v in range(cg.n):
        key = (parts[v], adj[v])
        key_to_members.setdefault(key, []).append(v)
    classes = sorted(
        (tuple(sorted(m)) for m in key_to_members.values()),
        key=lambda c: (parts[c[0]], c[0]),
    )
    class_of = [0] * cg.n
    for idx, members in enumerate(classes):
        for v in members:
            class_of[v] = idx
    return EquivalenceClasses(tuple(classes), tuple(class_of))


@dataclass(frozen=True)
class MergeStep:
    part: int
    merged_class: tuple[int, ...]
    target_class: tuple[int, ...]
    edges_before: int
    edges_after: int


def _first_violation(cg: ColoredGraph) -> Optional[tuple[int, int]]:
    sets = cg.partition.part_sets()
    adj = cg.graph.adjacency()
    for i in (1, 2, 3):
        members = sorted(sets[i - 1])
        for u, v in itertools.combinations(members, 2):
            if v not in adj[u] and adj[u] != adj[v]:
                return (u, v)
    return None


def locally_symmetrize(cg: ColoredGraph) -> tuple[ColoredGraph, list[MergeStep]]:
    """Merge inequivalent nonadjacent same-part classes until none remain.

    Each step symmetrizes toward the direction with more edges; ties go to
    the class with the smaller least label.  The edge count never decreases
    and cyclic triangle-freeness is preserved (all merges are nonadjacent).
    Terminates because each merge reduces the number of classes.
    """
    log: list[MergeStep] = []
    current = cg
    while True:
        pair = _first_violation(current)
        if pair is None:
            return current, log
        u, v = pair
        ec = equivalence_classes(current)
        cls_u = ec.class_members(u)
        cls_v = ec.class_members(v)
        deg_u = current.graph.degree(u)
        deg_v = current.graph.degree(v)
        m = len(current.graph.edges)
        to_v_count = m + len(cls_u) * (deg_v - deg_u)
        to_u_count = m + len(cls_v) * (deg_u - deg_v)
        if to_v_count > to_u_count or (to_v_count == to_u_count and cls_u[0] > cls_v[0]):
            movers, target, dst, after = cls_u, cls_v, v, to_v_count
        else:
            movers, target, dst, after = cls_v, cls_u, u, to_u_count
        merged = _merge(current, movers, dst)
        assert len(merged.graph.edges) == after
        log.append(
            MergeStep(
                part=current.partition.parts[u],
                merged_class=movers,
                target_class=target,
                edges_before=m,
                edges_after=after,
            )
        )
        current = merged


@dataclass(frozen=True)
class FactCheck:
    id: str
    passed: bool
    witness: Optional[tuple] = None

    def to_json_dict(self) -> dict:
        d: dict = {"id": self.id, "pass": self.passed}
        if self.witness is not None:
            d["witness"] = list(self.witness)
        return d


@dataclass(frozen=True)
class FactsReport:
    facts: tuple[FactCheck, ...]
    cyclic_triangle_free: bool

    @property
    def all_pass(self) -> bool:
        return all(f.passed for f in self.facts)

    def to_json_dict(self) -> dict:
        return {
            "facts": [f.to_json_dict() for f in self.facts],
            "cyclic_triangle_free": self.cyclic_triangle_free,
            "all_pass": self.all_pass,
        }


def check_symmetrized_facts(
    cg: ColoredGraph, classes: Optional[EquivalenceClasses] = None
) -> FactsReport:
    """Verify the structure a locally symmetrized graph must have.

    Always checked: every class is independent; distinct same-part classes
    span complete bipartite graphs; each vertex's internal neighborhood has
    size |part| - |class|.  If the graph is also cyclically triangle-free:
    every in-neighborhood is empty or one full class; for a directed edge
    (u, v) the in-neighborhood of u and out-neighborhood of v are disjoint;
    and every minimum-length directed cycle avoids repeating a class.

    ``classes`` may be supplied explicitly (e.g. to probe a claimed class
    structure); by default the true equivalence classes are used.
    """
    pair = _first_violation(cg)
    if pair is not None:
        raise NotLocallySymmetrized(f"nonadjacent inequivalent same-part pair: {pair}")
    ec = classes if classes is not None else equivalence_classes(cg)
    adj = cg.graph.adjacency()
    facts: list[FactCheck] = []

    witness = None
    for members in ec.classes:
        for u, v in itertools.combinations(members, 2):
            if v in adj[u]:
                witness = (u, v)
                break
        if witness:
            break
    facts.append(FactCheck("classes-independent", witness is None, witness))

    witness = None
    by_part: dict[int, list[tuple[int, ...]]] = {1: [], 2: [], 3: []}
    parts = cg.partition.parts
    for members in ec.classes:
        by_part[parts[members[0]]].append(members)
    for part_classes in by_part.values():
        for ca, cb in itertools.combinations(part_classes, 2):
            for u in ca:
                for v in cb:
                    if v not in adj[u]:
                        witness = (u, v)
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    facts.append(FactCheck("distinct-class-pairs-complete", witness is None, witness))

    witness = None
    for v in range(cg.n):
        part_size = cg.partition.part_size(parts[v])
        expected = part_size - len(ec.class_members(v))
        internal = len(_neighbors_in_part(cg, v, parts[v]))
        if internal != expected:
            witness = (v, internal, expected)
            break
    facts.append(FactCheck("internal-neighborhood-size", witness is None, witness))

    free = is_cyclic_triangle_free(cg)
    if free:
        witness = None
        for v in range(cg.n):
            inn = _neighbors_in_part(cg, v, prev_part(parts[v]))
            if inn and inn != frozenset(ec.class_members(next(iter(inn)))):
                witness = (v, tuple(sorted(inn)))
                break
        facts.append(FactCheck("in-neighborhood-single-class", witness is None, witness))

        witness = None
        view = DirectedView(cg)
        for u, v in view.directed_edges:
            if _neighbors_in_part(cg, u, prev_part(parts[u])) & _neighbors_in_part(
                cg, v, next_part(parts[v])
            ):
                witness = (u, v)
                break
        facts.append(FactCheck("directed-edge-ends-disjoint", witness is None, witness))

        witness = None
        for cycle in view.minimum_directed_cycles():
            ids = [ec.class_of[x] for x in cycle]
            if len(set(ids)) != len(ids):
                witness = tuple(cycle)
                break
        facts.append(FactCheck("minimum-cycles-class-distinct", witness is None, witness))

    return FactsReport(tuple(facts), free)


class DirectedView:
    """Mixed view of a colored graph: part-i to part-(i+1) edges directed."""

    def __init__(self, cg: ColoredGraph):
        self.cg = cg
        self.out: list[list[int]] = [[] for _ in range(cg.n)]
        edges = []
        parts = cg.partition.parts
        for a, b in cg.graph.edges:
            pa, pb = parts[a], parts[b]
            if pb == next_part(pa):
                self.out[a].append(b)
                edges.append((a, b))
            elif pa == next_part(pb):
                self.out[b].append(a)
                edges.append((b, a))
        for lst in self.out:
            lst.sort()
        self.directed_edges: tuple[tuple[int, int], ...] = tuple(sorted(edges))

    def shortest_directed_cycle(self) -> Optional[list[int]]:
        """A minimum-length directed cycle as a vertex list, or None."""
        best: Optional[list[int]] = None
        for start in range(self.cg.n):
            # BFS over directed edges, looking for a return to start.
            parent: dict[int, int] = {start: -1}
            frontier = [start]
            found = None
            while frontier and found is None:
                nxt = []
                for v in frontier:
                    for w in self.out[v]:
                        if w == start:
                            found = v
                            break
                        if w not in parent:
                            parent[w] = v
                            nxt.append(w)
                    if found is not None:
                        break
                frontier = nxt
            if found is not None:
                cycle = [found]
                while cycle[-1] != start:
                    cycle.append(parent[cycle[-1]])
                cycle.reverse()
                if best is None or len(cycle) < len(best):
                    best = cycle
        return best

    def minimum_directed_cycles(self) -> list[list[int]]:
        """All directed cycles of minimum length (each rotated to start at
        its least vertex, listed once)."""
        shortest = self.shortest_directed_cycle()
        if shortest is None:
            return []
        g = len(shortest)
        found: set[tuple[int, ...]] = set()

        def dfs(path: list[int], on_path: set[int]):
            v = path[-1]
            if len(path) == g:
                if path[0] in self.out[v]:
                    found.add(tuple(path))
                return
            for w in self.out[v]:
                if w > path[0] and w not in on_path:
                    on_path.add(w)
                    path.append(w)
                    dfs(path, on_path)
                    path.pop()
                    on_path.discard(w)

        for start in range(self.cg.n):
            dfs([start], {start})
        return [list(c) for c in sorted(found)]


def random_cyclic_triangle_free(rng, n: int, density: float = 0.5) -> ColoredGraph:
    """Random colored graph made cyclically triangle-free by greedy deletion."""
    parts = Partition3(tuple(rng.choice((1, 2, 3)) for _ in range(n)))
    edges = {
        (a, b)
        for a, b in itertools.combinations(range(n), 2)
        if rng.random() < density
    }
    cg = ColoredGraph(make_pair_graph(n, sorted(edges)), parts)
    while True:
        tris = cyclic_triangles(cg)
        if not tris:
            return cg
        a, b, w = tris[rng.randrange(len(tris))]
        drop = [(a, b), (a, w), (b, w)][rng.randrange(3)]
        drop = tuple(sorted(drop))
        cg = cg.with_graph(cg.graph.with_changes(remove=[drop]))

