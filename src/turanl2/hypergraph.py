"""Exact primitives for 3-uniform hypergraphs.

Vertices are the integers 0..n-1.  Edges are strictly increasing triples kept
in lexicographic order; 2-graphs use strictly increasing pairs.  Every value
computed here is an exact integer.  No floating point enters this module.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from operator import itemgetter, mul
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import DegenerateEdge, SizeLimitExceeded, VertexOutOfRange

Triple = tuple[int, int, int]
Pair = tuple[int, int]

CANONICAL_VERTEX_CAP = 8
FLAT_COUNT_MAX_N = 1024  # above it, n^2 flat codegree counters would not fit in memory


def normalize_triple(t: Sequence[int], n: int) -> Triple:
    if len(t) != 3:
        raise DegenerateEdge(f"a 3-edge needs exactly 3 vertices, got {tuple(t)}")
    a, b, c = sorted(t)
    if a == b or b == c:
        raise DegenerateEdge(f"repeated vertex in edge {tuple(t)}")
    if a < 0 or c >= n:
        raise VertexOutOfRange(f"edge {tuple(t)} does not fit in 0..{n - 1}")
    return (a, b, c)


def normalize_pair(e: Sequence[int], n: int) -> Pair:
    if len(e) != 2:
        raise DegenerateEdge(f"a pair needs exactly 2 vertices, got {tuple(e)}")
    a, b = sorted(e)
    if a == b:
        raise DegenerateEdge(f"repeated vertex in pair {tuple(e)}")
    if a < 0 or b >= n:
        raise VertexOutOfRange(f"pair {tuple(e)} does not fit in 0..{n - 1}")
    return (a, b)


def check_vertex(v: int, n: int) -> int:
    if not 0 <= v < n:
        raise VertexOutOfRange(f"vertex {v} does not fit in 0..{n - 1}")
    return v


class ThreeGraph:
    """An immutable 3-graph: vertex count plus a sorted tuple of 3-edges.

    Construct through :func:`make_graph` (which normalizes input) or from
    another graph's edges.  Membership and codegree tables are built lazily
    and cached, so lookups are O(1) after first use; a graph made by
    :meth:`with_changes` gets its codegree table at once, from its parent's,
    and, when its parent was built directly, remembers its edits from that
    parent (see :meth:`edits_from`).
    """

    __slots__ = ("n", "edges", "_edge_set", "_codegrees", "_edit")

    def __init__(
        self,
        n: int,
        edges: Iterable[Triple],
        *,
        _normalized: bool = False,
        _codegrees: Union[dict[Pair, int], Callable[[], dict[Pair, int]], None] = None,
    ):
        if not _normalized:
            edges = sorted({normalize_triple(t, n) for t in edges})
        self.n = n
        self.edges: tuple[Triple, ...] = tuple(edges)
        self._edge_set: Optional[frozenset[Triple]] = None
        # the codegree table, a function making it on first use, or None to
        # count it on first use
        self._codegrees = _codegrees
        # derivation record: None when built directly, (parent, gained, lost)
        # when derived by with_changes from a directly built parent, () when
        # derived from a derived one, so no graph keeps a grandparent alive
        self._edit: Optional[tuple] = None

    @property
    def edge_set(self) -> frozenset[Triple]:
        if self._edge_set is None:
            self._edge_set = frozenset(self.edges)
        return self._edge_set

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ThreeGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"ThreeGraph(n={self.n}, m={len(self.edges)})"

    def has_edge(self, t: Sequence[int]) -> bool:
        return tuple(sorted(t)) in self.edge_set

    def codegrees(self) -> dict[Pair, int]:
        """Pair -> number of edges containing it (absent pairs have 0)."""
        if self._codegrees is None:
            n = self.n
            if n > FLAT_COUNT_MAX_N:
                self._codegrees = {}
                _move_pairs(self._codegrees, self.edges, 1)
            else:
                flat = [0] * (n * n)
                for a, b, c in self.edges:
                    flat[a * n + b] += 1
                    flat[a * n + c] += 1
                    flat[b * n + c] += 1
                # one pass in C over the counters, keeping the nonzero ones
                cells = itertools.compress(range(n * n), flat)
                pairs = map(divmod, cells, itertools.repeat(n))
                self._codegrees = dict(zip(pairs, filter(None, flat)))
        elif callable(self._codegrees):
            self._codegrees = self._codegrees()
        return self._codegrees

    def degree(self, v: int) -> int:
        check_vertex(v, self.n)
        return sum(1 for t in self.edges if v in t)

    def edits_from(self, parent: "ThreeGraph") -> Optional[tuple[list[Triple], list[Triple]]]:
        """``(gained, lost)``, the sorted effective edits with ``edge_set ==
        (parent.edge_set - lost) | gained``, ``gained`` disjoint from
        ``parent`` and ``lost`` inside it, when this graph was derived by one
        :meth:`with_changes` call from ``parent`` (by identity) and ``parent``
        was built directly; else None.
        """
        edit = self._edit
        return edit[1:] if edit and edit[0] is parent else None

    def with_changes(
        self, add: Iterable[Triple] = (), remove: Iterable[Triple] = ()
    ) -> "ThreeGraph":
        """New graph with the given already-normalized triples added/removed.

        Edits are merged into the sorted edge list; no full re-sort.  The new
        graph's codegree table is a copy of this one's with the three pairs
        of each effective edit moved by one; this table is not changed.  When
        this graph was built directly, the new graph records the effective
        edits against it.
        """
        edges, gained, lost = edit_sorted(self.edges, add, remove)
        cd = dict(self.codegrees())
        _move_pairs(cd, gained, 1)
        _move_pairs(cd, lost, -1)
        child = ThreeGraph(self.n, edges, _normalized=True, _codegrees=cd)
        child._edit = (self, gained, lost) if self._edit is None else ()
        return child


def _move_pairs(cd: dict[Pair, int], edges: Iterable[Triple], step: int) -> None:
    """Move the codegree of the three pairs of each edge by ``step`` in
    place, dropping pairs that reach 0."""
    for a, b, c in edges:
        for e in ((a, b), (a, c), (b, c)):
            d = cd.get(e, 0) + step
            if d:
                cd[e] = d
            else:
                del cd[e]


class Graph:
    """An immutable 2-graph used for links, shadows, and colored graphs."""

    __slots__ = ("n", "edges", "edge_set", "_adj")

    def __init__(self, n: int, edges: Iterable[Pair], *, _normalized: bool = False):
        if not _normalized:
            edges = sorted({normalize_pair(e, n) for e in edges})
        self.n = n
        self.edges: tuple[Pair, ...] = tuple(edges)
        self.edge_set: frozenset[Pair] = frozenset(self.edges)
        self._adj: Optional[tuple[frozenset[int], ...]] = None

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edge_set if u < v else (v, u) in self.edge_set

    def adjacency(self) -> tuple[frozenset[int], ...]:
        if self._adj is None:
            adj: list[set[int]] = [set() for _ in range(self.n)]
            for a, b in self.edges:
                adj[a].add(b)
                adj[b].add(a)
            self._adj = tuple(frozenset(s) for s in adj)
        return self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        check_vertex(v, self.n)
        return self.adjacency()[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def with_changes(
        self, add: Iterable[Pair] = (), remove: Iterable[Pair] = ()
    ) -> "Graph":
        """New graph with the given already-normalized pairs added/removed."""
        return Graph(self.n, edit_sorted(self.edges, add, remove)[0], _normalized=True)


def edit_sorted(
    edges_sorted: Sequence[tuple[int, ...]],
    add: Iterable[tuple[int, ...]] = (),
    remove: Iterable[tuple[int, ...]] = (),
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Sorted edge list ``(edges - remove) | add``, plus the effective edits:
    the edges gained (adds that were absent) and lost (removes that were
    present and not re-added), each in sorted order.

    Each edit is placed by binary search from the previous one, and the
    untouched runs between edits are copied as slices, so k edits cost
    O(k log m) comparisons plus the copy.  An edge in both ``add`` and
    ``remove`` ends up present."""
    add_set = set(add)
    out: list[tuple[int, ...]] = []
    gained: list[tuple[int, ...]] = []
    lost: list[tuple[int, ...]] = []
    pos = 0
    for t in sorted(add_set.union(remove)):
        i = bisect_left(edges_sorted, t, pos)
        out += edges_sorted[pos:i]
        present = i < len(edges_sorted) and edges_sorted[i] == t
        if t in add_set:
            out.append(t)
            if not present:
                gained.append(t)
        elif present:
            lost.append(t)
        pos = i + present
    out += edges_sorted[pos:]
    return out, gained, lost


def make_graph(n: int, triples: Iterable[Sequence[int]]) -> ThreeGraph:
    """Build a 3-graph, sorting each triple and dropping duplicates.

    Rejects out-of-range vertices and degenerate (repeated-vertex) triples.
    """
    if n < 0:
        raise VertexOutOfRange("vertex count must be nonnegative")
    return ThreeGraph(n, triples)


def make_pair_graph(n: int, pairs: Iterable[Sequence[int]]) -> Graph:
    if n < 0:
        raise VertexOutOfRange("vertex count must be nonnegative")
    return Graph(n, pairs)


def codegree(h: ThreeGraph, e: Sequence[int]) -> int:
    """Number of edges of ``h`` containing both endpoints of the pair ``e``."""
    pair = normalize_pair(e, h.n)
    return h.codegrees().get(pair, 0)


def link(h: ThreeGraph, v: int) -> Graph:
    """The link of ``v``: pairs e with {v} | e an edge of ``h``.

    Returned on the same vertex set; v itself is isolated in its link.  The
    degree of u in the link equals the codegree of the pair {u, v}.
    """
    check_vertex(v, h.n)
    pairs = []
    for t in h.edges:
        if v in t:
            a, b = (x for x in t if x != v)
            pairs.append((a, b))
    return Graph(h.n, sorted(pairs), _normalized=True)


def shadow(h: ThreeGraph) -> Graph:
    """All pairs covered by at least one edge."""
    return Graph(h.n, sorted(h.codegrees().keys()), _normalized=True)


def l2_norm(h: ThreeGraph) -> int:
    """Sum of squared codegrees over all vertex pairs."""
    d = h.codegrees().values()
    return sum(map(mul, d, d))


def graph_l2_norm(g: Graph) -> int:
    """2-graph specialization: sum of squared vertex degrees."""
    deg = [0] * g.n
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    return sum(d * d for d in deg)


def two_norm_degree(h: ThreeGraph, v: int) -> int:
    """Drop in the l2 norm when ``v`` is deleted.

    Computed from the link: ||L(v)||_2 + 2 * sum of codegrees over link pairs
    minus the degree of v.  Agrees with l2_norm(h) - l2_norm(h - v).
    """
    check_vertex(v, h.n)
    cd = h.codegrees()
    link_pairs = []
    link_deg: Counter = Counter()
    for t in h.edges:
        if v in t:
            a, b = (x for x in t if x != v)
            link_pairs.append((a, b))
            link_deg[a] += 1
            link_deg[b] += 1
    l2_link = sum(d * d for d in link_deg.values())
    cross = sum(cd[p] for p in link_pairs)
    return l2_link + 2 * cross - len(link_pairs)


def count_s2(h: ThreeGraph) -> int:
    """Unordered pairs of edges sharing exactly two vertices.

    Satisfies l2_norm(h) == 2 * count_s2(h) + 3 * len(h).
    """
    d = h.codegrees().values()
    return (sum(map(mul, d, d)) - sum(d)) // 2


def find_k43(h: ThreeGraph) -> Optional[tuple[int, int, int, int]]:
    """A 4-set spanning all four of its triples, or None.

    Scans each edge as the lexicographically least triple of a candidate
    tetrahedron, so only completions by a larger fourth vertex are needed.
    """
    es = h.edge_set
    for a, b, c in h.edges:
        for w in range(c + 1, h.n):
            if (a, b, w) in es and (a, c, w) in es and (b, c, w) in es:
                return (a, b, c, w)
    return None


def contains_k43(h: ThreeGraph) -> bool:
    return find_k43(h) is not None


def completes_k43(h: ThreeGraph, t: Triple) -> bool:
    """Would adding the (normalized, absent) triple ``t`` create a tetrahedron?"""
    es = h.edge_set
    a, b, c = t
    for w in range(h.n):
        if w == a or w == b or w == c:
            continue
        if (
            tuple(sorted((a, b, w))) in es
            and tuple(sorted((a, c, w))) in es
            and tuple(sorted((b, c, w))) in es
        ):
            return True
    return False


def induce(h: ThreeGraph, s: Iterable[int]) -> ThreeGraph:
    """Induced subgraph on ``s``, relabeled 0..|s|-1 by ascending old label."""
    keep = sorted(set(s))
    for v in keep:
        check_vertex(v, h.n)
    relabel = {v: i for i, v in enumerate(keep)}
    member = set(keep)
    edges = [
        (relabel[a], relabel[b], relabel[c])
        for a, b, c in h.edges
        if a in member and b in member and c in member
    ]
    return ThreeGraph(len(keep), sorted(edges), _normalized=True)


def delete_vertex(h: ThreeGraph, v: int) -> ThreeGraph:
    check_vertex(v, h.n)
    return induce(h, (u for u in range(h.n) if u != v))


def canonical_blocks(h: ThreeGraph) -> list[list[int]]:
    """The vertex blocks of an iterated isomorphism-invariant coloring
    (refinement only splits), ordered by color; every automorphism preserves
    them.  Refuses graphs with more than ``CANONICAL_VERTEX_CAP`` vertices
    rather than approximating."""
    if h.n > CANONICAL_VERTEX_CAP:
        raise SizeLimitExceeded(
            f"canonical form capped at {CANONICAL_VERTEX_CAP} vertices, got {h.n}"
        )
    by_vertex: list[list[Triple]] = [[] for _ in range(h.n)]
    for t in h.edges:
        for v in t:
            by_vertex[v].append(t)
    colors = [len(by_vertex[v]) for v in range(h.n)]
    distinct = len(set(colors))
    while True:
        keys = []
        for v in range(h.n):
            around = sorted(
                tuple(sorted(colors[u] for u in t if u != v)) for t in by_vertex[v]
            )
            keys.append((colors[v], tuple(around)))
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [order[k] for k in keys]
        if len(order) == distinct:
            return [[v for v in range(h.n) if colors[v] == c] for c in range(distinct)]
        distinct = len(order)


def canonical_form(h: ThreeGraph) -> tuple[tuple[Triple, ...], tuple[int, ...]]:
    """Canonical edge list plus the relabeling that produces it.

    Two graphs have equal canonical forms iff they are isomorphic.  The form
    is the :func:`least_relabeling` over the :func:`canonical_blocks`, so
    only block-internal permutations are searched.
    """
    return least_relabeling(h.n, h.edges, canonical_blocks(h))[:2]


def least_relabeling(
    n: int, edges: Iterable[Sequence[int]], blocks: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
    """Least sorted relabeled edge list, the relabeling that gives it, and
    the number of block-internal arrangements that reach it.

    The blocks partition 0..n-1 and take consecutive labels in order: the
    first block gets 0..|B_0|-1, the next the labels after those, and so on.
    Edges share one arity (at least 2) and need not be sorted.  Graphs with
    equal blocks get equal forms exactly when a block-preserving permutation
    maps one edge set onto the other.  The arrangements that reach the least
    list form one coset of the group of block-preserving permutations fixing
    the edge set; the count is its order, |Aut| over :func:`canonical_blocks`.
    """
    getters = [itemgetter(*e) for e in edges]
    best: Optional[tuple[tuple[int, ...], ...]] = None
    best_map: tuple[int, ...] = ()
    ties = 0
    for arrangement in itertools.product(*(itertools.permutations(b) for b in blocks)):
        # the blocks, each in its arranged order, list the vertices by new label
        mapping = [0] * n
        for i, v in enumerate(itertools.chain.from_iterable(arrangement)):
            mapping[v] = i
        rel = tuple(sorted(tuple(sorted(get(mapping))) for get in getters))
        if best is None or rel < best:
            best, best_map, ties = rel, tuple(mapping), 1
        elif rel == best:
            ties += 1
    assert best is not None
    return best, best_map, ties


def all_triples(n: int) -> list[Triple]:
    return list(itertools.combinations(range(n), 3))


def random_three_graph(rng, n: int, density: float = 0.3) -> ThreeGraph:
    """Random 3-graph: each triple kept independently with the given density."""
    edges = [t for t in itertools.combinations(range(n), 3) if rng.random() < density]
    return ThreeGraph(n, edges, _normalized=True)
