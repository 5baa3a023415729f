"""Local toggle operators with exact l2 delta accounting, and the two-phase
driver that removes bad edges pair by pair.

A phase-one toggle at an internal pair e* removes every current bad edge
containing e* and inserts every currently missing construction edge
containing e*.  A phase-two toggle at a crossing pair does the same with the
transversal missing edges only.  The delta report decomposes the l2 change
over exactly the pairs whose codegree moved: e* itself plus the S-sets below.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .classification import (
    Checklist,
    EdgeClassification,
    Thresholds,
    check_phase_one_hypotheses,
    check_phase_two_hypotheses,
    classify_edges,
    family_stats,
    toggle_phase,
)
from .constructions import Composition3, Partition3, construction
from .errors import InvalidArgument
from .hypergraph import (
    Pair,
    ThreeGraph,
    Triple,
    contains_k43,
    l2_norm,
    normalize_pair,
)

@dataclass(frozen=True)
class DeltaReport:
    """Exact decomposition of one toggle's l2 change.

    Phase one populates s1 (codegree up), s2 (down, same-part third vertex),
    s3 (down, far-part third vertex).  Phase two populates s1 plus s2a/s2b
    (pairs at each endpoint of e* toward the removed edges' third vertices).
    """

    phase: str
    e_star: Pair
    removed: frozenset[Triple]
    added: frozenset[Triple]
    s1: frozenset[Pair]
    s2: frozenset[Pair]
    s3: frozenset[Pair]
    s2a: frozenset[Pair]
    s2b: frozenset[Pair]
    l2_before: int
    l2_after: int

    @property
    def delta(self) -> int:
        return self.l2_after - self.l2_before

    def changed_pairs(self) -> frozenset[Pair]:
        return frozenset({self.e_star}) | self.s1 | self.s2 | self.s3 | self.s2a | self.s2b

    def to_json_dict(self) -> dict:
        return {
            "phase": self.phase,
            "e_star": list(self.e_star),
            "removed": sorted(map(list, self.removed)),
            "added": sorted(map(list, self.added)),
            "delta": self.delta,
            "l2_before": self.l2_before,
            "l2_after": self.l2_after,
        }


def apply_toggle(
    h: ThreeGraph,
    p: Partition3,
    e_star: Sequence[int],
    phase: str,
    ec=None,
) -> tuple[ThreeGraph, DeltaReport]:
    """One local toggle; returns the new graph and the exact delta report.

    The delta is accumulated pair by pair from the current codegree table
    and always reconciles with a from-scratch recomputation.  A precomputed
    classification of (h, p) may be passed to avoid repeating it.  A pair of
    the wrong kind fails the checklists' own check, ``TogglePhase.fit_pair``,
    with ``EdgeNotInternal`` or ``EdgeNotCrossing`` (both ``EdgePhaseMismatch``).
    """
    spec = toggle_phase(phase)
    pair = spec.fit_pair(p, e_star, h.n)
    u1, u2 = pair
    if ec is None:
        ec = classify_edges(h, p)
    removed = ec.through("B", pair)
    added = ec.through(spec.missing, pair)

    cd = h.codegrees()
    l2_before = l2_norm(h)
    delta = 0

    def third(t: Triple) -> int:
        return next(x for x in t if x != u1 and x != u2)

    added_thirds = sorted(third(t) for t in added)
    removed_thirds = sorted(third(t) for t in removed)

    s1 = frozenset(
        tuple(sorted((u, w))) for u in pair for w in added_thirds
    )
    for e in s1:
        d = cd.get(e, 0)
        delta += 2 * d + 1
    if spec.internal:
        parts = p.parts
        part = parts[u1]
        same = [w for w in removed_thirds if parts[w] == part]
        far = [w for w in removed_thirds if parts[w] != part]
        s2 = frozenset(tuple(sorted((u, w))) for u in pair for w in same)
        s3 = frozenset(tuple(sorted((u, w))) for u in pair for w in far)
        s2a = s2b = frozenset()
        down = s2 | s3
    else:
        s2a = frozenset(tuple(sorted((u1, w))) for w in removed_thirds)
        s2b = frozenset(tuple(sorted((u2, w))) for w in removed_thirds)
        s2 = s3 = frozenset()
        down = s2a | s2b
    for e in down:
        d = cd.get(e, 0)
        delta += -2 * d + 1
    d_star = cd.get(pair, 0)
    d_star_after = d_star + len(added) - len(removed)
    delta += d_star_after * d_star_after - d_star * d_star

    new_h = h.with_changes(add=added, remove=removed)
    report = DeltaReport(
        phase=phase,
        e_star=pair,
        removed=removed,
        added=added,
        s1=s1,
        s2=s2,
        s3=s3,
        s2a=s2a,
        s2b=s2b,
        l2_before=l2_before,
        l2_after=l2_before + delta,
    )
    return new_h, report


@dataclass(frozen=True)
class ToggleVerdict:
    checklist: Checklist
    report: DeltaReport
    claim: str  # "increase-asserted", "hypotheses-unmet-no-claim", "counterexample"
    counterexample_path: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "checklist": self.checklist.to_json_dict(),
            "delta": self.report.delta,
            "claim": self.claim,
            "counterexample_path": self.counterexample_path,
        }


def verify_toggle_increase(
    h: ThreeGraph,
    p: Partition3,
    e_star: Sequence[int],
    phase: str,
    t: Thresholds,
    counterexample_dir: Optional[str] = None,
) -> ToggleVerdict:
    """Evaluate the hypothesis checklist and, when it passes entirely, assert
    that the toggle strictly increases the l2 norm.

    A passing checklist with a non-positive exact delta is a counterexample;
    the instance is serialized (when a directory is given) and flagged.  A
    failing checklist yields no claim either way.

    The report's S-set decomposition of the delta is checked against a
    second, independent route, ``l2_norm(new_h) == report.l2_after``: the
    toggled graph's norm is a per-pair recount from the diff edges, since its
    codegree table is ``h``'s with the three pairs of each gained or lost edge
    moved by one (see :meth:`ThreeGraph.with_changes`), never read off the
    S-sets; ``h``'s norm is computed once, by ``apply_toggle``.
    """
    toggle_phase(phase)
    ec = classify_edges(h, p)
    checker = check_phase_one_hypotheses if phase == "one" else check_phase_two_hypotheses
    checklist = checker(h, p, e_star, t, ec=ec)
    new_h, report = apply_toggle(h, p, e_star, phase, ec=ec)
    assert l2_norm(new_h) == report.l2_after
    if not checklist.all_pass:
        return ToggleVerdict(checklist, report, "hypotheses-unmet-no-claim")
    if report.delta > 0:
        return ToggleVerdict(checklist, report, "increase-asserted")
    path = None
    if counterexample_dir is not None:
        path = _write_counterexample(h, p, e_star, phase, t, report, counterexample_dir)
    return ToggleVerdict(checklist, report, "counterexample", path)


def _write_counterexample(h, p, e_star, phase, t, report, out_dir) -> str:
    from .formats import write_h3, write_p3

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"toggle-counterexample-phase-{phase}-n{h.n}-m{len(h.edges)}"
    (out / f"{stem}.h3").write_text(write_h3(h))
    (out / f"{stem}.p3").write_text(write_p3(p))
    meta = {
        "phase": phase,
        "e_star": list(normalize_pair(e_star, h.n)),
        "xi": f"{t.xi.numerator}/{t.xi.denominator}",
        "delta": report.delta,
    }
    (out / f"{stem}.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    return str(out / f"{stem}.h3")


@dataclass(frozen=True)
class Queues:
    """Processing queues and the deferred bad-edge family.

    i_pairs: internal pairs whose missing codegree reaches delta4 * n.
    j_pairs: crossing pairs whose transversal-missing codegree reaches n/10.
    b_tilde: bi-bad edges whose same-part pair has missing codegree at most
    delta4 * n (these wait for phase two).
    """

    i_pairs: tuple[Pair, ...]
    j_pairs: tuple[Pair, ...]
    b_tilde: frozenset[Triple]


def _queues(ec: EdgeClassification, delta4: Fraction) -> Queues:
    """The queues of the classified state ``ec``."""
    parts = ec.partition.parts
    n = len(parts)
    m_cod = family_stats(ec, "M").pair_codegrees
    mtri_cod = family_stats(ec, "M_tri").pair_codegrees
    # both bounds are positive (n > 0 whenever there are pairs), so a pair
    # absent from a codegree table never qualifies; transversal pairs cross
    i_pairs = [e for e, d in m_cod.items() if parts[e[0]] == parts[e[1]] and d >= delta4 * n]
    j_pairs = [e for e, d in mtri_cod.items() if d >= Fraction(n, 10)]

    def same_part_pair(t: Triple) -> Pair:
        return next(e for e in itertools.combinations(t, 2) if parts[e[0]] == parts[e[1]])

    # a bi-bad edge always has the shape (i, i, i-1): (i, i, i+1) is a construction shape
    b_tilde = frozenset(t for t in ec.b_bi if m_cod.get(same_part_pair(t), 0) <= delta4 * n)
    return Queues(tuple(sorted(i_pairs)), tuple(sorted(j_pairs)), b_tilde)


@dataclass(frozen=True)
class DriverStep:
    phase: str
    e_star: Pair
    report: DeltaReport
    bad_after: int

    def to_json_dict(self) -> dict:
        return {
            "phase": self.phase,
            "e_star": list(self.e_star),
            "removed": sorted(map(list, self.report.removed)),
            "added": sorted(map(list, self.report.added)),
            "delta": self.report.delta,
            "l2": self.report.l2_after,
        }


@dataclass(frozen=True)
class DriverTrace:
    initial: ThreeGraph
    final: ThreeGraph
    partition: Partition3
    delta4: Fraction
    queues: Queues
    steps: tuple[DriverStep, ...]
    bad_initial: frozenset[Triple]
    bad_final: frozenset[Triple]
    bad_monotone: bool
    missing_monotone: bool
    every_bad_edge_covered: bool
    inside_construction: bool
    l2_trajectory: tuple[int, ...]
    k43_free_throughout: bool

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(s.to_json_dict(), sort_keys=True) for s in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "delta4": self.delta4,
            "i_queue": [list(e) for e in self.queues.i_pairs],
            "j_queue": [list(e) for e in self.queues.j_pairs],
            "b_tilde": sorted(map(list, self.queues.b_tilde)),
            "steps": [s.to_json_dict() for s in self.steps],
            "bad_initial": sorted(map(list, self.bad_initial)),
            "bad_final": sorted(map(list, self.bad_final)),
            "bad_monotone": self.bad_monotone,
            "missing_monotone": self.missing_monotone,
            "every_bad_edge_covered": self.every_bad_edge_covered,
            "inside_construction": self.inside_construction,
            "l2_trajectory": list(self.l2_trajectory),
            "k43_free_throughout": self.k43_free_throughout,
        }


def two_phase_driver(
    h: ThreeGraph,
    p: Partition3,
    delta4: Fraction = Fraction(1, 40),
    order_seed: Optional[int] = None,
) -> DriverTrace:
    """Process the internal queue with phase-one toggles, then the crossing
    queue with phase-two toggles, each queue once in lexicographic order
    (or a seed-permuted order for ordering experiments).

    Bad and missing sets shrink monotonically across steps; when every
    initial bad edge contains a queue pair the final graph lies inside the
    construction.  The l2 trajectory and tetrahedron-freeness along the way
    are recorded, not enforced.
    """
    delta4 = Fraction(delta4)
    if not 0 < delta4 < 1:
        raise InvalidArgument("delta4 must lie strictly between 0 and 1")
    ec = classify_edges(h, p)
    queues = _queues(ec, delta4)
    i_pairs, j_pairs = list(queues.i_pairs), list(queues.j_pairs)
    if order_seed is not None:
        import random

        rng = random.Random(order_seed)
        rng.shuffle(i_pairs)
        rng.shuffle(j_pairs)

    queue_pairs = set(queues.i_pairs) | set(queues.j_pairs)
    bad_initial = ec.b
    covered = all(
        any(tuple(sorted(e)) in queue_pairs for e in itertools.combinations(t, 2))
        for t in bad_initial
    )

    current = h
    steps: list[DriverStep] = []
    bad_monotone = True
    missing_monotone = True
    free = not contains_k43(h)

    # each state is classified once: the queues and the first toggle read
    # the initial state's classification, each later toggle its
    # predecessor's, and the next state's families are compared against it
    for phase, pairs in (("one", i_pairs), ("two", j_pairs)):
        for e in pairs:
            current, report = apply_toggle(current, p, e, phase, ec=ec)
            prev, ec = ec, classify_edges(current, p)
            if not ec.b <= prev.b:
                bad_monotone = False
            if not ec.m <= prev.m:
                missing_monotone = False
            steps.append(DriverStep(phase, report.e_star, report, len(ec.b)))
            if free:
                free = not contains_k43(current)

    # each toggle counts its input's norm, so h is counted here only when no
    # toggle ran
    l2_initial = steps[0].report.l2_before if steps else l2_norm(h)
    bad_final = ec.b
    return DriverTrace(
        initial=h,
        final=current,
        partition=p,
        delta4=delta4,
        queues=queues,
        steps=tuple(steps),
        bad_initial=bad_initial,
        bad_final=bad_final,
        bad_monotone=bad_monotone,
        missing_monotone=missing_monotone,
        every_bad_edge_covered=covered,
        inside_construction=not bad_final,
        l2_trajectory=(l2_initial, *(s.report.l2_after for s in steps)),
        k43_free_throughout=free,
    )


# ---------------------------------------------------------------------------
# instance generators for the positivity property suite


def generate_phase_instance(
    rng, n: int, xi: Fraction, phase: str
) -> tuple[ThreeGraph, Partition3, Pair]:
    """A near-construction instance around a distinguished pair e*.

    Starting from the cyclic construction on a near-balanced composition,
    plants at least ceil(coeff*sqrt(xi)*n) missing co-neighbors at e*, with
    the phase's checklist coefficient, plus at most floor(xi*n) bad
    co-neighbors of the kind the corresponding checklist tolerates.  The
    codegree-gap items of the checklist hold by construction (the balance
    item additionally needs 3 | n, since a near-balanced split is off by up
    to 2/3 of a vertex while xi*n is far below 1 here); the global max-degree
    item cannot hold at desk scale once anything is planted at a single pair.
    The first checklists that can pass in full are at n = 6627 with
    xi = 1/19881 (phase one) and n = 24300 with xi = 1/72900 (phase two), so
    positivity is a property to verify exactly, not a consequence of a fully
    passing checklist.
    """
    spec = toggle_phase(phase)
    xi = Fraction(xi)
    comp = Composition3.balanced(n)
    partition = comp.partition()
    base = construction(partition)
    v1, v2, v3 = comp.ranges()
    removed: set[Triple] = set()
    added: set[Triple] = set()

    if spec.internal:
        u1, u2 = sorted(rng.sample(list(v1), 2))
        pool = list(v2)
        bad_pool = [w for w in v1 if w not in (u1, u2)]
    else:
        u1 = rng.choice(list(v1))
        u2 = rng.choice(list(v2))
        pool = list(v3)
        bad_pool = [w for w in v2 if w != u2]

    need = min(max(Thresholds(xi).ceil_sqrt_bound(spec.coeff, n), 1), len(pool))
    missing = rng.sample(pool, need)
    for w in missing:
        removed.add(tuple(sorted((u1, u2, w))))
    bad_budget = min(int(xi * n), need, len(bad_pool))
    planted_bad = rng.sample(bad_pool, rng.randint(0, bad_budget)) if bad_budget else []
    for w in planted_bad:
        added.add(tuple(sorted((u1, u2, w))))

    # e* must stay in the shadow; if everything through it went missing and no
    # bad edge landed there, plant one tolerated bad co-neighbor.
    if need == len(pool) and not planted_bad:
        if bad_pool:
            added.add(tuple(sorted((u1, u2, rng.choice(bad_pool)))))
        else:
            removed.discard(tuple(sorted((u1, u2, missing[0]))))
    pair = tuple(sorted((u1, u2)))
    h = base.with_changes(add=added, remove=removed)
    return h, partition, pair
