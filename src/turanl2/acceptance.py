"""The acceptance battery: twelve exact criteria run at their pinned scales.

``CRITERIA`` declares each criterion once: its name, its check, the keyword
arguments of its smoke scale and its time cap in seconds, if it has one.  A
check returns ``(passed, details)`` and is deterministic given its seed; its
defaults are the pinned acceptance scale.  ``run_criterion`` times a check
and judges it against its cap; ``run_suite`` runs a selection and prints one
pass/fail line per criterion.  The test suite pins the same checks in
tests/test_acceptance.py; the CLI exposes them under ``turanl2 check``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import census as census_mod
from .classification import TOGGLE_PHASES, Thresholds
from .colored import (
    check_symmetrized_facts,
    is_cyclic_triangle_free,
    locally_symmetrize,
    random_cyclic_triangle_free,
)
from .constructions import (
    ACCEPTANCE_GAIN_FAMILIES,
    Partition3,
    balancedness_sweep,
    build_balanced_c,
    build_c,
    c_l2_closed,
    compositions_of,
)
from .errors import InvalidArgument
from .hypergraph import (
    ThreeGraph,
    count_s2,
    delete_vertex,
    l2_norm,
    random_three_graph,
    two_norm_degree,
)
from .improvement import (
    apply_toggle,
    generate_phase_instance,
    two_phase_driver,
    verify_toggle_increase,
)
from .inequality import certify_simplex_inequality, verify_simplex_inequality

DEFAULT_SEED = 20240817


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d} {self.name}: {self.details} ({self.seconds:.1f}s)"


def _formula_oracle(n_max: int = 40) -> tuple[bool, str]:
    """Closed form equals direct enumeration for every composition."""
    checked = 0
    for n in range(n_max + 1):
        for comp in compositions_of(n):
            h, _ = build_c(comp)
            if c_l2_closed(comp) != l2_norm(h):
                return False, f"mismatch at {comp.sizes}"
            checked += 1
    return True, f"{checked} compositions agree"


def _identities(trials: int = 10_000, seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Squared-codegree sum identity and codegree handshake on random graphs."""
    rng = random.Random(seed)
    for i in range(trials):
        n = rng.randint(0, 10)
        h = random_three_graph(rng, n, rng.random())
        cd = h.codegrees()
        if l2_norm(h) != 2 * count_s2(h) + 3 * len(h.edges):
            return False, f"square identity failed at trial {i}"
        if sum(cd.values()) != 3 * len(h.edges):
            return False, f"handshake failed at trial {i}"
    return True, f"{trials} random graphs, zero violations"


def _l2_degree(trials: int = 2_000, seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """2-norm degree equals the deletion difference."""
    rng = random.Random(seed + 3)
    for i in range(trials):
        n = rng.randint(1, 10)
        h = random_three_graph(rng, n, rng.random())
        v = rng.randrange(n)
        if two_norm_degree(h, v) != l2_norm(h) - l2_norm(delete_vertex(h, v)):
            return False, f"trial {i} failed"
    return True, f"{trials} random (graph, vertex) pairs"


def _balancedness(n_lo: int = 6, n_hi: int = 30) -> tuple[bool, str]:
    family_hits = {name: 0 for name in ACCEPTANCE_GAIN_FAMILIES}
    for n in range(n_lo, n_hi + 1):
        report = balancedness_sweep(n)
        if not report.maximizers_are_near_balanced:
            return False, f"maximizer mismatch at n={n}"
        if not report.all_gains_match:
            return False, f"gain polynomial mismatch at n={n}"
        for check in report.gain_checks:
            if check.family in family_hits:
                family_hits[check.family] += 1
    missing = [name for name, hits in family_hits.items() if hits == 0]
    return not missing, f"n in [{n_lo},{n_hi}]; pinned families exercised: {family_hits}"


def _simplex(resolution: int = 200, width: Fraction = Fraction(1, 10**6)) -> tuple[bool, str]:
    grid = verify_simplex_inequality(resolution)
    third = Fraction(1, 3)
    expected_zeros = ((third, third, third),) if resolution % 3 == 0 else ()
    grid_ok = grid.worst_margin >= 0 and grid.zero_margin_points == expected_zeros
    cert = certify_simplex_inequality(width)
    return grid_ok and cert.certified, (
        f"grid d={resolution} worst={grid.worst_margin} zeros={len(grid.zero_margin_points)}; "
        f"certificate boxes={cert.boxes_certified_interval}+{cert.boxes_certified_center} "
        f"undecided={len(cert.undecided)}"
    )


def _toggle_exactness(trials: int = 5_000, seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    rng = random.Random(seed + 6)
    for i in range(trials):
        n = rng.randint(4, 30)
        h = random_three_graph(rng, n, rng.random() * 0.25)
        parts = Partition3(tuple(rng.choice((1, 2, 3)) for _ in range(n)))
        by_part: dict[int, list[int]] = {1: [], 2: [], 3: []}
        for v in range(n):
            by_part[parts.part_of(v)].append(v)
        phase = rng.choice(("one", "two"))
        if phase == "one":
            pools = [vs for vs in by_part.values() if len(vs) >= 2]
            if not pools:
                continue
            pool = rng.choice(pools)
            pair = tuple(sorted(rng.sample(pool, 2)))
        else:
            nonempty = [i_ for i_, vs in by_part.items() if vs]
            if len(nonempty) < 2:
                continue
            pa, pb = rng.sample(nonempty, 2)
            pair = tuple(sorted((rng.choice(by_part[pa]), rng.choice(by_part[pb]))))
        before = h.codegrees()
        new_h, rep = apply_toggle(h, parts, pair, phase)
        # recount from the edge list: new_h's own table is derived from the
        # same diff the S-sets describe, so it would agree with them anyway
        fresh = ThreeGraph(new_h.n, new_h.edges, _normalized=True)
        if rep.delta != l2_norm(fresh) - l2_norm(h):
            return False, f"delta mismatch at trial {i}"
        after = fresh.codegrees()
        changed = {
            e
            for e in set(before) | set(after)
            if before.get(e, 0) != after.get(e, 0)
        }
        allowed = rep.changed_pairs()
        if not changed <= allowed:
            return False, f"changed pair outside S-sets at trial {i}"
        for e in allowed:
            moved = after.get(e, 0) - before.get(e, 0)
            if e == rep.e_star:
                if moved != len(rep.added) - len(rep.removed):
                    return False, f"e* delta wrong at trial {i}"
            elif e in rep.s1:
                if moved != 1:
                    return False, f"S1 step wrong at trial {i}"
            elif moved != -1:
                return False, f"down-set step wrong at trial {i}"
    return True, f"{trials} random toggles reconciled"


def _toggle_increase(
    trials_per_phase: int = 1_000,
    seed: int = DEFAULT_SEED,
    counterexample_dir: Optional[str] = None,
) -> tuple[bool, str]:
    rng = random.Random(seed + 7)
    plan: list[tuple[str, int, int]] = []
    for phase in ("one", "two"):
        for _ in range(trials_per_phase):
            plan.append((phase, rng.randint(60, 120), rng.randrange(1 << 30)))
    # group by n so the cached base construction is reused
    plan.sort(key=lambda item: (item[1], item[0], item[2]))
    failures = 0
    for phase, n, sub_seed in plan:
        sub = random.Random(sub_seed)
        coeff = TOGGLE_PHASES[phase].coeff
        # xi small enough that the planted count fits inside a part
        xi = Fraction(1, (coeff * 4) ** 2 * 4)
        h, p, pair = generate_phase_instance(sub, n, xi, phase)
        verdict = verify_toggle_increase(h, p, pair, phase, Thresholds(xi), counterexample_dir)
        if verdict.report.delta <= 0:
            failures += 1
    return failures == 0, f"{2 * trials_per_phase} generated instances, {failures} non-positive deltas"


def _driver(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    rng = random.Random(seed + 8)
    for n in (6, 9, 12):
        base, p = build_balanced_c(n)
        size = n // 3
        v1 = list(range(0, size))
        v2 = list(range(size, 2 * size))
        v3 = list(range(2 * size, n))
        qualify_tri = -(-n // 10)  # transversal removals needed to enter the queue
        exercised = 0
        for trial in range(12):
            h = base
            planted = rng.randint(1, 5)
            for _ in range(planted):
                kind = rng.choice(("internal-style", "crossing-style"))
                if kind == "internal-style":
                    # bad edge at an internal pair plus a missing co-edge there
                    u1, u2 = sorted(rng.sample(v1, 2))
                    w_bad = rng.choice(v3)
                    w_missing = rng.choice(v2)
                    h = h.with_changes(
                        add=[tuple(sorted((u1, u2, w_bad)))],
                        remove=[tuple(sorted((u1, u2, w_missing)))],
                    )
                else:
                    # deferred-style bad edge; a crossing pair qualifies via
                    # enough missing transversal co-edges
                    u = rng.choice(v2)
                    vtx = rng.choice([x for x in v2 if x != u])
                    w = rng.choice(v1)
                    zs = rng.sample(v3, qualify_tri)
                    h = h.with_changes(
                        add=[tuple(sorted((u, vtx, w)))],
                        remove=[tuple(sorted((u, w, z))) for z in zs],
                    )
            trace = two_phase_driver(h, p, Fraction(1, 40))
            if not trace.every_bad_edge_covered:
                # planting may have cancelled itself; data, not failure
                continue
            exercised += 1
            if trace.bad_final or not trace.inside_construction:
                return False, f"leftover bad edges at n={n}"
            if not trace.bad_monotone or not trace.missing_monotone:
                return False, f"monotonicity broke at n={n}"
        if exercised < 6:
            return False, f"too few covered instances at n={n}"
    return True, "perturbed constructions cleaned at n=6,9,12"


def _symmetrization(trials: int = 500, seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    rng = random.Random(seed + 9)
    for i in range(trials):
        n = rng.randint(3, 12)
        cg = random_cyclic_triangle_free(rng, n, rng.random())
        out, _ = locally_symmetrize(cg)
        if len(out.graph.edges) < len(cg.graph.edges):
            return False, f"edge count dropped at trial {i}"
        if not is_cyclic_triangle_free(out):
            return False, f"freeness lost at trial {i}"
        report = check_symmetrized_facts(out)
        if not report.all_pass:
            return False, f"fact check failed at trial {i}"
    return True, f"{trials} random graphs symmetrized"


def _mantel(part_size: int = 2) -> tuple[bool, str]:
    report = census_mod.census_colored_mantel(part_size, "edges", mode="exhaustive")
    bound = report.extra["edge_bound"]
    lam = report.reference_value
    ok = report.optimum <= bound and report.optimum >= lam
    return ok, f"optimum={report.optimum} in [{lam}, {bound}]"


def _census_cross_validation(run_n6: bool = True) -> tuple[bool, str]:
    details = []
    for n in (4, 5):
        naive = census_mod.census_k43(n, method="naive")
        canon = census_mod.census_k43(n, method="canonical")
        if naive.optimum != canon.optimum or naive.iso_classes != canon.iso_classes:
            return False, f"disagreement at n={n}"
        if n == 4 and canon.optimum != 15:
            return False, "n=4 optimum is not 15"
        details.append(f"n={n}: opt={canon.optimum} classes={canon.iso_classes}")
    if run_n6:
        six = census_mod.census_k43(6, method="canonical")
        details.append(
            f"n=6: opt={six.optimum} reference_attains={six.reference_attains} "
            f"unique={six.reference_unique} (recorded as data)"
        )
    return True, "; ".join(details)


def _tripartite(n_max: int = 2) -> tuple[bool, str]:
    details = []
    for n in range(1, n_max + 1):
        rep = census_mod.census_tripartite_triangle_free(n)
        # independent engine: the full scan against the census's cover search
        alt_opt, _, _ = census_mod._free_subsets(*census_mod._tripartite_ground(n), len)
        if rep.optimum != alt_opt:
            return False, f"engines disagree at n={n}"
        if not rep.extra["within_slack_bound"]:
            return False, f"slack bound violated at n={n}"
        if not rep.extra["all_match_split_form"]:
            return False, f"non-split maximizer at n={n}"
        details.append(f"n={n}: opt={rep.optimum} (2n^2={2*n*n})")
    return True, "; ".join(details)


@dataclass(frozen=True)
class Criterion:
    """One criterion: its name and check, the keyword arguments that shrink
    it to a smoke run, and the seconds it must finish in (None: no cap)."""

    name: str
    check: Callable[..., tuple[bool, str]]
    smoke: dict = field(default_factory=dict)
    cap: Optional[int] = None


CRITERIA: dict[int, Criterion] = {
    1: Criterion("formula-oracle", _formula_oracle, {"n_max": 20}, cap=60),
    2: Criterion("identity-suite", _identities, {"trials": 1000}),
    3: Criterion("l2-degree-consistency", _l2_degree, {"trials": 200}),
    4: Criterion("balancedness", _balancedness, {"n_hi": 15}),
    5: Criterion("simplex-inequality", _simplex, {"resolution": 60}, cap=300),
    6: Criterion("toggle-exactness", _toggle_exactness, {"trials": 400}),
    7: Criterion("toggle-increase", _toggle_increase, {"trials_per_phase": 40}),
    8: Criterion("driver-soundness", _driver),
    9: Criterion("symmetrization", _symmetrization, {"trials": 60}),
    10: Criterion("colored-mantel-bound", _mantel, cap=10),
    11: Criterion("census-cross-validation", _census_cross_validation),
    12: Criterion("tripartite-oracle", _tripartite),
}


def run_criterion(number: int, **scale) -> CriterionResult:
    """Time one criterion's check at ``scale`` (its pinned scale by default).
    A capped criterion also fails past its cap, and its details say so."""
    if number not in CRITERIA:
        raise InvalidArgument(f"no criterion {number}")
    criterion = CRITERIA[number]
    t0 = time.monotonic()
    passed, details = criterion.check(**scale)
    elapsed = time.monotonic() - t0
    if criterion.cap is not None:
        passed = passed and elapsed < criterion.cap
        details += f"; cap {criterion.cap}s"
    return CriterionResult(number, criterion.name, passed, details, elapsed)


def run_suite(
    numbers: Optional[Sequence[int]] = None,
    printer: Callable[[str], None] = print,
    quick: bool = False,
) -> list[CriterionResult]:
    """Run the selected criteria (all twelve by default) and print one line
    each; a criterion named twice runs once.  ``quick`` runs each criterion
    at its smoke scale; the pinned acceptance scales are the defaults.  An
    unknown number is rejected before any criterion runs."""
    selected = sorted(set(numbers or CRITERIA))
    unknown = set(selected) - CRITERIA.keys()
    if unknown:
        raise InvalidArgument(f"no criterion {min(unknown)}")
    results = []
    for number in selected:
        scale = CRITERIA[number].smoke if quick else {}
        result = run_criterion(number, **scale)
        printer(result.line())
        results.append(result)
    return results
