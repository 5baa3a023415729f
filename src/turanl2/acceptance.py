"""The acceptance battery: twelve exact criteria run at their pinned scales.

Each criterion function returns a CriterionResult and is deterministic given
its seed.  ``run_suite`` executes a selection and prints one pass/fail line
per criterion.  These are the same checks the test suite pins in
tests/test_acceptance.py; the CLI exposes them under ``turanl2 check``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
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


def _result(number, name, passed, details, t0) -> CriterionResult:
    return CriterionResult(number, name, passed, details, time.monotonic() - t0)


def criterion_1_formula_oracle(n_max: int = 40) -> CriterionResult:
    """Closed form equals direct enumeration for every composition."""
    t0 = time.monotonic()
    checked = 0
    for n in range(n_max + 1):
        for comp in compositions_of(n):
            h, _ = build_c(comp)
            if c_l2_closed(comp) != l2_norm(h):
                return _result(
                    1, "formula-oracle", False, f"mismatch at {comp.sizes}", t0
                )
            checked += 1
    elapsed = time.monotonic() - t0
    return _result(
        1,
        "formula-oracle",
        elapsed < 60,
        f"{checked} compositions agree; {elapsed:.1f}s (cap 60s)",
        t0,
    )


def criterion_2_identities(trials: int = 10_000, seed: int = DEFAULT_SEED) -> CriterionResult:
    """Squared-codegree sum identity and codegree handshake on random graphs."""
    t0 = time.monotonic()
    rng = random.Random(seed)
    for i in range(trials):
        n = rng.randint(0, 10)
        h = random_three_graph(rng, n, rng.random())
        cd = h.codegrees()
        if l2_norm(h) != 2 * count_s2(h) + 3 * len(h.edges):
            return _result(2, "identity-suite", False, f"square identity failed at trial {i}", t0)
        if sum(cd.values()) != 3 * len(h.edges):
            return _result(2, "identity-suite", False, f"handshake failed at trial {i}", t0)
    return _result(2, "identity-suite", True, f"{trials} random graphs, zero violations", t0)


def criterion_3_l2_degree(trials: int = 2_000, seed: int = DEFAULT_SEED) -> CriterionResult:
    """2-norm degree equals the deletion difference."""
    t0 = time.monotonic()
    rng = random.Random(seed + 3)
    for i in range(trials):
        n = rng.randint(1, 10)
        h = random_three_graph(rng, n, rng.random())
        v = rng.randrange(n)
        if two_norm_degree(h, v) != l2_norm(h) - l2_norm(delete_vertex(h, v)):
            return _result(3, "l2-degree-consistency", False, f"trial {i} failed", t0)
    return _result(3, "l2-degree-consistency", True, f"{trials} random (graph, vertex) pairs", t0)


def criterion_4_balancedness(n_lo: int = 6, n_hi: int = 30) -> CriterionResult:
    t0 = time.monotonic()
    family_hits = {name: 0 for name in ACCEPTANCE_GAIN_FAMILIES}
    for n in range(n_lo, n_hi + 1):
        report = balancedness_sweep(n)
        if not report.maximizers_are_near_balanced:
            return _result(4, "balancedness", False, f"maximizer mismatch at n={n}", t0)
        if not report.all_gains_match:
            return _result(4, "balancedness", False, f"gain polynomial mismatch at n={n}", t0)
        for check in report.gain_checks:
            if check.family in family_hits:
                family_hits[check.family] += 1
    missing = [name for name, hits in family_hits.items() if hits == 0]
    return _result(
        4,
        "balancedness",
        not missing,
        f"n in [{n_lo},{n_hi}]; pinned families exercised: {family_hits}",
        t0,
    )


def criterion_5_simplex(resolution: int = 200, width: Fraction = Fraction(1, 10**6)) -> CriterionResult:
    t0 = time.monotonic()
    grid = verify_simplex_inequality(resolution)
    third = Fraction(1, 3)
    expected_zeros = ((third, third, third),) if resolution % 3 == 0 else ()
    grid_ok = grid.worst_margin >= 0 and grid.zero_margin_points == expected_zeros
    cert = certify_simplex_inequality(width)
    elapsed = time.monotonic() - t0
    ok = grid_ok and cert.certified and elapsed < 300
    return _result(
        5,
        "simplex-inequality",
        ok,
        (
            f"grid d={resolution} worst={grid.worst_margin} zeros={len(grid.zero_margin_points)}; "
            f"certificate boxes={cert.boxes_certified_interval}+{cert.boxes_certified_center} "
            f"undecided={len(cert.undecided)}; {elapsed:.1f}s (cap 300s)"
        ),
        t0,
    )


def criterion_6_toggle_exactness(trials: int = 5_000, seed: int = DEFAULT_SEED) -> CriterionResult:
    t0 = time.monotonic()
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
            return _result(6, "toggle-exactness", False, f"delta mismatch at trial {i}", t0)
        after = fresh.codegrees()
        changed = {
            e
            for e in set(before) | set(after)
            if before.get(e, 0) != after.get(e, 0)
        }
        allowed = rep.changed_pairs()
        if not changed <= allowed:
            return _result(6, "toggle-exactness", False, f"changed pair outside S-sets at trial {i}", t0)
        for e in allowed:
            moved = after.get(e, 0) - before.get(e, 0)
            if e == rep.e_star:
                if moved != len(rep.added) - len(rep.removed):
                    return _result(6, "toggle-exactness", False, f"e* delta wrong at trial {i}", t0)
            elif e in rep.s1:
                if moved != 1:
                    return _result(6, "toggle-exactness", False, f"S1 step wrong at trial {i}", t0)
            elif moved != -1:
                return _result(6, "toggle-exactness", False, f"down-set step wrong at trial {i}", t0)
    return _result(6, "toggle-exactness", True, f"{trials} random toggles reconciled", t0)


def criterion_7_toggle_increase(
    trials_per_phase: int = 1_000,
    seed: int = DEFAULT_SEED,
    counterexample_dir: Optional[str] = None,
) -> CriterionResult:
    t0 = time.monotonic()
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
    return _result(
        7,
        "toggle-increase",
        failures == 0,
        f"{2 * trials_per_phase} generated instances, {failures} non-positive deltas",
        t0,
    )


def criterion_8_driver(seed: int = DEFAULT_SEED) -> CriterionResult:
    t0 = time.monotonic()
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
                return _result(8, "driver-soundness", False, f"leftover bad edges at n={n}", t0)
            if not trace.bad_monotone or not trace.missing_monotone:
                return _result(8, "driver-soundness", False, f"monotonicity broke at n={n}", t0)
        if exercised < 6:
            return _result(8, "driver-soundness", False, f"too few covered instances at n={n}", t0)
    return _result(8, "driver-soundness", True, "perturbed constructions cleaned at n=6,9,12", t0)


def criterion_9_symmetrization(trials: int = 500, seed: int = DEFAULT_SEED) -> CriterionResult:
    t0 = time.monotonic()
    rng = random.Random(seed + 9)
    for i in range(trials):
        n = rng.randint(3, 12)
        cg = random_cyclic_triangle_free(rng, n, rng.random())
        out, _ = locally_symmetrize(cg)
        if len(out.graph.edges) < len(cg.graph.edges):
            return _result(9, "symmetrization", False, f"edge count dropped at trial {i}", t0)
        if not is_cyclic_triangle_free(out):
            return _result(9, "symmetrization", False, f"freeness lost at trial {i}", t0)
        report = check_symmetrized_facts(out)
        if not report.all_pass:
            return _result(9, "symmetrization", False, f"fact check failed at trial {i}", t0)
    return _result(9, "symmetrization", True, f"{trials} random graphs symmetrized", t0)


def criterion_10_mantel(part_size: int = 2) -> CriterionResult:
    t0 = time.monotonic()
    report = census_mod.census_colored_mantel(part_size, "edges", mode="exhaustive")
    cap = report.extra["edge_bound"]
    lam = report.reference_value
    elapsed = time.monotonic() - t0
    ok = report.optimum <= cap and report.optimum >= lam and elapsed < 10
    return _result(
        10,
        "colored-mantel-bound",
        ok,
        f"optimum={report.optimum} in [{lam}, {cap}]; {elapsed:.1f}s (cap 10s)",
        t0,
    )


def criterion_11_census_cross_validation(run_n6: bool = True) -> CriterionResult:
    t0 = time.monotonic()
    details = []
    for n in (4, 5):
        naive = census_mod.census_k43(n, method="naive")
        canon = census_mod.census_k43(n, method="canonical")
        if naive.optimum != canon.optimum or naive.iso_classes != canon.iso_classes:
            return _result(11, "census-cross-validation", False, f"disagreement at n={n}", t0)
        details.append(f"n={n}: opt={canon.optimum} classes={canon.iso_classes}")
    if census_mod.census_k43(4, method="canonical").optimum != 15:
        return _result(11, "census-cross-validation", False, "n=4 optimum is not 15", t0)
    if run_n6:
        six = census_mod.census_k43(6, method="canonical")
        details.append(
            f"n=6: opt={six.optimum} reference_attains={six.reference_attains} "
            f"unique={six.reference_unique} (recorded as data)"
        )
    return _result(11, "census-cross-validation", True, "; ".join(details), t0)


def criterion_12_tripartite(n_max: int = 2) -> CriterionResult:
    t0 = time.monotonic()
    details = []
    for n in range(1, n_max + 1):
        rep = census_mod.census_tripartite_triangle_free(n)
        # independent engine: the full scan against the census's cover search
        alt_opt, _, _ = census_mod._free_subsets(*census_mod._tripartite_ground(n), len)
        if rep.optimum != alt_opt:
            return _result(12, "tripartite-oracle", False, f"engines disagree at n={n}", t0)
        if not rep.extra["within_slack_bound"]:
            return _result(12, "tripartite-oracle", False, f"slack bound violated at n={n}", t0)
        if not rep.extra["all_match_split_form"]:
            return _result(12, "tripartite-oracle", False, f"non-split maximizer at n={n}", t0)
        details.append(f"n={n}: opt={rep.optimum} (2n^2={2*n*n})")
    return _result(12, "tripartite-oracle", True, "; ".join(details), t0)


CRITERIA: dict[int, Callable[[], CriterionResult]] = {
    1: criterion_1_formula_oracle,
    2: criterion_2_identities,
    3: criterion_3_l2_degree,
    4: criterion_4_balancedness,
    5: criterion_5_simplex,
    6: criterion_6_toggle_exactness,
    7: criterion_7_toggle_increase,
    8: criterion_8_driver,
    9: criterion_9_symmetrization,
    10: criterion_10_mantel,
    11: criterion_11_census_cross_validation,
    12: criterion_12_tripartite,
}


def run_suite(
    numbers: Optional[Sequence[int]] = None,
    printer: Callable[[str], None] = print,
    quick: bool = False,
) -> list[CriterionResult]:
    """Run the selected criteria (all twelve by default) and print one line
    each; a criterion named twice runs once.  ``quick`` shrinks the
    randomized trial counts for smoke runs; the pinned acceptance scales are
    the defaults."""
    selected = sorted(set(numbers or CRITERIA))
    results = []
    for number in selected:
        if number not in CRITERIA:
            raise InvalidArgument(f"no criterion {number}")
        if quick and number in (2, 3, 6, 7, 9):
            shrunk = {2: 1000, 3: 200, 6: 400, 7: 40, 9: 60}[number]
            result = CRITERIA[number](trials_per_phase=shrunk) if number == 7 else CRITERIA[number](shrunk)
        elif quick and number == 5:
            result = criterion_5_simplex(resolution=60)
        elif quick and number == 1:
            result = criterion_1_formula_oracle(n_max=20)
        elif quick and number == 4:
            result = criterion_4_balancedness(6, 15)
        else:
            result = CRITERIA[number]()
        printer(result.line())
        results.append(result)
    return results
