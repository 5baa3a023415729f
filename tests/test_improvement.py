from fractions import Fraction

import pytest

from conftest import oracle_codegrees, oracle_l2, oracle_queues, random_graph
from turanl2.classification import (
    Thresholds,
    check_phase_one_hypotheses,
    check_phase_two_hypotheses,
    classify_edges,
)
from turanl2.colored import Partition3
from turanl2.constructions import Composition3, build_balanced_c, construction
from turanl2.errors import (
    EdgeNotCrossing,
    EdgeNotInternal,
    EdgePhaseMismatch,
    InvalidArgument,
)
from turanl2.hypergraph import l2_norm, make_graph
from turanl2 import improvement
from turanl2.improvement import (
    _queues,
    apply_toggle,
    generate_phase_instance,
    two_phase_driver,
    verify_toggle_increase,
)


def test_toggle_traces_the_two_vertex_relabeling_example():
    # a single misplaced edge swaps into the construction with zero l2 change
    h = make_graph(4, [[0, 1, 3]])
    p = Partition3((1, 1, 2, 3))
    new_h, rep = apply_toggle(h, p, (0, 1), "one")
    assert new_h.edges == ((0, 1, 2),)
    assert rep.removed == frozenset({(0, 1, 3)})
    assert rep.added == frozenset({(0, 1, 2)})
    assert rep.delta == 0
    assert rep.s1 == frozenset({(0, 2), (1, 2)})
    assert rep.s3 == frozenset({(0, 3), (1, 3)})
    assert rep.s2 == frozenset()


def test_toggle_noop_on_native_construction():
    c6, p6 = build_balanced_c(6)
    for pair, phase in (((0, 1), "one"), ((0, 2), "two")):
        out, rep = apply_toggle(c6, p6, pair, phase)
        assert out == c6 and rep.delta == 0
        assert rep.changed_pairs() == frozenset({pair})


def test_toggle_phase_two_fills_missing_transversal():
    c6, p6 = build_balanced_c(6)
    h = c6.with_changes(remove=[(0, 2, 4)])
    out, rep = apply_toggle(h, p6, (0, 2), "two")
    assert out == c6
    assert rep.delta == l2_norm(c6) - l2_norm(h)
    assert rep.s1 == frozenset({(0, 4), (2, 4)})
    assert len(rep.s2a) == len(rep.s2b) == 0


def test_toggle_phase_mismatch(rng):
    c6, p6 = build_balanced_c(6)
    with pytest.raises(EdgePhaseMismatch):
        apply_toggle(c6, p6, (0, 2), "one")
    with pytest.raises(EdgePhaseMismatch):
        apply_toggle(c6, p6, (0, 1), "two")
    # an unknown phase is a usage error before any pair or checklist is read
    t = Thresholds(Fraction(1, 100))
    for call in (
        lambda: apply_toggle(c6, p6, (0, 1), "three"),
        lambda: verify_toggle_increase(c6, p6, (0, 1), "three", t),
        lambda: generate_phase_instance(rng, 6, Fraction(1, 100), "three"),
    ):
        with pytest.raises(InvalidArgument) as info:
            call()
        assert str(info.value) == "phase must be one of ('one', 'two')"


def test_misfit_pair_raises_alike_in_checklist_and_toggle():
    c6, p6 = build_balanced_c(6)
    t = Thresholds(Fraction(1, 100))
    checkers = {"one": check_phase_one_hypotheses, "two": check_phase_two_hypotheses}
    for phase, fit, misfit in (("one", (1, 0), (2, 0)), ("two", (2, 0), (1, 0))):
        checkers[phase](c6, p6, fit, t)
        apply_toggle(c6, p6, fit, phase)
        raised = []
        for call in (checkers[phase], lambda *a: apply_toggle(*a[:3], phase)):
            with pytest.raises(EdgePhaseMismatch) as info:
                call(c6, p6, misfit, t)
            raised.append((type(info.value), str(info.value)))
        kind = EdgeNotInternal if phase == "one" else EdgeNotCrossing
        where = "crosses parts" if phase == "one" else "lies inside one part"
        assert raised == [(kind, f"pair {tuple(sorted(misfit))} {where}")] * 2


def test_verify_computes_the_norm_of_h_once(monkeypatch, rng):
    seen = []

    def counting(g):
        seen.append(g)
        return l2_norm(g)

    monkeypatch.setattr(improvement, "l2_norm", counting)
    for phase in ("one", "two"):
        h, p, pair = generate_phase_instance(rng, 30, Fraction(1, 10**6), phase)
        seen.clear()
        verdict = verify_toggle_increase(h, p, pair, phase, Thresholds(Fraction(1, 10**6)))
        assert [g is h for g in seen] == [True, False]
        assert verdict.report.l2_after == l2_norm(seen[1]) == oracle_l2(seen[1])


def _random_phase_pair(rng, parts, n, phase):
    by_part = {1: [], 2: [], 3: []}
    for v in range(n):
        by_part[parts.part_of(v)].append(v)
    if phase == "one":
        pools = [vs for vs in by_part.values() if len(vs) >= 2]
        if not pools:
            return None
        return tuple(sorted(rng.sample(rng.choice(pools), 2)))
    nonempty = [vs for vs in by_part.values() if vs]
    if len(nonempty) < 2:
        return None
    pa, pb = rng.sample(nonempty, 2)
    return tuple(sorted((rng.choice(pa), rng.choice(pb))))


def test_toggle_exactness_on_randoms(rng):
    # delta always reconciles; the changed pairs are exactly the reported sets
    done = 0
    while done < 400:
        n = rng.randint(4, 14)
        h = random_graph(rng, n, rng.random() * 0.4)
        parts = Partition3(tuple(rng.choice((1, 2, 3)) for _ in range(n)))
        phase = rng.choice(("one", "two"))
        pair = _random_phase_pair(rng, parts, n, phase)
        if pair is None:
            continue
        before = oracle_codegrees(h)
        out, rep = apply_toggle(h, parts, pair, phase)
        assert rep.delta == l2_norm(out) - l2_norm(h) == oracle_l2(out) - oracle_l2(h)
        # recounted: out's own table is derived from the same diff as the S-sets
        after = oracle_codegrees(out)
        changed = {
            e for e in set(before) | set(after) if before.get(e, 0) != after.get(e, 0)
        }
        assert changed <= rep.changed_pairs()
        for e in rep.s1:
            assert after.get(e, 0) - before.get(e, 0) == 1
        for e in rep.s2 | rep.s3 | rep.s2a | rep.s2b:
            assert after.get(e, 0) - before.get(e, 0) == -1
        ec = classify_edges(h, parts)
        if phase == "one":
            assert len(rep.s1) == 2 * ec.codegree("M", pair)
        else:
            assert len(rep.s1) == 2 * ec.codegree("M_tri", pair)
            assert len(rep.s2a) == len(rep.s2b) == ec.codegree("B", pair)
        done += 1


class TestBuildQueues:
    def test_native_construction_is_quiet(self):
        c6, p6 = build_balanced_c(6)
        q = _queues(classify_edges(c6, p6), Fraction(1, 40))
        assert not q.i_pairs and not q.j_pairs and not q.b_tilde

    def test_missing_transversals_promote_a_crossing_pair(self):
        c6, p6 = build_balanced_c(6)
        h = c6.with_changes(remove=[(0, 2, 4), (0, 2, 5)])
        q = _queues(classify_edges(h, p6), Fraction(1, 40))
        assert (0, 2) in q.j_pairs

    def test_queues_match_the_pair_scan_oracle(self, rng):
        for trial in range(400):
            n = rng.randint(0, 13)
            p = Partition3(tuple(rng.choice((1, 2, 3)) for _ in range(n)))
            if trial % 2:
                h = random_graph(rng, n, rng.random() * 0.5)
            else:
                base = construction(p)
                gone = rng.sample(base.edges, min(len(base.edges), rng.randint(0, 3 * n)))
                h = base.with_changes(add=random_graph(rng, n, 0.05).edges, remove=gone)
            delta4 = Fraction(1, rng.choice((40, 8, 3, 2)))
            assert _queues(classify_edges(h, p), delta4) == oracle_queues(h, p, delta4), trial

    def test_planted_bad_edge_with_quiet_pair_is_deferred(self):
        c6, p6 = build_balanced_c(6)
        # two part-2 vertices with one part-1 vertex: a deferred-family shape;
        # nothing is missing at the internal pair (2, 3)
        h = c6.with_changes(add=[(0, 2, 3)])
        q = _queues(classify_edges(h, p6), Fraction(1, 40))
        assert (0, 2, 3) in q.b_tilde
        assert (2, 3) not in q.i_pairs


class TestDriver:
    def test_noop_on_native_construction(self):
        c6, p6 = build_balanced_c(6)
        trace = two_phase_driver(c6, p6)
        assert not trace.steps and trace.final == c6
        assert trace.inside_construction and trace.k43_free_throughout

    def test_phase_one_removes_qualified_internal_style_bad_edge(self):
        c6, p6 = build_balanced_c(6)
        h = c6.with_changes(add=[(0, 1, 4)], remove=[(0, 1, 2)])
        trace = two_phase_driver(h, p6)
        assert trace.every_bad_edge_covered
        assert trace.final == c6
        assert any(s.phase == "one" and s.e_star == (0, 1) for s in trace.steps)
        assert trace.bad_monotone and trace.missing_monotone

    def test_phase_two_handles_deferred_bad_edge(self):
        c9, p9 = build_balanced_c(9)
        # deferred-family bad edge {3, 4, 0}: two part-2 vertices, one part-1;
        # its internal pair stays quiet, but a crossing pair qualifies through
        # a removed transversal
        h = c9.with_changes(add=[(0, 3, 4)], remove=[(0, 3, 6)])
        trace = two_phase_driver(h, p9)
        assert trace.every_bad_edge_covered
        assert trace.final == c9
        assert any(s.phase == "two" for s in trace.steps)

    def test_uncovered_bad_edge_is_reported_as_leftover(self):
        c6, p6 = build_balanced_c(6)
        h = c6.with_changes(add=[(0, 2, 3)])  # nothing missing anywhere
        trace = two_phase_driver(h, p6)
        assert not trace.every_bad_edge_covered
        assert trace.bad_final == frozenset({(0, 2, 3)})
        assert not trace.inside_construction

    def test_trajectory_and_jsonl(self):
        c6, p6 = build_balanced_c(6)
        h = c6.with_changes(add=[(0, 1, 4)], remove=[(0, 1, 2)])
        trace = two_phase_driver(h, p6)
        assert trace.l2_trajectory[0] == l2_norm(h)
        assert trace.l2_trajectory[-1] == l2_norm(trace.final)
        lines = trace.to_json_lines().splitlines()
        assert len(lines) == len(trace.steps)
        import json

        step = json.loads(lines[0])
        assert set(step) == {"phase", "e_star", "removed", "added", "delta", "l2"}

    @pytest.mark.parametrize("order_seed", (None, 5))
    def test_each_state_is_classified_once(self, monkeypatch, order_seed):
        calls = []

        def counting(h, p):
            calls.append(h)
            return classify_edges(h, p)

        monkeypatch.setattr(improvement, "classify_edges", counting)
        c9, p9 = build_balanced_c(9)
        mixed = c9.with_changes(add=[(0, 1, 6), (0, 3, 4)], remove=[(0, 1, 3), (0, 3, 6)])
        for h in (c9, mixed):
            calls.clear()
            trace = two_phase_driver(h, p9, order_seed=order_seed)
            # the initial state once, for the queues and the first toggle,
            # then each step's result
            assert len(calls) == len(trace.steps) + 1
        assert len(trace.steps) >= 3 and {s.phase for s in trace.steps} == {"one", "two"}

    def test_each_state_norm_is_counted_once(self, monkeypatch):
        calls = []

        def counting(h):
            calls.append(h)
            return l2_norm(h)

        monkeypatch.setattr(improvement, "l2_norm", counting)
        c9, p9 = build_balanced_c(9)
        mixed = c9.with_changes(add=[(0, 1, 6), (0, 3, 4)], remove=[(0, 1, 3), (0, 3, 6)])
        for h in (c9, mixed):
            calls.clear()
            trace = two_phase_driver(h, p9)
            # each toggle counts its input; h is counted apart only when no
            # toggle ran
            assert len(calls) == max(len(trace.steps), 1)
            assert len(trace.l2_trajectory) == len(trace.steps) + 1
            assert trace.l2_trajectory[0] == oracle_l2(h)
            assert trace.l2_trajectory[-1] == oracle_l2(trace.final)
        assert trace.steps

    def test_order_seed_permutes_queues_only(self):
        c6, p6 = build_balanced_c(6)
        h = c6.with_changes(
            add=[(0, 1, 4)], remove=[(0, 1, 2), (2, 3, 0), (4, 5, 2)]
        )
        a = two_phase_driver(h, p6)
        b = two_phase_driver(h, p6, order_seed=5)
        assert set(a.queues.i_pairs) == set(b.queues.i_pairs)
        assert a.final.n == b.final.n


class TestGeneratorAndVerification:
    def test_generator_meets_codegree_items(self, rng):
        for phase, coeff in (("one", 47), ("two", 90)):
            xi = Fraction(1, (coeff * 4) ** 2 * 4)
            for _ in range(5):
                n = rng.randint(60, 120)
                h, p, pair = generate_phase_instance(rng, n, xi, phase)
                verdict = verify_toggle_increase(h, p, pair, phase, Thresholds(xi))
                flags = {i.id: i.passed for i in verdict.checklist.items}
                assert flags["iii"] and flags["iv"]
                if phase == "one":
                    assert flags["v"]
                if n % 3 == 0:
                    # equal parts: the balance item is exactly zero vs xi*n
                    assert flags["i"]
                # the max-degree item cannot coexist with the planted codegree
                # at this scale; positivity is checked exactly instead
                assert verdict.report.delta > 0
                assert verdict.claim in (
                    "increase-asserted",
                    "hypotheses-unmet-no-claim",
                )

    @pytest.mark.parametrize("n", (60, 89, 120))
    def test_instance_and_toggle_tables_match_recount(self, n, rng):
        # the instance derives its table from the cached construction, the
        # toggled graph from the instance; neither parent table may move
        base = construction(Composition3.balanced(n).partition())
        base_table = dict(base.codegrees())
        assert base_table == oracle_codegrees(base)
        for phase, coeff in (("one", 47), ("two", 90)):
            xi = Fraction(1, (coeff * 4) ** 2 * 4)
            h, p, pair = generate_phase_instance(rng, n, xi, phase)
            table = h.codegrees()
            assert table == oracle_codegrees(h) and 0 not in table.values()
            h_table = dict(table)
            out, _ = apply_toggle(h, p, pair, phase)
            out_table = out.codegrees()
            assert out_table == oracle_codegrees(out) and 0 not in out_table.values()
            assert h.codegrees() == h_table
        assert base.codegrees() == base_table

    def test_counterexample_serialization(self, tmp_path):
        # force the counterexample path by handing the verifier a passing
        # checklist situation with a rigged delta: simplest is to check the
        # writer directly through a no-op toggle that cannot increase
        c6, p6 = build_balanced_c(6)
        t = Thresholds(Fraction(1, 4))
        verdict = verify_toggle_increase(c6, p6, (0, 1), "one", t, str(tmp_path))
        # native construction: checklist item iii fails, so no claim, no file
        assert verdict.claim == "hypotheses-unmet-no-claim"
        assert not list(tmp_path.iterdir())
