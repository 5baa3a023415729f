"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import argparse
import json
import random
import sys
from fractions import Fraction

import pytest

import run
from tracing import Tracer, package_modules

run.use_checkout_source()


@pytest.mark.parametrize(
    "count, cap, expected",
    [
        (39, 99, None),  # p75 would leave 9 beyond
        (40, 99, 75),
        (99, 99, 75),  # p90 would leave 9 beyond
        (100, 99, 90),
        (199, 99, 90),
        (200, 99, 95),
        (1000, 99, 99),
        (50_000, 99, 99),  # the cap holds as the count grows
        (10_000, Fraction(999, 10), Fraction(999, 10)),
        (500, 75, 75),
    ],
)
def test_tail_percentile_rule(count, cap, expected):
    assert run.tail_percentile(count, Fraction(cap)) == expected
    if expected is not None:
        assert run.samples_beyond(count, Fraction(expected)) >= run.MIN_BEYOND


def test_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.nearest_rank(values, Fraction(90)) == 90.0
    assert run.nearest_rank(values, Fraction(999, 10)) == 100.0
    assert run.nearest_rank([7.0], Fraction(75)) == 7.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_nested_and_reentrant():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def codegrees():
        clock.now += 1

    def classify():
        clock.now += 2
        codegrees_w()
        clock.now += 3

    def verify(depth):
        clock.now += 1
        classify_w()
        if depth:
            verify_w(depth - 1)  # re-entrant: a verify span inside a verify span
        clock.now += 1

    codegrees_w = tracer.span_wrapper("codegrees", codegrees)
    classify_w = tracer.span_wrapper("classify", classify)
    verify_w = tracer.span_wrapper("verify", verify)
    tracer.active = True
    verify_w(1)
    assert tracer.self_times() == {
        "codegrees": (2, 2.0),
        "classify": (2, 10.0),
        "verify": (2, 4.0),
    }
    assert list(tracer.span_parent) == [-1, 0, 1, 0, 3, 4]
    root = tracer.span_end[0] - tracer.span_start[0]
    assert root == 16.0 == sum(total for _, total in tracer.self_times().values())


def test_inactive_tracer_records_nothing():
    tracer = Tracer(clock=FakeClock())
    wrapped = tracer.span_wrapper("f", lambda x: x + 1)
    assert wrapped(1) == 2
    assert len(tracer.span_start) == 0


def _instance():
    from turanl2 import generate_phase_instance

    xi = Fraction(1, (47 * 4) ** 2 * 4)
    return generate_phase_instance(random.Random(3), 30, xi, "one"), xi


def test_library_spans_nest_inside_verify_toggle_increase():
    import turanl2
    from turanl2 import Thresholds

    (h, p, pair), xi = _instance()
    tracer = Tracer()
    run.install_tracer(tracer, run.Observed())
    try:
        tracer.active = True
        turanl2.verify_toggle_increase(h, p, pair, "one", Thresholds(xi))
        tracer.active = False
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.span_name]
    assert names[0] == "improvement.verify_toggle_increase"
    assert tracer.span_parent[0] == -1

    def ancestors(i):
        while tracer.span_parent[i] >= 0:
            i = tracer.span_parent[i]
            yield names[i]

    codegree_spans = [i for i, name in enumerate(names) if name == "hypergraph.codegrees"]
    assert codegree_spans
    for i in codegree_spans:
        assert list(ancestors(i))[-1] == "improvement.verify_toggle_increase"
    classify = names.index("classification.classify_edges")
    assert names[classify + 1] == "classification.construction_edges"
    assert tracer.span_parent[classify + 1] == classify
    st = tracer.self_times()
    assert all(total >= 0 for _, total in st.values())
    root = tracer.span_end[0] - tracer.span_start[0]
    assert sum(total for _, total in st.values()) == pytest.approx(root)


def _bindings():
    """Every attribute of every turanl2 module and patched class, by identity."""
    from turanl2.colored import Partition3
    from turanl2.hypergraph import ThreeGraph

    out = {}
    owners = package_modules(("turanl2", "workloads")) + [ThreeGraph, Partition3]
    for owner in owners:
        for key, value in list(vars(owner).items()):
            out[(id(owner), key)] = value
    return out


def test_uninstall_removes_every_wrapper():
    import turanl2.census
    import workloads  # noqa: F401  (its bindings are patched too)
    from turanl2.hypergraph import ThreeGraph, l2_norm

    before = _bindings()
    tracer = Tracer(packages=("turanl2", "workloads"))
    run.install_tracer(tracer, run.Observed())
    assert turanl2.census.l2_norm is not l2_norm
    assert sys.modules["workloads"].l2_norm is not l2_norm
    assert hasattr(ThreeGraph.__dict__["codegrees"], "__wrapped__")
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(value, "__wrapped__") for value in after.values()
                   if callable(value))

    (h, p, pair), xi = _instance()
    turanl2.verify_toggle_increase(h, p, pair, "one", turanl2.Thresholds(xi))
    assert len(tracer.span_start) == 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    args = argparse.Namespace(workload="formula-oracle", seed=1, seconds=0.01, trace=0)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args.trace = trace
        metrics, _, details = (run.per_layer if trace else run.end_to_end)(args)
        assert details["correct"]
        assert {name: m["unit"] for name, m in metrics.items()} == {
            m["name"]: m["unit"] for m in spec[key]}
