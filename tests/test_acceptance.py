"""The acceptance gate: every criterion at its pinned scale and tolerance.

One test per criterion, run through ``acceptance.run_criterion``; each prints
its summary line (visible with -s or in failure output).  The randomized
criteria are fully seeded, so this module is deterministic.  Expect about half
a minute of runtime; criteria 1 and 7 dominate.
"""

import re
from types import SimpleNamespace

import pytest

from turanl2 import acceptance, cli
from turanl2.errors import InvalidArgument

# ``turanl2 check --suite all --quick`` with every seconds figure masked
QUICK_LINES = [
    "[PASS] criterion  1 formula-oracle: 1771 compositions agree; cap 60s (<t>s)",
    "[PASS] criterion  2 identity-suite: 1000 random graphs, zero violations (<t>s)",
    "[PASS] criterion  3 l2-degree-consistency: 200 random (graph, vertex) pairs (<t>s)",
    "[PASS] criterion  4 balancedness: n in [6,15]; pinned families exercised: "
    "{'top-heavy-equal-pair': 3, 'middle-light-high-third': 3, "
    "'middle-light-mid-third': 4, 'middle-light-low-third': 3} (<t>s)",
    "[PASS] criterion  5 simplex-inequality: grid d=60 worst=0 zeros=1; "
    "certificate boxes=181+8 undecided=0; cap 300s (<t>s)",
    "[PASS] criterion  6 toggle-exactness: 400 random toggles reconciled (<t>s)",
    "[PASS] criterion  7 toggle-increase: 80 generated instances, 0 non-positive deltas (<t>s)",
    "[PASS] criterion  8 driver-soundness: perturbed constructions cleaned at n=6,9,12 (<t>s)",
    "[PASS] criterion  9 symmetrization: 60 random graphs symmetrized (<t>s)",
    "[PASS] criterion 10 colored-mantel-bound: optimum=9 in [9, 20]; cap 10s (<t>s)",
    "[PASS] criterion 11 census-cross-validation: n=4: opt=15 classes=1; n=5: opt=47 classes=1; "
    "n=6: opt=120 reference_attains=True unique=True (recorded as data) (<t>s)",
    "[PASS] criterion 12 tripartite-oracle: n=1: opt=2 (2n^2=2); n=2: opt=8 (2n^2=8) (<t>s)",
]


def _masked(lines):
    return [re.sub(r"\d+\.\ds\b", "<t>s", line) for line in lines]


def _run(number, **scale):
    result = acceptance.run_criterion(number, **scale)
    print()
    print(result.line())
    assert result.passed, result.details
    return result


def test_criterion_01_formula_oracle():
    # closed form == enumerated norm for all ~12k compositions with n <= 40,
    # inside the 60 s budget
    _run(1, n_max=40)


def test_criterion_02_identity_suite():
    _run(2, trials=10_000)


def test_criterion_03_l2_degree_consistency():
    _run(3, trials=2_000)


def test_criterion_04_balancedness():
    _run(4, n_lo=6, n_hi=30)


def test_criterion_05_simplex_inequality():
    _run(5, resolution=200)


def test_criterion_06_toggle_exactness():
    _run(6, trials=5_000)


def test_criterion_07_toggle_increase(tmp_path):
    _run(7, trials_per_phase=1_000, counterexample_dir=str(tmp_path / "counterexamples"))
    assert not (tmp_path / "counterexamples").exists()


def test_quick_check_writes_no_counterexamples(monkeypatch):
    seen = []
    real = acceptance.verify_toggle_increase

    def spy(h, p, e_star, phase, t, counterexample_dir="<not passed>"):
        seen.append(counterexample_dir)
        return real(h, p, e_star, phase, t, counterexample_dir)

    monkeypatch.setattr(acceptance, "verify_toggle_increase", spy)
    [result] = acceptance.run_suite([7], printer=lambda line: None, quick=True)
    assert result.passed
    assert len(seen) == 80 and set(seen) == {None}


def test_quick_battery_prints_the_pinned_lines():
    lines = []
    acceptance.run_suite(printer=lines.append, quick=True)
    assert _masked(lines) == QUICK_LINES


def test_a_capped_criterion_fails_past_its_cap_and_reports_its_time(monkeypatch, capsys):
    ticks = iter((0.0, 61.0))
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    result = acceptance.run_criterion(1, n_max=3)
    assert result.line() == (
        "[FAIL] criterion  1 formula-oracle: 20 compositions agree; cap 60s (61.0s)"
    )
    monkeypatch.undo()
    # a failed fact keeps its message and still reports its time against the cap
    monkeypatch.setattr(acceptance, "c_l2_closed", lambda comp: -1)
    assert cli.main(["check", "--suite", "1,2", "--quick"]) == 1
    assert _masked(capsys.readouterr().out.splitlines()) == [
        "[FAIL] criterion  1 formula-oracle: mismatch at (0, 0, 0); cap 60s (<t>s)",
        QUICK_LINES[1],
    ]
    with pytest.raises(InvalidArgument):
        acceptance.run_criterion(13)


def test_criterion_08_driver_soundness():
    _run(8)


def test_criterion_09_symmetrization():
    _run(9, trials=500)


def test_criterion_10_colored_mantel_bound():
    _run(10, part_size=2)


def test_criterion_11_census_cross_validation():
    _run(11)


def test_criterion_12_tripartite_oracle():
    _run(12, n_max=2)
