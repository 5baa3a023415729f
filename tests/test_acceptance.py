"""The acceptance gate: every criterion at its pinned scale and tolerance.

One test per criterion; each prints its summary line (visible with -s or in
failure output).  The randomized criteria are fully seeded, so this module is
deterministic.  Expect several minutes of runtime; the generated-instance
positivity suite (criterion 7) dominates.
"""

from turanl2 import acceptance


def _run(fn, *args, **kwargs):
    result = fn(*args, **kwargs)
    print()
    print(result.line())
    assert result.passed, result.details
    return result


def test_criterion_01_formula_oracle():
    # closed form == enumerated norm for all ~12k compositions with n <= 40,
    # inside the 60 s budget
    _run(acceptance.criterion_1_formula_oracle, 40)


def test_criterion_02_identity_suite():
    _run(acceptance.criterion_2_identities, 10_000)


def test_criterion_03_l2_degree_consistency():
    _run(acceptance.criterion_3_l2_degree, 2_000)


def test_criterion_04_balancedness():
    _run(acceptance.criterion_4_balancedness, 6, 30)


def test_criterion_05_simplex_inequality():
    _run(acceptance.criterion_5_simplex, 200)


def test_criterion_06_toggle_exactness():
    _run(acceptance.criterion_6_toggle_exactness, 5_000)


def test_criterion_07_toggle_increase(tmp_path):
    result = acceptance.criterion_7_toggle_increase(
        1_000, counterexample_dir=str(tmp_path / "counterexamples")
    )
    print()
    print(result.line())
    assert result.passed, result.details
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


def test_criterion_08_driver_soundness():
    _run(acceptance.criterion_8_driver)


def test_criterion_09_symmetrization():
    _run(acceptance.criterion_9_symmetrization, 500)


def test_criterion_10_colored_mantel_bound():
    _run(acceptance.criterion_10_mantel, 2)


def test_criterion_11_census_cross_validation():
    _run(acceptance.criterion_11_census_cross_validation)


def test_criterion_12_tripartite_oracle():
    _run(acceptance.criterion_12_tripartite, 2)
