import argparse
import dataclasses
import json

import pytest

from turanl2 import acceptance, cli
from turanl2.census import census_colored_mantel, census_k43
from turanl2.classification import Thresholds, optimize_partition
from turanl2.cli import main
from turanl2.errors import InvalidArgument, TuranL2Error
from turanl2.hypergraph import make_graph
from turanl2.improvement import apply_toggle, build_queues
from turanl2.inequality import verify_simplex_inequality
from turanl2.formats import load_h3, load_p3, write_cg
from turanl2.colored import build_lambda
from turanl2.util import parse_fraction


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_and_norm(tmp_path, capsys):
    stem = tmp_path / "c6"
    code, out, _ = run(["construct", "--type", "C", "--sizes", "2,2,2", "--output", str(stem)], capsys)
    assert code == 0
    h = load_h3(stem.with_suffix(".h3"))
    p = load_p3(stem.with_suffix(".p3"))
    assert len(h.edges) == 14 and p.sizes == (2, 2, 2)

    code, out, _ = run(["norm", "--input", str(stem.with_suffix(".h3"))], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["l2"] == 120 and payload["identity_holds"] is True


def test_construct_b_and_sweep(tmp_path, capsys):
    stem = tmp_path / "b4"
    code, _, _ = run(["construct", "--type", "B", "--sizes", "2,2", "--output", str(stem)], capsys)
    assert code == 0
    assert len(load_h3(stem.with_suffix(".h3")).edges) == 4
    code, out, _ = run(["construct", "--sweep", "5", "--sizes", ""], capsys)
    assert code == 0 and out.startswith("n1,n2,n3,l2")


def test_construct_rejects_negative_sweep(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--sweep", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--sweep" in captured.err and captured.out == ""


def test_classify_improve_roundtrip(tmp_path, capsys):
    stem = tmp_path / "c6"
    run(["construct", "--type", "C", "--sizes", "2,2,2", "--output", str(stem)], capsys)
    code, out, _ = run(
        ["classify", "--input", str(stem.with_suffix(".h3")),
         "--partition", str(stem.with_suffix(".p3"))],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["intersection"] == 14
    assert payload["families"]["B"]["size"] == 0

    code, out, _ = run(
        ["improve", "--input", str(stem.with_suffix(".h3")),
         "--partition", str(stem.with_suffix(".p3")), "--delta4", "1/40"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inside_construction"] is True and payload["steps"] == []


def test_census_subcommand(tmp_path, capsys):
    code, out, err = run(["census", "--problem", "k43-l2", "--n", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == 15
    assert "wall" in err  # human log goes to stderr, never into the JSON
    assert "wall_time" not in payload


@pytest.mark.parametrize("flags", [[], ["--exhaustive"]])
def test_census_rejects_negative_vertex_count(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--problem", "k43-l2", "--n", "-1", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "vertex count must be nonnegative" in captured.err and captured.out == ""


def test_census_artifacts(tmp_path, capsys):
    stem = tmp_path / "k4"
    code, _, _ = run(
        ["census", "--problem", "k43-l2", "--n", "4", "--output", str(stem), "--json"],
        capsys,
    )
    assert code == 0
    csv = stem.with_suffix(".csv").read_text()
    assert csv.splitlines()[1].startswith("k43-l2,4,15,1,")
    extremal = load_h3(tmp_path / "k4-extremal0.h3")
    assert extremal.n == 4 and len(extremal.edges) == 3


def test_mantel_subcommand(capsys):
    # the colored Mantel census is reached through census alone
    with pytest.raises(SystemExit) as exc:
        main(["mantel", "--n", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'mantel'" in captured.err and captured.out == ""
    code, out, _ = run(["census", "--problem", "mantel-edges", "--n", "2", "--exhaustive"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == 9 and payload["extra"]["edge_bound_holds"] is True


def test_census_judges_a_mantel_report_by_its_edge_bound(capsys, monkeypatch):
    real = census_colored_mantel(2, "edges", mode="exhaustive")
    broken = dataclasses.replace(real, extra={**real.extra, "edge_bound_holds": False})
    monkeypatch.setattr(cli, "census_colored_mantel", lambda *args, **kwargs: broken)
    code, out, _ = run(["census", "--problem", "mantel-edges", "--n", "2"], capsys)
    assert code == 1 and json.loads(out)["extra"]["edge_bound_holds"] is False


def test_tripartite_census_rejects_exhaustive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--problem", "tripartite", "--n", "1", "--exhaustive"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "cover search" in captured.err and captured.out == ""


def test_subcommand_set_is_pinned():
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {
        "construct", "norm", "classify", "improve", "census", "symmetrize", "ineq", "check",
    }


def test_symmetrize_subcommand(tmp_path, capsys, monkeypatch):
    scans = []
    scan = cli.is_cyclic_triangle_free

    def counted(cg):
        scans.append(cg)
        return scan(cg)

    monkeypatch.setattr(cli, "is_cyclic_triangle_free", counted)
    path = tmp_path / "lam.cg"
    path.write_text(write_cg(build_lambda(2, 2, 2)))
    code, out, _ = run(["symmetrize", "--input", str(path)], capsys)
    assert code == 0 and len(scans) == 2  # the input and the output, once each
    payload = json.loads(out)
    assert payload["merge_steps"] == 0 and payload["facts"]["all_pass"] is True
    assert payload["cyclic_triangle_free_in"] is payload["cyclic_triangle_free_out"] is True

    # a cyclic triangle: reported, not a failed fact, and still written out
    scans.clear()
    path = tmp_path / "tri.cg"
    path.write_text("3\n123\n3\n0 1\n0 2\n1 2\n")
    stem = tmp_path / "out"
    code, out, _ = run(["symmetrize", "--input", str(path), "--json", "--output", str(stem)], capsys)
    assert code == 0 and len(scans) == 2
    assert stem.with_suffix(".json").read_text() == out
    payload = json.loads(out)
    assert payload["cyclic_triangle_free_in"] is payload["cyclic_triangle_free_out"] is False
    assert stem.with_suffix(".cg").read_text() == path.read_text()


def test_ineq_subcommand(capsys):
    code, out, _ = run(["ineq", "--resolution", "9", "--interval"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["worst_margin_num"] == 0  # 3 | 9: equality at the barycenter
    assert payload["certificate"]["certified"] is True


def test_check_subcommand_quick(capsys):
    # a criterion named twice runs once
    for suite, count in (("2,3,12", 3), ("12,12", 1)):
        code, out, _ = run(["check", "--suite", suite, "--quick"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert len(lines) == count and all(l.startswith("[PASS]") for l in lines)


def test_reports_are_byte_identical_for_same_config(tmp_path, capsys):
    stem = tmp_path / "c9"
    run(["construct", "--type", "C", "--sizes", "3,3,3", "--output", str(stem)], capsys)
    argv = ["norm", "--input", str(stem.with_suffix(".h3")), "--seed", "11"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--problem", "nope", "--n", "3"])
    assert exc.value.code == 2


def test_duplicate_input_lines_are_usage_errors(tmp_path, capsys):
    h3 = tmp_path / "dup.h3"
    h3.write_text("3 2\n0 1 2\n2 1 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--input", str(h3)])
    assert exc.value.code == 2
    assert "'2 1 0'" in capsys.readouterr().err

    cg = tmp_path / "dup.cg"
    cg.write_text("3\n123\n2\n0 1\n1 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["symmetrize", "--input", str(cg)])
    assert exc.value.code == 2
    assert "'1 0'" in capsys.readouterr().err


def test_removed_options_are_rejected(capsys):
    for argv in (["construct", "--sweep", "5", "--workers", "2"],
                 ["check", "--suite", "2", "--n-max", "10"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("flag", (["--seed", "7"], ["--json"]))
@pytest.mark.parametrize("argv", (["construct", "--sweep", "5"], ["check", "--suite", "12"]))
def test_construct_and_check_reject_the_flags_they_do_not_read(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_every_other_subcommand_takes_seed_and_json():
    parser = cli.build_parser()
    for argv in (["norm", "--input", "g.h3"], ["classify", "--input", "g.h3"],
                 ["improve", "--input", "g.h3", "--partition", "g.p3"],
                 ["census", "--problem", "tripartite", "--n", "1"],
                 ["symmetrize", "--input", "g.cg"], ["ineq"]):
        args = parser.parse_args(argv + ["--seed", "7", "--json"])
        assert args.seed == 7 and args.json, argv


def test_assisted_mantel_rejects_empty_parts():
    with pytest.raises(InvalidArgument, match="part size"):
        census_colored_mantel(0, mode="assisted")


def test_bad_rationals_are_usage_errors(tmp_path, capsys):
    stem = tmp_path / "c6"
    run(["construct", "--type", "C", "--sizes", "2,2,2", "--output", str(stem)], capsys)
    improve = ["improve", "--input", str(stem.with_suffix(".h3")),
               "--partition", str(stem.with_suffix(".p3")), "--delta4"]
    for argv in (["ineq", "--resolution", "3", "--interval", "--width", "1/0"],
                 improve + ["1/0"], improve + ["one/two"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert repr(argv[-1]) in captured.err and captured.out == ""
        with pytest.raises(InvalidArgument):
            parse_fraction(argv[-1])


@pytest.mark.parametrize("command", ("classify", "improve"))
def test_partition_of_another_size_is_rejected_at_load(command, tmp_path, capsys):
    stem = tmp_path / "c6"
    run(["construct", "--type", "C", "--sizes", "2,2,2", "--output", str(stem)], capsys)
    short = tmp_path / "short.p3"
    short.write_text("1122\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(stem.with_suffix(".h3")), "--partition", str(short)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert str(short) in captured.err and str(stem.with_suffix(".h3")) in captured.err
    assert captured.out == ""


def test_argument_errors_exit_2(tmp_path, capsys):
    stem = tmp_path / "c6"
    run(["construct", "--type", "C", "--sizes", "2,2,2", "--output", str(stem)], capsys)
    improve = ["improve", "--input", str(stem.with_suffix(".h3")),
               "--partition", str(stem.with_suffix(".p3"))]
    for argv, needle in ((["check", "--suite", "13"], "no criterion 13"),
                         (["check", "--suite", "2,13"], "no criterion 13"),
                         (["check", "--suite", "x"], "--suite"),
                         (["check", "--suite", ""], "--suite"),
                         (["construct", "--sizes", "a,b,c"], "--sizes"),
                         (["ineq", "--resolution", "0"], "resolution"),
                         (improve + ["--delta4", "2"], "delta4")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert needle in captured.err and captured.out == "", argv


def test_missing_input_files_exit_2(tmp_path, capsys):
    stem = tmp_path / "c6"
    run(["construct", "--type", "C", "--sizes", "2,2,2", "--output", str(stem)], capsys)
    not_utf8 = tmp_path / "bad.h3"
    not_utf8.write_bytes(b"\xff3 1\n0 1 2\n")
    for argv in (["norm", "--input", str(tmp_path / "missing.h3")],
                 ["norm", "--input", str(not_utf8)],
                 ["classify", "--input", str(stem.with_suffix(".h3")),
                  "--partition", str(tmp_path / "missing.p3")],
                 ["symmetrize", "--input", str(tmp_path / "missing.cg")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert argv[-1] in captured.err and captured.out == "", argv


def test_certificate_width_outside_unit_interval_exits_2(capsys):
    for width in ("2", "0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["ineq", "--resolution", "3", "--interval", "--width", width])
        assert exc.value.code == 2, width
        captured = capsys.readouterr()
        assert "width" in captured.err and captured.out == "", width
    code, out, _ = run(["ineq", "--resolution", "3", "--interval", "--width", "1"], capsys)
    assert code == 1 and json.loads(out)["certificate"]["max_depth"] == 2


def test_argument_checks_stay_value_errors():
    h = make_graph(4, [[0, 1, 2]])
    for call in (lambda: acceptance.run_suite([13]),
                 lambda: census_k43(3, method="nope"),
                 lambda: census_colored_mantel(2, "nope"),
                 lambda: census_colored_mantel(2, "edges", mode="nope"),
                 lambda: optimize_partition(h, mode="nope"),
                 lambda: Thresholds(0),
                 lambda: apply_toggle(h, None, (0, 1), "three"),
                 lambda: build_queues(h, None, 2),
                 lambda: verify_simplex_inequality(0)):
        with pytest.raises(InvalidArgument) as exc:
            call()
        assert isinstance(exc.value, ValueError) and isinstance(exc.value, TuranL2Error)


def test_internal_value_error_is_not_a_usage_error(tmp_path, capsys, monkeypatch):
    stem = tmp_path / "c6"
    run(["construct", "--type", "C", "--sizes", "2,2,2", "--output", str(stem)], capsys)

    def broken(h):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "l2_norm", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["norm", "--input", str(stem.with_suffix(".h3"))])
