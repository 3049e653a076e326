import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kcscglue.balancing import solve_scalar_flat_balancing
from kcscglue.cli import SECTIONS, main
from kcscglue.examples import embedded_examples, example_by_name
from kcscglue.formats import FanFile, OrbifoldFile, ParseError, parse_fan, parse_orbifold
from kcscglue.report import build_report, exit_code, input_errors, render_sections

INFEASIBLE_ORBIFOLD = """\
m 2
d 1
s positive
einstein no
point Q1 scalar_flat order=2 e_sign=+1 phi=[1]
"""

P2_RAYS = "dim 2\nk 1\nray [1, 0]\nray [0, 1]\nray [-1, -1]\n"
P2_FAN = P2_RAYS + "cone [1, 2]\ncone [2, 3]\ncone [3, 1]\n"
# Cone lists that are not fans, with the violation validation names first.
NON_FANS = {
    "incomplete.fan": (
        P2_RAYS + "cone [1, 2]\ncone [2, 3]\n",
        "wall [1] lies in 1 of the cones, expected 2",
    ),
    "overlapping.fan": (
        P2_RAYS + "ray [1, 1]\ncone [1, 2]\ncone [2, 3]\ncone [3, 1]\ncone [1, 4]\n",
        "wall [1] lies in 3 of the cones, expected 2",
    ),
}
# A complete fan whose -K is not nef (the Hirzebruch surface F_3): its
# polytope stage records the facet a cone vertex violates.
NOT_NEF_FAN = (
    "dim 2\nk 1\nray [1, 0]\nray [0, 1]\nray [-1, 3]\nray [0, -1]\n"
    "cone [1, 2]\ncone [2, 3]\ncone [3, 4]\ncone [4, 1]\n"
)
# Fans whose report is an input error, with the exit codes of report,
# classify, polytope and balance on each.
ERROR_FANS = {
    "three-generator-cone.fan": (
        P2_RAYS + "cone [1, 2, 3]\ncone [2, 3]\ncone [3, 1]\n",
        (2, 2, 2, 2),
    ),
    "incomplete.fan": (NON_FANS["incomplete.fan"][0], (2, 2, 2, 2)),
    "overlapping.fan": (NON_FANS["overlapping.fan"][0], (2, 2, 2, 2)),
    "not-nef.fan": (NOT_NEF_FAN, (2, 0, 2, 2)),
    "no-k.fan": (P2_FAN.replace("k 1\n", ""), (2, 0, 2, 2)),
    "dim-1.fan": ("dim 1\nk 1\nray [1]\nray [-1]\ncone [1]\ncone [2]\n", (2, 2, 2, 2)),
}
FIXTURES = Path(__file__).parent / "fixtures"
# Valid syntax, but explicit laplacian data with s positive cannot be balanced.
NON_NUMERIC_S_ORBIFOLD = """\
m 2
d 2
s positive
einstein no
point P1 ricci_flat order=2 phi=[1, 0] dphi=[1, 0]
point P2 ricci_flat order=2 phi=[-1, 0] dphi=[-1, 0]
"""
# Einstein points under a negative scalar curvature: the tuning c_j = s b_j
# needs s > 0, whether or not the points admit a positive kernel vector.
NEGATIVE_S_POINTS = {
    "antipodal": ("[1, 0]", "[-1, 0]", "[0, 1]", "[0, -1]"),
    "one-sided": ("[1, 0]", "[1, 1]"),
}


@pytest.fixture()
def corpus(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for ex in embedded_examples():
        (d / ex.filename).write_text(ex.text)
    return d


class TestExitCodes:
    def test_balance_feasible(self, corpus, capsys):
        assert main(["balance", str(corpus / "x1.fan")]) == 0
        out = capsys.readouterr().out
        assert "feasible: yes" in out
        assert "b = (1, 1, 1, 1, 1, 1)" in out

    def test_balance_infeasible(self, tmp_path, capsys):
        p = tmp_path / "single.orb"
        p.write_text(INFEASIBLE_ORBIFOLD)
        assert main(["balance", str(p)]) == 1
        assert "feasible: no" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, why",
        [
            ("scalar-flat-no-witness.orb", "y = (1) gives y^T M_int >= 0, != 0 (Gordan)"),
            ("scalar-flat-rank-deficient.orb", "y = (0, 1) gives y^T M_int = 0 with y != 0"),
            ("einstein-no-witness.orb", "y = (1, 1) gives y^T M_int >= 0, != 0 (Gordan)"),
        ],
    )
    def test_balance_infeasible_says_why(self, name, why, capsys):
        assert main(["balance", str(FIXTURES / name)]) == 1
        assert f"\nwhy: {why}" in capsys.readouterr().out

    def test_balance_feasible_says_why(self, corpus, capsys):
        assert main(["balance", str(corpus / "p2-z3.orb")]) == 0
        out = capsys.readouterr().out
        assert "why: columns 1, 2 of M_int have det -1, so the rank is d" in out

    def test_parse_error(self, tmp_path, capsys):
        p = tmp_path / "bad.fan"
        p.write_text("dim x\n")
        assert main(["classify", str(p)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/path.fan"]) == 2

    @pytest.mark.parametrize("name", sorted(NEGATIVE_S_POINTS))
    def test_balance_rejects_negative_s(self, name, tmp_path, capsys):
        p = tmp_path / f"{name}.orb"
        p.write_text(
            "m 2\nd 2\ns -1\neinstein yes\n"
            + "".join(
                f"point P{j} ricci_flat order=2 phi={phi}\n"
                for j, phi in enumerate(NEGATIVE_S_POINTS[name])
            )
        )
        assert main(["balance", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: balancing: scalar curvature must be positive here\n"
        )
        assert "feasible" not in captured.out

    def test_unread_flags_rejected(self, corpus, capsys):
        orb = next(iter(sorted(corpus.glob("*.orb"))))
        for argv in (
            ["classify", str(corpus / "x1.fan"), "--format", "structured"],
            ["classify", str(corpus / "x1.fan"), "--out", "x.json"],
            ["classify", str(corpus / "x1.fan"), "--k", "2"],
            ["coeffs", str(orb), "--k", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestClassify:
    def test_fan_table(self, corpus, capsys):
        assert main(["classify", str(corpus / "x1.fan")]) == 0
        out = capsys.readouterr().out
        assert out.count("su") >= 6
        assert "C12" in out

    def test_orbifold_table(self, corpus, capsys):
        assert main(["classify", str(corpus / "p2-z3.orb")]) == 0
        out = capsys.readouterr().out
        # three fixed points, group order 3, SU models
        assert out.count("ricci_flat") == 3
        assert out.count("3") >= 3
        assert "su" in out

    def test_orbifold_table_skips_balancing(self, tmp_path, capsys):
        # the balancing stage of this file raises; classify does not run it
        p = tmp_path / "non-numeric-s.orb"
        p.write_text(NON_NUMERIC_S_ORBIFOLD)
        assert main(["classify", str(p)]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [r.split() for r in rows] == [
            ["P1", "2", "su", "ricci_flat"],
            ["P2", "2", "su", "ricci_flat"],
        ]


SECTION_INPUTS = {ex.filename: ex.text for ex in embedded_examples()}
SECTION_INPUTS.update(
    (p.name, p.read_text()) for p in FIXTURES.iterdir() if p.suffix in (".fan", ".orb")
)


@pytest.mark.parametrize("name", sorted(SECTION_INPUTS))
def test_subcommands_print_sections_of_the_text_report(name, tmp_path, capsys):
    """classify, polytope, balance and coeffs print their sections with the
    text report's renderer, or nothing (an input error on stderr), and what
    they print is part of the text report."""
    path = tmp_path / name
    path.write_text(SECTION_INPUTS[name])
    main(["report", str(path), "--format", "text"])
    text_report = capsys.readouterr().out
    kind, parse = (FanFile, parse_fan) if name.endswith(".fan") else (OrbifoldFile, parse_orbifold)
    try:
        parsed = parse(SECTION_INPUTS[name])
    except ParseError:
        parsed = None
    for command, by_kind in SECTIONS.items():
        if kind not in by_kind:
            continue
        code = main([command, str(path)])
        captured = capsys.readouterr()
        if parsed is None:
            assert (code, captured.out) == (2, "")
            continue
        names = by_kind[kind]
        body = build_report(str(path), SECTION_INPUTS[name], parsed, until=names[-1])["report"]
        assert code == exit_code(body)
        if captured.out:
            assert captured.out == render_sections(body, names)
            assert captured.out in text_report
        else:
            assert code == 2 and captured.err
        if not input_errors(body):
            assert captured.out


class TestPolytopeStageErrors:
    @pytest.mark.parametrize("name", sorted(NON_FANS))
    def test_error_recorded_and_classify_runs(self, name, tmp_path, capsys):
        text, violation = NON_FANS[name]
        p = tmp_path / name
        p.write_text(text)
        out_path = tmp_path / "report.json"
        assert main(["report", str(p), "--out", str(out_path)]) == 2
        body = json.loads(out_path.read_text())["report"]
        assert body["validation"]["violations"][0] == violation
        assert "polytope" not in body
        assert main(["classify", str(p)]) == 2
        out = capsys.readouterr().out
        assert "smooth" in out and f"violation: {violation}" in out
        assert main(["polytope", str(p)]) == 2
        assert f"error: invalid fan: {violation}" in capsys.readouterr().err

    def test_polytope_error_recorded_on_a_fan(self, tmp_path, capsys):
        p = tmp_path / "not-nef.fan"
        p.write_text(NOT_NEF_FAN)
        out_path = tmp_path / "report.json"
        assert main(["report", str(p), "--out", str(out_path)]) == 2
        body = json.loads(out_path.read_text())["report"]
        assert body["validation"] == {"valid": True, "violations": []}
        assert body["polytope"] == {
            "error": "cone vertex (-1, -1) violates facet of ray (-1, 3)"
        }
        assert main(["classify", str(p)]) == 0
        assert main(["polytope", str(p)]) == 2
        assert "error: polytope: cone vertex" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(ERROR_FANS))
    def test_exit_codes(self, name, tmp_path, capsys):
        text, codes = ERROR_FANS[name]
        p = tmp_path / name
        p.write_text(text)
        commands = ("report", "classify", "polytope", "balance")
        assert tuple(main([c, str(p)]) for c in commands) == codes

    def test_dim_one_rejected_by_every_subcommand(self, tmp_path, capsys):
        p = tmp_path / "dim-1.fan"
        p.write_text(ERROR_FANS["dim-1.fan"][0])
        for command in ("report", "classify", "polytope", "balance"):
            assert main([command, str(p)]) == 2
            assert capsys.readouterr().err == "error: line 1: dim must be >= 2\n"

    def test_checked_in_overlapping_fixture(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        path = FIXTURES / "overlapping-p2.fan"
        assert main(["report", str(path), "--out", str(out_path)]) == 2
        body = json.loads(out_path.read_text())["report"]
        assert body["validation"] == {
            "valid": False,
            "violations": [
                "wall [1] lies in 3 of the cones, expected 2",
                "wall [4] lies in 1 of the cones, expected 2",
            ],
        }
        assert "polytope" not in body
        assert main(["classify", str(path)]) == 2
        capsys.readouterr()
        assert main(["balance", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: invalid fan: wall [1] lies in 3 of the cones, expected 2\n"
            "error: invalid fan: wall [4] lies in 1 of the cones, expected 2\n"
        )

    def test_checked_in_unused_ray_fixture(self, capsys):
        path = FIXTURES / "p2-unused-ray.fan"
        for command in ("report", "classify", "polytope", "balance"):
            assert main([command, str(path)]) == 2
        assert "error: invalid fan: ray 4 [1, 1] is in no cone\n" in capsys.readouterr().err

    def test_checked_in_duplicate_labels_fixture(self, capsys):
        path = FIXTURES / "duplicate-labels.fan"
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().out.endswith(
            "\n\nviolation: cone label A names 2 cones\nviolation: cone label B names 2 cones\n"
        )
        for command in ("report", "polytope", "balance"):
            assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.count("error: invalid fan: cone label A names 2 cones\n") == 2

    def test_checked_in_empty_list_entry_fixture(self, capsys):
        for command in ("report", "classify", "polytope", "balance"):
            assert main([command, str(FIXTURES / "empty-list-entry.fan")]) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: line 3: ray entry '' is not an integer\n"
            assert captured.out == ""

    def test_checked_in_decimal_s_fixture(self, capsys):
        assert main(["report", str(FIXTURES / "decimal-s.orb")]) == 2
        assert capsys.readouterr().err == (
            "error: line 5: s must be an exact rational or 'positive'\n"
        )

    def test_checked_in_repeated_point_label_fixture(self, capsys):
        for command in ("report", "balance", "coeffs"):
            assert main([command, str(FIXTURES / "repeated-point-label.orb")]) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: line 8: point label P1 given twice (first on line 7)\n"
            assert captured.out == ""

    def test_polytope_on_invalid_fan(self, tmp_path, capsys):
        p = tmp_path / "one-ray-cone.fan"
        p.write_text(P2_FAN + "cone [1]\n")
        assert main(["polytope", str(p)]) == 2
        assert "error: invalid fan: cone C4" in capsys.readouterr().err


class TestBalancingStageError:
    MESSAGE = "explicit laplacian data needs a numeric scalar curvature"

    def test_report_records_the_error(self, tmp_path, capsys):
        p = tmp_path / "non-numeric-s.orb"
        p.write_text(NON_NUMERIC_S_ORBIFOLD)
        out_path = tmp_path / "report.json"
        assert main(["report", str(p), "--out", str(out_path)]) == 2
        body = json.loads(out_path.read_text())["report"]
        assert body["balancing"] == {"error": self.MESSAGE}
        assert "weight_intervals" not in body
        assert main(["report", str(p), "--format", "text"]) == 2
        assert f"balancing: {self.MESSAGE}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["balance", "coeffs"])
    def test_subcommands_print_the_error(self, command, tmp_path, capsys):
        p = tmp_path / "non-numeric-s.orb"
        p.write_text(NON_NUMERIC_S_ORBIFOLD)
        assert main([command, str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: balancing: {self.MESSAGE}\n"
        assert captured.out == ""


class TestPolytope:
    def test_vertices_and_barycenter(self, corpus, capsys):
        assert main(["polytope", str(corpus / "x4.fan")]) == 0
        out = capsys.readouterr().out
        assert "vertices (8):" in out
        assert "barycenter: (0, 0, 0)" in out

    def test_k_override(self, corpus, capsys):
        assert main(["polytope", str(corpus / "x4.fan"), "--k", "10"]) == 0
        assert "(10, 12, -16)" in capsys.readouterr().out


class TestSpectralAndDtn:
    def test_spectral_group(self, capsys):
        assert main(["spectral", "--m", "2", "--group", "2:1,1", "--jmax", "3"]) == 0
        out = capsys.readouterr().out
        assert "first invariant index: 2" in out

    @pytest.mark.parametrize("spec", ["x", "3", "2:1,x", "2:1,1;", "2:1:1"])
    def test_spectral_bad_group_spec(self, spec, capsys):
        assert main(["spectral", "--m", "2", "--group", spec]) == 2
        err = capsys.readouterr().err
        assert f"group spec {spec!r}" in err
        assert "'d:w1,...,wm[;d2:...]'" in err
        assert "int()" not in err

    def test_spectral_group_spec_names_bad_factor(self, capsys):
        assert main(["spectral", "--m", "2", "--group", "2:1"]) == 2
        assert "group spec '2:1': weight vector length must equal m" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--m", "3", "--jmax", "-1"], "error: --jmax must be >= 0, got -1"),
            (["--m", "1"], "error: --m must be >= 2, got 1"),
        ],
    )
    def test_spectral_out_of_range(self, argv, message, capsys):
        assert main(["spectral", *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_dtn(self, capsys):
        assert main(["dtn", "--m", "3", "--gamma", "0"]) == 0
        out = capsys.readouterr().out
        assert "[-4, -2/3]" in out
        assert "determinant: 16" in out

    def test_dtn_gamma_one_gate(self, capsys):
        assert main(["dtn", "--m", "3", "--gamma", "1", "--nontrivial-group"]) == 2
        assert "no invariant linear function" in capsys.readouterr().err

    def test_dtn_matches_recorded_transcript(self, capsys):
        """Every dtn invocation of tests/fixtures/dtn-modes.txt prints the
        recorded stdout and stderr and exits with the recorded code."""
        cases = [
            ["--m", str(m), "--gamma", str(g), *flag]
            for m in (2, 3, 4, 5)
            for g in (0, 1, 2, 3, 7)
            for flag in ([], ["--nontrivial-group"])
        ]
        cases += [
            ["--m", "1", "--gamma", "0"],
            ["--m", "2", "--gamma", "-1"],
            ["--m", "2", "--gamma", "1", "--nontrivial-group"],
        ]
        transcript = []
        for args in cases:
            code = main(["dtn", *args])
            captured = capsys.readouterr()
            transcript.append(
                f"$ dtn {' '.join(args)}\n[stdout]\n{captured.out}"
                f"[stderr]\n{captured.err}[exit {code}]\n"
            )
        assert "".join(transcript) == (FIXTURES / "dtn-modes.txt").read_text()


class TestReport:
    def test_single_file_structured(self, corpus, tmp_path, capsys):
        out_path = tmp_path / "x1.json"
        code = main(
            ["report", str(corpus / "x1.fan"), "--out", str(out_path)]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["report"]["su_cones"] == ["C1", "C4", "C5", "C7", "C11", "C12"]
        assert data["report"]["balancing"]["feasible"] is True
        assert data["input"]["sha256"]

    def test_text_format(self, corpus, capsys):
        assert main(["report", str(corpus / "p2-z3.orb"), "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "feasible: yes" in out
        # an orbifold report ends with its weight intervals
        assert out.endswith(
            "\n\nbase-orbifold weight interval: (0, 1)\nnonlinear weight interval: (0, 1)\n"
        )

    def test_text_format_ends_with_spectral_groups(self, corpus, capsys):
        assert main(["report", str(corpus / "x4.fan"), "--format", "text"]) == 0
        block = capsys.readouterr().out.split("\n\n")[-1].splitlines()
        assert block[0].split(None, 1)[0] == "factors"
        # one row per subgroup: orders, weights 1/5(1, a2, a3), invariant
        # linear dimension, first invariant index and its eigenvalue
        weights = ("1,1,3", "1,2,2", "1,2,3", "1,3,2", "1,4,2", "1,4,3")
        assert [r.split() for r in block[2:-2]] == [["5", w, "0", "2", "-12"] for w in weights]
        assert block[-2:] == [
            "base-orbifold weight interval: (-2, 0)",
            "nonlinear weight interval: (-2, -1)",
        ]

    def test_batch_runs_and_is_deterministic(self, corpus, tmp_path, capsys):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["report", "--batch", str(corpus), "--out", str(out1)]) == 0
        first = capsys.readouterr().out
        assert main(["report", "--batch", str(corpus), "--out", str(out2)]) == 0
        second = capsys.readouterr().out
        assert first == second
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == [
            "p1xp1-z2.report.json",
            "p2-z3.report.json",
            "x1.report.json",
            "x4.report.json",
        ]
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_batch_exit_codes(self, tmp_path, capsys):
        d = tmp_path / "mixed"
        d.mkdir()
        (d / "bad.orb").write_text("m oops\n")
        assert main(["report", "--batch", str(d)]) == 2
        d2 = tmp_path / "infeasible"
        d2.mkdir()
        (d2 / "single.orb").write_text(INFEASIBLE_ORBIFOLD)
        assert main(["report", "--batch", str(d2)]) == 1

    def test_batch_continues_past_a_failing_file(self, tmp_path, capsys):
        d = tmp_path / "failing"
        d.mkdir()
        (d / "a.fan").write_text(P2_FAN)
        (d / "b.orb").write_text(NON_NUMERIC_S_ORBIFOLD)
        (d / "c.orb").write_text(example_by_name("p2-z3").text)
        assert main(["report", "--batch", str(d)]) == 2
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [r.split()[:2] for r in rows] == [
            ["a.fan", "infeasible"],
            ["b.orb", "error"],
            ["c.orb", "feasible"],
        ]
        assert "needs a numeric scalar curvature" in rows[1]
        assert sorted(p.name for p in d.glob("*.report.json")) == [
            "a.report.json",
            "b.report.json",
            "c.report.json",
        ]

    def test_batch_summary_detail_column(self, tmp_path, capsys):
        # the third column holds an error row's error and a report row's
        # input digest, so its header names neither
        d = tmp_path / "one-bad"
        d.mkdir()
        (d / "a.orb").write_text("m oops\n")
        (d / "b.orb").write_text(example_by_name("p2-z3").text)
        assert main(["report", "--batch", str(d)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["input", "verdict", "detail"]
        bad, good = lines[2:]
        assert bad.split()[:2] == ["a.orb", "error"] and "sha256" not in bad
        digest = json.loads((d / "b.report.json").read_text())["input"]["sha256"]
        assert good.split() == ["b.orb", "feasible", digest[:12]]

    def test_batch_continues_past_an_undecodable_file(self, tmp_path, capsys):
        d = tmp_path / "undecodable"
        d.mkdir()
        (d / "a.fan").write_bytes(b"\xff\xfe")
        (d / "b.orb").write_text(example_by_name("p2-z3").text)
        assert main(["report", "--batch", str(d)]) == 2
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [r.split()[:2] for r in rows] == [["a.fan", "error"], ["b.orb", "feasible"]]
        assert "cannot read" in rows[0]

    def test_batch_stem_taken_by_an_earlier_file(self, tmp_path, capsys):
        # x1.fan and x1.orb would both write x1.report.json: the second in
        # sorted order gets an error row naming the first, and no report
        d = tmp_path / "shared-stem"
        d.mkdir()
        (d / "a.orb").write_text(example_by_name("p2-z3").text)
        (d / "x1.fan").write_text(example_by_name("x1").text)
        (d / "x1.orb").write_text(example_by_name("p2-z3").text)
        (d / "z.orb").write_text(example_by_name("p2-z3").text)
        assert main(["report", "--batch", str(d), "--out", str(tmp_path / "out")]) == 2
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [r.split()[:2] for r in rows] == [
            ["a.orb", "feasible"],
            ["x1.fan", "feasible"],
            ["x1.orb", "error"],
            ["z.orb", "feasible"],
        ]
        assert "x1.report.json is taken by x1.fan" in rows[2]
        report = json.loads((tmp_path / "out" / "x1.report.json").read_text())
        assert report["input"]["name"] == "x1.fan"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "a.report.json",
            "x1.report.json",
            "z.report.json",
        ]

    def test_batch_continues_past_an_over_long_literal(self, corpus, capsys, tmp_path):
        # an integer literal past every interpreter's limit for reading an
        # int is an error row, and the bundled inputs still get their reports
        long_order = (FIXTURES / "long-order.orb").read_text()
        (corpus / "a-long-order.orb").write_text(long_order)
        out = tmp_path / "out"
        assert main(["report", "--batch", str(corpus), "--out", str(out)]) == 2
        rows = capsys.readouterr().out.splitlines()[2:]
        assert rows[0].split(None, 2) == [
            "a-long-order.orb", "error", "line 7: order has more than 640 digits"
        ]
        assert [r.split()[1] for r in rows[1:]] == ["feasible"] * len(embedded_examples())
        assert sorted(p.name for p in out.iterdir()) == sorted(
            Path(ex.filename).stem + ".report.json" for ex in embedded_examples()
        )

    def test_m_past_its_bound_is_a_parse_error(self, capsys):
        assert main(["report", str(FIXTURES / "m1700-scalar-flat.orb")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: m must be <= 1000\n"

    @pytest.mark.parametrize("limit", [640, 4300])
    def test_coefficient_past_the_int_digit_limit_is_printed(self, capsys, limit):
        # inside both input bounds, q1's leading coefficient has 4,475 digits
        # of numerator; both renderings print it exactly, whatever the
        # interpreter's limit for writing an int
        path = str(FIXTURES / "m1000-long-coefficient.orb")
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert main(["report", path]) == 0
            assert main(["report", path, "--format", "text"]) == 0
        finally:
            sys.set_int_max_str_digits(default)
        captured = capsys.readouterr()
        assert captured.err == "" and "Exceeds the limit" not in captured.out
        coeff = json.loads(captured.out.split("\ninput: ")[0])["report"]["balancing"][
            "coefficients"
        ][0]["leading"]
        order, e_mag, a = 10**639, Fraction(1, 10**639), Fraction(10**639, 2)
        expected = order * a * math.factorial(998) / (16 * 998 * e_mag)
        sys.set_int_max_str_digits(0)
        try:
            assert coeff == {"coeff": str(expected), "pi_power": -1000}
        finally:
            sys.set_int_max_str_digits(default)

    def test_witness_past_the_int_digit_limit_is_printed(self, tmp_path, capsys):
        # four scalar-flat points in d = 3 whose orders and phi entries have
        # 640 digits: M_int's rows are scaled by lcms of thousands of
        # digits, so the witness and the certificate's determinant have more
        # digits than str(int) writes by default
        rng = random.Random(5)
        lines = ["m 3", "d 3", "s positive", "einstein no"]
        for i, signs in enumerate(([1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1])):
            big = [rng.randrange(10**639, 10**640) for _ in range(7)]
            phi = ", ".join(f"{x * big[k]}/{big[k + 3]}" if x else "0" for k, x in enumerate(signs))
            lines.append(f"point q{i} scalar_flat order={big[6]} phi=[{phi}] e_sign=+")
        path = tmp_path / "long-witness.orb"
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", str(path)]) == 0
        captured = capsys.readouterr()
        assert "Exceeds the limit" not in captured.out
        body = json.loads(captured.out)["report"]
        orb = parse_orbifold(path.read_text())
        rep = solve_scalar_flat_balancing(orb.points, orb.m)
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert body["balancing"]["witness_a"] == [str(x) for x in rep.witness.values()]
            assert body["balancing"]["certificate"]["determinant"] == str(
                rep.certificate.determinant
            )
        finally:
            sys.set_int_max_str_digits(default)
        assert max(map(len, body["balancing"]["witness_a"])) > 4300


class TestExamples:
    def test_listing(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        for name in ("p1xp1-z2", "p2-z3", "x1", "x4"):
            assert name in out

    def test_exactly_four(self):
        assert len(embedded_examples()) == 4

    def test_dump(self, tmp_path, capsys):
        target = tmp_path / "dumped"
        assert main(["examples", "--dump", str(target)]) == 0
        assert sorted(p.name for p in target.iterdir()) == [
            "p1xp1-z2.orb",
            "p2-z3.orb",
            "x1.fan",
            "x4.fan",
        ]


class TestCoeffs:
    def test_surface_leading_values(self, corpus, capsys):
        assert main(["coeffs", str(corpus / "p2-z3.orb")]) == 0
        out = capsys.readouterr().out
        # |Gamma| b / (2(m-1)) = 3/2 at m = 2, order 3, b = 1
        assert "3/2" in out
