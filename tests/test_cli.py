import json
from pathlib import Path

import pytest

from kcscglue.cli import main
from kcscglue.examples import embedded_examples, example_by_name

INFEASIBLE_ORBIFOLD = """\
m 2
d 1
s positive
einstein no
point Q1 scalar_flat order=2 e_sign=+1 phi=[1]
"""

P2_RAYS = "dim 2\nk 1\nray [1, 0]\nray [0, 1]\nray [-1, -1]\n"
P2_FAN = P2_RAYS + "cone [1, 2]\ncone [2, 3]\ncone [3, 1]\n"
# Fans whose polytope stage fails, with the error it records.
POLYTOPE_FAILURES = {
    "incomplete.fan": (
        P2_RAYS + "cone [1, 2]\ncone [2, 3]\n",
        "polytope is not full-dimensional",
    ),
    "overlapping.fan": (
        P2_RAYS + "ray [1, 1]\ncone [1, 2]\ncone [2, 3]\ncone [3, 1]\ncone [1, 4]\n",
        "violates facet of ray (1, 1)",
    ),
}
# Fans whose report is an input error, with the exit codes of report,
# classify, polytope and balance on each.
ERROR_FANS = {
    "three-generator-cone.fan": (
        P2_RAYS + "cone [1, 2, 3]\ncone [2, 3]\ncone [3, 1]\n",
        (2, 2, 2, 2),
    ),
    "incomplete.fan": (POLYTOPE_FAILURES["incomplete.fan"][0], (2, 0, 2, 2)),
    "overlapping.fan": (POLYTOPE_FAILURES["overlapping.fan"][0], (2, 0, 2, 2)),
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
        assert captured.err == "error: scalar curvature must be positive here\n"
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


class TestPolytopeStageErrors:
    @pytest.mark.parametrize("name", sorted(POLYTOPE_FAILURES))
    def test_error_recorded_and_classify_runs(self, name, tmp_path, capsys):
        text, error = POLYTOPE_FAILURES[name]
        p = tmp_path / name
        p.write_text(text)
        out_path = tmp_path / "report.json"
        assert main(["report", str(p), "--out", str(out_path)]) == 2
        poly = json.loads(out_path.read_text())["report"]["polytope"]
        assert error in poly["error"]
        assert main(["classify", str(p)]) == 0
        assert "smooth" in capsys.readouterr().out
        assert main(["polytope", str(p)]) == 2
        assert "error: polytope: " in capsys.readouterr().err

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
        poly = json.loads(out_path.read_text())["report"]["polytope"]
        assert poly == {"error": "cone vertex (-1, -1) violates facet of ray (1, 1)"}
        assert main(["balance", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: polytope: cone vertex (-1, -1) violates facet of ray (1, 1)\n"
        )

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
        assert captured.err == f"error: {self.MESSAGE}\n"
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

    def test_dtn(self, capsys):
        assert main(["dtn", "--m", "3", "--gamma", "0"]) == 0
        out = capsys.readouterr().out
        assert "[-4, -2/3]" in out
        assert "determinant: 16" in out

    def test_dtn_gamma_one_gate(self, capsys):
        assert main(["dtn", "--m", "3", "--gamma", "1", "--nontrivial-group"]) == 2


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

    def test_batch_continues_past_an_undecodable_file(self, tmp_path, capsys):
        d = tmp_path / "undecodable"
        d.mkdir()
        (d / "a.fan").write_bytes(b"\xff\xfe")
        (d / "b.orb").write_text(example_by_name("p2-z3").text)
        assert main(["report", "--batch", str(d)]) == 2
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [r.split()[:2] for r in rows] == [["a.fan", "error"], ["b.orb", "feasible"]]
        assert "cannot read" in rows[0]


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
