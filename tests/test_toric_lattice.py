import importlib
import random
import re
import sys
from dataclasses import replace
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    det_cofactor,
    invariant_monomial_count_lattice,
    invariant_monomial_count_weights,
    isolated_by_face_smoothness,
    solve_cramer,
)
from kcscglue import exact_linalg
from kcscglue.examples import example_by_name
from kcscglue.exact_linalg import (
    integer_determinant,
    integer_inverse,
    integer_solve,
    smith_normal_form,
)
from kcscglue.formats import FanFile, parse_fan
from kcscglue.polytope import (
    anticanonical_polytope,
    faces,
    moment_assignment,
    polytope_barycenter,
)
from kcscglue.report import build_report, exit_code
from kcscglue.toric_lattice import (
    SMOOTH,
    SU,
    U_NON_SU,
    Cone,
    Fan,
    GroupPresentation,
    classify,
    classify_fan,
    cone_index,
    gorenstein_covector,
    is_gorenstein,
    quotient_action,
    validate_fan,
)
from test_report_bytes import INPUTS

FIXTURES = Path(__file__).parent / "fixtures"
X1 = parse_fan(example_by_name("x1").text)
X4 = parse_fan(example_by_name("x4").text)

C1_X1 = Cone.from_rows([(-1, 0, -1), (-1, -3, 1), (-1, 0, 0)])
C2_X1 = Cone.from_rows([(1, 3, -1), (-1, 0, -1), (-1, 0, 0)])
A2_CONE = Cone.from_rows([(1, 0), (1, 2)])


class TestValidateFan:
    def test_x1_valid(self):
        report = validate_fan(X1)
        assert report.valid
        assert report.violations == ()
        assert len(X1.rays) == 8 and len(X1.max_cones) == 12

    def test_nonprimitive_ray(self):
        fan = Fan(dim=3, rays=((2, 0, 0), (0, 1, 0), (0, 0, 1)), max_cones=((0, 1, 2),))
        report = validate_fan(fan)
        assert not report.valid
        assert any("primitive" in v for v in report.violations)

    def test_repeated_max_cone(self):
        # P2 with its third cone listed twice, as [3, 1] and [1, 3]
        fan = Fan(
            dim=2,
            rays=((1, 0), (0, 1), (-1, -1)),
            max_cones=((0, 1), (1, 2), (2, 0), (0, 2)),
        )
        report = validate_fan(fan)
        assert not report.valid
        assert report.violations == ("cone C4: same rays as cone C3",)

    def test_repeated_labels(self):
        # A complete fan whose labels would key two charts each: rejected
        # before the fan check, whatever the cones are.
        fan = parse_fan((FIXTURES / "duplicate-labels.fan").read_text())
        report = validate_fan(fan)
        assert report.violations == ("cone label A names 2 cones", "cone label B names 2 cones")
        labels = ("A1", "B1", "A2", "B2")
        assert validate_fan(Fan(2, fan.rays, fan.max_cones, labels)).valid

    def test_label_repeating_a_default_label(self):
        # cone [1, 2] C2 followed by an unlabelled second cone
        fan = Fan(dim=2, rays=P2_RAYS, max_cones=P2_CONES, labels=("C2", "C2", "C3"))
        assert validate_fan(fan).violations == ("cone label C2 names 2 cones",)

    def test_low_dimensional_cone(self):
        fan = Fan(
            dim=3,
            rays=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            max_cones=((0, 1),),
        )
        report = validate_fan(fan)
        assert not report.valid
        assert any("full-dimensional" in v for v in report.violations)


P2_RAYS = ((1, 0), (0, 1), (-1, -1))
P2_CONES = ((0, 1), (1, 2), (2, 0))


class TestFanCheck:
    """Nonsingular simplicial cones on distinct ray sets must also form a
    complete fan: every ray used, every wall in two cones on opposite sides,
    and a generic point in exactly one cone."""

    def test_complete_fans_pass(self):
        for fan in (X1, X4, Fan(dim=2, rays=P2_RAYS, max_cones=P2_CONES)):
            assert validate_fan(fan).valid
        p1 = Fan(dim=1, rays=((1,), (-1,)), max_cones=((0,), (1,)))
        assert validate_fan(p1).valid

    def test_incomplete(self):
        fan = Fan(dim=2, rays=P2_RAYS, max_cones=P2_CONES[:2])
        assert validate_fan(fan).violations == (
            "wall [1] lies in 1 of the cones, expected 2",
            "wall [3] lies in 1 of the cones, expected 2",
        )

    def test_overlapping(self):
        fan = Fan(dim=2, rays=P2_RAYS + ((1, 1),), max_cones=P2_CONES + ((0, 3),))
        assert validate_fan(fan).violations == (
            "wall [1] lies in 3 of the cones, expected 2",
            "wall [4] lies in 1 of the cones, expected 2",
        )

    def test_unused_ray(self):
        fan = Fan(dim=2, rays=P2_RAYS + ((1, 1),), max_cones=P2_CONES)
        assert validate_fan(fan).violations == ("ray 4 [1, 1] is in no cone",)

    def test_wall_with_both_cones_on_one_side(self):
        fan = Fan(dim=2, rays=((1, 0), (0, 1), (1, 2)), max_cones=((0, 1), (1, 2)))
        assert "cones C1 and C2 are on one side of wall [2]" in validate_fan(fan).violations

    def test_double_cover(self):
        # every wall in two cones on opposite sides, but the cones wind
        # twice around the origin
        rays = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
        cones = ((0, 2), (2, 4), (4, 0), (1, 3), (3, 5), (5, 1))
        fan = Fan(dim=2, rays=rays, max_cones=cones)
        assert validate_fan(fan).violations == (
            "point [1, 2] lies in 2 of the cones, expected 1",
        )

    def test_generic_direction_avoids_every_wall(self):
        # c = (1, 2) lies on the ray [1, 2], so the search moves on to t = 3
        fan = Fan(dim=2, rays=((1, 0), (1, 2), (-1, -1)), max_cones=P2_CONES)
        assert validate_fan(fan).valid
        point, pairings = fan.generic_direction
        assert point == (1, 3)
        assert all(all(alphas) for alphas in pairings)

    def test_verdict_cached_on_the_fan(self):
        fan = Fan(dim=2, rays=P2_RAYS, max_cones=P2_CONES)
        assert validate_fan(fan) is validate_fan(fan) is fan.validation

    def test_runs_only_after_the_cone_checks(self):
        # a singular cone has no inverse to read walls off
        fan = Fan(dim=2, rays=((1, 0), (-1, 0), (0, 1)), max_cones=((0, 1), (1, 2)))
        assert validate_fan(fan).violations == (
            "cone C1: generators are linearly dependent",
        )


class TestConeIndex:
    def test_order_three_chart(self):
        assert cone_index(C1_X1) == 3
        assert abs(det_cofactor(C1_X1.generator_matrix())) == 3

    def test_standard_cone(self):
        for m in (2, 3, 4):
            gens = [[int(i == j) for j in range(m)] for i in range(m)]
            assert cone_index(Cone.from_rows(gens)) == 1

    def test_a1_surface_cone(self):
        assert cone_index(A2_CONE) == 2
        assert abs(det_cofactor(A2_CONE.generator_matrix())) == 2


class TestQuotientAction:
    def test_smooth(self):
        data = quotient_action(Cone.from_rows([(1, 0), (0, 1)]))
        assert data.order == 1
        assert data.orders == ()
        assert data.classification == SMOOTH

    def test_z2_weights(self):
        data = quotient_action(A2_CONE)
        assert data.order == 2
        assert data.orders == (2,)
        assert data.weights == ((1, 1),)
        assert data.classification == SU

    def test_x1_chart(self):
        data = quotient_action(C1_X1)
        assert data.order == 3
        assert data.classification == SU
        assert data.isolated


class TestGorenstein:
    def test_su_chart_covector(self):
        u = gorenstein_covector(C1_X1)
        assert u == (-1, 0, 0)
        for g in C1_X1.generators:
            assert sum(ui * gi for ui, gi in zip(u, g)) == 1

    def test_non_su_chart(self):
        # the height system forces a fractional second coordinate
        assert not is_gorenstein(C2_X1)

    def test_smooth_cone(self):
        cone = Cone.from_rows([(1, 0), (0, 1)])
        assert is_gorenstein(cone)
        assert gorenstein_covector(cone) == (1, 1)
        assert classify(cone) == SMOOTH

    def test_singular_system_raises(self):
        with pytest.raises(ValueError, match="singular generator system"):
            gorenstein_covector(Cone.from_rows([(1, 0), (2, 0)]))
        with pytest.raises(ValueError, match="singular generator system"):
            gorenstein_covector(Cone.from_rows([(1, 0, 0), (0, 1, 0)]))
        fan = Fan(dim=2, rays=((1, 0), (2, 0), (0, 1)), max_cones=((0, 1), (0, 2)))
        assert classify_fan(fan)[0] == ("C1", None)

    def test_covector_matches_cramer_on_random_cones(self):
        rng = random.Random(17)
        for _ in range(200):
            cone = _random_cone(rng, rng.choice((2, 3)))
            u = solve_cramer(cone.generators, [1] * cone.ambient_dim)
            integral = all(x.denominator == 1 for x in u)
            assert gorenstein_covector(cone) == (tuple(map(int, u)) if integral else None)


class TestClassify:
    def test_x1_su_set(self):
        su = [label for label, qd in classify_fan(X1) if qd.classification == SU]
        assert su == ["C1", "C4", "C5", "C7", "C11", "C12"]
        rest = [
            label for label, qd in classify_fan(X1) if qd.classification == U_NON_SU
        ]
        assert rest == ["C2", "C3", "C6", "C8", "C9", "C10"]

    def test_x4_su_set(self):
        su = [label for label, qd in classify_fan(X4) if qd.classification == SU]
        assert su == ["C1", "C4", "C7", "C8"]

    def test_standard_smooth(self):
        assert classify(Cone.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == SMOOTH


def _isolated(cone: Cone) -> bool:
    """The group's verdict, which the face-smoothness oracle must share."""
    isolated = quotient_action(cone).isolated
    assert isolated == isolated_by_face_smoothness(cone)
    return isolated


class TestIsolated:
    def test_surface_quotient(self):
        assert _isolated(A2_CONE)

    def test_all_x1_charts(self):
        for _, cone in X1.cones():
            assert _isolated(cone)

    def test_non_isolated(self):
        cone = Cone.from_rows([(1, 0, 0), (1, 2, 0), (0, 0, 1)])
        assert not _isolated(cone)


def _random_cone(rng, m, max_det=30):
    while True:
        gens = []
        for _ in range(m):
            v = [rng.randint(-4, 4) for _ in range(m)]
            g = 0
            for x in v:
                g = gcd(g, x)
            if g == 0:
                break
            gens.append(tuple(x // g for x in v))
        else:
            det = det_cofactor([list(r) for r in Cone(tuple(gens)).generator_matrix()])
            if det != 0 and abs(det) <= max_det:
                return Cone(tuple(gens))


def test_order_equals_product_of_factors():
    rng = random.Random(7)
    for _ in range(200):
        cone = _random_cone(rng, rng.choice((2, 3)))
        data = quotient_action(cone)
        prod = 1
        for d in data.orders:
            prod *= d
        assert prod == data.order == cone_index(cone)


def test_classification_criteria_agree_on_random_cones():
    rng = random.Random(11)
    for _ in range(200):
        cone = _random_cone(rng, rng.choice((2, 3)))
        # classify() raises if the Gorenstein and weight-sum routes disagree
        classify(cone)
        _isolated(cone)


def test_invariant_monomial_cross_check():
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        cone = _random_cone(rng, rng.choice((2, 3)), max_det=12)
        data = quotient_action(cone)
        if data.order == 1:
            continue
        degree = max(data.orders)
        by_weights = invariant_monomial_count_weights(
            data.orders, data.weights, cone.ambient_dim, degree
        )
        by_lattice = invariant_monomial_count_lattice(cone, degree)
        assert by_weights == by_lattice
        checked += 1


def test_unsupported_cones_degrade_gracefully():
    # a max cone with too few generators is classified None, not an abort
    fan = Fan(
        dim=3,
        rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
        max_cones=((0, 1), (0, 1, 2), (1, 2, 3)),
    )
    result = classify_fan(fan)
    assert result[0][1] is None
    assert result[1][1] is not None and result[1][1].classification == SMOOTH


@pytest.mark.parametrize("cone", [(2, 5), (0, -1)], ids=["past the end", "negative"])
def test_cone_naming_a_missing_ray_is_unsupported(cone):
    """A cone index outside 0..len(rays)-1 names no ray, also when it would
    wrap: Fan.cone raises ValueError, the report classifies the cone as
    unsupported and validation names it."""
    fan = FanFile(
        dim=2, rays=P2_RAYS, max_cones=((0, 1), (1, 2), cone), k=1, labels=("A", "B", "C")
    )
    with pytest.raises(ValueError, match="^ray index out of range$"):
        fan.cone(2)
    assert classify_fan(fan)[2] == ("C", None)
    body = build_report("missing-ray", "", fan)["report"]
    assert body["classification"][2] == {"classification": "unsupported", "label": "C"}
    assert body["validation"]["violations"] == ["cone C: ray index out of range"]


@pytest.mark.parametrize(
    "rays, cone, defect",
    [
        (P2_RAYS, (), "0 generators, expected 2 (not full-dimensional simplicial)"),
        (P2_RAYS + ((1, 1, 0),), (0, 3), "ray 4 has length 3, expected 2"),
        (
            P2_RAYS + ((1, 0, 1), (0, 1, 1), (1, 1, 1)),
            (3, 4, 5),
            "3 generators, expected 2 (not full-dimensional simplicial)",
        ),
    ],
    ids=["empty", "ray of length 3", "three rays of length 3"],
)
def test_a_cone_that_is_no_chart_is_unsupported(rays, cone, defect):
    """One rule decides which cones are charts: a cone it refuses gets an
    unsupported row and a violation naming its defect, never a chart row."""
    parsed = FanFile(dim=2, rays=rays, max_cones=P2_CONES + (cone,), k=1)
    body = build_report("no-chart", "", parsed)["report"]
    assert body["classification"][3] == {"classification": "unsupported", "label": "C4"}
    assert f"cone C4: {defect}" in body["validation"]["violations"]
    assert exit_code(body) == 2
    with pytest.raises(ValueError, match=f"^{re.escape(defect)}$"):
        parsed.cone(3)


def test_the_empty_cone_of_a_dimension_zero_fan_is_no_chart():
    """In dim 0 the empty cone has dim rays, but a chart has at least one:
    it gets an unsupported row and a violation, not a smooth row of order 1."""
    parsed = FanFile(dim=0, rays=((),), max_cones=((),), k=1)
    body = build_report("dim-0", "", parsed)["report"]
    assert body["classification"] == [{"classification": "unsupported", "label": "C1"}]
    assert "cone C1: no rays (a chart has at least one)" in body["validation"]["violations"]
    assert exit_code(body) == 2
    with pytest.raises(ValueError, match=r"^no rays \(a chart has at least one\)$"):
        parsed.cone(0)


def test_a_cone_is_judged_as_a_chart_before_its_ray_set():
    # C5 has C4's rays, but neither is a chart: each is reported by its count
    fan = Fan(dim=2, rays=P2_RAYS, max_cones=P2_CONES + ((0, 1, 2), (2, 1, 0)))
    assert validate_fan(fan).violations[-2:] == tuple(
        f"cone {label}: 3 generators, expected 2 (not full-dimensional simplicial)"
        for label in ("C4", "C5")
    )


def test_a_fan_below_dimension_two_stops_at_validation():
    """P^1 is a complete fan, but a chart C^m / Gamma needs m >= 2: the
    report stops at its validation section, before any polytope."""
    parsed = FanFile(dim=1, rays=((1,), (-1,)), max_cones=((0,), (1,)), k=1)
    body = build_report("p1", "", parsed)["report"]
    assert body["validation"] == {"valid": False, "violations": ["dim is 1, expected >= 2"]}
    assert "polytope" not in body
    assert exit_code(body) == 2
    assert validate_fan(parsed).valid


def test_isolated_weights_have_no_zero_component():
    # every order-d generator of an isolated chart moves every coordinate
    for fan in (X1, X4):
        for _, cone in fan.cones():
            data = quotient_action(cone)
            if data.order == 1 or not data.isolated:
                continue
            for d, w in zip(data.orders, data.weights):
                assert all(x % d != 0 for x in w)


class TestSharedSolve:
    """One integer inverse per cone, whose row sums are its height-one
    solve, serves its order, its Gorenstein covector, its validation, the
    fan check, its moment vertex, the barycenter and the faces."""

    def test_matches_separate_eliminations_on_random_cones(self):
        rng = random.Random(29)
        for _ in range(150):
            m = rng.choice((2, 3, 4))
            cone = _random_cone(rng, m, max_det=30 if m < 4 else 10**4)
            num, p = cone.height_one
            columns, q = cone.inverse
            # <v_i, A_j> = p [i = j], and the solve is the row sums of A
            assert q == p
            assert [
                [sum(a * b for a, b in zip(v, col)) for col in columns]
                for v in cone.generators
            ] == [[p * (i == j) for j in range(m)] for i in range(m)]
            assert abs(p) == abs(integer_determinant(cone.generator_matrix()))
            assert abs(p) == cone_index(cone)
            # the moment vertex at -k is -k times this solve over p
            assert [x * p for x in solve_cramer(cone.generators, [1] * m)] == num
            for k in (1, 2, 7):
                # the same numerators and pivot as a solve at height -k
                assert integer_solve(cone.generators, [-k] * m) == ([-k * x for x in num], p)

    def test_singular_or_not_square(self):
        assert Cone.from_rows([(1, 0), (2, 0)]).height_one is None
        assert Cone.from_rows([(1, 0, 0), (0, 1, 0)]).height_one is None
        with pytest.raises(ValueError, match="not full-dimensional"):
            cone_index(Cone.from_rows([(1, 0, 0), (0, 1, 0)]))
        with pytest.raises(ValueError, match="zero determinant"):
            cone_index(Cone.from_rows([(1, 0), (2, 0)]))

    def test_fan_builds_each_cone_once(self):
        fan = parse_fan(example_by_name("x4").text)
        assert all(fan.cone(i) is fan.cone(i) for i in range(len(fan.max_cones)))
        assert [c for _, c in fan.cones()] == [fan.cone(i) for i in range(len(fan.max_cones))]

    @pytest.mark.parametrize("name", ["x1", "x4"])
    def test_one_elimination_per_cone(self, name, monkeypatch):
        """At most one: x1 and x4 are connected across their walls, so the
        first cone is the fan's one elimination and every further cone is
        an exchange pivot."""
        text = example_by_name(name).text
        fan = parse_fan(text)
        k = parse_fan(text).k
        calls = []

        def counted(a, ncols, echelon=exact_linalg._echelon):
            calls.append(ncols)
            return echelon(a, ncols)

        monkeypatch.setattr(exact_linalg, "_echelon", counted)
        classified = classify_fan(fan)
        # the fan check included
        assert validate_fan(fan).valid
        p = anticanonical_polytope(fan, k)
        assert moment_assignment(fan, k) == list(p.cone_vertices)
        assert polytope_barycenter(p).values() == (0, 0, 0)
        assert faces(p, 2)
        assert all(group is not None for _, group in classified)
        assert calls == [fan.dim]


def snf_presentation(cone: Cone) -> GroupPresentation:
    """Gamma as the Smith normal form G = U·D·V of the generator-column
    matrix presents it: the diagonal entries above 1, each with its column
    of V^{-1}."""
    snf = smith_normal_form(cone.generator_matrix())
    factors = [
        (d, tuple(row[i] for row in snf.v_inv)) for i, d in enumerate(snf.diagonal()) if d > 1
    ]
    return GroupPresentation(
        m=cone.ambient_dim,
        orders=tuple(d for d, _ in factors),
        weights=tuple(w for _, w in factors),
    )


def unit_multiples(w, n: int) -> set:
    return {tuple(u * x % n for x in w) for u in range(1, n) if gcd(u, n) == 1}


@st.composite
def nonsingular_cones(draw):
    m = draw(st.integers(2, 5))
    entry = st.integers(-3, 3) if m < 4 else st.integers(-2, 2)
    rows = [tuple(draw(entry) for _ in range(m)) for _ in range(m)]
    assume(integer_determinant(rows) != 0)
    return Cone(tuple(rows))


@st.composite
def unimodular(draw, m: int):
    """A product of elementary row operations, as a matrix."""
    s = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.sampled_from([(i, j) for i in range(m) for j in range(m) if i != j]))
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        s[i] = [a + c * b for a, b in zip(s[i], s[j])]
    return s


def sheared(text: str, s) -> str:
    """A fan file with every ray v replaced by S v."""
    lines = []
    for line in text.splitlines():
        if line.startswith("ray "):
            v = [int(x) for x in line[4:].strip("[] ").split(",")]
            line = "ray [" + ", ".join(str(sum(a * x for a, x in zip(row, v))) for row in s) + "]"
        lines.append(line)
    return "\n".join(lines) + "\n"


def classification_section(text: str) -> list:
    return build_report("fan", text, parse_fan(text), until="classification")["report"][
        "classification"
    ]


class TestClosedForm:
    """quotient_action reads a cyclic Gamma off the cone's inverse, with the
    lexicographically least unit multiple of a generator's weights, and
    falls back to the Smith normal form only for a non-cyclic Gamma."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(nonsingular_cones())
    def test_matches_smith_normal_form(self, cone):
        group = quotient_action(cone)
        snf = snf_presentation(cone)
        assert group.orders == snf.orders
        if len(snf.orders) == 1:
            (n,) = snf.orders
            multiples = unit_multiples(snf.weights[0], n)
            assert group.weights[0] in multiples
            assert group.weights[0] == min(multiples)
            if group.isolated:
                assert group.weights[0][0] == 1
        else:
            assert group == snf

    def test_non_cyclic_chart_is_the_snf_presentation(self):
        fan = parse_fan((FIXTURES / "z2xz2-product.fan").read_text())
        for _, cone in fan.cones():
            group = quotient_action(cone)
            assert group.orders == (2, 2)
            assert group == snf_presentation(cone)
            assert group.classification == SU and not group.isolated

    def test_lowest_order_rows_are_combined(self):
        # Gamma = Z/6, where e_1 and e_2 act by 1/6(3, 0) and 1/6(0, 2), of
        # orders 2 and 3 only; their sum generates, and 1/6(3, 2) is the
        # least of its unit multiples (3, 2) and (3, 4)
        cone = Cone.from_rows([(2, 0), (0, 3)])
        assert quotient_action(cone) == GroupPresentation(m=2, orders=(6,), weights=((3, 2),))

    def test_non_isolated_charts(self):
        # no unit multiple of the weights has first entry 1
        cone = Cone.from_rows([(1, 0, 0), (0, 1, 0), (2, 1, 6)])
        group = quotient_action(cone)
        assert group.orders == (6,) and not group.isolated
        assert group.weights == (min(unit_multiples(snf_presentation(cone).weights[0], 6)),)
        # order 10^6: the least first weight is gcd(2, n) = 2, reached by
        # u = 1 and u = 1 + n/2 only, and u = 1 has the lesser second weight
        n = 10**6
        group = quotient_action(Cone.from_rows([(1, 0, 0), (0, 1, 0), (2, 3, n)]))
        assert group == GroupPresentation(m=3, orders=(n,), weights=((2, 3, n - 1),))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from(["x1.fan", "x4.fan", "sheared-product-r3.fan"]), unimodular(3))
    def test_classification_does_not_depend_on_the_basis(self, name, s):
        text = INPUTS[name]
        assert classification_section(sheared(text, s)) == classification_section(text)

    def test_x4_sheared_fixture(self):
        text = (FIXTURES / "x4-sheared.fan").read_text()
        assert classification_section(text) == classification_section(INPUTS["x4.fan"])

    def test_x4_spectral_lists_each_subgroup_once(self):
        text = INPUTS["x4.fan"]
        groups = build_report("x4.fan", text, parse_fan(text))["report"]["spectral"]["groups"]
        assert len(groups) == 6
        for g, h in combinations(groups, 2):
            assert g["orders"] == h["orders"] == [5]
            assert tuple(h["weights"][0]) not in unit_multiples(g["weights"][0], 5)

    def test_no_smith_normal_form_on_cyclic_bench_inputs(self, monkeypatch):
        """The seed-1 toric-scan and cyclic-spectral inputs have cyclic
        charts only, so their reports run no Smith normal form; the Z/2 + Z/2
        fixture runs one per cone."""
        from kcscglue import toric_lattice

        monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
        import workloads

        calls = []

        def counted(a, snf=toric_lattice.smith_normal_form):
            calls.append(a)
            return snf(a)

        monkeypatch.setattr(toric_lattice, "smith_normal_form", counted)
        cases = workloads.build("toric-scan", 1) + workloads.build("cyclic-spectral", 1)
        for case in cases:
            body = build_report(case.name, case.text, parse_fan(case.text))["report"]
            assert body["validation"]["valid"]
        assert calls == []
        text = (FIXTURES / "z2xz2-product.fan").read_text()
        build_report("z2xz2-product.fan", text, parse_fan(text))
        assert len(calls) == 8


BENCH = Path(__file__).parent.parent / "bench"


def bench_module(name: str):
    """A module of the benchmark, imported with bench/ on the path only
    while it loads (its workloads import its oracle)."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


# Every pinned fan, the invalid ones included.
PINNED_FANS = st.sampled_from(sorted(name for name in INPUTS if name.endswith(".fan"))).map(
    lambda name: parse_fan(INPUTS[name])
)


@st.composite
def product_fans(draw) -> FanFile:
    """A seeded product fan of the toric-scan workload, m = 2..5."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = draw(st.integers(2, 5))
    case = bench_module("workloads").product_case(rng, m, draw(st.integers(2, 7)))
    return parse_fan(case.text)


@st.composite
def sheared_fans(draw) -> FanFile:
    """x1, x4 or the sheared product fan under a unimodular shear."""
    text = INPUTS[draw(st.sampled_from(["x1.fan", "x4.fan", "sheared-product-r3.fan"]))]
    return parse_fan(sheared(text, draw(unimodular(3))))


VALID_FANS = st.one_of(product_fans(), sheared_fans())


def eliminated_inverse(cone: Cone):
    """The cone's inverse from its own elimination, as before the walk."""
    try:
        rows, p = integer_inverse(cone.generators)
    except ValueError:
        return None
    return tuple(zip(*rows)), p


class TestWalk:
    """A fan eliminates the first cone of each connected component of its
    wall table and reaches every further cone by one exchange pivot; the
    inverse it sets is the cone's own elimination up to the sign of p."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.one_of(VALID_FANS, PINNED_FANS))
    def test_walked_inverse_is_the_elimination_up_to_sign(self, fan):
        for i in range(len(fan.max_cones)):
            try:
                cone = fan.cone(i)
            except ValueError:  # no chart: nothing was built or walked
                continue
            expected = eliminated_inverse(cone)
            if expected is None:
                assert cone.inverse is None
                continue
            columns, p = cone.inverse
            sign = 1 if p == expected[1] else -1
            assert p == sign * expected[1]
            assert columns == tuple(tuple(sign * x for x in col) for col in expected[0])

    def test_walls_sides(self):
        # each wall of a complete fan lies in two cones, and each side's
        # dropped ray completes the wall to that cone
        for wall, sides in X4.walls.items():
            assert len(sides) == 2
            for c, j in sides:
                idx = X4.max_cones[c]
                assert tuple(sorted(idx[:j] + idx[j + 1 :])) == wall
        assert len(X4.walls) == 3 * len(X4.max_cones) // 2

    def test_one_elimination_per_component(self, monkeypatch):
        from kcscglue import toric_lattice

        calls = []

        def counted(a, inverse=toric_lattice.integer_inverse):
            calls.append(a)
            return inverse(a)

        monkeypatch.setattr(toric_lattice, "integer_inverse", counted)
        # two copies of P^2 on disjoint rays: two components
        fan = Fan(
            dim=2,
            rays=((1, 0), (0, 1), (-1, -1), (2, 1), (1, 1), (-3, -2)),
            max_cones=((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)),
        )
        assert all(fan.cone(i).inverse for i in range(6))
        assert calls == [fan.rays[:2], fan.rays[3:5]]

    def test_only_charts_are_built(self):
        # a repeated ray, a non-simplicial cone and a singular cone beside
        # P^2's cones: the singular chart is walked into, and the two cones
        # that are no charts are not built and name their defect
        fan = Fan(
            dim=2,
            rays=((1, 0), (0, 1), (-1, -1), (2, 0)),
            max_cones=((0, 1), (1, 2), (2, 0), (0, 0), (0, 1, 2), (0, 3)),
        )
        assert fan.cone(5).__dict__["inverse"] is None  # walked into: a_j = 0
        assert [fan.cone(i).inverse is None for i in (0, 1, 2)] == [False] * 3
        with pytest.raises(ValueError, match="^repeated ray$"):
            fan.cone(3)
        with pytest.raises(ValueError, match="^3 generators, expected 2 "):
            fan.cone(4)

    def test_integer_inverse_once_per_toric_scan_fan(self, monkeypatch):
        """34 calls over a seed-1 toric-scan cycle: each of its fans is one
        component, where each cone once took an elimination (1044)."""
        from kcscglue import toric_lattice

        calls = []

        def counted(a, inverse=toric_lattice.integer_inverse):
            calls.append(a)
            return inverse(a)

        monkeypatch.setattr(toric_lattice, "integer_inverse", counted)
        cases = bench_module("workloads").build("toric-scan", 1)
        cones = 0
        for case in cases:
            parsed = parse_fan(case.text)
            body = build_report(case.name, case.text, parsed)["report"]
            assert body["validation"]["valid"]
            cones += len(parsed.max_cones)
        assert len(calls) == len(cases) == 34
        assert cones == 1044

    def test_wall_keys_once_per_cone_and_position(self, monkeypatch):
        """The walk reads each cone's walls off the table Fan.walls built, so
        a seed-1 toric-scan cycle computes each (cone, j) key once: 5,180."""
        from kcscglue import toric_lattice

        calls = []

        def counted(idx, j, wall=toric_lattice._wall):
            calls.append((idx, j))
            return wall(idx, j)

        monkeypatch.setattr(toric_lattice, "_wall", counted)
        positions = 0
        for case in bench_module("workloads").build("toric-scan", 1):
            parsed = parse_fan(case.text)
            assert build_report(case.name, case.text, parsed)["report"]["validation"]["valid"]
            positions += parsed.dim * len(parsed.max_cones)
        assert len(calls) == positions == 5180

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(VALID_FANS, st.randoms(use_true_random=False))
    def test_cone_order_changes_no_chart(self, parsed, rng):
        """The walk's root and its pivots follow the cone order; no row,
        validation or polytope section does."""
        order = list(range(len(parsed.max_cones)))
        rng.shuffle(order)
        permuted = replace(
            parsed,
            max_cones=tuple(parsed.max_cones[i] for i in order),
            labels=tuple(parsed.labels[i] for i in order),
        )
        body = build_report("fan", "", parsed)["report"]
        again = build_report("fan", "", permuted)["report"]
        rows = {row["label"]: row for row in body["classification"]}
        assert again["classification"] == [rows[row["label"]] for row in again["classification"]]
        assert again["validation"] == body["validation"]
        assert again["polytope"] == body["polytope"]
