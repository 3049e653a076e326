import fractions
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    build_theta_fraction,
    build_xi_fraction,
    det_cofactor,
    fraction_matrix,
    gluing_scales,
    is_zero,
    mul_vector,
    orbifold_shaped_matrix,
    positive_kernel_witness_bruteforce,
    rank_bruteforce,
    scaled,
    scaled_matrix,
    sphere_volume_oracle,
)
from kcscglue.balancing import (
    FULL_RANK,
    GORDAN,
    RANK_DEFICIENT,
    RICCI_FLAT,
    SCALAR_FLAT,
    BalancingReport,
    Certificate,
    PiRational,
    PointCoefficients,
    SingularPointRecord,
    build_theta,
    build_xi,
    check_certificate,
    leading_coefficients,
    model_constants,
    solve_ricci_flat_balancing,
    solve_scalar_flat_balancing,
)
from kcscglue.exact_linalg import IntegerRow, RationalMatrix, nullspace_basis, rank
from kcscglue.examples import example_by_name
from kcscglue.formats import parse_orbifold
from kcscglue.report import _balancing_dict, build_report

P1XP1 = parse_orbifold(example_by_name("p1xp1-z2").text)
P2Z3 = parse_orbifold(example_by_name("p2-z3").text)


def q_point(label, phi, sign=1, order=2, mag=None):
    return SingularPointRecord(
        label=label,
        kind=SCALAR_FLAT,
        group_order=order,
        phi=tuple(Fraction(x) for x in phi),
        e_sign=sign,
        e_magnitude=mag,
    )


def p_point(label, phi, order=2):
    return SingularPointRecord(
        label=label,
        kind=RICCI_FLAT,
        group_order=order,
        phi=tuple(Fraction(x) for x in phi),
    )


def _records():
    """One instance of each balancing record, and a field of it to assign."""
    rep = solve_scalar_flat_balancing([q_point("Q1", [1, 0]), q_point("Q2", [-1, 0])], m=3)
    return [
        (PiRational(Fraction(3, 4), -2), "coeff"),
        (P1XP1.points[0], "phi"),
        (rep.coefficients[0], "leading_pending"),
        (rep.certificate, "kind"),
        (rep, "feasible"),
    ]


class TestRecords:
    """The records are NamedTuples: immutable, compared by value, and their
    constructors check and normalise their fields."""

    @pytest.mark.parametrize("record, field", _records(), ids=lambda x: type(x).__name__)
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1  # no instance dict either

    @pytest.mark.parametrize("record, field", _records(), ids=lambda x: type(x).__name__)
    def test_equal_by_value(self, record, field):
        copy = type(record)(*record)
        assert copy == record and copy is not record and hash(copy) == hash(record)
        assert record._replace(**{field: None}) != record

    def test_rebuilt_reports_are_equal(self):
        rebuilt = parse_orbifold(example_by_name("p1xp1-z2").text).points
        assert solve_ricci_flat_balancing(rebuilt, None, 2) == solve_ricci_flat_balancing(
            P1XP1.points, None, 2
        )

    def test_pi_rational_normalises(self):
        assert PiRational(3) == PiRational(Fraction(3), 0)
        assert type(PiRational("3/4").coeff) is Fraction
        assert PiRational(0, -3) == PiRational(Fraction(0), 0)
        assert PiRational(Fraction(1, 2), -3).pi_power == -3

    def test_point_normalises(self):
        point = SingularPointRecord("Q", SCALAR_FLAT, 2, (Fraction(1, 2), 3), None, -1, 2, "1/3")
        assert point.phi == IntegerRow((1, 6), 2)
        assert (point.e_magnitude, point.c_gamma) == (Fraction(2), Fraction(1, 3))
        assert type(point.e_magnitude) is Fraction
        assert point == SingularPointRecord(
            label="Q",
            kind=SCALAR_FLAT,
            group_order=2,
            phi=IntegerRow((1, 6), 2),
            e_sign=-1,
            e_magnitude=Fraction(2),
            c_gamma=Fraction(1, 3),
        )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "flat"}, "unknown point kind 'flat'"),
            ({"group_order": 0}, "group order >= 1"),
            ({"e_sign": None}, "scalar-flat points need e_sign in {+1, -1}"),
            ({"e_sign": 0}, "scalar-flat points need e_sign in {+1, -1}"),
            ({"e_magnitude": 0}, "e magnitude must be positive"),
            ({"e_magnitude": Fraction(-1, 2)}, "e magnitude must be positive"),
            ({"c_gamma": 0}, "c(Gamma) must be positive"),
            ({"c_gamma": "-3"}, "c(Gamma) must be positive"),
            ({"dphi": (1,)}, "laplacian values must match phi length"),
            ({"dphi": (1, 2, 3)}, "laplacian values must match phi length"),
        ],
        ids=[
            "kind", "order", "no e_sign", "e_sign 0", "e_mag 0", "e_mag negative",
            "c_gamma 0", "c_gamma negative", "dphi short", "dphi long",
        ],
    )
    def test_point_rules(self, fields, message):
        base = {
            "label": "Q",
            "kind": SCALAR_FLAT,
            "group_order": 2,
            "phi": (1, 0),
            "e_sign": 1,
        }
        SingularPointRecord(**base)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SingularPointRecord(**{**base, **fields})

    def test_ricci_flat_point_needs_no_sign(self):
        assert SingularPointRecord("P", RICCI_FLAT, 3, (1,)).e_sign is None

    def test_defaults(self):
        assert Certificate(GORDAN) == Certificate(GORDAN, (), (), 0)
        assert PointCoefficients("P", RICCI_FLAT) == ("P", RICCI_FLAT, None, None, None, None, None)
        rep = BalancingReport(RICCI_FLAT, 0, False)
        assert (rep.matrix, rep.coefficients, rep.notes) == (None, (), ())


class TestSphereVolume:
    """The test oracle for |S^{2m-1}|, against which the closed-form gluing
    constants are checked (TestClosedForms)."""

    @pytest.mark.parametrize("m,coeff,power", [(1, 2, 1), (2, 2, 2), (3, 1, 3)])
    def test_known_values(self, m, coeff, power):
        v = sphere_volume_oracle(m)
        assert (v.coeff, v.pi_power) == (coeff, power)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_recursive_oracle(self, m):
        # the recursion agrees with 2 pi^m / (m-1)!, the form the constants use
        expected = PiRational(Fraction(2, math.factorial(m - 1)), m)
        assert sphere_volume_oracle(m) == expected


class TestGluingScales:
    def test_m2(self):
        r, big_r = gluing_scales(Fraction(1, 10), 2)
        assert r.exponent == Fraction(3, 5)
        assert big_r.exponent == Fraction(-2, 5)

    def test_m3(self):
        r, big_r = gluing_scales(Fraction(1, 2), 3)
        assert (r.exponent, big_r.exponent) == (Fraction(5, 7), Fraction(-2, 7))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_neck_identity(self, m):
        # r_eps = eps * R_eps as an identity of exponents
        r, big_r = gluing_scales(Fraction(1, 3), m)
        assert r.exponent == 1 + big_r.exponent

    def test_rejects_large_eps(self):
        with pytest.raises(ValueError):
            gluing_scales(1, 2)


class TestBuildXi:
    def test_zero_phi_gives_zero_column(self):
        xi = build_xi([q_point("q", (0, 0))])
        assert is_zero(fraction_matrix(xi))

    def test_antipodal_pair_balances(self):
        points = [q_point("q1", (1, 2)), q_point("q2", (-1, -2))]
        xi = build_xi(points)
        assert mul_vector(fraction_matrix(xi), [1, 1]) == (0, 0)

    def test_surface_data_as_scalar_flat(self):
        points = [
            q_point("q1", (-1, -1)),
            q_point("q2", (-1, 1)),
            q_point("q3", (1, -1)),
            q_point("q4", (1, 1)),
        ]
        xi = build_xi(points)
        # direct substitution: sign * phi / |Gamma| with |Gamma| = 2
        expected = RationalMatrix.from_rows(
            [["-1/2", "-1/2", "1/2", "1/2"], ["-1/2", "1/2", "-1/2", "1/2"]]
        )
        assert xi == scaled_matrix(expected)

    def test_missing_sign_rejected(self):
        with pytest.raises(ValueError):
            SingularPointRecord(
                label="q", kind=SCALAR_FLAT, group_order=2, phi=(1,)
            )


class TestBuildTheta:
    def test_einstein_tuned_strips_positive_factor(self):
        theta = build_theta(P1XP1.points, s=None, m=2)
        assert theta.scale == Fraction(1, 2)
        assert theta.scale_symbols == ("s_omega",)
        assert fraction_matrix(theta).to_rows() == [
            [-1, -1, 1, 1],
            [-1, 1, -1, 1],
        ]

    def test_einstein_tuned_numeric_s(self):
        theta = build_theta(P2Z3.points, s=Fraction(6), m=2)
        assert theta.scale == Fraction(3)  # (m-1)/m * s = 6/2
        assert theta.scale_symbols == ()
        assert fraction_matrix(theta).to_rows() == [[1, -1, 0], [0, -1, 1]]

    def test_explicit_laplacian_matches_einstein_reduction(self):
        # with Lap(phi) = -(s/m) phi supplied explicitly, entries agree with
        # the tuned Einstein form (c - s b / m) phi
        s, m = Fraction(4), 2
        explicit = [
            SingularPointRecord(
                label=p.label,
                kind=RICCI_FLAT,
                group_order=p.group_order,
                phi=p.phi.values(),
                dphi=tuple(-(s / m) * x for x in p.phi.values()),
            )
            for p in P1XP1.points
        ]
        t1 = build_theta(explicit, s=s, m=m)
        t2 = build_theta(P1XP1.points, s=s, m=m)
        lhs = scaled(fraction_matrix(t1), t1.scale)
        rhs = scaled(fraction_matrix(t2), t2.scale)
        assert lhs == rhs


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def point_sets(draw, kind):
    """Points of one kind with a common d (0 to 3) and phi values that are
    negative, zero or positive."""
    d = draw(st.integers(0, 3))
    n = draw(st.integers(1, 6))
    explicit = kind == RICCI_FLAT and draw(st.booleans())
    points = [
        SingularPointRecord(
            label=f"p{j}",
            kind=kind,
            group_order=draw(st.integers(1, 12)),
            phi=tuple(draw(RATIONALS) for _ in range(d)),
            dphi=(
                tuple(draw(RATIONALS) for _ in range(d)) if explicit else None
            ),
            e_sign=draw(st.sampled_from([1, -1])) if kind == SCALAR_FLAT else None,
        )
        for j in range(n)
    ]
    return points


class TestMatricesAgainstFormulas:
    """build_xi and build_theta equal their chained-Fraction formulas at
    unit weights."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(point_sets(SCALAR_FLAT))
    def test_xi(self, points):
        assert build_xi(points) == build_xi_fraction(points)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        point_sets(RICCI_FLAT),
        st.one_of(st.none(), st.fractions(min_value=0, max_denominator=5).filter(bool)),
        st.integers(2, 5),
    )
    def test_theta(self, points, s, m):
        if points[0].dphi is not None and s is None:
            s = Fraction(3, 2)
        assert build_theta(points, s, m) == build_theta_fraction(points, s, m)

    @staticmethod
    def fraction_calls(build, *args):
        """The result of build(*args) and the names of the fractions-module
        functions it called."""
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                seen.add(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            result = build(*args)
        finally:
            sys.setprofile(None)
        return result, seen

    def test_no_fraction_arithmetic(self):
        # The rows are formed from the points' integer rows: no Fraction is
        # made per entry and no Fraction operator runs, only the comparison
        # of the stripped scale with 0 and, for theta, the scale (m-1)/m.
        q = [q_point("q1", (1, Fraction(-2, 3))), q_point("q2", (0, 5), -1, 3)]
        p = [p_point("p1", (1, Fraction(-2, 3))), p_point("p2", (0, 5))]
        xi, seen_xi = self.fraction_calls(build_xi, q)
        theta, seen_theta = self.fraction_calls(build_theta, p, None, 3)
        assert xi == build_xi_fraction(q)
        assert theta == build_theta_fraction(p, None, 3)
        assert seen_xi <= {"__le__", "_richcmp"}
        assert seen_theta <= {"__new__", "__le__", "_richcmp"}


class TestRicciFlatBalancing:
    def test_four_point_surface(self):
        rep = solve_ricci_flat_balancing(P1XP1.points, s=None, m=2)
        assert rep.feasible
        assert rep.witness.values() == (1, 1, 1, 1)
        assert rep.rank == 2
        assert rep.kernel_dim == 2
        kernel = set(nullspace_basis(fraction_matrix(rep.matrix)))
        assert kernel == {(0, 1, 1, 0), (1, 0, 0, 1)}  # the (a, b, b, a) family

    def test_three_point_surface(self):
        rep = solve_ricci_flat_balancing(P2Z3.points, s=None, m=2)
        assert rep.feasible
        assert rep.witness.values() == (1, 1, 1)
        assert rep.rank == 2
        assert rep.kernel_dim == 1
        assert nullspace_basis(fraction_matrix(rep.matrix)) == [(1, 1, 1)]

    def test_threefold_su_vertices(self):
        su = example_by_name("x1").annotations["correspondences"]
        points = [p_point(lab, v, order=3) for lab, v in su.items()]
        rep = solve_ricci_flat_balancing(points, s=None, m=3)
        assert rep.feasible
        assert rep.witness.values() == (1,) * 6
        assert rep.rank == 3

    def test_numeric_s_sets_witness_c(self):
        rep = solve_ricci_flat_balancing(P2Z3.points, s=Fraction(6), m=2)
        assert rep.feasible
        assert rep.witness_c.values() == (6, 6, 6)

    def test_infeasible_when_phi_one_sided(self):
        points = [p_point("p1", (1, 0)), p_point("p2", (1, 1))]
        rep = solve_ricci_flat_balancing(points, s=None, m=2)
        assert not rep.feasible
        assert rep.witness is None

    def test_empty_witness_is_reported(self):
        # phi values of length d = 0: no condition, so the empty vector is a
        # witness, and an IntegerRow is truthy even when it has no entries
        rep = solve_ricci_flat_balancing([p_point("p1", ()), p_point("p2", ())], s=None, m=2)
        assert rep.feasible
        assert rep.witness == IntegerRow(())
        section = _balancing_dict(rep)
        assert (section["witness_b"], section["joint_rank"]) == ([], 0)
        assert section["witness_c"] is None

    def test_witness_reverifies(self):
        rep = solve_ricci_flat_balancing(P1XP1.points, s=None, m=2)
        phi = RationalMatrix.from_rows(
            [[p.phi.values()[i] for p in P1XP1.points] for i in range(2)]
        )
        assert all(v == 0 for v in mul_vector(phi, rep.witness.values()))
        assert min(rep.witness.values()) >= 1


class TestScalarFlatBalancing:
    def test_antipodal_pair_rank_one(self):
        points = [q_point("q1", (1,)), q_point("q2", (-1,))]
        rep = solve_scalar_flat_balancing(points, 2)
        assert rep.feasible
        assert rep.witness.values() == (1, 1)
        assert rep.rank == 1

    def test_single_point_infeasible(self):
        rep = solve_scalar_flat_balancing([q_point("q", (1, 0))], 2)
        assert not rep.feasible

    def test_opposite_signs_same_phi(self):
        points = [q_point("q1", (1,), sign=1), q_point("q2", (1,), sign=-1)]
        rep = solve_scalar_flat_balancing(points, 2)
        assert rep.feasible
        assert rep.witness.values() == (1, 1)

    def test_rank_condition_can_fail_despite_kernel(self):
        # phi identically zero: positive kernel trivially exists, rank 0 < d
        points = [q_point("q1", (0,)), q_point("q2", (0,))]
        rep = solve_scalar_flat_balancing(points, 2)
        assert not rep.feasible
        assert rep.rank == 0

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_pending_coefficient_is_one_exact_value(self, m):
        """Without |e(Gamma)| a point's coefficient is |Gamma| a / (4 or
        8(m-2)(m-1)) in lowest terms, the divisor |S^{2m-1}|·|e| named once
        in the notes; a point with |e| has its leading value instead."""
        points = [
            q_point("q1", (2,), order=3),
            q_point("q2", (-3,), order=4),
            q_point("q3", (-1,), order=6, mag=Fraction(1, 2)),
        ]
        rep = solve_scalar_flat_balancing(points, m)
        factor = 4 if m == 2 else 8 * (m - 2) * (m - 1)
        for p, c, a in zip(points[:2], rep.coefficients, rep.witness.values()):
            value = p.group_order * a / factor
            assert (c.leading, c.leading_pending) == (None, (value.numerator, value.denominator))
        third = rep.coefficients[2]
        assert third.leading_pending is None and third.leading is not None
        note = f"pending |e(Gamma)|: a leading value is leading_pending/(|S^{2 * m - 1}|*|e(Gamma)|)"
        assert rep.notes.count(note) == 1

    def test_no_pending_note_when_every_magnitude_is_known(self):
        points = [q_point("q1", (1,), mag=1), q_point("q2", (-1,), mag=2)]
        rep = solve_scalar_flat_balancing(points, 3)
        assert not any(c.leading_pending for c in rep.coefficients)
        assert not any("pending" in note for note in rep.notes)


# The certificate kind of each class of orbifold_shaped_matrix.
VERDICTS = {"balanced": FULL_RANK, "hyperplane": RANK_DEFICIENT, "halfspace": GORDAN}


@st.composite
def shaped_matrices(draw):
    klass = draw(st.sampled_from(sorted(VERDICTS)))
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d + 1, d + 5))
    seed = draw(st.integers(0, 2**32))
    return klass, orbifold_shaped_matrix(random.Random(seed), klass, d, n)


def integer_rows(m: RationalMatrix) -> list[list[int]]:
    """Each row of m times the lcm of its denominators."""
    rows = m.to_rows()
    return [[int(x * math.lcm(*(e.denominator for e in row))) for x in row] for row in rows]


def corrupted(cert: Certificate, m: RationalMatrix) -> list[Certificate]:
    """Certificates that must fail: the determinant off by one and a column
    dropped, or one y entry flipped in sign (one whose row is nonzero, so
    that yᵀ·M_int changes)."""
    if cert.kind == FULL_RANK:
        return [
            cert._replace(determinant=cert.determinant + 1),
            cert._replace(columns=cert.columns[:-1]),
        ]
    rows = integer_rows(m)
    k = next((k for k, v in enumerate(cert.y) if v and any(rows[k])), None)
    if k is None:
        return []
    return [cert._replace(y=tuple(-v if i == k else v for i, v in enumerate(cert.y)))]


class TestCertificates:
    """Every verdict's certificate passes check_certificate (run by the
    solver on every verdict) and the matching oracles; corrupted ones fail."""

    @staticmethod
    def decide(m: RationalMatrix):
        # Einstein points whose phi values are m's columns: their unit-weight
        # balancing matrix is m itself.
        points = [p_point(f"p{j}", col) for j, col in enumerate(zip(*m.to_rows()))]
        return solve_ricci_flat_balancing(points, s=None, m=2)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(shaped_matrices())
    def test_solver_certificates_pass_and_corruptions_fail(self, drawn):
        klass, m = drawn
        rep = self.decide(m)
        cert = rep.certificate
        assert cert.kind == VERDICTS[klass]
        check_certificate(rep.matrix, rep.witness, cert)
        rows = integer_rows(m)
        if cert.kind == FULL_RANK:
            assert det_cofactor([[row[j] for j in cert.columns] for row in rows]) == cert.determinant
        else:
            y_m = [sum(y * x for y, x in zip(cert.y, col)) for col in zip(*rows)]
            assert any(cert.y) and (min(y_m) >= 0 if cert.kind == GORDAN else not any(y_m))
        assert rep.kernel_dim == m.cols - rank(m)
        for bad in corrupted(cert, m):
            with pytest.raises(RuntimeError, match="certificate fails its check"):
                check_certificate(rep.matrix, rep.witness, bad)

    def test_verdict_and_certificate_kind_must_agree(self):
        m = RationalMatrix.from_rows([[1, -1]])
        rep = self.decide(m)
        assert rep.certificate == Certificate(FULL_RANK, columns=(0,), determinant=1)
        with pytest.raises(RuntimeError, match="gordan"):
            check_certificate(rep.matrix, rep.witness, Certificate(GORDAN, y=(1,)))
        with pytest.raises(RuntimeError, match="full_rank"):
            check_certificate(rep.matrix, None, rep.certificate)
        with pytest.raises(RuntimeError, match="full_rank"):
            check_certificate(rep.matrix, IntegerRow((1, 2)), rep.certificate)
        # in the kernel, but its entries are 1/2, below 1
        with pytest.raises(RuntimeError, match="full_rank"):
            check_certificate(rep.matrix, IntegerRow((1, 1), 2), rep.certificate)

    def test_pinned_verdicts(self):
        one_sided = RationalMatrix.from_rows([[1, 1], [0, 1]])
        assert self.decide(one_sided).certificate == Certificate(GORDAN, y=(1, 1))
        flat = RationalMatrix.from_rows([[1, -1], [0, 0]])
        assert self.decide(flat).certificate == Certificate(RANK_DEFICIENT, y=(0, 1))


@pytest.mark.parametrize("name", ["p1xp1-z2", "p2-z3"])
def test_orbifold_examples_match_annotations(name):
    ex = example_by_name(name)
    ann = ex.annotations
    rep = solve_ricci_flat_balancing(parse_orbifold(ex.text).points, s=None, m=2)
    witness = rep.witness.values()
    assert (rep.feasible, rep.rank, witness, rep.kernel_dim, rep.certificate.kind) == (
        ann["feasible"], ann["rank"], ann["witness_b"], ann["kernel_dim"], ann["certificate"]
    )


class TestLeadingCoefficients:
    def test_ricci_flat_spot_value(self):
        lead = leading_coefficients(RICCI_FLAT, m=3, order=3, weight=(1, 1))
        assert lead == PiRational(Fraction(3, 4))

    def test_scalar_flat_m2(self):
        lead = leading_coefficients(SCALAR_FLAT, m=2, order=2, weight=(1, 1), e_magnitude=1)
        assert lead == PiRational(Fraction(1, 4), -2)  # 1/(4 pi^2)

    def test_zero_weight(self):
        assert leading_coefficients(RICCI_FLAT, m=4, order=5, weight=(0, 1)).coeff == 0

    def test_homogeneous_in_weight(self):
        for kind, kwargs in (
            (RICCI_FLAT, {}),
            (SCALAR_FLAT, {"e_magnitude": Fraction(3, 2)}),
        ):
            base = leading_coefficients(kind, 3, 4, (2, 7), **kwargs)
            scaled = leading_coefficients(kind, 3, 4, (10, 7), **kwargs)
            assert scaled == PiRational(base.coeff * 5, base.pi_power)

    def test_magnitude_required_for_scalar_flat(self):
        with pytest.raises(ValueError):
            leading_coefficients(SCALAR_FLAT, 3, 2, (1, 1))


class TestModelConstants:
    def test_zero_weight(self):
        (radicand, exponent), c = model_constants(
            m=3, b_j=0, order=3, c_gamma=1, s=1, c_j=Fraction(5)
        )
        assert radicand.coeff == 0
        assert c == -Fraction(5) * 3 / (8 * 1 * 2)

    def test_radicand_spot_value(self):
        (radicand, exponent), _ = model_constants(
            m=3, b_j=1, order=3, c_gamma=1, s=1, c_j=0
        )
        assert radicand == PiRational(Fraction(3, 4), -3)  # 3 / (4 pi^3)
        assert exponent == Fraction(1, 6)

    def test_tuned_bracket_proportional_to_s(self):
        # with c_j = s b_j both bracket terms scale linearly in s
        def c_of(s):
            (_, _), c = model_constants(
                m=3, b_j=2, order=3, c_gamma=Fraction(1, 2), s=s, c_j=s * 2
            )
            return c

        assert c_of(Fraction(2)) == 2 * c_of(Fraction(1))

    def test_radicand_homogeneous_in_b(self):
        (r1, _), _ = model_constants(m=4, b_j=1, order=6, c_gamma=2, s=1, c_j=0)
        (r5, _), _ = model_constants(m=4, b_j=5, order=6, c_gamma=2, s=1, c_j=0)
        assert r5 == PiRational(r1.coeff * 5, r1.pi_power)

    def test_m2_rejected(self):
        with pytest.raises(ValueError):
            model_constants(m=2, b_j=1, order=2, c_gamma=1, s=1, c_j=0)


POSITIVE = st.fractions(min_value=0, max_value=20, max_denominator=12).filter(bool)


class TestClosedForms:
    """leading_coefficients and model_constants equal the paper's formulas,
    evaluated in Fractions with |S^{2m-1}| from sphere_volume_oracle."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 60), POSITIVE, POSITIVE)
    def test_leading_coefficients(self, m, order, weight, mag):
        sphere = sphere_volume_oracle(m)
        pair = weight.numerator, weight.denominator
        ricci_flat = Fraction(order) * weight / (2 * (m - 1))
        assert leading_coefficients(RICCI_FLAT, m, order, pair) == PiRational(ricci_flat)
        # |Gamma| a / (4 |S^3| |e|) at m = 2, else / (8 (m-2)(m-1) |S^{2m-1}| |e|)
        factor = 4 if m == 2 else 8 * (m - 2) * (m - 1)
        scalar_flat = PiRational(order * weight / (factor * mag * sphere.coeff), -sphere.pi_power)
        assert leading_coefficients(SCALAR_FLAT, m, order, pair, mag) == scalar_flat

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(3, 8), st.integers(1, 60), POSITIVE, POSITIVE, RATIONALS, RATIONALS)
    def test_model_constants(self, m, order, b, c_gamma, s, c_j):
        sphere = sphere_volume_oracle(m)
        # B^{2m} = b |Gamma| / (2 c(Gamma) (m-1) |S^{2m-1}|)
        radicand = PiRational(
            b * order / (2 * c_gamma * (m - 1) * sphere.coeff), -sphere.pi_power
        )
        # C = |Gamma| / (8 (m-2)(m-1)) * (2 c(Gamma) B^{2m} (m-1) |S^{2m-1}|
        #     s (1 + (m-1)^2/(m+1)) / (m |Gamma|) - c_j)
        tail = s * (1 + Fraction((m - 1) ** 2, m + 1)) / (m * order)
        assert radicand.pi_power + sphere.pi_power == 0
        bracket = radicand.coeff * sphere.coeff * (2 * c_gamma * (m - 1)) * tail - c_j
        c_value = Fraction(order, 8 * (m - 2) * (m - 1)) * bracket
        got = model_constants(m=m, b_j=b, order=order, c_gamma=c_gamma, s=s, c_j=c_j)
        assert got == ((radicand, Fraction(1, 2 * m)), c_value)


def test_one_integer_scaling_per_verdict(monkeypatch):
    # build_theta scales each of the d = 2 rows once, as an IntegerRow, and
    # both solvers share M_int; the witness and s·w are one IntegerRow each.
    calls = []
    original = IntegerRow.over

    def counted(nums, dens):
        calls.append(nums)
        return original(nums, dens)

    name = "m4-ricci-flat-constants.orb"
    text = (Path(__file__).parent / "fixtures" / name).read_text()
    parsed = parse_orbifold(text)
    monkeypatch.setattr(IntegerRow, "over", staticmethod(counted))
    build_report(name, text, parsed)
    assert len(calls) == 4


class TestScaleInvariance:
    @pytest.mark.parametrize("orb", [P1XP1, P2Z3])
    def test_feasibility_invariant_under_s(self, orb):
        reports = [
            solve_ricci_flat_balancing(orb.points, s=s, m=2)
            for s in (None, Fraction(1), Fraction(7, 3))
        ]
        assert len({r.feasible for r in reports}) == 1
        assert len({r.rank for r in reports}) == 1

    @pytest.mark.parametrize("orb", [P1XP1, P2Z3])
    def test_rank_invariant_under_positive_witness(self, orb):
        # weights b_j scale the columns of the unit-weight matrix
        rng = random.Random(3)
        base = solve_ricci_flat_balancing(orb.points, s=None, m=2)
        unit = fraction_matrix(build_theta(orb.points, s=None, m=2))
        for _ in range(10):
            b = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in orb.points]
            weighted = RationalMatrix.from_rows(
                [[x * w for x, w in zip(row, b)] for row in unit.to_rows()]
            )
            assert rank(weighted) == base.rank


def test_einstein_verdict_matches_bruteforce_oracle():
    from itertools import product

    grid = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
    rng = random.Random(41)
    for _ in range(120):
        d = rng.randint(1, 3)
        n = rng.randint(1, 4)
        points = [
            p_point(f"p{j}", [rng.randint(-2, 2) for _ in range(d)])
            for j in range(n)
        ]
        rep = solve_ricci_flat_balancing(points, s=None, m=2)
        phi = RationalMatrix.from_rows(
            [[p.phi.values()[i] for p in points] for i in range(d)]
        )
        oracle_witness = positive_kernel_witness_bruteforce(phi)
        oracle_feasible = oracle_witness is not None and rank(phi) == d
        assert rep.feasible == oracle_feasible
        # one-way grid confirmation: any positive grid point in the kernel
        # forces at least kernel-feasibility of the solver's system
        grid_hit = any(
            all(v == 0 for v in mul_vector(phi, b))
            for b in product(grid, repeat=n)
        )
        if grid_hit:
            assert rep.witness is not None


def _outcome(rep, m, d):
    """Check one report against the oracles on the regime's unit-weight
    matrix m; returns (witness found, full rank)."""
    oracle_witness = positive_kernel_witness_bruteforce(m)
    assert (rep.witness is None) == (oracle_witness is None)
    assert rep.feasible == (oracle_witness is not None and rank_bruteforce(m) == d)
    assert rep.rank == rank_bruteforce(fraction_matrix(rep.matrix))
    return oracle_witness is not None, rep.rank == d


def test_scalar_flat_verdict_matches_bruteforce_oracle():
    rng = random.Random(43)
    outcomes = set()
    for _ in range(120):
        d = rng.randint(1, 3)
        n = rng.randint(1, 4)
        points = [
            q_point(
                f"q{l}",
                [rng.randint(-2, 2) for _ in range(d)],
                sign=rng.choice((1, -1)),
                order=rng.randint(1, 4),
            )
            for l in range(n)
        ]
        rep = solve_scalar_flat_balancing(points, 2)
        xi = RationalMatrix.from_rows(
            [[q.e_sign * q.phi.values()[i] / q.group_order for q in points] for i in range(d)]
        )
        outcomes.add(_outcome(rep, xi, d))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_explicit_laplacian_verdict_matches_bruteforce_oracle():
    rng = random.Random(47)
    outcomes = set()
    for _ in range(120):
        d = rng.randint(1, 3)
        n = rng.randint(1, 4)
        s = rng.choice((Fraction(1), Fraction(2), Fraction(5, 2)))
        points = [
            SingularPointRecord(
                label=f"p{j}",
                kind=RICCI_FLAT,
                group_order=rng.randint(1, 4),
                phi=tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)),
                dphi=tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)),
            )
            for j in range(n)
        ]
        rep = solve_ricci_flat_balancing(points, s=s, m=3)
        tuned = RationalMatrix.from_rows(
            [
                [p.dphi.values()[i] + s * p.phi.values()[i] for p in points]
                for i in range(d)
            ]
        )
        outcomes.add(_outcome(rep, tuned, d))
        if rep.witness is not None:
            assert rep.witness_c.values() == tuple(s * b for b in rep.witness.values())
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}
