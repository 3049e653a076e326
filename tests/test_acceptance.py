"""Acceptance criteria, one test per criterion.

Every check is exact (tolerance zero); each test prints one PASS line with
its runtime and asserts the stated wall-clock budget.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from conftest import (
    compose_mode_matrices,
    det_cofactor,
    evaluate,
    gluing_scales,
    inner_extension,
    invariant_dimension_bruteforce,
    invariant_dimension_characters,
    invariant_monomial_count_lattice,
    invariant_monomial_count_weights,
    isolated_by_enumeration,
    mul_vector,
    outer_extension,
    positive_kernel_witness_bruteforce,
    radial_bilaplacian,
    radial_laplacian,
    rank_bruteforce,
    sphere_eigenvalue_oracle,
)
from kcscglue.balancing import (
    RICCI_FLAT,
    SCALAR_FLAT,
    PiRational,
    SingularPointRecord,
    build_theta,
    leading_coefficients,
    model_constants,
    solve_ricci_flat_balancing,
)
from kcscglue.biharmonic import dtn_inverse, dtn_mode_matrix
from kcscglue.cli import main
from kcscglue.examples import embedded_examples, example_by_name
from kcscglue.exact_linalg import (
    RationalMatrix,
    nullspace_basis,
    positive_kernel_witness,
    rank,
)
from kcscglue.formats import parse_fan, parse_orbifold
from kcscglue.polytope import (
    anticanonical_polytope,
    faces,
    moment_assignment,
    polytope_barycenter,
    subset_barycenter,
)
from kcscglue.spectral import (
    eigenvalue,
    invariant_harmonic_dimension,
)
from kcscglue.toric_lattice import (
    SU,
    U_NON_SU,
    Cone,
    GroupPresentation,
    classify_fan,
    cone_index,
    quotient_action,
)


class _Timer:
    def __init__(self, name, budget_s):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"PASS: {self.name} [{elapsed:.3f}s, budget {self.budget}s]")
            assert elapsed < self.budget, f"{self.name} exceeded {self.budget}s"
        else:
            print(f"FAIL: {self.name} [{elapsed:.3f}s]")
        return False


def _kernel_span_equal(basis_a, basis_b, ncols):
    """Exact equality of spans via rank arithmetic."""
    if not basis_a and not basis_b:
        return True
    if bool(basis_a) != bool(basis_b):
        return False
    stacked_a = RationalMatrix.from_rows([list(v) for v in basis_a])
    stacked_b = RationalMatrix.from_rows([list(v) for v in basis_b])
    both = RationalMatrix.from_rows(
        [list(v) for v in basis_a] + [list(v) for v in basis_b]
    )
    ra, rb, rj = rank(stacked_a), rank(stacked_b), rank(both)
    return ra == rb == rj


def test_criterion_1_x1_classification():
    with _Timer("criterion 1: X1 classification", 1.0):
        fan = parse_fan(example_by_name("x1").text).to_fan()
        classified = classify_fan(fan)
        su = [lab for lab, qd in classified if qd.classification == SU]
        non_su = [lab for lab, qd in classified if qd.classification == U_NON_SU]
        assert su == ["C1", "C4", "C5", "C7", "C11", "C12"]
        assert non_su == ["C2", "C3", "C6", "C8", "C9", "C10"]
        assert len(su) + len(non_su) == 12
        assert all(qd.isolated for _, qd in classified)


def test_criterion_2_x1_polytope():
    with _Timer("criterion 2: X1 polytope", 1.0):
        ann = example_by_name("x1").annotations
        fan = parse_fan(example_by_name("x1").text).to_fan()
        p = anticanonical_polytope(fan, 3)
        assert {tuple(int(x) for x in v) for v in p.vertices} == set(ann["vertices"])
        assert len(p.vertices) == 12
        got_faces = {
            frozenset(tuple(int(x) for x in v) for v in f) for f in faces(p, 2)
        }
        assert got_faces == {frozenset(f) for f in ann["two_faces"]}
        assert len(got_faces) == 8
        assert polytope_barycenter(p) == (0, 0, 0)
        assignment = dict(moment_assignment(fan, 3))
        for label, vertex in ann["correspondences"].items():
            assert tuple(int(x) for x in assignment[label]) == vertex
        assert len(ann["correspondences"]) == 6


def test_criterion_3_x4():
    with _Timer("criterion 3: X4 classification/polytope/balancing", 1.0):
        ann = example_by_name("x4").annotations
        fan = parse_fan(example_by_name("x4").text).to_fan()
        classified = classify_fan(fan)
        su = [lab for lab, qd in classified if qd.classification == SU]
        assert su == ["C1", "C4", "C7", "C8"]
        p = anticanonical_polytope(fan, 5)
        assert {tuple(int(x) for x in v) for v in p.vertices} == set(ann["vertices"])
        got_faces = {
            frozenset(tuple(int(x) for x in v) for v in f) for f in faces(p, 2)
        }
        assert got_faces == {frozenset(f) for f in ann["two_faces"]}
        assert len(got_faces) == 6
        assignment = dict(moment_assignment(fan, 5))
        su_vertices = [assignment[lab] for lab in su]
        assert subset_barycenter(su_vertices) == (0, 0, 0)
        orders = {lab: qd.order for lab, qd in classified}
        points = [
            SingularPointRecord(
                label=lab,
                kind=RICCI_FLAT,
                group_order=orders[lab],
                phi_values=tuple(assignment[lab]),
            )
            for lab in su
        ]
        rep = solve_ricci_flat_balancing(points, s=None, m=3)
        assert rep.feasible
        assert rep.witness == (1, 1, 1, 1)


def test_criterion_4_surface_examples():
    with _Timer("criterion 4: surface quotient examples", 1.0):
        # first surface: family (a, b, b, a)
        orb = parse_orbifold(example_by_name("p1xp1-z2").text)
        theta = build_theta(orb.points, s=None, m=2)
        reference = RationalMatrix.from_rows([[-1, -1, 1, 1], [-1, 1, -1, 1]])
        assert rank(theta.matrix) == 2
        assert theta.scale > 0
        # proportionality up to positive scalar and row basis: same kernel
        assert _kernel_span_equal(
            nullspace_basis(theta.matrix), nullspace_basis(reference), 4
        )
        rep = solve_ricci_flat_balancing(orb.points, s=None, m=2)
        assert rep.feasible and rep.rank == 2
        family = {(1, 1, 1, 1), (1, 2, 2, 1), (3, 1, 1, 3)}
        for member in family:
            assert all(v == 0 for v in mul_vector(theta.matrix, member))
        # second surface: family (a, a, a)
        orb2 = parse_orbifold(example_by_name("p2-z3").text)
        theta2 = build_theta(orb2.points, s=None, m=2)
        assert rank(theta2.matrix) == 2
        assert _kernel_span_equal(
            nullspace_basis(theta2.matrix), [(1, 1, 1)], 3
        )
        rep2 = solve_ricci_flat_balancing(orb2.points, s=None, m=2)
        assert rep2.feasible and rep2.rank == 2


def test_criterion_5_spectral():
    with _Timer("criterion 5: spectral bookkeeping", 10.0):
        for m in range(2, 6):
            for j in range(0, 11):
                assert eigenvalue(j, m) == sphere_eigenvalue_oracle(j, m)
        # no invariant linear functions for groups extracted from the fans
        for name in ("x1", "x4"):
            fan = parse_fan(example_by_name(name).text).to_fan()
            for _, g in classify_fan(fan):
                if g.order == 1:
                    continue
                assert g.isolated
                assert isolated_by_enumeration(g)
                assert invariant_harmonic_dimension(g, 1, fan.dim) == 0
        # monomial counting vs the monomial-basis and character-averaging
        # oracles: exhaustive in m = 2, deterministic sample in m = 3,
        # within |Gamma| <= 8, j <= 6
        for d in range(2, 9):
            for w in product(range(d), repeat=2):
                g = GroupPresentation(m=2, orders=(d,), weights=(w,))
                for j in range(0, 7):
                    want = invariant_dimension_bruteforce(g, j, 2)
                    assert invariant_harmonic_dimension(g, j, 2) == want
                    assert invariant_dimension_characters(g, j, 2) == want
        rng = random.Random(29)
        for _ in range(120):
            d = rng.randint(2, 8)
            w = tuple(rng.randrange(d) for _ in range(3))
            g = GroupPresentation(m=3, orders=(d,), weights=(w,))
            j = rng.randint(0, 6)
            want = invariant_dimension_bruteforce(g, j, 3)
            assert invariant_harmonic_dimension(g, j, 3) == want
            assert invariant_dimension_characters(g, j, 3) == want


def test_criterion_6_biharmonic():
    with _Timer("criterion 6: biharmonic extensions and matching", 5.0):
        rng = random.Random(31)
        samples = [
            (
                Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            )
            for _ in range(50)
        ]
        for m in (2, 3, 4):
            for gamma in (0, 2, 3, 4, 5, 6):
                mat = dtn_mode_matrix(m, gamma, no_invariant_linear=True)
                inv = dtn_inverse(m, gamma, no_invariant_linear=True)
                assert mat.determinant != 0
                assert compose_mode_matrices(mat, inv) == ((1, 0), (0, 1))
                assert compose_mode_matrices(inv, mat) == ((1, 0), (0, 1))
                for h, k in samples:
                    outer = outer_extension(m, gamma, h, k, no_invariant_linear=True)
                    inner = inner_extension(m, gamma, h, k, no_invariant_linear=True)
                    for terms in (outer, inner):
                        assert evaluate(terms, 1) == h
                        assert evaluate(radial_laplacian(terms, m), 1) == k
                        assert radial_bilaplacian(terms, m) == ()


def test_criterion_7_coefficients():
    with _Timer("criterion 7: gluing coefficients", 1.0):
        assert leading_coefficients(RICCI_FLAT, 3, 3, 1) == PiRational(Fraction(3, 4))
        for m in (2, 3, 4):
            for order, weight in ((2, 1), (5, Fraction(2, 3))):
                lead = leading_coefficients(RICCI_FLAT, m, order, weight)
                assert lead.as_fraction() == Fraction(order) * weight / (2 * (m - 1))
        lead = leading_coefficients(SCALAR_FLAT, 2, 2, 1, e_magnitude=1)
        assert lead == PiRational(Fraction(1, 4), -2)
        # radicand of the model root is degree-one homogeneous in b
        (r1, e1), _ = model_constants(m=3, b_j=1, order=3, c_gamma=1, s=1, c_j=0)
        (r7, e7), _ = model_constants(m=3, b_j=7, order=3, c_gamma=1, s=1, c_j=0)
        assert r7 == r1 * 7 and e1 == e7 == Fraction(1, 6)
        for m in (2, 3, 4):
            r_eps, big_r = gluing_scales(Fraction(1, 5), m)
            assert r_eps.exponent == Fraction(2 * m - 1, 2 * m + 1)
            assert big_r.exponent == Fraction(-2, 2 * m + 1)


def _random_matrix(rng, max_dim=4, lo=-3, hi=3):
    nrows = rng.randint(1, max_dim)
    ncols = rng.randint(1, max_dim)
    return RationalMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]
    )


def _random_cone(rng, m, max_det):
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
            if len(set(gens)) < m:
                continue
            det = det_cofactor([list(r) for r in Cone(tuple(gens)).generator_matrix()])
            if det != 0 and abs(det) <= max_det:
                return Cone(tuple(gens))


def test_criterion_8_oracle_equivalence():
    with _Timer("criterion 8: brute-force oracle equivalence", 60.0):
        rng = random.Random(97)
        # rank vs minor-based oracle
        for _ in range(1000):
            m = _random_matrix(rng)
            assert rank(m) == rank_bruteforce(m)
        # positive-kernel feasibility vs vertex enumeration
        for _ in range(1000):
            m = _random_matrix(rng, max_dim=4, lo=-2, hi=2)
            got = positive_kernel_witness(m)
            want = positive_kernel_witness_bruteforce(m)
            assert (got is None) == (want is None)
            if got is not None:
                assert all(x == 0 for x in mul_vector(m, got))
                assert min(got) >= 1
        # quotient-group extraction vs lattice-point counting
        for i in range(1000):
            dim = 2 if i % 2 else 3
            cone = _random_cone(rng, dim, max_det=12 if dim == 2 else 8)
            data = quotient_action(cone)
            prod = 1
            for d in data.orders:
                prod *= d
            assert prod == data.order == cone_index(cone)
            if data.order > 1:
                degree = max(data.orders)
                assert invariant_monomial_count_weights(
                    data.orders, data.weights, dim, degree
                ) == invariant_monomial_count_lattice(cone, degree)
        # invariant dimensions vs monomial-basis counting
        for _ in range(1000):
            m = rng.choice((2, 3))
            d = rng.randint(2, 8)
            w = tuple(rng.randrange(d) for _ in range(m))
            g = GroupPresentation(m=m, orders=(d,), weights=(w,))
            j = rng.randint(0, 6)
            want = invariant_dimension_bruteforce(g, j, m)
            assert invariant_harmonic_dimension(g, j, m) == want
            assert invariant_dimension_characters(g, j, m) == want


def test_criterion_9_batch_determinism(tmp_path, capsys):
    with _Timer("criterion 9: batch determinism", 5.0):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for ex in embedded_examples():
            (corpus / ex.filename).write_text(ex.text)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["report", "--batch", str(corpus), "--out", str(out1)]) == 0
        stdout1 = capsys.readouterr().out
        assert main(["report", "--batch", str(corpus), "--out", str(out2)]) == 0
        stdout2 = capsys.readouterr().out
        assert stdout1 == stdout2
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert len(names) == 4
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
