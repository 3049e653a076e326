import random
from fractions import Fraction

import pytest

from conftest import (
    RadialTerm,
    apply_mode_matrix,
    compose_mode_matrices,
    dtn_entries_by_calculus,
    evaluate,
    inner_extension,
    outer_extension,
    radial_bilaplacian,
    radial_laplacian,
)
from kcscglue.biharmonic import dtn_inverse, dtn_mode_matrix

MODES = [0, 2, 3, 4, 5, 6]
DIMS = [2, 3, 4]


def terms_as_set(terms):
    return {(t.coefficient, t.exponent, t.log_flag) for t in terms}


class TestOuterExtension:
    def test_pure_h_mode_zero(self):
        terms = outer_extension(3, 0, 1, 0)
        assert terms_as_set(terms) == {(Fraction(1), -4, False)}

    def test_pure_k_mode_zero(self):
        terms = outer_extension(3, 0, 0, 4)  # 4(m + gamma - 2) = 4
        assert terms_as_set(terms) == {(Fraction(1), -4, False), (Fraction(-1), -2, False)}

    def test_log_slot(self):
        terms = outer_extension(2, 0, 0, 2)
        assert terms_as_set(terms) == {(Fraction(1), 0, True)}

    def test_mode_one_rejected_for_nontrivial_group(self):
        with pytest.raises(ValueError):
            outer_extension(3, 1, 1, 0, no_invariant_linear=True)
        outer_extension(3, 1, 1, 0)  # fine when a linear function is invariant


class TestInnerExtension:
    def test_constant(self):
        terms = inner_extension(3, 0, 1, 0)
        assert terms_as_set(terms) == {(Fraction(1), 0, False)}

    def test_pure_k(self):
        terms = inner_extension(3, 0, 0, 12)  # 4(m + gamma) = 12
        assert terms_as_set(terms) == {(Fraction(-1), 0, False), (Fraction(1), 2, False)}

    def test_quadratic_mode(self):
        terms = inner_extension(2, 2, 1, 0)
        assert terms_as_set(terms) == {(Fraction(1), 2, False)}


class TestRadialBilaplacian:
    def test_r_squared_biharmonic(self):
        terms = (RadialTerm(Fraction(1), 2, 0),)
        once = radial_laplacian(terms, 2)
        assert terms_as_set(once) == {(Fraction(8), 0, False)}
        assert radial_bilaplacian(terms, 2) == ()

    def test_outer_harmonic_power(self):
        terms = outer_extension(3, 0, 1, 0)
        assert radial_laplacian(terms, 3) == ()

    def test_mode_two_kernel_exponents(self):
        terms = outer_extension(3, 2, 1, 12)  # k = 4(m + gamma - 2) = 12
        assert radial_bilaplacian(terms, 3) == ()

    def test_log_other_slots_rejected(self):
        bad = (RadialTerm(Fraction(1), 0, 1, log_flag=True),)
        with pytest.raises(ValueError):
            radial_laplacian(bad, 2)
        bad_m3 = (RadialTerm(Fraction(1), 0, 0, log_flag=True),)
        with pytest.raises(ValueError):
            radial_laplacian(bad_m3, 3)


class TestEvaluate:
    def test_inverse_power(self):
        assert evaluate((RadialTerm(Fraction(1), -4, 0),), 1) == 1
        assert evaluate((RadialTerm(Fraction(1), -4, 0),), 2) == Fraction(1, 16)

    def test_inner_boundary_value(self):
        terms = inner_extension(3, 0, 1, 12)
        assert evaluate(terms, 1) == 1

    def test_log_at_one(self):
        assert evaluate((RadialTerm(Fraction(1), 0, 0, log_flag=True),), 1) == 0

    def test_log_elsewhere_rejected(self):
        with pytest.raises(ValueError):
            evaluate((RadialTerm(Fraction(1), 0, 0, log_flag=True),), 2)


def _rational_samples(count, seed=5):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        h = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        k = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        out.append((h, k))
    return out


@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("gamma", MODES)
def test_boundary_conditions_and_biharmonicity(m, gamma):
    for h, k in _rational_samples(10):
        for build in (outer_extension, inner_extension):
            terms = build(m, gamma, h, k)
            assert evaluate(terms, 1) == h
            assert evaluate(radial_laplacian(terms, m), 1) == k
            assert radial_bilaplacian(terms, m) == ()


class TestModeMatrix:
    def test_m3_mode_zero_h_column(self):
        mat = dtn_mode_matrix(3, 0)
        h_col = apply_mode_matrix(mat, 1, 0)
        assert h_col == (-4, 0)

    def test_zero_data(self):
        assert apply_mode_matrix(dtn_mode_matrix(4, 2), 0, 0) == (0, 0)

    def test_log_mode_first_slot(self):
        # d/dr of (k/2) log r contributes k/2 at r = 1; the inner extension
        # subtracts k/4, leaving 1/4 in the k-entry of the first row
        mat = dtn_mode_matrix(2, 0)
        assert mat.entries[0][1] == Fraction(1, 4)
        assert mat.entries == ((-2, Fraction(1, 4)), (0, -2))
        assert mat.determinant == 4

    def test_upper_triangular_structure(self):
        for m in DIMS:
            for gamma in MODES:
                mat = dtn_mode_matrix(m, gamma)
                assert mat.entries[1][0] == 0
                diag = 2 - 2 * m - 2 * gamma
                assert mat.entries[0][0] == diag
                assert mat.entries[1][1] == diag
                assert mat.determinant == diag * diag != 0

    def test_gamma_one_gate(self):
        with pytest.raises(ValueError):
            dtn_mode_matrix(3, 1, no_invariant_linear=True)
        assert dtn_mode_matrix(3, 1).determinant != 0

    def test_out_of_range_mode_named_with_its_value(self):
        with pytest.raises(ValueError, match=r"^m must be >= 2, got 1$"):
            dtn_mode_matrix(1, 0)
        with pytest.raises(ValueError, match=r"^gamma must be >= 0, got -1$"):
            dtn_inverse(2, -1)


class TestInverse:
    @pytest.mark.parametrize("m", DIMS + [2])
    def test_composition_is_identity(self, m):
        for gamma in range(0, 7):
            if gamma == 1:
                continue
            p = dtn_mode_matrix(m, gamma, no_invariant_linear=True)
            q = dtn_inverse(m, gamma, no_invariant_linear=True)
            assert compose_mode_matrices(p, q) == ((1, 0), (0, 1))
            assert compose_mode_matrices(q, p) == ((1, 0), (0, 1))

    def test_m3_mode_zero(self):
        q = dtn_inverse(3, 0)
        p = dtn_mode_matrix(3, 0)
        assert q.determinant == 1 / p.determinant

    def test_determinant_reciprocal(self):
        for m in DIMS:
            for gamma in MODES:
                assert (
                    dtn_inverse(m, gamma).determinant
                    == 1 / dtn_mode_matrix(m, gamma).determinant
                )


def test_matching_recovers_boundary_data():
    # mode-wise matching: applying the inverse to the jump data returns the
    # original (h, k) exactly
    for m in DIMS:
        for gamma in MODES:
            p = dtn_mode_matrix(m, gamma)
            q = dtn_inverse(m, gamma)
            for h, k in _rational_samples(5, seed=m * 10 + gamma):
                jump = apply_mode_matrix(p, h, k)
                assert apply_mode_matrix(q, *jump) == (h, k)


@pytest.mark.parametrize("no_invariant_linear", [False, True])
def test_closed_form_matches_radial_calculus(no_invariant_linear):
    """The closed-form mode matrix and its inverse are what differentiating
    the biharmonic extensions at r = 1 gives, on every mode of m = 2..12,
    gamma = 0..40; a mode the calculus rejects, the closed form rejects."""
    for m in range(2, 13):
        for gamma in range(41):
            try:
                want = dtn_entries_by_calculus(m, gamma, no_invariant_linear)
            except ValueError:
                with pytest.raises(ValueError):
                    dtn_mode_matrix(m, gamma, no_invariant_linear)
                with pytest.raises(ValueError):
                    dtn_inverse(m, gamma, no_invariant_linear)
                continue
            mat = dtn_mode_matrix(m, gamma, no_invariant_linear)
            inv = dtn_inverse(m, gamma, no_invariant_linear)
            assert mat.entries == want
            assert compose_mode_matrices(mat, inv) == ((1, 0), (0, 1))
            assert inv.determinant * mat.determinant == 1
