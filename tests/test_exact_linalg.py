import fractions
import random
import sys
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

from conftest import (
    det_cofactor,
    identity,
    mul_vector,
    nullspace_by_rref,
    orbifold_shaped_matrix,
    positive_kernel_witness_bruteforce,
    positive_kernel_witness_fraction,
    rank_bruteforce,
    scaled,
    solve_cramer,
)
from kcscglue.exact_linalg import (
    RationalMatrix,
    integer_determinant,
    integer_rank,
    integer_inverse,
    integer_solve,
    nullspace_basis,
    positive_kernel_witness,
    rank,
    rational_determinant,
    smith_normal_form,
    solve_square,
    unimodular_inverse,
)

THETA_ROWS = [[-1, -1, 1, 1], [-1, 1, -1, 1]]


def mat(rows):
    return RationalMatrix.from_rows(rows)


class TestRank:
    def test_surface_example_matrix(self):
        # the overall positive scalar in front never changes the rank
        assert rank(mat(THETA_ROWS)) == 2
        assert rank(scaled(mat(THETA_ROWS), Fraction(7, 2))) == 2

    def test_identity(self):
        assert rank(identity(3)) == 3

    def test_proportional_rows(self):
        assert rank(mat([[1, 2], [2, 4]])) == 1

    def test_empty(self):
        assert rank(RationalMatrix(0, 0, ())) == 0
        assert rank(RationalMatrix(2, 0, ())) == 0

    def test_rational_entries(self):
        assert rank(mat([["1/2", "1/3"], ["1/4", "1/6"]])) == 1


class TestNullspace:
    def test_one_dim_kernel(self):
        basis = nullspace_basis(mat([[1, -1, 0], [0, -1, 1]]))
        assert basis == [(Fraction(1), Fraction(1), Fraction(1))]

    def test_trivial_kernel(self):
        assert nullspace_basis(identity(2)) == []

    def test_two_dim_kernel_contains_positive_vector(self):
        m = mat(THETA_ROWS)
        basis = nullspace_basis(m)
        assert len(basis) == 2
        # (1,1,1,1) must be a combination of the basis: check membership by
        # solving in the 2-dim parametrization (free coords are 2 and 3).
        combo = tuple(
            basis[0][i] * 1 + basis[1][i] * 1 for i in range(4)
        )
        assert combo == (Fraction(1),) * 4
        assert all(v == 0 for v in mul_vector(m, combo))

    def test_rank_nullity(self):
        m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert rank(m) + len(nullspace_basis(m)) == m.cols


class TestSmithNormalForm:
    def reconstruct(self, snf):
        def mul(a, b):
            return [
                [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
                for i in range(len(a))
            ]

        return mul(mul([list(r) for r in snf.u], [list(r) for r in snf.d]),
                   [list(r) for r in snf.v])

    def test_already_diagonal(self):
        snf = smith_normal_form([[1, 0], [0, 2]])
        assert snf.diagonal() == (1, 2)
        assert snf.u == ((1, 0), (0, 1))
        assert snf.v == ((1, 0), (0, 1))

    def test_cone_generator_matrix(self):
        a = [[-1, 0, -1], [-1, -3, 1], [-1, 0, 0]]
        snf = smith_normal_form(a)
        prod = 1
        for d in snf.diagonal():
            prod *= d
        assert prod == 3
        assert abs(det_cofactor(a)) == 3

    def test_homothety(self):
        assert smith_normal_form([[2, 0], [0, 2]]).diagonal() == (2, 2)

    def test_reconstruction_and_unimodularity(self):
        a = [[12, 6, 4], [3, 9, 6], [2, 16, 14]]
        snf = smith_normal_form(a)
        assert self.reconstruct(snf) == a
        assert abs(det_cofactor([list(r) for r in snf.u])) == 1
        assert abs(det_cofactor([list(r) for r in snf.v])) == 1
        d = snf.diagonal()
        for i in range(len(d) - 1):
            if d[i + 1] != 0:
                assert d[i] != 0 and d[i + 1] % d[i] == 0

    def test_rectangular(self):
        a = [[2, 4, 4], [-6, 6, 12]]
        snf = smith_normal_form(a)
        assert self.reconstruct(snf) == a
        d = snf.diagonal()
        assert all(x >= 0 for x in d)


class TestPositiveKernelWitness:
    def test_surface_family(self):
        w = positive_kernel_witness(mat(THETA_ROWS))
        assert w == (1, 1, 1, 1)

    def test_three_point_family(self):
        assert positive_kernel_witness(mat([[1, -1, 0], [0, -1, 1]])) == (1, 1, 1)

    def test_all_positive_row_infeasible(self):
        assert positive_kernel_witness(mat([[1, 1]])) is None

    def test_zero_matrix(self):
        assert positive_kernel_witness(mat([[0, 0], [0, 0]])) == (1, 1)

    def test_needs_unequal_components(self):
        # kernel is spanned by (1, 2): witness must scale past the bound
        w = positive_kernel_witness(mat([[2, -1]]))
        assert w is not None
        assert 2 * w[0] - w[1] == 0
        assert min(w) >= 1

    def test_no_rows(self):
        assert positive_kernel_witness(RationalMatrix(0, 3, ())) == (1, 1, 1)

    def test_no_columns(self):
        assert positive_kernel_witness(RationalMatrix(2, 0, ())) == ()
        assert positive_kernel_witness(RationalMatrix(0, 0, ())) == ()

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1], [1, -1]],  # rhs -2 (row flipped) and 0
            [[-1, -2], [1, -1]],  # rhs 3 and 0
            [[1, Fraction(1, 2), -2], [Fraction(-1, 3), 1, Fraction(-2, 3)]],
            [[0, 0, 0], [Fraction(1, 6), Fraction(-1, 4), Fraction(1, 12)]],
            # ratio-test ties where Bland's tie-break decides the witness
            [[-2, 1, 1, 2, -2], [-4, -1, 1, -2, 2], [1, 0, 2, -1, -2]],
            [[2, -2, 0, -2, 2], [1, 1, 2, 0, -4], [2, -1, -2, -1, 0]],
        ],
    )
    def test_witness_equals_fraction_simplex(self, rows):
        m = mat(rows)
        assert positive_kernel_witness(m) == positive_kernel_witness_fraction(m)

    def test_no_fraction_arithmetic(self):
        # Only reading numerators and denominators on the way in and building
        # the witness on the way out touch Fraction; no operator does.
        m = mat([[Fraction(1, 2), -1, Fraction(2, 3), 0], [1, Fraction(-3, 4), -1, 2]])
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                seen.add(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            w = positive_kernel_witness(m)
        finally:
            sys.setprofile(None)
        assert w == positive_kernel_witness_fraction(m) is not None
        assert seen <= {"__new__", "numerator", "denominator"}


def test_unimodular_inverse_roundtrip():
    v = [[1, 1, 0], [0, 1, 2], [0, 0, 1]]
    inv = unimodular_inverse(v)
    prod = [
        [sum(v[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@st.composite
def int_matrix(draw, max_dim=4, lo=-3, hi=3):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    return [
        [draw(st.integers(lo, hi)) for _ in range(ncols)] for _ in range(nrows)
    ]


@settings(max_examples=120, derandomize=True)
@given(int_matrix())
def test_rank_matches_minor_oracle(rows):
    m = mat(rows)
    assert rank(m) == rank_bruteforce(m)
    assert integer_rank(rows) == rank(m)


RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def rational_square(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    return [[draw(RATIONAL) for _ in range(n)] for _ in range(n)]


@settings(max_examples=120, derandomize=True)
@given(int_matrix())
def test_rank_nullity_sum(rows):
    m = mat(rows)
    basis = nullspace_basis(m)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        assert all(x == 0 for x in mul_vector(m, v))
    # the fraction-free kernel reads off the same (unique) RREF
    assert basis == nullspace_by_rref(m)


@settings(max_examples=120, derandomize=True)
@given(int_matrix())
def test_snf_invariants(rows):
    snf = smith_normal_form(rows)
    t = TestSmithNormalForm()
    assert t.reconstruct(snf) == [list(r) for r in rows]
    assert abs(det_cofactor([list(r) for r in snf.u])) == 1
    assert abs(det_cofactor([list(r) for r in snf.v])) == 1
    d = snf.diagonal()
    assert all(x >= 0 for x in d)
    nz = [x for x in d if x != 0]
    # zero diagonal entries trail the nonzero ones
    assert d[: len(nz)] == tuple(nz)
    for i in range(len(nz) - 1):
        assert nz[i + 1] % nz[i] == 0
    # V^{-1} is carried along the column operations, not solved for
    n = len(snf.v)
    assert [list(r) for r in snf.v_inv] == unimodular_inverse(snf.v)
    assert [
        [sum(snf.v[i][k] * snf.v_inv[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ] == [[int(i == j) for j in range(n)] for i in range(n)]


@settings(max_examples=150, derandomize=True)
@given(int_matrix(max_dim=4, lo=-2, hi=2))
def test_positive_kernel_matches_bruteforce(rows):
    m = mat(rows)
    got = positive_kernel_witness(m)
    want = positive_kernel_witness_bruteforce(m)
    assert (got is None) == (want is None)
    if got is not None:
        assert all(x == 0 for x in mul_vector(m, got))
        assert min(got) >= 1


@st.composite
def simplex_matrix(draw, max_rows=4, max_cols=8):
    """A rational matrix whose rows are zero, sum to zero (rhs 0) or free
    (rhs of either sign); zero rows or columns allowed."""
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    flat = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("zero", "sum-zero", "free")))
        if kind == "zero":
            row = [Fraction(0)] * ncols
        else:
            row = [draw(RATIONAL) for _ in range(ncols)]
            if kind == "sum-zero" and ncols:
                row[-1] = -sum(row[:-1], Fraction(0))
        flat += row
    return RationalMatrix(nrows, ncols, tuple(flat))


@settings(max_examples=200, derandomize=True)
@given(simplex_matrix())
def test_positive_kernel_equals_fraction_simplex(m):
    got = positive_kernel_witness(m)
    assert got == positive_kernel_witness_fraction(m)
    if m.cols <= 5:  # the vertex enumeration is exponential in the columns
        assert (got is None) == (positive_kernel_witness_bruteforce(m) is None)
    if got is not None:
        assert all(isinstance(x, Fraction) for x in got)
        assert all(x == 0 for x in mul_vector(m, got))
        assert min(got, default=1) >= 1


@pytest.mark.parametrize("klass", ["balanced", "halfspace", "hyperplane"])
def test_orbifold_shaped_witness_equals_fraction_simplex(klass):
    rng = random.Random(f"simplex-{klass}")
    for d in range(3, 7):
        m = orbifold_shaped_matrix(rng, klass, d, rng.randint(32, 96))
        got = positive_kernel_witness(m)
        assert got == positive_kernel_witness_fraction(m)
        assert (got is None) == (klass == "halfspace")
        if got is not None:
            assert all(x == 0 for x in mul_vector(m, got)) and min(got) >= 1
        assert rank(m) == (d - 1 if klass == "hyperplane" else d)


@settings(max_examples=60, derandomize=True)
@given(int_matrix(max_dim=3))
def test_integer_determinant_matches_cofactor(rows):
    n = min(len(rows), len(rows[0]))
    square = [r[:n] for r in rows[:n]]
    assert integer_determinant(square) == det_cofactor(square)


@settings(max_examples=60, derandomize=True)
@given(rational_square())
def test_rational_determinant_matches_cofactor(rows):
    assert rational_determinant(mat(rows)) == det_cofactor(rows)


@settings(max_examples=60, derandomize=True)
@given(rational_square(), st.lists(RATIONAL, min_size=4, max_size=4))
def test_solve_square(rows, rhs):
    m = mat(rows)
    b = rhs[: m.rows]
    want = solve_cramer(rows, b)
    if want is None:
        with pytest.raises(ValueError):
            solve_square(m, b)
        return
    x = solve_square(m, b)
    assert mul_vector(m, x) == tuple(b)
    assert x == want


@settings(max_examples=60, derandomize=True)
@given(int_matrix(max_dim=3), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_integer_solve(rows, rhs):
    n = min(len(rows), len(rows[0]))
    square, b = [r[:n] for r in rows[:n]], rhs[:n]
    want = solve_cramer(square, b)
    if want is None:
        with pytest.raises(ValueError, match="singular"):
            integer_solve(square, b)
        return
    num, p = integer_solve(square, b)
    assert tuple(Fraction(x, p) for x in num) == want
    assert abs(p) == abs(det_cofactor(square))


@settings(max_examples=80, derandomize=True)
@given(int_matrix(max_dim=4))
def test_integer_inverse(rows):
    n = min(len(rows), len(rows[0]))
    square = [r[:n] for r in rows[:n]]
    det = det_cofactor(square)
    if det == 0:
        with pytest.raises(ValueError, match="singular"):
            integer_inverse(square)
        return
    inv, p = integer_inverse(square)
    assert abs(p) == abs(det)
    assert [
        [sum(square[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ] == [[p * (i == j) for j in range(n)] for i in range(n)]
    # its row sums are the solve at (1, ..., 1), over the same p
    assert integer_solve(square, [1] * n) == ([sum(row) for row in inv], p)


def test_integer_solve_rejects_non_square():
    with pytest.raises(ValueError, match="not square"):
        integer_solve([[1, 2]], [1])
    with pytest.raises(ValueError, match="not square"):
        integer_solve([[1, 0], [0, 1]], [1])
