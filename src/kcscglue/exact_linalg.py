"""Exact rational and integer linear algebra.

Everything here is computed over Q (``fractions.Fraction``) or Z (Python
ints); no floating point anywhere.  Rank, determinants, square solves,
nullspaces and inverses all run on one fraction-free integer elimination
kernel (Bareiss).  The toric layer calls its integer_inverse once per cone,
and the polytope layer reads every cone datum off that inverse.  The
balancing layer scales its matrix to integers once (integer_rows: M_int,
each row times the lcm of its denominators, and those row scales) and hands
M_int to both of its solvers: rank_certificate, a rank with its
certificate from one elimination of [M_int | I], and phase_one, a
phase-one simplex for strictly positive kernel vectors whose tableau rows
are integer vectors with implicit positive scales, so no pivot touches a
Fraction; when there is no such vector its duals give a Gordan
certificate.  None of the Fraction wrappers is on the report path.  Besides
these there is a Smith normal form with unimodular transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Optional, Sequence, Union

Scalar = Union[int, str, Fraction]


def frac(x: Scalar) -> Fraction:
    """Coerce ints, 'p/q' strings, or Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational number")


@dataclass(frozen=True)
class RationalMatrix:
    """Dense immutable matrix of exact rationals, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "RationalMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Fraction] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(frac(x) for x in r)
        return RationalMatrix(nrows, ncols, tuple(flat))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]


IntMatrix = Sequence[Sequence[int]]


def _integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    mult = lcm(*(e.denominator for e in row))
    return [e.numerator * (mult // e.denominator) for e in row], mult


def integer_rows(m: RationalMatrix) -> tuple[list[list[int]], list[int]]:
    """M_int and its row scales: each row of M times the lcm of its
    denominators (rank- and kernel-preserving), and those lcms."""
    rows = [_integer_row(m.row(i)) for i in range(m.rows)]
    return [ints for ints, _ in rows], [mult for _, mult in rows]


def _echelon(a: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) in place.

    Pivots are sought in the first ``ncols`` columns; further columns (a
    right-hand side, an identity block) are carried along.  Returns
    ``(pivot columns, last pivot p, row-swap sign)``.  Afterwards pivot row
    r equals p times row r of the reduced row echelon form and the rows
    below it are zero in the first ``ncols`` columns.  Every division is
    exact because each entry is a minor of the input (Sylvester's identity),
    and p is the leading minor of the row-permuted input, so a square
    nonsingular input has determinant ``sign * p``.
    """
    pivots: list[int] = []
    prev = 1
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[col]
        for i, row in enumerate(a):
            if i != r:
                f = row[col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return pivots, prev, sign


def rank(m: RationalMatrix) -> int:
    """Exact rank over Q (empty matrix has rank 0)."""
    return integer_rank(integer_rows(m)[0])


def integer_rank(a: IntMatrix) -> int:
    """Exact rank of an integer matrix (empty matrix has rank 0)."""
    return len(_echelon([list(r) for r in a], len(a[0]) if a else 0)[0])


def integer_determinant(a: IntMatrix) -> int:
    """Exact determinant of a square integer matrix."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    pivots, p, sign = _echelon([list(r) for r in a], n)
    return sign * p if len(pivots) == n else 0


def integer_solve(a: IntMatrix, b: Sequence[int]) -> tuple[list[int], int]:
    """Solve the square integer system A x = b as x = numerators / p with p the
    determinant up to sign; raises ValueError on a singular system."""
    n = len(a)
    if any(len(r) != n for r in a) or len(b) != n:
        raise ValueError("system is not square")
    aug = [list(r) + [x] for r, x in zip(a, b)]
    pivots, p, _ = _echelon(aug, n)
    if len(pivots) < n:
        raise ValueError("singular system")
    return [row[n] for row in aug], p


def integer_inverse(a: IntMatrix) -> tuple[list[list[int]], int]:
    """(p·A^{-1}, p) for a square integer matrix A, p = ±det A, from one
    elimination of [A | I]; raises ValueError on a singular matrix."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    pivots, p, _ = _echelon(aug, n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    # Row i is p·[e_i | row i of A^{-1}].
    return [row[n:] for row in aug], p


def rational_determinant(m: RationalMatrix) -> Fraction:
    if m.rows != m.cols:
        raise ValueError("matrix is not square")
    rows, scales = integer_rows(m)
    pivots, p, sign = _echelon(rows, m.cols)
    return Fraction(sign * p, prod(scales)) if len(pivots) == m.cols else Fraction(0)


def solve_square(m: RationalMatrix, b: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Solve M x = b exactly; raises ValueError on a singular system."""
    if m.rows != m.cols or len(b) != m.rows:
        raise ValueError("system is not square")
    aug, _ = integer_rows(RationalMatrix.from_rows([m.row(i) + (b[i],) for i in range(m.rows)]))
    num, p = integer_solve([row[:-1] for row in aug], [row[-1] for row in aug])
    return tuple(Fraction(x, p) for x in num)


def rank_certificate(
    rows: IntMatrix, ncols: int
) -> tuple[list[int], int, Optional[tuple[int, ...]]]:
    """The rank of the integer matrix M_int (its ``rows``, each ``ncols``
    long) with a certificate, from one elimination of [M_int | I].

    Returns ``(pivot columns, det, y)``.  At full row rank the pivot
    columns are a nonsingular column subset, det is M_int's determinant on
    them and y is None.  Below it det is 0 and y != 0 is an integer vector
    with yᵀ·M_int = 0: the identity block of the first row that the
    elimination zeroed, since every row of the result is (its identity
    block)ᵀ·[M_int | I].
    """
    d = len(rows)
    aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(rows)]
    pivots, p, sign = _echelon(aug, ncols)
    if len(pivots) == d:
        return pivots, sign * p, None
    y = aug[len(pivots)][ncols:]
    g = gcd(*y) or 1
    return pivots, 0, tuple(x // g for x in y)


def nullspace_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of ker(M), one vector per free column, ordered by free-column index."""
    rows, _ = integer_rows(m)
    pivots, p, _ = _echelon(rows, m.cols)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = Fraction(-rows[r][f], p)
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnfResult:
    """A = U·D·V with U, V unimodular, D diagonal with d1 | d2 | ...;
    v_inv is the exact inverse of V."""

    u: tuple[tuple[int, ...], ...]
    d: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    v_inv: tuple[tuple[int, ...], ...]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)))


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Smith normal form with transforms: A = U·D·V exactly.

    Row/column operations on the working copy are mirrored inversely on U
    (columns) and V (rows) so the product invariant holds at every step;
    each column operation is also applied as is to V^{-1}, so the inverse
    comes without a solve.  Diagonal entries are nonnegative with the
    divisibility chain enforced.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(r) != ncols for r in a):
        raise ValueError("ragged matrix")
    b = [[int(x) for x in row] for row in a]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    v_inv = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    # Row ops B -> E·B pair with U -> U·E^{-1}; column ops B -> B·E with
    # V -> E^{-1}·V and V^{-1} -> V^{-1}·E.
    def swap_rows(i, j):
        b[i], b[j] = b[j], b[i]
        for r in range(nrows):
            u[r][i], u[r][j] = u[r][j], u[r][i]

    def swap_cols(i, j):
        for r in range(nrows):
            b[r][i], b[r][j] = b[r][j], b[r][i]
        v[i], v[j] = v[j], v[i]
        for r in range(ncols):
            v_inv[r][i], v_inv[r][j] = v_inv[r][j], v_inv[r][i]

    def add_row(src, dst, q):
        # row_dst += q * row_src  (on B); U: col_src -= q * col_dst
        for c in range(ncols):
            b[dst][c] += q * b[src][c]
        for r in range(nrows):
            u[r][src] -= q * u[r][dst]

    def add_col(src, dst, q):
        # col_dst += q * col_src (on B and V^{-1}); V: row_src -= q * row_dst
        for r in range(nrows):
            b[r][dst] += q * b[r][src]
        for c in range(ncols):
            v[src][c] -= q * v[dst][c]
        for r in range(ncols):
            v_inv[r][dst] += q * v_inv[r][src]

    def negate_row(i):
        b[i] = [-x for x in b[i]]
        for r in range(nrows):
            u[r][i] = -u[r][i]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # Deterministic pivot: smallest |value| among nonzeros, then position.
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if b[i][j] != 0 and (pivot is None or abs(b[i][j]) < abs(b[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # Clear column t below the pivot.
            reduced = True
            for i in range(t + 1, nrows):
                if b[i][t] != 0:
                    q = b[i][t] // b[t][t]
                    add_row(t, i, -q)
                    if b[i][t] != 0:
                        swap_rows(t, i)
                        reduced = False
            for j in range(t + 1, ncols):
                if b[t][j] != 0:
                    q = b[t][j] // b[t][t]
                    add_col(t, j, -q)
                    if b[t][j] != 0:
                        swap_cols(t, j)
                        reduced = False
            if not reduced:
                continue
            # Enforce divisibility of the remaining block by the pivot.
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if b[i][j] % b[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if b[t][t] < 0:
            negate_row(t)
        t += 1

    return SnfResult(
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in b),
        tuple(tuple(r) for r in v),
        tuple(tuple(r) for r in v_inv),
    )


def unimodular_inverse(m: IntMatrix) -> list[list[int]]:
    """Exact integer inverse of a matrix with determinant ±1."""
    inv, p = integer_inverse([[int(x) for x in row] for row in m])
    if p not in (1, -1):
        raise ValueError("matrix is not unimodular")
    # 1/p = p
    return [[p * x for x in row] for row in inv]


# ---------------------------------------------------------------------------
# Positive kernel feasibility (integer phase-one simplex, Bland's rule)
# ---------------------------------------------------------------------------


def positive_kernel_witness(
    m: RationalMatrix,
) -> Optional[tuple[Fraction, ...]]:
    """Find x with M·x = 0 and every component >= 1, or None (see phase_one)."""
    return phase_one(*integer_rows(m), m.cols)[0]


def phase_one(
    rows: IntMatrix, scales: Sequence[int], ncols: int
) -> tuple[Optional[tuple[Fraction, ...]], Optional[tuple[int, ...]]]:
    """``(x, None)`` with M_int·x = 0 and every component of x >= 1, or
    ``(None, y)`` with y an integer vector such that yᵀ·M_int >= 0 and
    yᵀ·M_int·1 > 0.  The second is Gordan's alternative to the first.
    M_int is given by its integer ``rows`` (each ``ncols`` long) and M by
    its positive row ``scales``: row i of M is row i of M_int over
    scales[i] (see integer_rows).  Both have the same kernel; the scales
    enter only the phase-one objective, which sums M's artificials.

    Kernel scale-invariance makes ``x >= 1`` equivalent to strict positivity.
    Substituting z = x - 1 >= 0 turns the search into LP feasibility
    (M z = -M·1), decided by a phase-one simplex run with Bland's pivoting
    rule so the returned witness is deterministic.

    The tableau is kept in Python ints.  Row i is an integer vector R_i
    standing for the rational row R_i / s_i with an implicit scale s_i > 0;
    since the basic column of a row holds 1, s_i is that column's entry.  A
    row starts as M_int's row, with its scale as its artificial entry, and
    negated (sigma_i = -1) where that makes its right-hand side nonnegative.
    A pivot on (r, c) with p = R_r[c] > 0 replaces every other row with
    R_i[c] = f != 0 by p·R_i - f·R_r divided by its content gcd and leaves
    R_r as it is.  The objective row is
    updated the same way, its scale L becoming p·L/g with g the gcd of the
    new row and p·L.  Signs and ratios of the rational tableau are read off
    the integers (ratios by cross-multiplication), so every pivot is the one
    the rational simplex on M would take.

    When the optimum is positive, the reduced cost of artificial k is
    1 - pi_k with pi the phase-one duals: pi_k = 1 - obj[artificial k] / L.
    Every reduced cost is >= 0 and the optimum is pi·rhs > 0, so
    y_k = -sigma_k·pi_k on the rows of M satisfies yᵀ·M >= 0 and
    yᵀ·M·1 > 0 (Farkas); it is returned rescaled to M_int's rows.
    """
    nrows = len(rows)
    if ncols == 0:
        return (), None
    if nrows == 0:
        return (Fraction(1),) * ncols, None

    # Tableau rows: [A | artificial block | rhs], artificials start basic.
    width = ncols + nrows
    signs: list[int] = []
    tab: list[list[int]] = []
    for i, (row, scale) in enumerate(zip(rows, scales)):
        row = list(row)
        rhs = -sum(row)
        signs.append(-1 if rhs < 0 else 1)
        if rhs < 0:
            row, rhs = [-x for x in row], -rhs
        art = [0] * nrows
        art[i] = scale
        tab.append(row + art + [rhs])
    basis = [ncols + i for i in range(nrows)]

    # Objective: minimize the sum of artificials.  Reduced-cost row after
    # pricing out the basic artificials, on the common denominator L of
    # the row scales.
    common = lcm(*scales)
    big_l = common
    weights = [common // s for s in scales]
    obj = [-sum(w * row[j] for w, row in zip(weights, tab)) for j in range(width + 1)]
    for j in range(ncols, width):
        obj[j] += big_l

    def reduce(p: int, row: list[int], f: int, top: list[int]) -> list[int]:
        new = [p * x - f * y for x, y in zip(row, top)]
        g = gcd(*new)
        return [x // g for x in new] if g > 1 else new

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(nrows):
            coeff = tab[i][entering]
            if coeff > 0:
                if leaving is None:
                    leaving = i
                    continue
                # rhs_i / coeff  vs  rhs_l / coeff_l, both denominators > 0.
                lhs = tab[i][width] * tab[leaving][entering]
                rhs = tab[leaving][width] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):  # Bland tie-break
                    leaving = i
        if leaving is None:
            # Phase-one objective is bounded below by 0, so an unbounded
            # pivot column cannot occur on a well-formed tableau.
            raise RuntimeError("phase-one simplex lost boundedness (bug)")
        top = tab[leaving]
        p = top[entering]
        for i in range(nrows):
            f = tab[i][entering]
            if i != leaving and f:
                tab[i] = reduce(p, tab[i], f, top)
        f = obj[entering]
        new = [p * x - f * y for x, y in zip(obj, top)]
        g = gcd(*new, p * big_l)
        obj, big_l = [x // g for x in new], p * big_l // g
        basis[leaving] = entering

    if obj[width] != 0:
        # L·pi_k = L - obj[ncols + k], and row k of M is row k of M_int
        # over scales[k]: over M_int's rows y is -sigma_k·L·pi_k/scales[k],
        # here times the common multiple of the scales.
        y = [
            -sign * (big_l - obj[ncols + k]) * (common // scale)
            for k, (sign, scale) in enumerate(zip(signs, scales))
        ]
        g = gcd(*y) or 1
        return None, tuple(v // g for v in y)

    # x = X / D with X integral: z[bv] = rhs / (basic entry) and x = z + 1.
    num = [0] * ncols
    den = [1] * ncols
    for i, bv in enumerate(basis):
        if bv < ncols:
            g = gcd(tab[i][width], tab[i][bv])
            num[bv], den[bv] = tab[i][width] // g, tab[i][bv] // g
    d = lcm(*den)
    x = [d + n * (d // q) for n, q in zip(num, den)]
    if min(x) < d or any(sum(a * v for a, v in zip(row, x)) for row in rows):
        raise RuntimeError("simplex witness fails M x = 0, x >= 1 (bug)")
    return tuple(Fraction(v, d) for v in x), None
