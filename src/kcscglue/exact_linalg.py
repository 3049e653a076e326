"""Exact rational and integer linear algebra.

Everything here is computed over Q (``fractions.Fraction``) or Z (Python
ints); no floating point anywhere.  Provides rank, nullspaces, Smith normal
form with unimodular transforms, and an exact-arithmetic LP feasibility
routine for strictly positive kernel vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix.from_rows(
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix.from_rows(
            [[self[i, j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        return RationalMatrix.from_rows(
            [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        )

    def scaled(self, c: Scalar) -> "RationalMatrix":
        cf = frac(c)
        return RationalMatrix(self.rows, self.cols, tuple(cf * e for e in self.entries))

    def mul_vector(self, x: Sequence[Scalar]) -> tuple[Fraction, ...]:
        if len(x) != self.cols:
            raise ValueError("vector length does not match column count")
        xs = [frac(v) for v in x]
        return tuple(
            sum((self[i, j] * xs[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)


IntMatrix = Sequence[Sequence[int]]


def _integer_rows(m: RationalMatrix) -> list[list[int]]:
    """Scale each row by the lcm of denominators (rank-preserving)."""
    out: list[list[int]] = []
    for i in range(m.rows):
        row = m.row(i)
        mult = 1
        for e in row:
            mult = mult * e.denominator // gcd(mult, e.denominator)
        out.append([int(e * mult) for e in row])
    return out


def _bareiss_echelon(a: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination; returns the rank."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][col]
        for r in range(rank + 1, nrows):
            factor = a[r][col]
            for k in range(col + 1, ncols):
                a[r][k] = (p * a[r][k] - factor * a[rank][k]) // prev
            a[r][col] = 0
        prev = p
        rank += 1
    return rank


def rank(m: RationalMatrix) -> int:
    """Exact rank over Q (empty matrix has rank 0)."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return _bareiss_echelon(_integer_rows(m))


def integer_determinant(a: IntMatrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        p = m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col]
            for k in range(col + 1, n):
                m[r][k] = (p * m[r][k] - factor * m[col][k]) // prev
            m[r][col] = 0
        prev = p
    return sign * m[n - 1][n - 1]


def rational_determinant(m: RationalMatrix) -> Fraction:
    if m.rows != m.cols:
        raise ValueError("matrix is not square")
    rows = m.to_rows()
    n = m.rows
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        p = rows[col][col]
        det *= p
        for r in range(col + 1, n):
            f = rows[r][col] / p
            if f:
                for k in range(col, n):
                    rows[r][k] -= f * rows[col][k]
    return det


def solve_square(m: RationalMatrix, b: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Solve M x = b exactly; raises ValueError on a singular system."""
    if m.rows != m.cols:
        raise ValueError("matrix is not square")
    n = m.rows
    if len(b) != n:
        raise ValueError("right-hand side has wrong length")
    aug = [list(m.row(i)) + [frac(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular system")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        for k in range(col, n + 1):
            aug[col][k] /= p
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                for k in range(col, n + 1):
                    aug[r][k] -= f * aug[col][k]
    return tuple(aug[i][n] for i in range(n))


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        rows[r] = [x / p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def nullspace_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of ker(M), one vector per free column, ordered by free-column index."""
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [
            tuple(Fraction(int(i == j)) for i in range(m.cols)) for j in range(m.cols)
        ]
    rows, pivots = _rref(m.to_rows())
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnfResult:
    """A = U·D·V with U, V unimodular, D diagonal with d1 | d2 | ..."""

    u: tuple[tuple[int, ...], ...]
    d: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)))


def _mat_mul_int(a: IntMatrix, b: IntMatrix) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(len(a))
    ]


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Smith normal form with transforms: A = U·D·V exactly.

    Row/column operations on the working copy are mirrored inversely on U
    (columns) and V (rows) so the product invariant holds at every step.
    Diagonal entries are nonnegative with the divisibility chain enforced.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(r) != ncols for r in a):
        raise ValueError("ragged matrix")
    b = [[int(x) for x in row] for row in a]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    # Row ops B -> E·B pair with U -> U·E^{-1}; column ops B -> B·E with
    # V -> E^{-1}·V.
    def swap_rows(i, j):
        b[i], b[j] = b[j], b[i]
        for r in range(nrows):
            u[r][i], u[r][j] = u[r][j], u[r][i]

    def swap_cols(i, j):
        for r in range(nrows):
            b[r][i], b[r][j] = b[r][j], b[r][i]
        v[i], v[j] = v[j], v[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src  (on B); U: col_src -= q * col_dst
        for c in range(ncols):
            b[dst][c] += q * b[src][c]
        for r in range(nrows):
            u[r][src] -= q * u[r][dst]

    def add_col(src, dst, q):
        # col_dst += q * col_src (on B); V: row_src -= q * row_dst
        for r in range(nrows):
            b[r][dst] += q * b[r][src]
        for c in range(ncols):
            v[src][c] -= q * v[dst][c]

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
    )


def unimodular_inverse(m: IntMatrix) -> list[list[int]]:
    """Exact integer inverse of a matrix with determinant ±1."""
    n = len(m)
    det = integer_determinant(m)
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    rm = RationalMatrix.from_rows([[int(x) for x in row] for row in m])
    cols = [solve_square(rm, [int(i == j) for i in range(n)]) for j in range(n)]
    inv = [[cols[j][i] for j in range(n)] for i in range(n)]
    if any(x.denominator != 1 for row in inv for x in row):
        raise RuntimeError("inverse of a unimodular matrix is not integral (bug)")
    return [[int(x) for x in row] for row in inv]


# ---------------------------------------------------------------------------
# Positive kernel feasibility (exact phase-one simplex, Bland's rule)
# ---------------------------------------------------------------------------


def positive_kernel_witness(
    m: RationalMatrix,
) -> Optional[tuple[Fraction, ...]]:
    """Find x with M·x = 0 and every component >= 1, or None.

    Kernel scale-invariance makes ``x >= 1`` equivalent to strict positivity.
    Substituting y = x - 1 >= 0 turns the search into LP feasibility
    (M y = -M·1), decided by a phase-one simplex run with Bland's pivoting
    rule so the returned witness is deterministic.
    """
    ncols = m.cols
    nrows = m.rows
    if ncols == 0:
        return ()
    ones = [Fraction(1)] * ncols
    rhs = [-v for v in m.mul_vector(ones)]
    if nrows == 0:
        return tuple(ones)

    # Tableau rows: [A | I_artificial | rhs], artificials start basic.
    tab: list[list[Fraction]] = []
    for i in range(nrows):
        row = list(m.row(i))
        if rhs[i] < 0:
            row = [-x for x in row]
            bi = -rhs[i]
        else:
            bi = rhs[i]
        row += [Fraction(int(i == j)) for j in range(nrows)]
        row.append(bi)
        tab.append(row)
    width = ncols + nrows
    basis = [ncols + i for i in range(nrows)]

    # Objective: minimize the sum of artificials.  Reduced-cost row after
    # pricing out the basic artificials.
    obj = [Fraction(0)] * (width + 1)
    for j in range(width):
        obj[j] = (Fraction(1) if j >= ncols else Fraction(0)) - sum(
            tab[i][j] for i in range(nrows)
        )
    obj[width] = -sum(tab[i][width] for i in range(nrows))

    def pivot(row: int, col: int) -> None:
        p = tab[row][col]
        tab[row] = [x / p for x in tab[row]]
        for i in range(nrows):
            if i != row and tab[i][col]:
                f = tab[i][col]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[row])]
        if obj[col]:
            f = obj[col]
            for k in range(width + 1):
                obj[k] -= f * tab[row][k]
        basis[row] = col

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best: Optional[Fraction] = None
        for i in range(nrows):
            coeff = tab[i][entering]
            if coeff > 0:
                ratio = tab[i][width] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]  # Bland tie-break
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            # Phase-one objective is bounded below by 0, so an unbounded
            # pivot column cannot occur on a well-formed tableau.
            raise RuntimeError("phase-one simplex lost boundedness (bug)")
        pivot(leaving, entering)

    if -obj[width] != 0:
        return None

    y = [Fraction(0)] * ncols
    for i, bv in enumerate(basis):
        if bv < ncols:
            y[bv] = tab[i][width]
    x = tuple(yi + 1 for yi in y)
    if any(v != 0 for v in m.mul_vector(x)) or min(x) < 1:
        raise RuntimeError("simplex witness fails M x = 0, x >= 1 (bug)")
    return x


def positive_kernel_witness_bruteforce(
    m: RationalMatrix,
) -> Optional[tuple[Fraction, ...]]:
    """Vertex-enumeration oracle for positive_kernel_witness (small n only).

    The feasible set {M x = 0, x >= 1} is a pointed polyhedron, so it is
    nonempty iff it has a vertex, and every vertex pins x_j = 1 on some
    coordinate subset with the rest determined by M x = 0.  Enumerate all
    subsets; exponential, intended for n <= 6.
    """
    from itertools import combinations

    n = m.cols
    if n == 0:
        return ()
    for size in range(n + 1):
        for fixed in combinations(range(n), size):
            # Rows: M x = 0 and x_j = 1 for j in fixed.
            rows = [list(m.row(i)) + [Fraction(0)] for i in range(m.rows)]
            for j in fixed:
                ind = [Fraction(0)] * n
                ind[j] = Fraction(1)
                rows.append(ind + [Fraction(1)])
            reduced, pivots = _rref([r[:] for r in rows])
            # Inconsistent system: pivot in the augmented column.
            if n in pivots:
                continue
            if len(pivots) != n:
                continue
            x = [Fraction(0)] * n
            for r, c in enumerate(pivots):
                x[c] = reduced[r][n]
            if all(v == 0 for v in m.mul_vector(x)) and min(x) >= 1:
                return tuple(x)
    return None


def rank_bruteforce(m: RationalMatrix) -> int:
    """Minor-based rank oracle (small matrices only)."""
    from itertools import combinations

    best = 0
    top = min(m.rows, m.cols)
    for k in range(1, top + 1):
        found = False
        for rset in combinations(range(m.rows), k):
            for cset in combinations(range(m.cols), k):
                sub = RationalMatrix.from_rows(
                    [[m[i, j] for j in cset] for i in rset]
                )
                if rational_determinant(sub) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
    return best
