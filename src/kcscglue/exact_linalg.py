"""Exact rational and integer linear algebra.

Everything here is computed over Q (``fractions.Fraction``) or Z (Python
ints); no floating point anywhere.  Rank, determinants, square solves,
nullspaces and inverses all run on one fraction-free integer elimination
kernel (Bareiss).  The toric layer calls its integer_inverse once per cone,
and the polytope layer reads every cone datum off that inverse.  The
balancing layer holds each matrix row as an IntegerRow, integers over one
positive denominator in lowest terms, which is the row of M_int (the row
times the lcm of its denominators) over that row scale, and hands M_int to
both of its solvers, neither of which touches a Fraction: rank_certificate,
a rank with its certificate from one elimination of [M_int | I] that keeps
only the identity block and forms each column when the pivot search
reaches it, and phase_one, a revised phase-one simplex for strictly
positive kernel vectors on the integer adjugate of its basis, whose pivots,
witness and Gordan certificate are the tableau simplex's; its witness is an
IntegerRow too.  None of the Fraction wrappers is on the report path.
Besides these there is a Smith normal form with unimodular transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence, Union

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


class IntegerRow(NamedTuple):
    """A vector of rationals as integers over one positive denominator, in
    lowest terms: entry i is nums[i] / den and gcd(den, *nums) = 1.  Equal
    vectors have equal rows, and den is the lcm of the entries' reduced
    denominators, so a matrix row held this way is its row of M_int over
    its row scale (see integer_rows)."""

    nums: tuple[int, ...]
    den: int = 1

    @staticmethod
    def over(nums: Sequence[int], dens: Sequence[int]) -> "IntegerRow":
        """The row of the rationals nums[i] / dens[i], each dens[i] > 0."""
        den = lcm(*dens)
        scaled = [n * (den // q) for n, q in zip(nums, dens)]
        g = gcd(den, *scaled)
        if g > 1:
            scaled, den = [n // g for n in scaled], den // g
        return IntegerRow(tuple(scaled), den)

    @staticmethod
    def of(values: Iterable[Scalar]) -> "IntegerRow":
        values = [frac(x) for x in values]
        return IntegerRow.over([q.numerator for q in values], [q.denominator for q in values])

    def pairs(self) -> list[tuple[int, int]]:
        """Each entry as its reduced (numerator, denominator)."""
        den = self.den
        return [(n // g, den // g) for n in self.nums for g in (gcd(n, den),)]

    def strings(self) -> list[str]:
        """Each entry as str(Fraction) writes it."""
        if self.den != 1:
            return pair_strings(self.pairs())
        try:
            return list(map(str, self.nums))
        except ValueError:  # an entry past the interpreter's str(int) limit
            return list(map(decimal, self.nums))

    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)


# str(int) refuses an int of more digits than sys.get_int_max_str_digits(),
# 4,300 by default and at least 640 when set (0 sets no limit); decimal()
# writes such an int in chunks of 600 digits.  The report's number strings
# go through it, the row writers only once str() has refused an entry.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def decimal(n: int) -> str:
    """str(n) for an int of any size, whatever the interpreter's limit."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + decimal(-n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(f"{r:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def pair_strings(pairs: Sequence[tuple[int, int]]) -> list[str]:
    """Reduced (numerator, denominator) pairs as str(Fraction) writes them."""
    try:
        return [f"{n}/{q}" if q != 1 else str(n) for n, q in pairs]
    except ValueError:  # past the interpreter's str(int) limit: the slow writer
        return [f"{decimal(n)}/{decimal(q)}" if q != 1 else decimal(n) for n, q in pairs]


def integer_rows(m: RationalMatrix) -> tuple[list[list[int]], list[int]]:
    """M_int and its row scales: each row of M times the lcm of its
    denominators (rank- and kernel-preserving), and those lcms."""
    rows = [IntegerRow.of(m.row(i)) for i in range(m.rows)]
    return [list(row.nums) for row in rows], [row.den for row in rows]


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
    elimination zeroed.

    Every row of the elimination is (its identity block)ᵀ·[M_int | I], so
    only that block T is kept: column c of the left part is T·M_c, formed
    when the pivot search reaches c, and the search stops at full row rank,
    where no later column can hold a pivot.  The pivots, det and y are
    those of _echelon on [M_int | I].
    """
    d = len(rows)
    t = [[int(i == j) for j in range(d)] for i in range(d)]
    pivots: list[int] = []
    prev = sign = 1
    for col, m_c in enumerate(zip(*rows)):
        r = len(pivots)
        if r == d:
            break
        # Only rows r.. can hold the pivot; the others are needed once it is found.
        piv = next((i for i in range(r, d) if sum(map(mul, t[i], m_c))), None)
        if piv is None:
            continue
        v = [sum(map(mul, row, m_c)) for row in t]
        if piv != r:
            t[r], t[piv], v[r], v[piv] = t[piv], t[r], v[piv], v[r]
            sign = -sign
        top, p = t[r], v[r]
        for i, f in enumerate(v):
            if i != r:
                t[i] = [(p * x - f * y) // prev for x, y in zip(t[i], top)]
        prev = p
        pivots.append(col)
    if len(pivots) == d:
        return pivots, sign * prev, None
    y = t[len(pivots)]
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
    x = phase_one(*integer_rows(m), m.cols)[0]
    return None if x is None else x.values()


def phase_one(
    rows: IntMatrix, scales: Sequence[int], ncols: int
) -> tuple[Optional[IntegerRow], Optional[tuple[int, ...]]]:
    """``(x, None)`` with x an IntegerRow, M_int·x = 0 and every component
    of x >= 1, or ``(None, y)`` with y an integer vector such that
    yᵀ·M_int >= 0 and yᵀ·M_int·1 > 0.  The second is Gordan's alternative
    to the first.  M_int is given by its integer ``rows`` (each ``ncols``
    long) and M by its positive row ``scales``: row i of M is row i of
    M_int over scales[i] (see integer_rows).  Both have the same kernel; the
    scales enter only the phase-one objective, which sums M's artificials.

    Kernel scale-invariance makes ``x >= 1`` equivalent to strict positivity.
    Substituting z = x - 1 >= 0 turns the search into LP feasibility
    (M z = -M·1), decided by a phase-one simplex run with Bland's pivoting
    rule so the returned witness is deterministic.

    The simplex is revised and kept in Python ints.  Row i of the
    constraints is M_int's row times sigma_i = ±1, chosen so that its
    right-hand side b_i is >= 0, with the artificial column scales[i]·e_i:
    M's row times the positive scales[i], which changes no pivot, reduced
    cost or dual.  Only the adjugate N = D·B⁻¹ of the basis B is kept, with
    D = det B and β = N·b.  A column's reduced cost is c_j - π·A_j/D with
    π = c_B·N, priced in Bland order up to the first negative one; only the
    entering column u = N·A_e is formed.  The ratio test compares
    β_i/u_i by cross-multiplication over the rows with u_i/D > 0, ties going
    to the smaller basic index.  Pivoting on row r makes det B' = u_r and
    N'_i = (u_r·N_i - u_i·N_r)/D for i != r (N'_r = N_r), exactly, since
    both are minors of the constraint matrix; β is updated the same way.
    Every value the rule reads is a sign or a ratio of the rational tableau,
    so the pivots, the witness and the Gordan vector are those of the
    tableau simplex on M.

    When the optimum is positive, the dual of artificial k is
    pi_k = π_k·scales[k]/D, every reduced cost is >= 0 and the optimum is
    pi·b > 0, so y_k = -sigma_k·pi_k on the rows of M satisfies yᵀ·M >= 0
    and yᵀ·M·1 > 0 (Farkas); over M_int's rows it is -sigma_k·π_k/D,
    returned as a primitive integer vector.
    """
    nrows = len(rows)
    if ncols == 0 or nrows == 0:
        return IntegerRow((1,) * ncols), None

    # Row i of A is sigma_i times M_int's row, so π·A_j = (π∘sigma)·M_c.
    sums = [sum(row) for row in rows]
    signs = [-1 if total > 0 else 1 for total in sums]
    columns = list(zip(*rows))
    basis = [ncols + i for i in range(nrows)]
    det = prod(scales)
    adj = [[det // s if i == k else 0 for k in range(nrows)] for i, s in enumerate(scales)]
    beta = [-sign * total * (det // s) for sign, total, s in zip(signs, sums, scales)]

    while True:
        basic = set(basis)
        pi = [sum(col) for col in zip(*(adj[i] for i, bv in enumerate(basis) if bv >= ncols))]
        if not pi:
            pi = [0] * nrows
        signed_pi = list(map(mul, pi, signs))
        # A structural column's reduced cost is -v/D with v = π·A_j, and
        # artificial k's is v/D with v = D - π_k·scales[k]: negative when v
        # is nonzero and of D's sign, or of the other sign, respectively.
        neg = det < 0
        entering = None
        for j, col in enumerate(columns):
            if j not in basic:
                v = sum(map(mul, signed_pi, col))
                if v and (v < 0) == neg:
                    entering = j
                    break
        else:
            for k, scale in enumerate(scales):
                v = det - pi[k] * scale
                if v and (v < 0) != neg and ncols + k not in basic:
                    entering = ncols + k
                    break
        if entering is None:
            break
        if entering < ncols:
            a_e = list(map(mul, signs, columns[entering]))
            u = [sum(map(mul, row, a_e)) for row in adj]
        else:
            k = entering - ncols
            u = [row[k] * scales[k] for row in adj]
        leaving = None
        for i, coeff in enumerate(u):
            if coeff and (coeff < 0) == neg:
                if leaving is None:
                    leaving = i
                    continue
                # beta_i / u_i  vs  beta_l / u_l, with u_i·u_l > 0.
                lhs = beta[i] * u[leaving]
                rhs = beta[leaving] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):  # Bland tie-break
                    leaving = i
        if leaving is None:
            # Phase-one objective is bounded below by 0, so an unbounded
            # pivot column cannot occur on a well-formed problem.
            raise RuntimeError("phase-one simplex lost boundedness (bug)")
        p, top, b_top = u[leaving], adj[leaving], beta[leaving]
        for i, f in enumerate(u):
            if i != leaving:
                adj[i] = [(p * x - f * y) // det for x, y in zip(adj[i], top)]
                beta[i] = (p * beta[i] - f * b_top) // det
        det = p
        basis[leaving] = entering

    if any(b for b, bv in zip(beta, basis) if bv >= ncols):
        # Over M_int's rows y is -sigma_k·π_k/D, here times |D|.
        flip = -1 if det > 0 else 1
        y = [flip * sign * v for sign, v in zip(signs, pi)]
        g = gcd(*y) or 1
        return None, tuple(v // g for v in y)

    # x = z + 1 with z_B = β/D, over the denominator |D|.
    d = abs(det)
    x = [d] * ncols
    for b, bv in zip(beta, basis):
        if bv < ncols:
            x[bv] = d + (b if det > 0 else -b)
    if min(x) < d or any(sum(map(mul, row, x)) for row in rows):
        raise RuntimeError("simplex witness fails M x = 0, x >= 1 (bug)")
    return IntegerRow.over(x, [d] * ncols), None
