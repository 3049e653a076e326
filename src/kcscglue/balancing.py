"""Balancing conditions and gluing constants.

Assembles the balancing matrices for the two gluing regimes at unit
weights, the matrices the certificates are stated on (only scalar-flat
models contribute balancing conditions; in the all-Ricci-flat regime the
weights are tuned so the conditions reduce to a positive-kernel search),
and decides both with one routine.  A point's phi and dphi values are
integer rows over one denominator (IntegerRow), and the builders form each
matrix row from them as an IntegerRow too: M_int's row over its row scale,
the lcm of the row's reduced denominators, with no Fraction made.  Both
solvers take M_int: a positive kernel vector by exact LP (a revised
simplex), and the rank by one elimination.  The witness, and its multiple
by a numeric scalar curvature, are IntegerRows as well.  Each verdict
carries a certificate that an integer checker, independent of the solver
and with its own row scaling of the matrix's printed entries, verifies
before the verdict is returned.  Fractions are made only for the gluing
constants, closed forms in |Gamma|, the weights and |S^{2m-1}| =
2 pi^m/(m-1)!, with the pi power kept as a tag; the weights reach them as
reduced (numerator, denominator) pairs, and a scalar-flat coefficient
still waiting for |e(Gamma)| is one such pair, with no Fraction made.  The
records built per point or per verdict (SingularPointRecord,
PointCoefficients, PiRational, Certificate, BalancingReport) are
NamedTuples: immutable, compared by value, and a record that checks or
normalises its fields does so in its own __new__.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .exact_linalg import IntegerRow, frac, phase_one, rank_certificate

RICCI_FLAT = "ricci_flat"
SCALAR_FLAT = "scalar_flat"

# Scalar curvature may be an exact rational or "known positive only": the
# feasibility questions are invariant under that scale, so None is allowed
# and recorded as a stripped symbolic factor.
ScalarCurvature = Optional[Fraction]


class _PiRational(NamedTuple):
    coeff: Fraction
    pi_power: int = 0


class PiRational(_PiRational):
    """Exact rational multiple of an integer power of pi (zero has power 0)."""

    __slots__ = ()

    def __new__(cls, coeff, pi_power: int = 0) -> "PiRational":
        coeff = frac(coeff)
        return tuple.__new__(cls, (coeff, pi_power if coeff else 0))


class _SingularPoint(NamedTuple):
    label: str
    kind: str
    group_order: int
    phi: IntegerRow
    dphi: Optional[IntegerRow] = None
    e_sign: Optional[int] = None
    e_magnitude: Optional[Fraction] = None
    c_gamma: Optional[Fraction] = None


class SingularPointRecord(_SingularPoint):
    """One singular point's model data.

    phi holds the values phi_i at the point and dphi those of Lap phi_i, each
    an IntegerRow (any sequence of rationals is converted to one).  dphi
    None means the Einstein simplification applies (Lap phi_i = -(s/m)
    phi_i), so only phi values are needed.  e_sign is required for
    scalar-flat models (feasibility needs the sign only); e_magnitude and
    c_gamma gate the optional coefficient outputs.  The constructor checks
    and normalises the fields; ``_replace`` and ``_make`` do not.
    """

    __slots__ = ()

    def __new__(
        cls,
        label: str,
        kind: str,
        group_order: int,
        phi,
        dphi=None,
        e_sign: Optional[int] = None,
        e_magnitude=None,
        c_gamma=None,
    ) -> "SingularPointRecord":
        if kind not in (RICCI_FLAT, SCALAR_FLAT):
            raise ValueError(f"unknown point kind {kind!r}")
        if group_order < 1:
            raise ValueError("group order >= 1")
        if not isinstance(phi, IntegerRow):
            phi = IntegerRow.of(phi)
        if dphi is not None:
            if not isinstance(dphi, IntegerRow):
                dphi = IntegerRow.of(dphi)
            if len(dphi.nums) != len(phi.nums):
                raise ValueError("laplacian values must match phi length")
        if kind == SCALAR_FLAT and e_sign not in (1, -1):
            raise ValueError("scalar-flat points need e_sign in {+1, -1}")
        if e_magnitude is not None:
            e_magnitude = frac(e_magnitude)
            if e_magnitude.numerator <= 0:
                raise ValueError("e magnitude must be positive")
        if c_gamma is not None:
            c_gamma = frac(c_gamma)
            if c_gamma.numerator <= 0:
                raise ValueError("c(Gamma) must be positive")
        fields = (label, kind, group_order, phi, dphi, e_sign, e_magnitude, c_gamma)
        return tuple.__new__(cls, fields)


@dataclass(frozen=True)
class ScaledMatrix:
    """A rational matrix with a stripped positive scalar prefactor.

    The matrix is held as its ``rows``, each an IntegerRow, so their nums
    are the rows of M_int and their dens its row scales; ``cols`` is the
    column count.  Rank and positive-kernel questions are invariant under
    the prefactor, so it is recorded instead of multiplied in; symbols name
    positive quantities known only by sign (e.g. the scalar curvature).
    """

    rows: tuple[IntegerRow, ...]
    cols: int
    scale: Fraction = Fraction(1)
    scale_symbols: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("stripped scale must be positive")

    @cached_property
    def entries(self) -> tuple[list[tuple[int, int]], ...]:
        """Each row's entries as reduced (numerator, denominator) pairs, the
        entries a report prints."""
        return tuple(row.pairs() for row in self.rows)


FULL_RANK, RANK_DEFICIENT, GORDAN = "full_rank", "rank_deficient", "gordan"


class Certificate(NamedTuple):
    """Why a balancing verdict holds, stated on M_int: the balancing matrix
    at unit weights with each row scaled by the lcm of its denominators.

    full_rank: M_int has the nonzero ``determinant`` on ``columns``
    (0-based), so its rank is d.  rank_deficient: ``y`` != 0 with
    yᵀ·M_int = 0, so its rank is below d.  gordan: yᵀ·M_int >= 0 and != 0,
    a combination of the phi_i nonnegative at every point and positive at
    one, so no positive kernel vector exists (Gordan's alternative).
    """

    kind: str
    y: tuple[int, ...] = ()
    columns: tuple[int, ...] = ()
    determinant: int = 0


class PointCoefficients(NamedTuple):
    """Leading gluing coefficients for one point (None = needs external data).

    A scalar-flat point without |e(Gamma)| has ``leading`` None and
    ``leading_pending``, |Gamma| a / (4 or 8(m-2)(m-1)) as a reduced
    (numerator, denominator) pair: its leading value times
    |S^{2m-1}|·|e(Gamma)|.
    """

    label: str
    kind: str
    leading: Optional[PiRational] = None
    leading_pending: Optional[tuple[int, int]] = None
    b_radicand: Optional[PiRational] = None
    b_root_exponent: Optional[Fraction] = None
    c_constant: Optional[Fraction] = None


class BalancingReport(NamedTuple):
    regime: str
    d: int
    feasible: bool
    matrix: Optional[ScaledMatrix] = None
    rank: Optional[int] = None
    witness: Optional[IntegerRow] = None
    witness_c: Optional[IntegerRow] = None
    certificate: Optional[Certificate] = None
    coefficients: tuple[PointCoefficients, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def kernel_dim(self) -> int:
        return self.matrix.cols - self.rank


def _matrix(
    columns: Sequence[Sequence[int]], dens: Sequence[int], scale=Fraction(1), symbols=()
) -> ScaledMatrix:
    """The matrix whose column j is columns[j] over dens[j] > 0, one
    IntegerRow per row (no rows, no columns when the columns are empty)."""
    rows = tuple(IntegerRow.over(row, dens) for row in zip(*columns))
    return ScaledMatrix(rows, len(columns) if rows else 0, scale, symbols)


def _check_points(points: Sequence[SingularPointRecord], kind: str, noun: str) -> None:
    """ValueError for a point of another kind, or with another phi length
    than the first point."""
    d = len(points[0].phi.nums)
    for p in points:
        if p.kind != kind:
            raise ValueError(f"{p.label} is not a {noun} point")
        if len(p.phi.nums) != d:
            raise ValueError("inconsistent kernel dimension")


def build_xi(points_q: Sequence[SingularPointRecord]) -> ScaledMatrix:
    """Sign-weighted balancing matrix for scalar-flat points at unit weights:
    entry (i, l) = sign(e_l) * phi_i(q_l) / |Gamma_l|, column l being
    e_l·phi(q_l)'s integer row over |Gamma_l| times its denominator."""
    if not points_q:
        raise ValueError("no scalar-flat points")
    _check_points(points_q, SCALAR_FLAT, "scalar-flat")
    columns = [[p.e_sign * x for x in p.phi.nums] for p in points_q]
    return _matrix(columns, [p.group_order * p.phi.den for p in points_q])


def build_theta(
    points_p: Sequence[SingularPointRecord], s: ScalarCurvature, m: int
) -> ScaledMatrix:
    """Balancing matrix for Ricci-flat points at unit weights under the
    tuning c_j = s b_j: entry (i, j) = (Lap(phi_i) + s phi_i)(p_j), the
    weight b_j scaling column j.

    Under the Einstein flag Lap phi_i = -(s/m) phi_i, so the entry is
    ((m-1) s / m) phi_i(p_j), and since only positivity of s matters for
    rank and kernels, the factor (m-1) s / m is stripped into the scale;
    column j is then phi(p_j)'s integer row.  With explicit data, s = a/c,
    phi(p_j) = x/D and Lap phi(p_j) = lap/D', column j is
    (lap·c·D + a·x·D') / (D'·c·D).
    """
    if not points_p:
        raise ValueError("no Ricci-flat points")
    _check_points(points_p, RICCI_FLAT, "Ricci-flat")
    if all(p.dphi is None for p in points_p):
        columns, dens = [p.phi.nums for p in points_p], [p.phi.den for p in points_p]
        if s is None:
            return _matrix(columns, dens, Fraction(m - 1, m), ("s_omega",))
        if s <= 0:
            raise ValueError("scalar curvature must be positive here")
        return _matrix(columns, dens, Fraction(m - 1, m) * s)

    if s is None:
        raise ValueError("explicit laplacian data needs a numeric scalar curvature")
    if any(p.dphi is None for p in points_p):
        raise ValueError("mixed Einstein/explicit laplacian data")
    a, c = s.numerator, s.denominator
    columns = [
        [lap * c * p.phi.den + a * x * p.dphi.den for lap, x in zip(p.dphi.nums, p.phi.nums)]
        for p in points_p
    ]
    return _matrix(columns, [p.dphi.den * c * p.phi.den for p in points_p])


def _determinant(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv], sign = a[piv], a[k], -sign
        for i in range(k + 1, len(a)):
            a[i] = [(a[k][k] * x - a[i][k] * y) // prev for x, y in zip(a[i], a[k])]
        prev = a[k][k]
    return sign * prev


def check_certificate(
    matrix: ScaledMatrix, witness: Optional[IntegerRow], cert: Certificate
) -> None:
    """Verify a verdict in Python ints, apart from the solver: the witness
    has entries >= 1 and M·w = 0, and the certificate holds on M_int (see
    Certificate), rebuilt here from the matrix's entries as the report
    prints them (ScaledMatrix.entries), each row times the lcm of its
    denominators, and not taken from the solvers' M_int.  A full_rank or
    rank_deficient certificate goes with a witness, a gordan one without.
    Raises RuntimeError if anything fails."""
    rows = []
    for pairs in matrix.entries:
        scale = math.lcm(*[q for _, q in pairs])
        rows.append([n * (scale // q) for n, q in pairs])
    ok = (witness is None) == (cert.kind == GORDAN)
    if witness is not None:
        w, den = witness
        ok = ok and len(w) == matrix.cols and min(w, default=den) >= den
        ok = ok and not any(sum(map(mul, row, w)) for row in rows)
    if cert.kind == FULL_RANK:
        cols = cert.columns
        ok = ok and len(cols) == len(rows) and list(cols) == sorted(set(cols))
        ok = ok and all(0 <= j < matrix.cols for j in cols) and cert.determinant != 0
        ok = ok and _determinant([[row[j] for j in cols] for row in rows]) == cert.determinant
    elif cert.kind in (RANK_DEFICIENT, GORDAN) and len(cert.y) == len(rows):
        y_m = [sum(map(mul, cert.y, col)) for col in zip(*rows)]
        if cert.kind == RANK_DEFICIENT:
            ok = ok and any(cert.y) and not any(y_m)
        else:
            ok = ok and min(y_m, default=0) >= 0 and any(y_m)
    else:
        ok = False
    if not ok:
        raise RuntimeError(f"{cert.kind} balancing certificate fails its check (bug)")


_RANK_NOTES = {
    RICCI_FLAT: "balancing matrix has rank {r} < d = {d}",
    SCALAR_FLAT: "rank condition fails: rank {r} < d = {d}",
}


def _decide(
    regime: str,
    points: Sequence[SingularPointRecord],
    unit: ScaledMatrix,
    notes: list[str],
    m: int,
    s: ScalarCurvature = None,
) -> BalancingReport:
    """The balancing decision shared by both regimes, on the regime's matrix
    at unit weights.

    The matrix's rows are already M_int over its row scales, and both
    solvers take them: the simplex looks for a positive kernel vector, its
    duals giving a Gordan certificate when there is none, and one
    elimination gives the rank with a full-rank or rank-deficient
    certificate.  check_certificate verifies the verdict.  The reported
    matrix is the unit-weight one, on which the certificate is stated and
    whose columns the witness weights.
    """
    rows = [row.nums for row in unit.rows]
    witness, gordan = phase_one(rows, [row.den for row in unit.rows], unit.cols)
    pivots, det, y = rank_certificate(rows, unit.cols)
    d = len(rows)
    r = len(pivots)
    if witness is None:
        cert = Certificate(GORDAN, y=gordan)
    elif y is None:
        cert = Certificate(FULL_RANK, columns=tuple(pivots), determinant=det)
    else:
        cert = Certificate(RANK_DEFICIENT, y=y)
    check_certificate(unit, witness, cert)
    if witness is None:
        return BalancingReport(
            regime=regime,
            d=d,
            feasible=False,
            matrix=unit,
            rank=r,
            certificate=cert,
            notes=tuple(notes + ["no positive kernel vector exists"]),
        )
    nums, den = witness
    witness_c = None  # or s·w, over the one denominator s.denominator·den
    if s is not None:
        scaled = [s.numerator * x for x in nums]
        witness_c = IntegerRow.over(scaled, [s.denominator * den] * len(nums))
    if regime == RICCI_FLAT and s is None:
        notes.append("tuning c_j = s_omega b_j recorded symbolically (s known by sign)")
    if r < d:
        notes.append(_RANK_NOTES[regime].format(r=r, d=d))
    coefficients = tuple(_point_coefficients(p, w, m, s) for p, w in zip(points, witness.pairs()))
    if any(c.leading_pending for c in coefficients):
        notes.append(
            f"pending |e(Gamma)|: a leading value is leading_pending/(|S^{2 * m - 1}|*|e(Gamma)|)"
        )
    return BalancingReport(
        regime=regime,
        d=d,
        feasible=r == d,
        matrix=unit,
        rank=r,
        witness=witness,
        witness_c=witness_c,
        certificate=cert,
        coefficients=coefficients,
        notes=tuple(notes),
    )


def solve_ricci_flat_balancing(
    points_p: Sequence[SingularPointRecord],
    s: ScalarCurvature,
    m: int,
) -> BalancingReport:
    """Decide the all-Ricci-flat regime with the tuning c_j = s b_j.

    Einstein inputs reduce to sum_j b_j phi_i(p_j) = 0; with explicit
    laplacian data the tuned system is sum_j b_j (Lap phi_i + s phi_i)(p_j)
    = 0, needing a numeric s.  The feasibility verdict and the rank are
    invariant under the stripped positive factors.
    """
    if all(p.dphi is None for p in points_p):
        note = (
            "einstein reduction: tuned system is ((m-1)s/m) sum_j b_j phi_i(p_j); "
            "positive factor (m-1)s/m stripped"
        )
    else:
        note = "tuned system: sum_j b_j (Lap phi_i + s phi_i)(p_j) = 0"
    unit = build_theta(points_p, s, m)
    return _decide(RICCI_FLAT, points_p, unit, [note], m, s)


def solve_scalar_flat_balancing(
    points_q: Sequence[SingularPointRecord],
    m: int,
) -> BalancingReport:
    """Decide the regime with scalar-flat points present.

    Ricci-flat points impose no balancing condition here; the positive
    weights a must kill the sign-weighted evaluation matrix, which must in
    turn have full rank.
    """
    notes = [
        "ricci-flat points impose no balancing condition in this regime",
        "weights act by sign only; with |e| known, rescale to witness/|e|",
    ]
    unit = build_xi(points_q)
    return _decide(SCALAR_FLAT, points_q, unit, notes, m)


def leading_coefficients(
    kind: str,
    m: int,
    order: int,
    weight: tuple[int, int],
    e_magnitude=None,
) -> PiRational:
    """Leading value of the gluing coefficient (a_l^{2m-2} or b_j^{2m}) at
    the weight given as its (numerator, denominator) pair, denominator > 0.

    Ricci-flat: |Gamma| b / (2(m-1)).  Scalar-flat: |Gamma| a / (4 |S^3| |e|)
    = |Gamma| a / (8 |e|) pi^-2 at m = 2, and |Gamma| a / (8(m-2)(m-1)
    |S^{2m-1}| |e|) = |Gamma| a (m-2)! / (16 (m-2) |e|) pi^-m at m >= 3; the
    two branches are disjoint in m and must not be cross-applied.  Each is
    one Fraction of a numerator and a denominator.
    """
    if m < 2:
        raise ValueError("m >= 2")
    w_num, w_den = weight
    num = order * w_num
    if kind == RICCI_FLAT:
        return PiRational(Fraction(num, 2 * (m - 1) * w_den))
    if kind != SCALAR_FLAT:
        raise ValueError(f"unknown kind {kind!r}")
    if e_magnitude is None:
        raise ValueError("scalar-flat coefficient needs |e(Gamma)|")
    mag = frac(e_magnitude)
    if mag <= 0:
        raise ValueError("|e| must be positive")
    num, den = num * mag.denominator, w_den * mag.numerator
    if m == 2:
        return PiRational(Fraction(num, 8 * den), -2)
    return PiRational(Fraction(num * math.factorial(m - 2), 16 * (m - 2) * den), -m)


def model_constants(
    m: int,
    b_j,
    order: int,
    c_gamma,
    s,
    c_j,
) -> tuple[tuple[PiRational, Fraction], Fraction]:
    """The model rescaling root B_j and the pole-matching constant C_j.

    B_j is returned as (radicand, exponent) with radicand
    B^{2m} = b |Gamma| / (2 c(Gamma) (m-1) |S^{2m-1}|)
    = b |Gamma| (m-2)! / (4 c(Gamma)) pi^-m and exponent 1/(2m) -- no
    floating root is taken.  C_j (m >= 3 only) is |Gamma| / (8 (m-2)(m-1))
    times the bracket
    2 c(Gamma) B^{2m} (m-1) |S^{2m-1}| s (1 + (m-1)^2/(m+1)) / (m |Gamma|) - c_j,
    in which B^{2m} cancels c(Gamma), |S^{2m-1}| and |Gamma|, leaving
    b s (1 + (m-1)^2/(m+1)) / m - c_j.
    """
    if m < 3:
        raise ValueError("model constants need m >= 3 (C_j carries 1/(m-2))")
    b = frac(b_j)
    cg = frac(c_gamma)
    if cg <= 0:
        raise ValueError("c(Gamma) must be positive")
    radicand = PiRational(b * order * math.factorial(m - 2) / (4 * cg), -m)
    bracket = b * frac(s) * (1 + Fraction((m - 1) ** 2, m + 1)) / m - frac(c_j)
    c_value = Fraction(order, 8 * (m - 2) * (m - 1)) * bracket
    return (radicand, Fraction(1, 2 * m)), c_value


def _point_coefficients(
    point: SingularPointRecord, weight: tuple[int, int], m: int, s: ScalarCurvature
) -> PointCoefficients:
    """One point's coefficients at its witness weight, a reduced (numerator,
    denominator) pair made a Fraction only where a printed value needs it;
    with a numeric s, c_j is s times the weight."""
    label, kind, order = point.label, point.kind, point.group_order
    if kind == RICCI_FLAT:
        leading = leading_coefficients(RICCI_FLAT, m, order, weight)
        if point.c_gamma is None or m < 3 or s is None:
            return PointCoefficients(label, kind, leading)
        b = Fraction(*weight)
        (b_rad, b_exp), c_const = model_constants(m, b, order, point.c_gamma, s, s * b)
        return PointCoefficients(label, kind, leading, None, b_rad, b_exp, c_const)
    if point.e_magnitude is not None:
        return PointCoefficients(
            label, kind, leading_coefficients(SCALAR_FLAT, m, order, weight, point.e_magnitude)
        )
    num, den = order * weight[0], (4 if m == 2 else 8 * (m - 2) * (m - 1)) * weight[1]
    g = math.gcd(num, den)
    return PointCoefficients(label, kind, None, (num // g, den // g))
