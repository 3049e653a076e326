"""Balancing conditions and gluing constants.

Assembles the balancing matrices for the two gluing regimes at unit
weights, the matrices the certificates are stated on (only scalar-flat
models contribute balancing conditions; in the all-Ricci-flat regime the
weights are tuned so the conditions reduce to a positive-kernel search),
and decides both with one routine.  It scales the matrix to integers once
(M_int) and hands M_int to both solvers: a positive kernel vector by exact
LP, and the rank by one elimination.  Each verdict carries a certificate
that an integer checker, independent of the solver and with its own row
scaling, verifies before the verdict is returned.  The gluing constants
are closed forms in |Gamma|, the weights and |S^{2m-1}| = 2 pi^m/(m-1)!,
with the pi power kept as a tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Union

from .exact_linalg import RationalMatrix, frac, integer_rows, phase_one, rank_certificate

RICCI_FLAT = "ricci_flat"
SCALAR_FLAT = "scalar_flat"

# Scalar curvature may be an exact rational or "known positive only": the
# feasibility questions are invariant under that scale, so None is allowed
# and recorded as a stripped symbolic factor.
ScalarCurvature = Optional[Fraction]


@dataclass(frozen=True)
class PiRational:
    """Exact rational multiple of an integer power of pi."""

    coeff: Fraction
    pi_power: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", frac(self.coeff))
        if self.coeff == 0 and self.pi_power != 0:
            object.__setattr__(self, "pi_power", 0)

    def __mul__(self, other: Union["PiRational", int, Fraction]) -> "PiRational":
        if isinstance(other, PiRational):
            return PiRational(self.coeff * other.coeff, self.pi_power + other.pi_power)
        return PiRational(self.coeff * frac(other), self.pi_power)

    __rmul__ = __mul__

    def as_fraction(self) -> Fraction:
        if self.pi_power != 0:
            raise ArithmeticError("value carries a pi power")
        return self.coeff

    def __str__(self) -> str:
        if self.pi_power == 0:
            return str(self.coeff)
        return f"{self.coeff}*pi^{self.pi_power}"


@dataclass(frozen=True)
class SingularPointRecord:
    """One singular point's model data.

    laplacian_phi_values None means the Einstein simplification applies
    (Lap phi_i = -(s/m) phi_i), so only phi values are needed.  e_sign is
    required for scalar-flat models (feasibility needs the sign only);
    e_magnitude and c_gamma gate the optional coefficient outputs.
    """

    label: str
    kind: str
    group_order: int
    phi_values: tuple[Fraction, ...]
    laplacian_phi_values: Optional[tuple[Fraction, ...]] = None
    e_sign: Optional[int] = None
    e_magnitude: Optional[Fraction] = None
    c_gamma: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.kind not in (RICCI_FLAT, SCALAR_FLAT):
            raise ValueError(f"unknown point kind {self.kind!r}")
        if self.group_order < 1:
            raise ValueError("group order >= 1")
        object.__setattr__(self, "phi_values", tuple(frac(x) for x in self.phi_values))
        if self.laplacian_phi_values is not None:
            lap = tuple(frac(x) for x in self.laplacian_phi_values)
            if len(lap) != len(self.phi_values):
                raise ValueError("laplacian values must match phi length")
            object.__setattr__(self, "laplacian_phi_values", lap)
        if self.kind == SCALAR_FLAT:
            if self.e_sign not in (1, -1):
                raise ValueError("scalar-flat points need e_sign in {+1, -1}")
        if self.e_magnitude is not None:
            mag = frac(self.e_magnitude)
            if mag <= 0:
                raise ValueError("e magnitude must be positive")
            object.__setattr__(self, "e_magnitude", mag)
        if self.c_gamma is not None:
            cg = frac(self.c_gamma)
            if cg <= 0:
                raise ValueError("c(Gamma) must be positive")
            object.__setattr__(self, "c_gamma", cg)


@dataclass(frozen=True)
class ScaledMatrix:
    """A rational matrix with a stripped positive scalar prefactor.

    Rank and positive-kernel questions are invariant under the prefactor,
    so it is recorded instead of multiplied in; symbols name positive
    quantities known only by sign (e.g. the scalar curvature).
    """

    matrix: RationalMatrix
    scale: Fraction = Fraction(1)
    scale_symbols: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("stripped scale must be positive")


FULL_RANK, RANK_DEFICIENT, GORDAN = "full_rank", "rank_deficient", "gordan"


@dataclass(frozen=True)
class Certificate:
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


@dataclass(frozen=True)
class BalancingReport:
    regime: str
    d: int
    feasible: bool
    matrix: Optional[ScaledMatrix] = None
    rank: Optional[int] = None
    witness: Optional[tuple[Fraction, ...]] = None
    witness_c: Optional[tuple[Fraction, ...]] = None
    certificate: Optional[Certificate] = None
    coefficients: tuple["PointCoefficients", ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def kernel_dim(self) -> int:
        return self.matrix.matrix.cols - self.rank


@dataclass(frozen=True)
class PointCoefficients:
    """Leading gluing coefficients for one point (None = needs external data)."""

    label: str
    kind: str
    leading: Optional[PiRational] = None
    leading_note: Optional[str] = None
    b_radicand: Optional[PiRational] = None
    b_root_exponent: Optional[Fraction] = None
    c_constant: Optional[Fraction] = None


def _matrix(d: int, n: int, entries: list[Fraction]) -> RationalMatrix:
    """The d x n matrix of row-major Fraction entries, shaped as from_rows
    shapes a list of d rows (no rows, no columns)."""
    return RationalMatrix(d, n if d else 0, tuple(entries))


def build_xi(points_q: Sequence[SingularPointRecord]) -> ScaledMatrix:
    """Sign-weighted balancing matrix for scalar-flat points at unit weights:
    entry (i, l) = sign(e_l) * phi_i(q_l) / |Gamma_l|, made as one Fraction
    from a numerator and a denominator."""
    if not points_q:
        raise ValueError("no scalar-flat points")
    d = len(points_q[0].phi_values)
    for p in points_q:
        if p.kind != SCALAR_FLAT:
            raise ValueError(f"{p.label} is not a scalar-flat point")
        if len(p.phi_values) != d:
            raise ValueError("inconsistent kernel dimension")
    entries = [
        Fraction(p.e_sign * x.numerator, p.group_order * x.denominator)
        for row in zip(*(p.phi_values for p in points_q))
        for p, x in zip(points_q, row)
    ]
    return ScaledMatrix(_matrix(d, len(points_q), entries))


def build_theta(
    points_p: Sequence[SingularPointRecord], s: ScalarCurvature, m: int
) -> ScaledMatrix:
    """Balancing matrix for Ricci-flat points at unit weights under the
    tuning c_j = s b_j: entry (i, j) = (Lap(phi_i) + s phi_i)(p_j), the
    weight b_j scaling column j.

    Under the Einstein flag Lap phi_i = -(s/m) phi_i, so the entry is
    ((m-1) s / m) phi_i(p_j), and since only positivity of s matters for
    rank and kernels, the factor (m-1) s / m is stripped into the scale.
    """
    if not points_p:
        raise ValueError("no Ricci-flat points")
    d = len(points_p[0].phi_values)
    for p in points_p:
        if p.kind != RICCI_FLAT:
            raise ValueError(f"{p.label} is not a Ricci-flat point")
        if len(p.phi_values) != d:
            raise ValueError("inconsistent kernel dimension")

    n = len(points_p)
    if all(p.laplacian_phi_values is None for p in points_p):
        matrix = _matrix(d, n, [p.phi_values[i] for i in range(d) for p in points_p])
        if s is None:
            return ScaledMatrix(matrix, Fraction(m - 1, m), ("s_omega",))
        if s <= 0:
            raise ValueError("scalar curvature must be positive here")
        return ScaledMatrix(matrix, Fraction(m - 1, m) * s)

    if s is None:
        raise ValueError("explicit laplacian data needs a numeric scalar curvature")
    if any(p.laplacian_phi_values is None for p in points_p):
        raise ValueError("mixed Einstein/explicit laplacian data")
    entries = [
        p.laplacian_phi_values[i] + s * p.phi_values[i] for i in range(d) for p in points_p
    ]
    return ScaledMatrix(_matrix(d, n, entries))


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
    matrix: RationalMatrix, witness: Optional[Sequence[Fraction]], cert: Certificate
) -> None:
    """Verify a verdict in Python ints, apart from the solver: the witness
    has entries >= 1 and M·w = 0, and the certificate holds on M_int (see
    Certificate), rebuilt here from the matrix at unit weights.  A full_rank
    or rank_deficient certificate goes with a witness, a gordan one without.
    Raises RuntimeError if anything fails."""
    rows = []
    for i in range(matrix.rows):
        scale = math.lcm(*(e.denominator for e in matrix.row(i)))
        rows.append([e.numerator * (scale // e.denominator) for e in matrix.row(i)])
    ok = (witness is None) == (cert.kind == GORDAN)
    if witness is not None:
        den = math.lcm(*(w.denominator for w in witness))
        w = [x.numerator * (den // x.denominator) for x in witness]
        ok = ok and len(w) == matrix.cols and min(w, default=den) >= den
        ok = ok and not any(sum(map(mul, row, w)) for row in rows)
    if cert.kind == FULL_RANK:
        cols = cert.columns
        ok = ok and len(cols) == matrix.rows and list(cols) == sorted(set(cols))
        ok = ok and all(0 <= j < matrix.cols for j in cols) and cert.determinant != 0
        ok = ok and _determinant([[row[j] for j in cols] for row in rows]) == cert.determinant
    elif cert.kind in (RANK_DEFICIENT, GORDAN) and len(cert.y) == matrix.rows:
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

    The matrix is scaled to M_int once, and both solvers take it: the
    simplex looks for a positive kernel vector, its duals giving a Gordan
    certificate when there is none, and one elimination gives the rank with
    a full-rank or rank-deficient certificate.  check_certificate verifies
    the verdict.  The reported matrix is the unit-weight one, on which the
    certificate is stated and whose columns the witness weights.
    """
    rows, scales = integer_rows(unit.matrix)
    witness, gordan = phase_one(rows, scales, unit.matrix.cols)
    pivots, det, y = rank_certificate(rows, unit.matrix.cols)
    d = unit.matrix.rows
    r = len(pivots)
    if witness is None:
        cert = Certificate(GORDAN, y=gordan)
    elif y is None:
        cert = Certificate(FULL_RANK, columns=tuple(pivots), determinant=det)
    else:
        cert = Certificate(RANK_DEFICIENT, y=y)
    check_certificate(unit.matrix, witness, cert)
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
    witness_c = None if s is None else tuple(s * w for w in witness)
    if regime == RICCI_FLAT and s is None:
        notes.append("tuning c_j = s_omega b_j recorded symbolically (s known by sign)")
    if r < d:
        notes.append(_RANK_NOTES[regime].format(r=r, d=d))
    coefficients = tuple(
        _point_coefficients(p, w, m, s, c_j)
        for p, w, c_j in zip(points, witness, witness_c or (None,) * len(witness))
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
    if all(p.laplacian_phi_values is None for p in points_p):
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
    weight,
    e_magnitude=None,
) -> PiRational:
    """Leading value of the gluing coefficient (a_l^{2m-2} or b_j^{2m}).

    Ricci-flat: |Gamma| b / (2(m-1)).  Scalar-flat: |Gamma| a / (4 |S^3| |e|)
    = |Gamma| a / (8 |e|) pi^-2 at m = 2, and |Gamma| a / (8(m-2)(m-1)
    |S^{2m-1}| |e|) = |Gamma| a (m-2)! / (16 (m-2) |e|) pi^-m at m >= 3; the
    two branches are disjoint in m and must not be cross-applied.
    """
    if m < 2:
        raise ValueError("m >= 2")
    w = frac(weight)
    if kind == RICCI_FLAT:
        return PiRational(order * w / (2 * (m - 1)))
    if kind != SCALAR_FLAT:
        raise ValueError(f"unknown kind {kind!r}")
    if e_magnitude is None:
        raise ValueError("scalar-flat coefficient needs |e(Gamma)|")
    mag = frac(e_magnitude)
    if mag <= 0:
        raise ValueError("|e| must be positive")
    if m == 2:
        return PiRational(order * w / (8 * mag), -2)
    return PiRational(order * w * math.factorial(m - 2) / (16 * (m - 2) * mag), -m)


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
    point: SingularPointRecord,
    weight: Fraction,
    m: int,
    s: ScalarCurvature,
    c_j: Optional[Fraction],
) -> PointCoefficients:
    if point.kind == RICCI_FLAT:
        leading = leading_coefficients(RICCI_FLAT, m, point.group_order, weight)
        b_rad = b_exp = c_const = None
        if point.c_gamma is not None and m >= 3 and c_j is not None:
            (b_rad, b_exp), c_const = model_constants(
                m, weight, point.group_order, point.c_gamma, s, c_j
            )
        return PointCoefficients(
            label=point.label,
            kind=point.kind,
            leading=leading,
            b_radicand=b_rad,
            b_root_exponent=b_exp,
            c_constant=c_const,
        )
    if point.e_magnitude is not None:
        leading = leading_coefficients(
            SCALAR_FLAT, m, point.group_order, weight, point.e_magnitude
        )
        return PointCoefficients(label=point.label, kind=point.kind, leading=leading)
    return PointCoefficients(
        label=point.label,
        kind=point.kind,
        leading=None,
        leading_note="pending |e(Gamma)|: leading value is "
        f"{Fraction(point.group_order) * weight}/"
        f"({4 if m == 2 else 8 * (m - 2) * (m - 1)}*|S^{2*m-1}|*|e|)",
    )
