"""Balancing conditions and gluing constants.

Assembles the balancing matrices for the two gluing regimes (only
scalar-flat models contribute balancing conditions; in the all-Ricci-flat
regime the weights are tuned so the conditions reduce to a positive-kernel
search) and decides both with one routine: a positive kernel vector by
exact LP, and full rank read off the elimination that gives the kernel
basis.  Every closed-form constant is evaluated with pi-powers kept
symbolic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .exact_linalg import (
    RationalMatrix,
    frac,
    nullspace_basis,
    positive_kernel_witness,
)

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

    def __truediv__(self, other: Union["PiRational", int, Fraction]) -> "PiRational":
        if isinstance(other, PiRational):
            if other.coeff == 0:
                raise ZeroDivisionError
            return PiRational(self.coeff / other.coeff, self.pi_power - other.pi_power)
        return PiRational(self.coeff / frac(other), self.pi_power)

    def __add__(self, other: "PiRational") -> "PiRational":
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.pi_power != other.pi_power:
            raise ArithmeticError("cannot add different pi powers exactly")
        return PiRational(self.coeff + other.coeff, self.pi_power)

    def __sub__(self, other: "PiRational") -> "PiRational":
        return self + PiRational(-other.coeff, other.pi_power)

    def as_fraction(self) -> Fraction:
        if self.pi_power != 0:
            raise ArithmeticError("value carries a pi power")
        return self.coeff

    def __str__(self) -> str:
        if self.pi_power == 0:
            return str(self.coeff)
        return f"{self.coeff}*pi^{self.pi_power}"


def sphere_volume(m: int) -> PiRational:
    """|S^{2m-1}| = 2 pi^m / (m-1)!."""
    if m < 1:
        raise ValueError("m >= 1")
    return PiRational(Fraction(2, math.factorial(m - 1)), m)


@dataclass(frozen=True)
class EpsPower:
    """The exact power eps^exponent (0 < eps < 1)."""

    eps: Fraction
    exponent: Fraction

    def __str__(self) -> str:
        return f"({self.eps})^({self.exponent})"


def gluing_scales(eps, m: int) -> tuple[EpsPower, EpsPower]:
    """Neck radii (r_eps, R_eps) = (eps^{(2m-1)/(2m+1)}, eps^{-2/(2m+1)}),
    so that r_eps = eps * R_eps identically."""
    e = frac(eps)
    if not 0 < e < 1:
        raise ValueError("need 0 < eps < 1")
    if m < 2:
        raise ValueError("m >= 2")
    return (
        EpsPower(e, Fraction(2 * m - 1, 2 * m + 1)),
        EpsPower(e, Fraction(-2, 2 * m + 1)),
    )


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


@dataclass(frozen=True)
class BalancingReport:
    regime: str
    d: int
    feasible: bool
    matrix: Optional[ScaledMatrix] = None
    rank: Optional[int] = None
    witness: Optional[tuple[Fraction, ...]] = None
    witness_c: Optional[tuple[Fraction, ...]] = None
    kernel_basis: tuple[tuple[Fraction, ...], ...] = ()
    coefficients: tuple["PointCoefficients", ...] = ()
    notes: tuple[str, ...] = ()


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


def build_xi(
    points_q: Sequence[SingularPointRecord], a: Sequence
) -> RationalMatrix:
    """Sign-weighted balancing matrix for scalar-flat points:
    entry (i, l) = a_l * sign(e_l) * phi_i(q_l) / |Gamma_l|."""
    if len(a) != len(points_q):
        raise ValueError("one weight per point")
    weights = [frac(x) for x in a]
    if not points_q:
        raise ValueError("no scalar-flat points")
    d = len(points_q[0].phi_values)
    for p in points_q:
        if p.kind != SCALAR_FLAT:
            raise ValueError(f"{p.label} is not a scalar-flat point")
        if p.e_sign is None:
            raise ValueError(f"{p.label} is missing e_sign")
        if len(p.phi_values) != d:
            raise ValueError("inconsistent kernel dimension")
    rows = [
        [
            weights[l] * points_q[l].e_sign * points_q[l].phi_values[i]
            / points_q[l].group_order
            for l in range(len(points_q))
        ]
        for i in range(d)
    ]
    return RationalMatrix.from_rows(rows)


def build_theta(
    points_p: Sequence[SingularPointRecord],
    b: Sequence,
    s: ScalarCurvature = None,
    m: int = 2,
) -> ScaledMatrix:
    """Balancing matrix for Ricci-flat points under the tuning c_j = s b_j:
    entry (i, j) = b_j (Lap(phi_i) + s phi_i)(p_j).

    Under the Einstein flag Lap phi_i = -(s/m) phi_i, so the entry is
    ((m-1) s / m) b_j phi_i(p_j), and since only positivity of s matters for
    rank and kernels, the factor (m-1) s / m is stripped into the scale.
    """
    if len(b) != len(points_p):
        raise ValueError("one weight per point")
    if not points_p:
        raise ValueError("no Ricci-flat points")
    bs = [frac(x) for x in b]
    d = len(points_p[0].phi_values)
    for p in points_p:
        if p.kind != RICCI_FLAT:
            raise ValueError(f"{p.label} is not a Ricci-flat point")
        if len(p.phi_values) != d:
            raise ValueError("inconsistent kernel dimension")

    if all(p.laplacian_phi_values is None for p in points_p):
        rows = [
            [bs[j] * points_p[j].phi_values[i] for j in range(len(points_p))]
            for i in range(d)
        ]
        if s is None:
            return ScaledMatrix(
                RationalMatrix.from_rows(rows), Fraction(m - 1, m), ("s_omega",)
            )
        if s <= 0:
            raise ValueError("scalar curvature must be positive here")
        return ScaledMatrix(RationalMatrix.from_rows(rows), Fraction(m - 1, m) * s)

    if s is None:
        raise ValueError("explicit laplacian data needs a numeric scalar curvature")
    if any(p.laplacian_phi_values is None for p in points_p):
        raise ValueError("mixed Einstein/explicit laplacian data")
    rows = [
        [
            bs[j] * (points_p[j].laplacian_phi_values[i] + s * points_p[j].phi_values[i])
            for j in range(len(points_p))
        ]
        for i in range(d)
    ]
    return ScaledMatrix(RationalMatrix.from_rows(rows))


_RANK_NOTES = {
    RICCI_FLAT: "balancing matrix has rank {r} < d = {d}",
    SCALAR_FLAT: "rank condition fails: rank {r} < d = {d}",
}


def _decide(
    regime: str,
    points: Sequence[SingularPointRecord],
    build: Callable[[Sequence[Fraction]], ScaledMatrix],
    notes: list[str],
    m: int,
    s: ScalarCurvature = None,
) -> BalancingReport:
    """The balancing decision shared by both regimes.

    The regime's matrix is built once at unit weights; the simplex looks for
    a positive kernel vector and one elimination gives the kernel basis and
    with it the rank.  Every witness entry is >= 1, so weighting the columns
    by the witness keeps the rank, and the reported matrix is the builder's
    at the witness (at unit weights when there is none).
    """
    unit = build([Fraction(1)] * len(points))
    witness = positive_kernel_witness(unit.matrix)
    kernel = tuple(nullspace_basis(unit.matrix))
    d = unit.matrix.rows
    r = unit.matrix.cols - len(kernel)
    if witness is None:
        return BalancingReport(
            regime=regime,
            d=d,
            feasible=False,
            matrix=unit,
            rank=r,
            kernel_basis=kernel,
            notes=tuple(notes + ["no positive kernel vector exists"]),
        )
    witness_c = None if s is None else tuple(s * w for w in witness)
    if regime == RICCI_FLAT and s is None:
        notes.append("tuning c_j = s_omega b_j recorded symbolically (s known by sign)")
    if r < d:
        notes.append(_RANK_NOTES[regime].format(r=r, d=d))
    coefficients = tuple(
        _point_coefficients(p, w, m, s, None if s is None else s * w)
        for p, w in zip(points, witness)
    )
    return BalancingReport(
        regime=regime,
        d=d,
        feasible=r == d,
        matrix=build(witness),
        rank=r,
        witness=witness,
        witness_c=witness_c,
        kernel_basis=kernel,
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
    return _decide(
        RICCI_FLAT, points_p, lambda b: build_theta(points_p, b, s, m), [note], m, s
    )


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
    return _decide(
        SCALAR_FLAT, points_q, lambda a: ScaledMatrix(build_xi(points_q, a)), notes, m
    )


def leading_coefficients(
    kind: str,
    m: int,
    order: int,
    weight,
    e_magnitude=None,
) -> PiRational:
    """Leading value of the gluing coefficient (a_l^{2m-2} or b_j^{2m}).

    Ricci-flat: |Gamma| b / (2(m-1)).  Scalar-flat: |Gamma| a / (4 |S^3| |e|)
    at m = 2 and |Gamma| a / (8(m-2)(m-1) |S^{2m-1}| |e|) at m >= 3; the two
    branches are disjoint in m and must not be cross-applied.
    """
    if m < 2:
        raise ValueError("m >= 2")
    w = frac(weight)
    if kind == RICCI_FLAT:
        return PiRational(Fraction(order) * w / (2 * (m - 1)))
    if kind != SCALAR_FLAT:
        raise ValueError(f"unknown kind {kind!r}")
    if e_magnitude is None:
        raise ValueError("scalar-flat coefficient needs |e(Gamma)|")
    mag = frac(e_magnitude)
    if mag <= 0:
        raise ValueError("|e| must be positive")
    if m == 2:
        return PiRational(Fraction(order) * w / (4 * mag)) / sphere_volume(2)
    return PiRational(
        Fraction(order) * w / (8 * (m - 2) * (m - 1) * mag)
    ) / sphere_volume(m)


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
    b |Gamma| / (2 c(Gamma) (m-1) |S^{2m-1}|) and exponent 1/(2m) -- no
    floating root is taken.  C_j (m >= 3 only) evaluates the bracket
    2 c(Gamma) B^{2m} (m-1) |S^{2m-1}| s (1 + (m-1)^2/(m+1)) / (m |Gamma|)
    - c_j times |Gamma| / (8 (m-2)(m-1)); the pi powers cancel exactly.
    """
    if m < 3:
        raise ValueError("model constants need m >= 3 (C_j carries 1/(m-2))")
    b = frac(b_j)
    cg = frac(c_gamma)
    if cg <= 0:
        raise ValueError("c(Gamma) must be positive")
    sphere = sphere_volume(m)
    radicand = PiRational(b * order) / (2 * cg * (m - 1) * sphere)
    exponent = Fraction(1, 2 * m)
    sv = frac(s)
    cj = frac(c_j)
    bracket = (
        2 * cg * radicand * (m - 1) * sphere * sv * (1 + Fraction((m - 1) ** 2, m + 1))
        / (m * order)
    )
    c_value = (
        Fraction(order, 8 * (m - 2) * (m - 1)) * (bracket - PiRational(cj)).as_fraction()
    )
    return (radicand, exponent), c_value


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
        if point.c_gamma is not None and m >= 3 and s is not None and c_j is not None:
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
