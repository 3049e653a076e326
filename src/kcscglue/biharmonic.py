"""Mode-wise biharmonic extensions on the ball and its exterior, and the
Dirichlet-to-Neumann matching map.

A mode is a spherical eigenfunction index gamma; radial profiles are finite
sums of c * r^a (plus c * r^a * log r in the one slot where m = 2 forces a
logarithm).  All coefficients stay exact rationals, the bilaplacian acts by
the radial eigenvalue rule, and the 2x2 mode matrix of the matching map is
inverted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact_linalg import frac
from .spectral import eigenvalue


@dataclass(frozen=True)
class RadialTerm:
    """coefficient * r^exponent (* log r) at spherical mode gamma."""

    coefficient: Fraction
    exponent: int
    mode: int
    log_flag: bool = False


def _normalize(terms: Sequence[RadialTerm]) -> tuple[RadialTerm, ...]:
    """Merge equal (exponent, mode, log) keys and drop zero coefficients."""
    acc: dict[tuple[int, int, bool], Fraction] = {}
    for t in terms:
        key = (t.exponent, t.mode, t.log_flag)
        acc[key] = acc.get(key, Fraction(0)) + t.coefficient
    out = [
        RadialTerm(c, e, g, log)
        for (e, g, log), c in sorted(acc.items())
        if c != 0
    ]
    return tuple(out)


def _check_mode(m: int, gamma: int, no_invariant_linear: bool) -> None:
    if m < 2:
        raise ValueError("m >= 2")
    if gamma < 0:
        raise ValueError("gamma >= 0")
    if gamma == 1 and no_invariant_linear:
        raise ValueError(
            "gamma = 1 carries no invariant function: the group has no "
            "invariant linear function (--nontrivial-group)"
        )


def outer_extension(
    m: int,
    gamma: int,
    h,
    k,
    no_invariant_linear: bool = False,
) -> tuple[RadialTerm, ...]:
    """Biharmonic extension to the exterior with H = h, (Lap H) = k on the
    unit sphere, decaying at infinity (log slot at m = 2, gamma = 0)."""
    _check_mode(m, gamma, no_invariant_linear)
    h = frac(h)
    k = frac(k)
    if m == 2 and gamma == 0:
        return _normalize(
            [
                RadialTerm(h, -2, 0),
                RadialTerm(k / 2, 0, 0, log_flag=True),
            ]
        )
    c = k / (4 * (m + gamma - 2))
    return _normalize(
        [
            RadialTerm(h + c, 2 - 2 * m - gamma, gamma),
            RadialTerm(-c, 4 - 2 * m - gamma, gamma),
        ]
    )


def inner_extension(
    m: int,
    gamma: int,
    h,
    k,
    no_invariant_linear: bool = False,
) -> tuple[RadialTerm, ...]:
    """Biharmonic extension to the unit ball with the same boundary data."""
    _check_mode(m, gamma, no_invariant_linear)
    h = frac(h)
    k = frac(k)
    c = k / (4 * (m + gamma))
    return _normalize(
        [
            RadialTerm(h - c, gamma, gamma),
            RadialTerm(c, gamma + 2, gamma),
        ]
    )


def radial_laplacian(terms: Sequence[RadialTerm], m: int) -> tuple[RadialTerm, ...]:
    """One application of the Laplacian in the radial-mode calculus.

    Lap(r^a Phi_g) = (a(a + 2m - 2) + Lambda_g) r^{a-2} Phi_g; the log
    variant adds the cross term and is only supported in the m = 2,
    gamma = 0 slot the construction actually uses.
    """
    out: list[RadialTerm] = []
    for t in terms:
        a = t.exponent
        radial = a * (a + 2 * m - 2) + eigenvalue(t.mode, m)
        if t.log_flag:
            if m != 2 or t.mode != 0:
                raise ValueError("log terms are only handled at m = 2, gamma = 0")
            out.append(RadialTerm(t.coefficient * radial, a - 2, t.mode, log_flag=True))
            out.append(RadialTerm(t.coefficient * (2 * a + 2 * m - 2), a - 2, t.mode))
        else:
            out.append(RadialTerm(t.coefficient * radial, a - 2, t.mode))
    return _normalize(out)


def radial_derivative_at_one(terms: Sequence[RadialTerm]) -> Fraction:
    """d/dr at r = 1: r^a -> a, r^a log r -> 1 (per unit coefficient)."""
    total = Fraction(0)
    for t in terms:
        total += t.coefficient * (1 if t.log_flag else t.exponent)
    return total


@dataclass(frozen=True)
class ModeMatrix:
    """2x2 exact matrix acting on boundary data (h, k) of one mode."""

    m: int
    gamma: int
    entries: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    @property
    def determinant(self) -> Fraction:
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def apply(self, h, k) -> tuple[Fraction, Fraction]:
        hv, kv = frac(h), frac(k)
        e = self.entries
        return (e[0][0] * hv + e[0][1] * kv, e[1][0] * hv + e[1][1] * kv)

    def compose(self, other: "ModeMatrix") -> "ModeMatrix":
        a, b = self.entries, other.entries
        return ModeMatrix(
            self.m,
            self.gamma,
            (
                (
                    a[0][0] * b[0][0] + a[0][1] * b[1][0],
                    a[0][0] * b[0][1] + a[0][1] * b[1][1],
                ),
                (
                    a[1][0] * b[0][0] + a[1][1] * b[1][0],
                    a[1][0] * b[0][1] + a[1][1] * b[1][1],
                ),
            ),
        )


def _dtn_image(
    m: int, gamma: int, h, k, no_invariant_linear: bool
) -> tuple[Fraction, Fraction]:
    outer = outer_extension(m, gamma, h, k, no_invariant_linear)
    inner = inner_extension(m, gamma, h, k, no_invariant_linear)
    first = radial_derivative_at_one(outer) - radial_derivative_at_one(inner)
    second = radial_derivative_at_one(
        radial_laplacian(outer, m)
    ) - radial_derivative_at_one(radial_laplacian(inner, m))
    return first, second


def dtn_mode_matrix(m: int, gamma: int, no_invariant_linear: bool = False) -> ModeMatrix:
    """Mode component of the matching map (h, k) -> jump of the normal
    derivatives of the outer minus inner extension at the unit sphere.

    Assembled by exact differentiation of the mode terms; a zero determinant
    would contradict invertibility of the matching map and raises.
    """
    col_h = _dtn_image(m, gamma, 1, 0, no_invariant_linear)
    col_k = _dtn_image(m, gamma, 0, 1, no_invariant_linear)
    matrix = ModeMatrix(
        m, gamma, ((col_h[0], col_k[0]), (col_h[1], col_k[1]))
    )
    if matrix.determinant == 0:
        raise ArithmeticError(
            f"singular mode matrix at m={m}, gamma={gamma}: convention bug"
        )
    return matrix


def dtn_inverse(m: int, gamma: int, no_invariant_linear: bool = False) -> ModeMatrix:
    """Exact 2x2 inverse of the mode matrix."""
    p = dtn_mode_matrix(m, gamma, no_invariant_linear)
    det = p.determinant
    e = p.entries
    return ModeMatrix(
        m,
        gamma,
        (
            (e[1][1] / det, -e[0][1] / det),
            (-e[1][0] / det, e[0][0] / det),
        ),
    )
