"""The Dirichlet-to-Neumann matching map, one spherical mode at a time.

Boundary data (H, Lap H) = (h, k) * Phi_gamma on the unit sphere of
C^m = R^(2m), with Phi_gamma a spherical harmonic of degree gamma, extend
biharmonically to the ball and to its exterior:

  inside   H = (h - c) r^gamma + c r^(gamma + 2),            c = k / (4(m + gamma))
  outside  H = (h + c') r^(2-2m-gamma) - c' r^(4-2m-gamma),  c' = k / (4(m + gamma - 2))

The outer extension decays at infinity; in the one slot m = 2, gamma = 0
where c' has no denominator it is h r^-2 + (k/2) log r instead.  Lap H is
harmonic with value k on the sphere, so it is k r^gamma inside and
k r^(2-2m-gamma) outside (k r^-2 in the log slot too).

The matching map sends (h, k) to the jumps, outer minus inner, of d/dr H
and d/dr Lap H at r = 1.  Differentiating the profiles above gives the mode
matrix [[a, b], [0, a]] with

  a = 2 - 2m - 2 gamma,   b = -1/(2(m + gamma - 2)) - 1/(2(m + gamma)),

and b = 1/2 - 1/4 = 1/4 in the log slot.  Its determinant a^2 >= 4 never
vanishes, and its inverse is [[1/a, -b/a^2], [0, 1/a]].  All entries are
exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _check_mode(m: int, gamma: int, no_invariant_linear: bool) -> None:
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == 1 and no_invariant_linear:
        raise ValueError(
            "gamma = 1 carries no invariant function: the group has no "
            "invariant linear function (--nontrivial-group)"
        )


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


def dtn_mode_matrix(m: int, gamma: int, no_invariant_linear: bool = False) -> ModeMatrix:
    """Mode component of the matching map (h, k) -> jump of the normal
    derivatives of H and Lap H, outer minus inner, at the unit sphere."""
    _check_mode(m, gamma, no_invariant_linear)
    a = Fraction(2 - 2 * m - 2 * gamma)
    if m == 2 and gamma == 0:  # the log slot
        b = Fraction(1, 4)
    else:
        b = -Fraction(1, 2 * (m + gamma - 2)) - Fraction(1, 2 * (m + gamma))
    return ModeMatrix(m, gamma, ((a, b), (Fraction(0), a)))


def dtn_inverse(m: int, gamma: int, no_invariant_linear: bool = False) -> ModeMatrix:
    """Exact 2x2 inverse of the mode matrix: [[1/a, -b/a^2], [0, 1/a]]."""
    (a, b), _ = dtn_mode_matrix(m, gamma, no_invariant_linear).entries
    return ModeMatrix(m, gamma, ((1 / a, -b / (a * a)), (Fraction(0), 1 / a)))
