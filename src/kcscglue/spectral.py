"""Sphere-Laplacian bookkeeping and invariant harmonic dimensions.

Eigenvalues on S^{2m-1}, the dimensions of the Gamma-invariant harmonic
eigenspaces by counting invariant monomials (the diagonal case of Molien's
formula), the first invariant index in closed form and the open weight
intervals of the weighted spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .toric_lattice import GroupPresentation

BASE_ORBIFOLD_M3 = "base_orbifold_m3"
BASE_ORBIFOLD_M2 = "base_orbifold_m2"
NONLINEAR = "nonlinear"


def eigenvalue(j: int, m: int) -> int:
    """Eigenvalue of the Laplacian on S^{2m-1} at mode index j (no multiplicity)."""
    if j < 0 or m < 2:
        raise ValueError("need j >= 0 and m >= 2")
    return -j * (2 * m - 2 + j)


def invariant_harmonic_dimension(g: GroupPresentation, j: int, m: int) -> int:
    """Dimension of the Gamma-invariant part of the degree-j harmonic space.

    Gamma acts diagonally on the monomials z^a zbar^b, so the invariant
    polynomials of degree j are spanned by the invariant monomials, and the
    harmonics are P_j minus r^2 P_{j-2}.  The monomials are counted by a
    dynamic program over the 2m coordinates, by degree and character.
    """
    if g.m != m:
        raise ValueError("presentation dimension mismatch")
    if j < 0:
        raise ValueError("j >= 0")
    # Character of z_i, then of zbar_i, in the sum of the Z/d_k.
    chars = [tuple(w[i] for w in g.weights) for i in range(m)]
    chars += [tuple(-x % d for x, d in zip(c, g.orders)) for c in chars]
    zero = tuple(0 for _ in g.orders)
    # counts[t][r]: monomials of degree t and character r in the
    # coordinates processed so far.
    counts: list[dict[tuple[int, ...], int]] = [{zero: 1}] + [{} for _ in range(j)]
    for c in chars:
        for t in range(1, j + 1):
            layer = counts[t]
            for r, n in counts[t - 1].items():
                s = tuple((x + y) % d for x, y, d in zip(r, c, g.orders))
                layer[s] = layer.get(s, 0) + n
    lower = counts[j - 2].get(zero, 0) if j >= 2 else 0
    return counts[j].get(zero, 0) - lower


def first_invariant_index(g: GroupPresentation, m: int) -> int:
    """Smallest j >= 1 with a nonzero Gamma-invariant harmonic subspace.

    Degree-one harmonics are the linear functions, invariant exactly when
    some coordinate has weight 0 in every factor; otherwise the index is 2,
    since |z1|^2 - |z2|^2 is always invariant and harmonic.  The trivial
    group has index 1 by this rule.
    """
    if g.m != m:
        raise ValueError("presentation dimension mismatch")
    if m < 2:
        raise ValueError("need m >= 2")
    fixed = any(all(w[i] == 0 for w in g.weights) for i in range(m))
    return 1 if fixed else 2


@dataclass(frozen=True)
class WeightInterval:
    context: str
    lower: Fraction
    upper: Fraction


def weight_interval(context: str, m: int) -> WeightInterval:
    if context == BASE_ORBIFOLD_M3:
        if m < 3:
            raise ValueError("context requires m >= 3")
        return WeightInterval(context, Fraction(4 - 2 * m), Fraction(0))
    if context == BASE_ORBIFOLD_M2:
        if m != 2:
            raise ValueError("context requires m = 2")
        return WeightInterval(context, Fraction(0), Fraction(1))
    if context == NONLINEAR:
        return WeightInterval(context, Fraction(4 - 2 * m), Fraction(5 - 2 * m))
    raise ValueError(f"no open interval for context {context!r}")
