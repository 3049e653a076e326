"""Sphere-Laplacian bookkeeping and invariant harmonic dimensions.

Eigenvalues on S^{2m-1}, dimensions of harmonic eigenspaces, the dimensions
of their Gamma-invariant subspaces by counting invariant monomials (the
diagonal case of Molien's formula), the first invariant index in closed
form, indicial-root sets and weighted-space admissibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .toric_lattice import GroupPresentation

BASE_ORBIFOLD_M3 = "base_orbifold_m3"
BASE_ORBIFOLD_M2 = "base_orbifold_m2"
ALE = "ale"
NONLINEAR = "nonlinear"


def eigenvalue(j: int, m: int) -> int:
    """Eigenvalue of the Laplacian on S^{2m-1} at mode index j (no multiplicity)."""
    if j < 0 or m < 2:
        raise ValueError("need j >= 0 and m >= 2")
    return -j * (2 * m - 2 + j)


def harmonic_dimension(j: int, m: int) -> int:
    """Dimension of the degree-j harmonic eigenspace on S^{2m-1}."""
    if j < 0 or m < 1:
        raise ValueError("need j >= 0 and m >= 1")
    n = 2 * m
    second = comb(n + j - 3, j - 2) if j >= 2 else 0
    return comb(n + j - 1, j) - second


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
class IndicialRoots:
    """All integers minus a contiguous excluded band."""

    m: int
    excluded: tuple[int, ...]

    def contains(self, value: int) -> bool:
        return value not in self.excluded


def indicial_roots(m: int, operator_context: str = "base") -> IndicialRoots:
    """Indicial roots of the Laplacian at a cone point / at infinity.

    Both the orbifold-point and ALE-infinity contexts share the same set:
    all integers except 5-2m..-1 (empty band for m = 2).
    """
    if m < 2:
        raise ValueError("m >= 2")
    if operator_context not in ("base", "ale"):
        raise ValueError(f"unknown operator context {operator_context!r}")
    return IndicialRoots(m=m, excluded=tuple(range(5 - 2 * m, 0)))


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


def is_admissible_weight(delta, m: int, context: str) -> bool:
    """Whether the weight avoids the context's Fredholm obstructions."""
    if m < 2:
        raise ValueError("m >= 2")
    d = delta if isinstance(delta, Fraction) else Fraction(delta)
    if context in (BASE_ORBIFOLD_M3, BASE_ORBIFOLD_M2, NONLINEAR):
        iv = weight_interval(context, m)
        return iv.lower < d < iv.upper
    if context == ALE:
        # Excluded: l + m and 4 - m - l for l in N, i.e. integers >= m
        # and integers <= 4 - m.
        if d.denominator != 1:
            return True
        z = int(d)
        return not (z >= m or z <= 4 - m)
    raise ValueError(f"unknown weight context {context!r}")
