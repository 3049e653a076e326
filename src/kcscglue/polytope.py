"""Lattice polytopes of pluri-anticanonical polarizations.

The k-anticanonical polytope of a complete simplicial fan is the region
<u, v_rho> >= -k over all rays.  Vertices come one per maximal cone (the
moment image of the chart's torus-fixed point), each one integer solve,
kept on the polytope as the moment correspondence; faces come from facet
incidence through a face lattice built once per polytope; barycenters are
exact volume-weighted centroids over a pulling triangulation of it.  All of
this is scaled-integer arithmetic on (D, D * vertices), D the lcm of the
vertex denominators, kept once per polytope; only the output is Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

from .exact_linalg import (
    RationalMatrix,
    frac,
    integer_determinant,
    integer_rank,
    integer_solve,
    positive_kernel_witness,
)
from .toric_lattice import Cone, Fan

QVector = tuple[Fraction, ...]


class UnboundedRegionError(ValueError):
    """H-representation region is unbounded (fan not complete)."""


class DegeneratePolytopeError(ValueError):
    """Polytope is not full-dimensional."""


@dataclass(frozen=True)
class LatticePolytope:
    """H-representation <u, normal_i> >= offset_i plus derived exact vertices.

    For anticanonical polytopes every offset equals -k.  Vertices are given
    sorted, so vertex indices order like the vertices.  cone_vertices
    is the moment correspondence (cone label -> vertex, in fan order) of a
    polytope built from a fan, empty otherwise; it is not part of equality.
    """

    dim: int
    k: Optional[int]
    facet_normals: tuple[tuple[int, ...], ...]
    facet_offsets: tuple[Fraction, ...]
    vertices: tuple[QVector, ...]
    cone_vertices: tuple[tuple[str, QVector], ...] = field(default=(), compare=False)

    @cached_property
    def integer_vertices(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, D * vertices) with D the lcm of every vertex denominator."""
        d = lcm(1, *(x.denominator for v in self.vertices for x in v))
        return d, tuple(
            tuple(x.numerator * (d // x.denominator) for x in v) for v in self.vertices
        )

    @cached_property
    def face_lattice(self) -> dict[frozenset[int], int]:
        """All faces as vertex-index sets (via facet-intersection closure),
        mapped to their affine dimension, the integer rank of their edge
        rows.  Includes the polytope itself.  Facet i holds the vertices
        with <normal_i, D v> = D offset_i."""
        d, scaled = self.integer_vertices
        facets = {
            frozenset(
                i
                for i, v in enumerate(scaled)
                if sum(a * b for a, b in zip(n, v)) * o.denominator == o.numerator * d
            )
            for n, o in zip(self.facet_normals, self.facet_offsets)
        }
        found: set[frozenset[int]] = {frozenset(range(len(self.vertices)))}
        frontier = {f for f in facets if f}
        found |= frontier
        while frontier:
            frontier = {f & g for f in frontier for g in facets if f & g} - found
            found |= frontier
        return {f: integer_rank(_edges([scaled[i] for i in f])) if f else -1 for f in found}


def _edges(points: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """Edge rows p_i - p_0 of a nonempty point list."""
    return [[x - b for x, b in zip(v, points[0])] for v in points[1:]]


def _check_bounded(dim: int, normals: Sequence[tuple[int, ...]]) -> None:
    """The region is bounded iff the normals positively span R^m."""
    rows = [[n[i] for n in normals] for i in range(dim)]
    if integer_rank(rows) < dim or positive_kernel_witness(RationalMatrix.from_rows(rows)) is None:
        raise UnboundedRegionError(
            "facet normals do not positively span the ambient space"
        )


def vertex_for_cone(fan: Fan, k: int, cone: Cone) -> QVector:
    """The unique u with <u, v_i> = -k over the cone's generators.

    This is the moment image of the torus-fixed point of the cone's chart;
    it must satisfy every facet inequality of the k-anticanonical polytope.
    """
    try:
        num, p = integer_solve(cone.generators, [-k] * len(cone.generators))
    except ValueError:
        raise ValueError("degenerate cone: singular vertex system")
    u = tuple(Fraction(x, p) for x in num)
    for ray in fan.rays:
        # <ray, u> + k = (<ray, num> + k p) / p, negative iff a violation
        if (sum(r * x for r, x in zip(ray, num)) + k * p) * p < 0:
            raise ValueError(f"cone vertex {u} violates facet of ray {ray}")
    return u


def moment_assignment(fan: Fan, k: int) -> list[tuple[str, QVector]]:
    """Cone label -> polytope vertex correspondence, in fan order."""
    return [(label, vertex_for_cone(fan, k, cone)) for label, cone in fan.cones()]


def anticanonical_polytope(fan: Fan, k: int) -> LatticePolytope:
    """Vertices of {<u, v_rho> >= -k} via the one-vertex-per-cone shortcut,
    valid for complete simplicial fans; a cone vertex that violates a facet
    (overlapping cones) raises ValueError.  The moment correspondence is
    kept as ``cone_vertices``."""
    if k < 1:
        raise ValueError("anticanonical multiple k must be >= 1")
    _check_bounded(fan.dim, fan.rays)
    assignment = moment_assignment(fan, k)
    return LatticePolytope(
        dim=fan.dim,
        k=k,
        facet_normals=tuple(tuple(n) for n in fan.rays),
        facet_offsets=(Fraction(-k),) * len(fan.rays),
        vertices=tuple(sorted({u for _, u in assignment})),
        cone_vertices=tuple(assignment),
    )


def faces(p: LatticePolytope, d: int) -> list[tuple[QVector, ...]]:
    """Faces of dimension d as sorted vertex tuples, deterministically ordered."""
    index_tuples = sorted(tuple(sorted(f)) for f, fd in p.face_lattice.items() if fd == d)
    return [tuple(p.vertices[i] for i in f) for f in index_tuples]


def _pulling_triangulation(
    lattice: dict[frozenset[int], int], top: frozenset[int]
) -> list[tuple[int, ...]]:
    """Triangulate face top by coning its lowest-index (lex-smallest) vertex
    over its far subfaces, recursively; simplices are vertex-index tuples."""
    by_dim: dict[int, list[frozenset[int]]] = {}
    for f, d in lattice.items():
        by_dim.setdefault(d, []).append(f)

    cache: dict[frozenset[int], list[tuple[int, ...]]] = {}

    def tri(face: frozenset[int]) -> list[tuple[int, ...]]:
        if face in cache:
            return cache[face]
        d = lattice[face]
        if d == 0:
            result = [tuple(face)]
        else:
            apex = min(face)
            result = []
            for sub in by_dim.get(d - 1, []):
                if sub < face and apex not in sub:
                    for simplex in tri(sub):
                        result.append((apex,) + simplex)
        cache[face] = result
        return result

    return tri(top)


def polytope_barycenter(p: LatticePolytope) -> QVector:
    """Exact volume-weighted centroid.

    Each simplex of the pulling triangulation contributes its vertex average
    weighted by |det| of its edge matrix (the 1/m! normalization cancels).
    On the scaled vertices D v weights and vertex sums are integers, so each
    coordinate is one division: sum(w * sum D v_i) / (sum(w) * D * (m + 1)).
    """
    m = p.dim
    lattice = p.face_lattice
    top = frozenset(range(len(p.vertices)))
    if lattice[top] < m:
        raise DegeneratePolytopeError("polytope is not full-dimensional")
    d, scaled = p.integer_vertices
    total = 0
    acc = [0] * m
    for simplex in _pulling_triangulation(lattice, top):
        w = abs(integer_determinant(_edges([scaled[i] for i in simplex])))
        total += w
        for i in range(m):
            acc[i] += w * sum(scaled[j][i] for j in simplex)
    if total == 0:
        raise DegeneratePolytopeError("zero volume")
    return tuple(Fraction(a, total * d * (m + 1)) for a in acc)


def subset_barycenter(points: Sequence[Sequence]) -> QVector:
    """Exact arithmetic mean of a nonempty list of points."""
    if not points:
        raise ValueError("empty point list")
    pts = [[frac(x) for x in p] for p in points]
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("points of mixed dimension")
    n = len(pts)
    return tuple(sum(p[i] for p in pts) / n for i in range(dim))
