"""Lattice polytopes of pluri-anticanonical polarizations.

The k-anticanonical polytope of a complete simplicial fan is the region
<u, v_rho> >= -k over all rays.  Vertices come one per maximal cone (the
moment image of the chart's torus-fixed point), each solved once and kept
on the polytope as the moment correspondence; faces come from facet
incidence through a face lattice built once per polytope; barycenters are
exact volume-weighted centroids over a pulling triangulation of that
lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .exact_linalg import (
    RationalMatrix,
    frac,
    positive_kernel_witness,
    rank,
    rational_determinant,
    solve_square,
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

    For anticanonical polytopes every offset equals -k.  facet_vertices[i]
    lists (indices of) the vertices saturating inequality i.  cone_vertices
    is the moment correspondence (cone label -> vertex, in fan order) of a
    polytope built from a fan, empty otherwise; it is not part of equality.
    """

    dim: int
    k: Optional[int]
    facet_normals: tuple[tuple[int, ...], ...]
    facet_offsets: tuple[Fraction, ...]
    vertices: tuple[QVector, ...]
    facet_vertices: tuple[tuple[int, ...], ...]
    cone_vertices: tuple[tuple[str, QVector], ...] = field(default=(), compare=False)

    def contains(self, point: Sequence) -> bool:
        p = [frac(x) for x in point]
        return all(
            sum(n_i * x_i for n_i, x_i in zip(n, p)) >= o
            for n, o in zip(self.facet_normals, self.facet_offsets)
        )

    @cached_property
    def face_lattice(self) -> dict[frozenset[int], int]:
        """All faces as vertex-index sets (via facet-intersection closure),
        mapped to their affine dimension.  Includes the polytope itself."""
        facets = {frozenset(fv) for fv in self.facet_vertices}
        found: set[frozenset[int]] = {frozenset(range(len(self.vertices)))}
        frontier = {f for f in facets if f}
        found |= frontier
        while frontier:
            frontier = {f & g for f in frontier for g in facets if f & g} - found
            found |= frontier
        return {f: _affine_dim([self.vertices[i] for i in f]) for f in found}


def _check_bounded(dim: int, normals: Sequence[tuple[int, ...]]) -> None:
    """The region is bounded iff the normals positively span R^m."""
    mat = RationalMatrix.from_rows([[n[i] for n in normals] for i in range(dim)])
    if rank(mat) < dim or positive_kernel_witness(mat) is None:
        raise UnboundedRegionError(
            "facet normals do not positively span the ambient space"
        )


def vertex_for_cone(fan: Fan, k: int, cone: Cone) -> QVector:
    """The unique u with <u, v_i> = -k over the cone's generators.

    This is the moment image of the torus-fixed point of the cone's chart;
    it must satisfy every facet inequality of the k-anticanonical polytope.
    """
    mat = RationalMatrix.from_rows([list(g) for g in cone.generators])
    try:
        u = solve_square(mat, [-k] * len(cone.generators))
    except ValueError:
        raise ValueError("degenerate cone: singular vertex system")
    for ray in fan.rays:
        if sum(r * x for r, x in zip(ray, u)) < -k:
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
    vertices = tuple(sorted({u for _, u in assignment}))
    facet_vertices = tuple(
        tuple(
            i
            for i, v in enumerate(vertices)
            if sum(ni * vi for ni, vi in zip(n, v)) == -k
        )
        for n in fan.rays
    )
    return LatticePolytope(
        dim=fan.dim,
        k=k,
        facet_normals=tuple(tuple(n) for n in fan.rays),
        facet_offsets=(Fraction(-k),) * len(fan.rays),
        vertices=vertices,
        facet_vertices=facet_vertices,
        cone_vertices=tuple(assignment),
    )


def _affine_dim(points: Sequence[QVector]) -> int:
    if not points:
        return -1
    base = points[0]
    if len(points) == 1:
        return 0
    rows = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    return rank(RationalMatrix.from_rows(rows))


def faces(p: LatticePolytope, d: int) -> list[tuple[QVector, ...]]:
    """Faces of dimension d as sorted vertex tuples, deterministically ordered."""
    out = []
    for f, fd in p.face_lattice.items():
        if fd == d:
            out.append(tuple(sorted(p.vertices[i] for i in f)))
    return sorted(out)


def _pulling_triangulation(
    p: LatticePolytope, lattice: dict[frozenset[int], int]
) -> list[tuple[int, ...]]:
    """Triangulate by recursively coning the lex-smallest vertex over the
    far subfaces; returns simplices as vertex-index tuples."""
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
            apex = min(face, key=lambda i: p.vertices[i])
            result = []
            for sub in by_dim.get(d - 1, []):
                if sub < face and apex not in sub:
                    for simplex in tri(sub):
                        result.append((apex,) + simplex)
        cache[face] = result
        return result

    top = frozenset(range(len(p.vertices)))
    return tri(top)


def polytope_barycenter(p: LatticePolytope) -> QVector:
    """Exact volume-weighted centroid.

    Each simplex of the pulling triangulation contributes its vertex average
    weighted by |det| of its edge matrix (the 1/m! normalization cancels).
    """
    m = p.dim
    if _affine_dim(p.vertices) < m:
        raise DegeneratePolytopeError("polytope is not full-dimensional")
    lattice = p.face_lattice
    total = Fraction(0)
    acc = [Fraction(0)] * m
    for simplex in _pulling_triangulation(p, lattice):
        verts = [p.vertices[i] for i in simplex]
        base = verts[0]
        edges = RationalMatrix.from_rows(
            [[v[i] - base[i] for i in range(m)] for v in verts[1:]]
        )
        w = abs(rational_determinant(edges))
        if w == 0:
            continue
        total += w
        for i in range(m):
            acc[i] += w * sum(v[i] for v in verts) / (m + 1)
    if total == 0:
        raise DegeneratePolytopeError("zero volume")
    return tuple(a / total for a in acc)


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
