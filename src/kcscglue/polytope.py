"""Lattice polytopes of pluri-anticanonical polarizations.

The k-anticanonical polytope of a complete simplicial fan (one that passes
validate_fan) is the region <u, v_rho> >= -k over all rays.  Vertices come
one per maximal cone (the moment image of the chart's torus-fixed point),
each -k times the cone's cached height-one solve; they are deduplicated as
integer vectors over one denominator, and the polytope keeps the index of
each cone's vertex as the moment correspondence.  The barycenter (by the
Brion-Lawrence formula) and, when the cone vertices are pairwise distinct,
the faces are read off the cones' cached integer inverses p·V^{-1}.
Otherwise faces come from a face lattice, by facet incidence on the
scaled-integer vertices (D, D * vertices), D the lcm of the vertex
denominators.  Only the output is Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm, prod
from typing import Optional, Sequence

from .exact_linalg import frac
from .toric_lattice import Cone, Fan

QVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class LatticePolytope:
    """H-representation <u, normal_i> >= offset_i plus derived exact vertices.

    For anticanonical polytopes every offset equals -k.  Vertices are given
    sorted, so vertex indices order like the vertices.  A polytope built
    from a fan keeps the fan and the moment correspondence
    cone_vertex_index (the index of each cone's vertex, in fan order);
    other polytopes have neither.  Neither is part of equality.
    """

    dim: int
    k: Optional[int]
    facet_normals: tuple[tuple[int, ...], ...]
    facet_offsets: tuple[Fraction, ...]
    vertices: tuple[QVector, ...]
    cone_vertex_index: tuple[int, ...] = field(default=(), compare=False)
    fan: Optional[Fan] = field(default=None, compare=False)

    @property
    def cone_vertices(self) -> tuple[tuple[str, QVector], ...]:
        """(cone label, vertex) in fan order; empty without a fan."""
        if self.fan is None:
            return ()
        return tuple(
            (label, self.vertices[i]) for label, i in zip(self.fan.labels, self.cone_vertex_index)
        )

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
        mapped to their affine dimension.  Includes the polytope itself.
        Facet i holds the vertices with <normal_i, D v> = D offset_i.

        A facet set H not containing a face F misses a vertex of F, which
        lies off H's hyperplane, so dim(F & H) < dim F.  When the vertex
        list is every vertex of the polytope, each face is the intersection
        of the facets containing it and each facet of F is some F & H
        (Ziegler, Lectures on Polytopes, 2.2), so dim F = 1 + max dim(F & H)
        with dim(empty) = -1.
        """
        d, scaled = self.integer_vertices
        if not scaled:
            return {frozenset(): -1}
        facets = {
            sum(
                1 << i
                for i, v in enumerate(scaled)
                if sum(a * b for a, b in zip(n, v)) * o.denominator == o.numerator * d
            )
            for n, o in zip(self.facet_normals, self.facet_offsets)
        }
        facets.discard(0)
        found = {(1 << len(scaled)) - 1} | facets
        frontier = facets
        while frontier:
            frontier = {f & g for f in frontier for g in facets if f & g} - found
            found |= frontier
        dims = {0: -1}
        for f in sorted(found, key=int.bit_count):
            dims[f] = 1 + max([dims[f & h] for h in facets if f & h != f], default=-1)
        del dims[0]
        return {frozenset(_bits(f)): dim for f, dim in dims.items()}


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _cone_vertex(fan: Fan, k: int, cone: Cone) -> tuple[list[int], int]:
    """The cone's vertex u = num / p, <u, v_i> = -k over its generators, as
    (num, p): -k times the cone's height-one solve.  A vertex that violates
    a facet inequality raises ValueError."""
    if cone.height_one is None:
        raise ValueError("degenerate cone: singular vertex system")
    unit, p = cone.height_one
    num = [-k * x for x in unit]
    for ray in fan.rays:
        # <ray, u> + k = (<ray, num> + k p) / p, negative iff a violation
        if (sum(r * x for r, x in zip(ray, num)) + k * p) * p < 0:
            point = ", ".join(str(Fraction(x, p)) for x in num)
            raise ValueError(f"cone vertex ({point}) violates facet of ray {ray}")
    return num, p


def vertex_for_cone(fan: Fan, k: int, cone: Cone) -> QVector:
    """The unique u with <u, v_i> = -k over the cone's generators.

    This is the moment image of the torus-fixed point of the cone's chart;
    it must satisfy every facet inequality of the k-anticanonical polytope.
    """
    num, p = _cone_vertex(fan, k, cone)
    return tuple(Fraction(x, p) for x in num)


def moment_assignment(fan: Fan, k: int) -> list[tuple[str, QVector]]:
    """Cone label -> polytope vertex correspondence, in fan order."""
    return [(label, vertex_for_cone(fan, k, cone)) for label, cone in fan.cones()]


def anticanonical_polytope(fan: Fan, k: int) -> LatticePolytope:
    """Vertices of {<u, v_rho> >= -k} via the one-vertex-per-cone shortcut,
    for a fan that passes validate_fan (ValueError otherwise); a cone vertex
    that violates a facet (-K not nef) raises ValueError.  The cone vertices
    are deduplicated and sorted as integer vectors over one common
    denominator, which orders them as the rationals they stand for, and
    each distinct one becomes Fractions once.  The moment correspondence is
    kept as ``cone_vertex_index``, and the fan with it."""
    if k < 1:
        raise ValueError("anticanonical multiple k must be >= 1")
    if not fan.validation.valid:
        raise ValueError("invalid fan: " + "; ".join(fan.validation.violations))
    solved = [_cone_vertex(fan, k, cone) for _, cone in fan.cones()]
    d = lcm(*(abs(p) for _, p in solved))
    scaled = [tuple(x * (d // p) for x in num) for num, p in solved]
    distinct = sorted(set(scaled))
    index = {v: i for i, v in enumerate(distinct)}
    return LatticePolytope(
        dim=fan.dim,
        k=k,
        facet_normals=tuple(tuple(n) for n in fan.rays),
        facet_offsets=(Fraction(-k),) * len(fan.rays),
        vertices=tuple(tuple(Fraction(x, d) for x in v) for v in distinct),
        cone_vertex_index=tuple(index[v] for v in scaled),
        fan=fan,
    )


def faces(p: LatticePolytope, d: int, items: Optional[Sequence] = None) -> list[tuple]:
    """Faces of dimension d as sorted vertex tuples, deterministically ordered;
    with ``items`` (one per vertex) each vertex i is given as items[i].

    When a fan's cone vertices are pairwise distinct, -K is ample and the
    fan is the normal fan of p, so the d-faces are the vertex sets of the
    cones through each (dim - d)-subset of a cone (Cox-Little-Schenck 2011,
    2.3); otherwise they come from the face lattice.
    """
    fan = p.fan
    if fan is None or len(p.vertices) < len(fan.max_cones) or d > p.dim:
        found = [f for f, fd in p.face_lattice.items() if fd == d]
    else:
        through: dict[tuple[int, ...], list[int]] = {}
        for idx, i in zip(fan.max_cones, p.cone_vertex_index):
            for tau in combinations(sorted(idx), p.dim - d):
                through.setdefault(tau, []).append(i)
        found = list(through.values())
    items = p.vertices if items is None else items
    return [tuple(items[i] for i in f) for f in sorted(tuple(sorted(f)) for f in found)]


def polytope_barycenter(p: LatticePolytope) -> QVector:
    """Exact volume-weighted centroid of a fan's polytope, by the
    Brion-Lawrence vertex-cone formula (Brion 1988, Lawrence 1991).

    A cone with inverse columns A_j over p has vertex x = -k S / p, S = sum
    A_j, and tangent cone spanned by the A_j / p.  With alpha_j = <c, A_j>
    for the fan's generic direction c, s = sum alpha_j, Pi = prod alpha_j and
    Q = |p| (-1)^d Pi, the integral of e^<c, u> is sum e^<c, x> p^d / Q over
    the cones.  Its degree-d term in c is the volume and the gradient of its
    degree-(d+1) term the moment: with N_i = sum_j A_ij Pi / alpha_j,
        b_i = -k/(d+1) · sum s^d ((d+1) S_i Pi - s N_i) / (p Q Pi) / sum s^d / Q.
    Over the common denominator L^2, L = lcm |p Pi|, both sums are integers.
    """
    fan = p.fan
    if fan is None:
        raise ValueError("the barycenter is read off the cones of a fan")
    d = p.dim
    inverses = [fan.cone(i).inverse for i in range(len(fan.max_cones))]
    pairings = fan.generic_direction[1]
    big_l = lcm(*(abs(q * prod(alphas)) for (_, q), alphas in zip(inverses, pairings)))
    volume = 0
    moment = [0] * d
    for (columns, q), alphas in zip(inverses, pairings):
        s = sum(alphas)
        pi = prod(alphas)
        scale = (big_l // abs(q * pi)) ** 2 * s**d
        volume += scale * abs(q) * pi
        # (d+1) S_i Pi - s N_i = sum_j A_ij ((d+1) Pi - s Pi / alpha_j)
        weights = [(d + 1) * pi - s * (pi // a) for a in alphas]
        scale = scale if q > 0 else -scale
        for i in range(d):
            moment[i] += scale * sum(col[i] * w for col, w in zip(columns, weights))
    return tuple(Fraction(-p.k * x, (d + 1) * volume) for x in moment)


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
