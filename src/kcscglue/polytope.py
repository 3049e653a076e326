"""Lattice polytopes of pluri-anticanonical polarizations.

The k-anticanonical polytope of a complete simplicial fan (one that passes
validate_fan) is the region <u, v_rho> >= -k over all rays.  Vertices come
one per maximal cone (the moment image of the chart's torus-fixed point),
each -k times the cone's cached height-one solve; they are deduplicated as
integer vectors over one denominator, and the polytope keeps the index of
each cone's vertex as the moment correspondence.  -K is nef iff its support
function is convex across every wall of the fan's wall table, so each wall
is one pairing: one side's vertex against the other side's extra ray
(Cox-Little-Schenck 2011, 6.1).  The barycenter (by the Brion-Lawrence
formula) and the faces are read off the cones: the faces by one rule on the
vertex sets of the cones through each cone tau, which is exact whether or
not the cone vertices are distinct.  Only the output is Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from operator import mul
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


def vertex_for_cone(fan: Fan, k: int, cone: Cone) -> QVector:
    """The unique u with <u, v_i> = -k over the cone's generators: -k times
    the cone's height-one solve.  This is the moment image of the
    torus-fixed point of the cone's chart; whether it satisfies every facet
    inequality of the fan's polytope is anticanonical_polytope's test."""
    if cone.height_one is None:
        raise ValueError("degenerate cone: singular vertex system")
    unit, p = cone.height_one
    return tuple(Fraction(-k * x, p) for x in unit)


def moment_assignment(fan: Fan, k: int) -> list[tuple[str, QVector]]:
    """Cone label -> polytope vertex correspondence, in fan order."""
    return list(anticanonical_polytope(fan, k).cone_vertices)


def anticanonical_polytope(fan: Fan, k: int) -> LatticePolytope:
    """Vertices of {<u, v_rho> >= -k} via the one-vertex-per-cone shortcut,
    for a fan that passes validate_fan (ValueError otherwise).

    -K is nef iff across each wall, cone c's vertex num / p satisfies the
    facet of the other cone's extra ray v', (<v', num> + k p) p >= 0; else
    ValueError names that vertex and ray, at the first such wall of
    Fan.walls.  One side per wall suffices: the two cones' vertices differ
    by a multiple of the wall's normal, and v' and c's own extra ray lie on
    opposite sides of the wall, so the sign is the same from either side.
    The cone vertices are deduplicated and sorted as integer vectors over
    one common denominator, which orders them as the rationals they stand
    for, and each distinct one becomes Fractions once.  The moment
    correspondence is kept as ``cone_vertex_index``, and the fan with it."""
    if k < 1:
        raise ValueError("anticanonical multiple k must be >= 1")
    if not fan.validation.valid:
        raise ValueError("invalid fan: " + "; ".join(fan.validation.violations))
    solved = []
    for _, cone in fan.cones():
        unit, p = cone.height_one
        solved.append(([-k * x for x in unit], p))
    for (c, _), (c2, j2) in fan.walls.values():
        num, p = solved[c]
        ray = fan.rays[fan.max_cones[c2][j2]]
        # <ray, u> + k = (<ray, num> + k p) / p, negative iff a violation
        if (sum(map(mul, ray, num)) + k * p) * p < 0:
            point = ", ".join(str(Fraction(x, p)) for x in num)
            raise ValueError(f"cone vertex ({point}) violates facet of ray {ray}")
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
    """Faces of dimension d of a fan's polytope as sorted vertex tuples,
    deterministically ordered; with ``items`` (one per vertex) each vertex
    i is given as items[i].

    For a cone tau of the fan, F_tau = {u : <u, v_i> = -k, i in tau} is a
    face whose vertices are those of the cones through tau.  Its normal cone
    N(F_tau) is a union of cones of the fan and contains tau, and dim F_tau
    = m - dim N(F_tau).  The d-faces are the F_tau with |tau| = m - d and
    dim N(F_tau) = |tau|, each arising from some such tau.  When dim N(F_tau)
    > |tau|, the cones of the fan in N(F_tau) form a pure fan, so some cone
    tau + {ray} through tau lies in N(F_tau) and has the same face; and a
    cone tau + {ray} with the same face puts that ray in N(F_tau).  So F_tau
    is a d-face unless a cone tau + {ray} has the same vertex set.  When the
    cone vertices are pairwise distinct, -K is ample, the fan is the normal
    fan of p and distinct cones give distinct faces, so every F_tau is a d-face
    (Cox-Little-Schenck 2011, 2.3).
    """
    fan = p.fan
    if fan is None:
        raise ValueError("the faces are read off the cones of a fan")
    if not 0 <= d <= p.dim:
        return []

    def through(size: int) -> dict[tuple[int, ...], set[int]]:
        """The vertex set of the cones through each size-subset of a cone."""
        out: dict[tuple[int, ...], set[int]] = {}
        for idx, i in zip(fan.max_cones, p.cone_vertex_index):
            for tau in combinations(sorted(idx), size):
                out.setdefault(tau, set()).add(i)
        return out

    found = through(p.dim - d)
    if len(p.vertices) < len(fan.max_cones):
        shared = {
            tau
            for wider, vertices in through(p.dim - d + 1).items()
            for tau in combinations(wider, len(wider) - 1)
            if found[tau] == vertices
        }
        found = {tau: f for tau, f in found.items() if tau not in shared}
    items = p.vertices if items is None else items
    return [tuple(items[i] for i in f) for f in sorted({tuple(sorted(f)) for f in found.values()})]


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
