import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from conftest import (
    affine_dim_fraction,
    barycenter_fraction,
    face_dims_by_tight_facets,
    facet_incidence_fraction,
    polytope_from_h_rep,
    solve_cramer,
)
from kcscglue.examples import example_by_name
from kcscglue.exact_linalg import integer_determinant, unimodular_inverse
from kcscglue.formats import parse_fan
from kcscglue.polytope import (
    DegeneratePolytopeError,
    UnboundedRegionError,
    anticanonical_polytope,
    faces,
    moment_assignment,
    polytope_barycenter,
    subset_barycenter,
    vertex_for_cone,
)
from kcscglue.toric_lattice import Cone, Fan

X1 = parse_fan(example_by_name("x1").text).to_fan()
X4 = parse_fan(example_by_name("x4").text).to_fan()
X1_ANN = example_by_name("x1").annotations
X4_ANN = example_by_name("x4").annotations

P1_FAN = Fan(dim=1, rays=((1,), (-1,)), max_cones=((0,), (1,)))
P2_FAN = Fan(
    dim=2,
    rays=((1, 0), (0, 1), (-1, -1)),
    max_cones=((0, 1), (1, 2), (2, 0)),
)


def ivert(p):
    return {tuple(int(x) for x in v) for v in p.vertices}


class TestAnticanonicalPolytope:
    def test_x1_vertices(self):
        p = anticanonical_polytope(X1, 3)
        assert ivert(p) == set(X1_ANN["vertices"])
        assert len(p.vertices) == 12

    def test_x4_vertices(self):
        p = anticanonical_polytope(X4, 5)
        assert ivert(p) == set(X4_ANN["vertices"])
        assert len(p.vertices) == 8

    def test_segment(self):
        p = anticanonical_polytope(P1_FAN, 1)
        assert ivert(p) == {(-1,), (1,)}

    def test_incomplete_fan_rejected(self):
        fan = Fan(dim=2, rays=((1, 0), (0, 1)), max_cones=((0, 1),))
        with pytest.raises(UnboundedRegionError):
            anticanonical_polytope(fan, 1)

    def test_overlapping_cones_rejected(self):
        # P2 plus the ray (1, 1) and a cone overlapping the first one: the
        # first cone's vertex violates the new facet
        fan = Fan(
            dim=2,
            rays=((1, 0), (0, 1), (-1, -1), (1, 1)),
            max_cones=((0, 1), (1, 2), (2, 0), (0, 3)),
        )
        with pytest.raises(ValueError, match="violates facet of ray"):
            anticanonical_polytope(fan, 1)

    def test_every_vertex_satisfies_every_facet(self):
        for fan, k in ((X1, 3), (X4, 5), (P2_FAN, 1)):
            p = anticanonical_polytope(fan, k)
            for v in p.vertices:
                for n in p.facet_normals:
                    assert sum(ni * vi for ni, vi in zip(n, v)) >= -k

    def test_matches_h_rep_enumeration_oracle(self):
        for fan, k in ((X1, 3), (X4, 5), (P2_FAN, 1), (P1_FAN, 2)):
            fast = anticanonical_polytope(fan, k)
            slow = polytope_from_h_rep(fan.rays, [-k] * len(fan.rays))
            assert fast.vertices == slow.vertices
            # the moment correspondence rides along but is not part of
            # equality: the oracle leaves it empty
            assert list(fast.cone_vertices) == moment_assignment(fan, k)
            assert slow.cone_vertices == ()
            assert fast == slow


class TestVertexForCone:
    def test_x1_correspondences(self):
        for label, vertex in X1_ANN["correspondences"].items():
            idx = X1.labels.index(label)
            got = vertex_for_cone(X1, 3, X1.cone(idx))
            assert tuple(int(x) for x in got) == vertex

    def test_x4_facet_triples(self):
        # incidences keyed by facet-ray triples, independent of cone labels
        for rays_1based, vertex in X4_ANN["facet_triples"]:
            cone = Cone(tuple(X4.rays[i - 1] for i in rays_1based))
            got = vertex_for_cone(X4, 5, cone)
            assert tuple(int(x) for x in got) == vertex

    def test_images_cover_vertex_set(self):
        for fan, k in ((X1, 3), (X4, 5), (P2_FAN, 1)):
            p = anticanonical_polytope(fan, k)
            images = {vertex_for_cone(fan, k, cone) for _, cone in fan.cones()}
            assert images == set(p.vertices)

    def test_assignment_injective(self):
        for fan, k in ((X1, 3), (X4, 5)):
            assignment = moment_assignment(fan, k)
            assert len({v for _, v in assignment}) == len(assignment)

    def test_degenerate_cone(self):
        fan = P2_FAN
        bad = Cone.from_rows([(1, 0), (2, 0)])
        with pytest.raises(ValueError):
            vertex_for_cone(fan, 1, bad)


class TestFaces:
    def test_x1_two_faces(self):
        p = anticanonical_polytope(X1, 3)
        got = {frozenset(tuple(int(x) for x in v) for v in f) for f in faces(p, 2)}
        assert got == {frozenset(f) for f in X1_ANN["two_faces"]}

    def test_x4_two_faces(self):
        p = anticanonical_polytope(X4, 5)
        got = {frozenset(tuple(int(x) for x in v) for v in f) for f in faces(p, 2)}
        assert got == {frozenset(f) for f in X4_ANN["two_faces"]}

    def test_segment_endpoints(self):
        p = anticanonical_polytope(P1_FAN, 1)
        zero_faces = faces(p, 0)
        assert len(zero_faces) == 2

    def test_triangle_edges(self):
        p = anticanonical_polytope(P2_FAN, 1)
        assert len(faces(p, 1)) == 3
        assert len(faces(p, 0)) == 3


class TestBarycenter:
    def test_x1_origin(self):
        p = anticanonical_polytope(X1, 3)
        assert polytope_barycenter(p) == (0, 0, 0)

    def test_x4_origin(self):
        p = anticanonical_polytope(X4, 5)
        assert polytope_barycenter(p) == (0, 0, 0)

    def test_unit_cube(self):
        normals = [
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        ]
        offsets = [0, -1, 0, -1, 0, -1]
        p = polytope_from_h_rep(normals, offsets)
        assert ivert(p) == {
            (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
        }
        assert polytope_barycenter(p) == (
            Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
        )

    def test_triangle(self):
        p = anticanonical_polytope(P2_FAN, 1)
        assert polytope_barycenter(p) == (0, 0)

    def test_degenerate_rejected(self):
        # a segment posing as a 2-d polytope
        normals = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        offsets = [0, -1, 0, 0]
        p = polytope_from_h_rep(normals, offsets)
        with pytest.raises(DegeneratePolytopeError):
            polytope_barycenter(p)


class TestSubsetBarycenter:
    def test_x1_su_vertices(self):
        pts = [(3, 0, 0), (3, -3, -3), (0, 0, 3), (-3, 3, 3), (-3, 0, 0), (0, 0, -3)]
        assert subset_barycenter(pts) == (0, 0, 0)

    def test_x4_su_vertices(self):
        su = example_by_name("x4").annotations["correspondences"]
        assert subset_barycenter(list(su.values())) == (0, 0, 0)

    def test_single_point(self):
        assert subset_barycenter([(1, 0)]) == (1, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            subset_barycenter([])


def _random_unimodular(rng, m):
    """Product of elementary shears and swaps: determinant +-1."""
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(8):
        i, j = rng.sample(range(m), 2)
        q = rng.randint(-2, 2)
        for c in range(m):
            u[i][c] += q * u[j][c]
        if rng.random() < 0.3:
            u[i], u[j] = u[j], u[i]
    assert abs(integer_determinant(u)) == 1
    return u


# blow-up of the projective plane: complete fan whose anticanonical
# polytope has nonzero barycenter, so the transformation law is nontrivial
F1_FAN = Fan(
    dim=2,
    rays=((1, 0), (0, 1), (-1, 1), (0, -1)),
    max_cones=((0, 1), (1, 2), (2, 3), (3, 0)),
)


def test_barycenter_transforms_contragrediently():
    rng = random.Random(23)
    cases = [(X1, 3), (F1_FAN, 1)]
    for base_fan, k in cases:
        m = base_fan.dim
        base_bary = polytope_barycenter(anticanonical_polytope(base_fan, k))
        for _ in range(5):
            u = _random_unimodular(rng, m)
            new_rays = tuple(
                tuple(sum(u[i][kk] * ray[kk] for kk in range(m)) for i in range(m))
                for ray in base_fan.rays
            )
            fan = Fan(
                dim=m,
                rays=new_rays,
                max_cones=base_fan.max_cones,
                labels=base_fan.labels,
            )
            bary = polytope_barycenter(anticanonical_polytope(fan, k))
            # dual coordinates transform by the inverse transpose of u
            uinv = unimodular_inverse(u)
            expected = tuple(
                sum(Fraction(uinv[kk][i]) * base_bary[kk] for kk in range(m))
                for i in range(m)
            )
            assert bary == expected


def test_f1_barycenter_nonzero():
    # guards the previous test against becoming vacuous
    assert polytope_barycenter(anticanonical_polytope(F1_FAN, 1)) != (0, 0)


def test_k_scaling():
    base = anticanonical_polytope(X4, 5)
    for lam in (1, 2, 3):
        scaled = anticanonical_polytope(X4, 5 * lam)
        assert set(scaled.vertices) == {
            tuple(lam * x for x in v) for v in base.vertices
        }
        assert polytope_barycenter(scaled) == tuple(
            lam * x for x in polytope_barycenter(base)
        )


def _sheared_product_fan(rng, m, r):
    """Rays +-A e_i under a random unimodular map, A the identity with last
    column (w, r) and each w_i a unit mod r: every chart is C^m / Z_r, so
    the vertices are fractional unless r divides k."""
    units = [x for x in range(1, r) if gcd(x, r) == 1]
    last = tuple(rng.choice(units) for _ in range(m - 1)) + (r,)
    columns = [tuple(int(i == j) for i in range(m)) for j in range(m - 1)] + [last]
    u = _random_unimodular(rng, m)
    rays = []
    for c in columns:
        g = tuple(sum(u[i][j] * c[j] for j in range(m)) for i in range(m))
        rays += [g, tuple(-x for x in g)]
    cones = tuple(
        tuple(2 * j + s for j, s in enumerate(signs))
        for signs in product((0, 1), repeat=m)
    )
    return Fan(dim=m, rays=tuple(rays), max_cones=cones)


def _random_h_rep(rng, m):
    """The box [-2, 2]^m cut by up to three random half-spaces
    <n, u> >= -c with rational c > 0, so the origin stays interior."""
    normals = [tuple(s * int(i == j) for j in range(m)) for i in range(m) for s in (1, -1)]
    offsets = [Fraction(-2)] * (2 * m)
    for _ in range(3):
        n = tuple(rng.randint(-2, 2) for _ in range(m))
        if any(n):
            normals.append(n)
            offsets.append(Fraction(-rng.randint(1, 5), rng.randint(1, 3)))
    return polytope_from_h_rep(normals, offsets)


def _assert_matches_fraction_oracles(p):
    d, scaled = p.integer_vertices
    assert d == lcm(1, *(x.denominator for v in p.vertices for x in v))
    assert scaled == tuple(tuple(d * x for x in v) for v in p.vertices)
    lattice = p.face_lattice
    top = frozenset(range(len(p.vertices)))
    facets = [frozenset(fv) for fv in facet_incidence_fraction(p)]
    assert {f for f in facets if f} <= set(lattice)
    oracle_dims = face_dims_by_tight_facets(p)
    for face, dim in lattice.items():
        # a face is the intersection of the facets containing it
        assert face == top.intersection(*(f for f in facets if face <= f))
        assert dim == oracle_dims[face]
        assert dim == affine_dim_fraction([p.vertices[i] for i in sorted(face)])
    for dim in range(p.dim + 1):
        assert faces(p, dim) == sorted(
            tuple(sorted(p.vertices[i] for i in f))
            for f, fd in oracle_dims.items()
            if fd == dim
        )
    if lattice[top] == p.dim:
        assert polytope_barycenter(p) == barycenter_fraction(p, oracle_dims)
    else:
        with pytest.raises(DegeneratePolytopeError):
            polytope_barycenter(p)


def test_integer_polytope_layer_matches_fraction_oracles():
    rng = random.Random(5)
    denominators = set()
    for m in range(2, 6):
        for r in range(2, 6):
            fan = _sheared_product_fan(rng, m, r)
            unit = {
                label: solve_cramer(cone.generators, [-1] * m)
                for label, cone in fan.cones()
            }
            for k in range(1, 4):
                p = anticanonical_polytope(fan, k)
                assert p.cone_vertices == tuple(
                    (label, tuple(k * x for x in unit[label])) for label in fan.labels
                )
                _assert_matches_fraction_oracles(p)
                denominators.add(p.integer_vertices[0])
    h_rep = [_random_h_rep(rng, m) for m in (2, 2, 3, 3, 3)]
    # the unit cube and a segment posing as a 2-d polytope
    h_rep.append(polytope_from_h_rep(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        [0, -1, 0, -1, 0, -1],
    ))
    h_rep.append(polytope_from_h_rep([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -1, 0, 0]))
    for p in h_rep:
        _assert_matches_fraction_oracles(p)
        denominators.add(p.integer_vertices[0])
    # guards against a vacuous run: some polytopes have fractional vertices
    assert max(denominators) > 1


def test_integer_polytope_layer_checks_still_fire():
    # overlapping cones whose first vertex is fractional and violates a facet
    overlapping = Fan(
        dim=2,
        rays=((1, 0), (0, 1), (-1, -1), (-4, 3)),
        max_cones=((0, 3), (0, 1), (1, 2), (2, 0)),
    )
    with pytest.raises(ValueError) as exc:
        anticanonical_polytope(overlapping, 1)
    assert str(exc.value) == "cone vertex (-1, -5/3) violates facet of ray (0, 1)"
    with pytest.raises(ValueError, match="singular vertex system"):
        vertex_for_cone(P2_FAN, 1, Cone.from_rows([(1, 0), (2, 0)]))
    incomplete = Fan(dim=2, rays=P2_FAN.rays, max_cones=P2_FAN.max_cones[:2])
    with pytest.raises(DegeneratePolytopeError, match="not full-dimensional"):
        polytope_barycenter(anticanonical_polytope(incomplete, 1))
