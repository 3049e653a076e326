import random
from fractions import Fraction

import pytest

from conftest import polytope_from_h_rep
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
