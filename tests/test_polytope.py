import fractions
import random
import re
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    HRepPolytope,
    affine_dim_fraction,
    barycenter_fraction,
    cone_vertices_by_cramer,
    face_dims_by_tight_facets,
    face_lattice_by_edge_rank,
    facet_incidence_fraction,
    nef_violation_by_all_rays,
    polytope_from_h_rep,
    solve_cramer,
    vertex_values,
)
from kcscglue import exact_linalg
from kcscglue.examples import example_by_name
from kcscglue.exact_linalg import IntegerRow, integer_determinant, unimodular_inverse
from kcscglue.formats import parse_fan
from kcscglue.polytope import (
    anticanonical_polytope,
    faces,
    moment_assignment,
    polytope_barycenter,
    subset_barycenter,
)
from kcscglue.report import build_report
from kcscglue.toric_lattice import Fan, validate_fan

X1 = parse_fan(example_by_name("x1").text)
X4 = parse_fan(example_by_name("x4").text)
X1_ANN = example_by_name("x1").annotations
X4_ANN = example_by_name("x4").annotations

P1_FAN = Fan(dim=1, rays=((1,), (-1,)), max_cones=((0,), (1,)))
P2_FAN = Fan(
    dim=2,
    rays=((1, 0), (0, 1), (-1, -1)),
    max_cones=((0, 1), (1, 2), (2, 0)),
)


def ivert(p):
    return {tuple(int(x) for x in v) for v in vertex_values(p)}


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
        with pytest.raises(ValueError, match=r"^invalid fan: wall \[2\] lies in 1 of"):
            anticanonical_polytope(fan, 1)

    def test_overlapping_cones_rejected(self):
        # P2 plus the ray (1, 1) and a cone overlapping the first one: the
        # fan check rejects it before any vertex is solved for
        fan = Fan(
            dim=2,
            rays=((1, 0), (0, 1), (-1, -1), (1, 1)),
            max_cones=((0, 1), (1, 2), (2, 0), (0, 3)),
        )
        with pytest.raises(ValueError, match=r"^invalid fan: wall \[1\] lies in 3 of"):
            anticanonical_polytope(fan, 1)
        with pytest.raises(ValueError, match=r"^invalid fan: wall \[1\] lies in 3 of"):
            moment_assignment(fan, 1)
        # the all-rays facet check on its own still sees the overlap
        assert nef_violation_by_all_rays(fan, 1) is not None

    def test_every_vertex_satisfies_every_facet(self):
        for fan, k in ((X1, 3), (X4, 5), (P2_FAN, 1)):
            p = anticanonical_polytope(fan, k)
            for v in vertex_values(p):
                for n in fan.rays:
                    assert sum(ni * vi for ni, vi in zip(n, v)) >= -k

    def test_matches_h_rep_enumeration_oracle(self):
        for fan, k in ((X1, 3), (X4, 5), (P2_FAN, 1), (P1_FAN, 2)):
            fast = anticanonical_polytope(fan, k)
            slow = polytope_from_h_rep(fan.rays, [-k] * len(fan.rays))
            assert vertex_values(fast) == list(slow.vertices)
            assert list(fast.cone_vertices) == moment_assignment(fan, k)


class TestVertexForCone:
    def test_x1_correspondences(self):
        got = dict(anticanonical_polytope(X1, 3).cone_vertices)
        for label, vertex in X1_ANN["correspondences"].items():
            assert tuple(int(x) for x in got[label].values()) == vertex

    def test_x4_facet_triples(self):
        # incidences keyed by facet-ray triples, independent of cone labels
        p = anticanonical_polytope(X4, 5)
        by_rays = {
            frozenset(i + 1 for i in idx): v
            for idx, (_, v) in zip(X4.max_cones, p.cone_vertices)
        }
        for rays_1based, vertex in X4_ANN["facet_triples"]:
            assert tuple(int(x) for x in by_rays[frozenset(rays_1based)].values()) == vertex

    def test_images_cover_vertex_set(self):
        for fan, k in ((X1, 3), (X4, 5), (P2_FAN, 1)):
            p = anticanonical_polytope(fan, k)
            images = {v for _, v in p.cone_vertices}
            assert images == set(p.vertices)
            assert {v.values() for v in images} == set(cone_vertices_by_cramer(fan, k))

    def test_assignment_injective(self):
        for fan, k in ((X1, 3), (X4, 5)):
            assignment = moment_assignment(fan, k)
            assert len({v for _, v in assignment}) == len(assignment)


class TestFaces:
    def test_x1_two_faces(self):
        p = anticanonical_polytope(X1, 3)
        got = {frozenset(tuple(int(x) for x in v.values()) for v in f) for f in faces(p, 2)}
        assert got == {frozenset(f) for f in X1_ANN["two_faces"]}

    def test_x4_two_faces(self):
        p = anticanonical_polytope(X4, 5)
        got = {frozenset(tuple(int(x) for x in v.values()) for v in f) for f in faces(p, 2)}
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
        assert polytope_barycenter(p).values() == (0, 0, 0)

    def test_x4_origin(self):
        p = anticanonical_polytope(X4, 5)
        assert polytope_barycenter(p).values() == (0, 0, 0)

    def test_unit_cube(self):
        # an H-representation has no cones to read a barycenter off, so
        # only the triangulation oracle applies
        normals = [
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        ]
        offsets = [0, -1, 0, -1, 0, -1]
        p = polytope_from_h_rep(normals, offsets)
        assert ivert(p) == {
            (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
        }
        assert barycenter_fraction(p, face_lattice_by_edge_rank(p)) == (
            Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
        )

    def test_triangle(self):
        p = anticanonical_polytope(P2_FAN, 1)
        assert polytope_barycenter(p).values() == (0, 0)

    def test_degenerate_rejected(self):
        # a segment posing as a 2-d polytope
        normals = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        offsets = [0, -1, 0, 0]
        p = polytope_from_h_rep(normals, offsets)
        with pytest.raises(ValueError, match="not full-dimensional"):
            barycenter_fraction(p, face_lattice_by_edge_rank(p))


class TestSubsetBarycenter:
    def test_x1_su_vertices(self):
        pts = [(3, 0, 0), (3, -3, -3), (0, 0, 3), (-3, 3, 3), (-3, 0, 0), (0, 0, -3)]
        assert subset_barycenter([IntegerRow(v) for v in pts]).values() == (0, 0, 0)

    def test_x4_su_vertices(self):
        su = example_by_name("x4").annotations["correspondences"]
        assert subset_barycenter([IntegerRow(v) for v in su.values()]).values() == (0, 0, 0)

    def test_single_point(self):
        assert subset_barycenter([IntegerRow((1, 0))]) == IntegerRow((1, 0))

    def test_mixed_denominators(self):
        # (1, 0) and (0, 1/2) have mean (1/2, 1/4): one row over 4, reduced
        mean = subset_barycenter([IntegerRow((1, 0)), IntegerRow((0, 1), 2)])
        assert mean == IntegerRow((2, 1), 4)
        assert mean.values() == (Fraction(1, 2), Fraction(1, 4))

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError, match="mixed dimension"):
            subset_barycenter([IntegerRow((1, 0)), IntegerRow((1,))])

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
        base_bary = polytope_barycenter(anticanonical_polytope(base_fan, k)).values()
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
            bary = polytope_barycenter(anticanonical_polytope(fan, k)).values()
            # dual coordinates transform by the inverse transpose of u
            uinv = unimodular_inverse(u)
            expected = tuple(
                sum(Fraction(uinv[kk][i]) * base_bary[kk] for kk in range(m))
                for i in range(m)
            )
            assert bary == expected


def test_f1_barycenter_nonzero():
    # guards the previous test against becoming vacuous
    assert polytope_barycenter(anticanonical_polytope(F1_FAN, 1)).values() != (0, 0)


def test_k_scaling():
    base = anticanonical_polytope(X4, 5)
    for lam in (1, 2, 3):
        scaled = anticanonical_polytope(X4, 5 * lam)
        assert set(vertex_values(scaled)) == {
            tuple(lam * x for x in v) for v in vertex_values(base)
        }
        assert polytope_barycenter(scaled).values() == tuple(
            lam * x for x in polytope_barycenter(base).values()
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
    lattice = face_lattice_by_edge_rank(p)
    vertices = vertex_values(p)
    top = frozenset(range(len(vertices)))
    facets = [frozenset(fv) for fv in facet_incidence_fraction(p)]
    assert {f for f in facets if f} <= set(lattice)
    oracle_dims = face_dims_by_tight_facets(p)
    for face, dim in lattice.items():
        # a face is the intersection of the facets containing it
        assert face == top.intersection(*(f for f in facets if face <= f))
        assert dim == oracle_dims[face]
        assert dim == affine_dim_fraction([vertices[i] for i in sorted(face)])
    if isinstance(p, HRepPolytope):
        if lattice[top] < p.dim:
            with pytest.raises(ValueError, match="not full-dimensional"):
                barycenter_fraction(p, lattice)
        return
    for dim in range(p.dim + 1):
        assert faces(p, dim, vertices) == sorted(
            tuple(sorted(vertices[i] for i in f))
            for f, fd in oracle_dims.items()
            if fd == dim
        )
    assert polytope_barycenter(p).values() == barycenter_fraction(p, oracle_dims)


def _denominator(p):
    return lcm(1, *(x.denominator for v in vertex_values(p) for x in v))


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
                assert tuple((label, v.values()) for label, v in p.cone_vertices) == tuple(
                    (label, tuple(k * x for x in unit[label])) for label in fan.labels
                )
                _assert_matches_fraction_oracles(p)
                denominators.add(_denominator(p))
    h_rep = [_random_h_rep(rng, m) for m in (2, 2, 3, 3, 3)]
    # the unit cube and a segment posing as a 2-d polytope
    h_rep.append(polytope_from_h_rep(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        [0, -1, 0, -1, 0, -1],
    ))
    h_rep.append(polytope_from_h_rep([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -1, 0, 0]))
    for p in h_rep:
        _assert_matches_fraction_oracles(p)
        denominators.add(_denominator(p))
    # guards against a vacuous run: some polytopes have fractional vertices
    assert max(denominators) > 1


def test_integer_polytope_layer_checks_still_fire():
    # overlapping cones whose first vertex is fractional and violates a facet
    overlapping = Fan(
        dim=2,
        rays=((1, 0), (0, 1), (-1, -1), (-4, 3)),
        max_cones=((0, 3), (0, 1), (1, 2), (2, 0)),
    )
    # the all-rays facet check on its own sees the overlap at the first cone
    assert nef_violation_by_all_rays(overlapping, 1) == ((-1, Fraction(-5, 3)), (0, 1))
    for build in (anticanonical_polytope, moment_assignment):
        with pytest.raises(ValueError, match="^invalid fan: "):
            build(overlapping, 1)
    incomplete = Fan(dim=2, rays=P2_FAN.rays, max_cones=P2_FAN.max_cones[:2])
    with pytest.raises(ValueError, match=r"^invalid fan: wall \[1\] lies in 1 of"):
        anticanonical_polytope(incomplete, 1)


def _hirzebruch(a):
    """The Hirzebruch surface F_a: -K is ample for a <= 1, nef but not
    ample for a = 2 and not nef for a >= 3."""
    return Fan(
        dim=2,
        rays=((1, 0), (0, 1), (-1, a), (0, -1)),
        max_cones=((0, 1), (1, 2), (2, 3), (3, 0)),
    )


F2_FAN = _hirzebruch(2)


def _product(f, g):
    """The product fan: rays (r, 0) and (0, s), one cone per pair of cones."""
    rays = tuple(r + (0,) * g.dim for r in f.rays) + tuple((0,) * f.dim + s for s in g.rays)
    n = len(f.rays)
    cones = tuple(a + tuple(n + j for j in b) for a in f.max_cones for b in g.max_cones)
    return Fan(dim=f.dim + g.dim, rays=rays, max_cones=cones)


def _bundle_over_p2(a):
    """P(O + O(a)) over P^2: -K is ample for a <= 2, nef but not ample for
    a = 3 and not nef for a >= 4."""
    base = ((0, 1), (1, 2), (2, 0))
    return Fan(
        dim=3,
        rays=((1, 0, 0), (0, 1, 0), (-1, -1, a), (0, 0, 1), (0, 0, -1)),
        max_cones=tuple(c + (t,) for t in (3, 4) for c in base),
    )


def _wall_test_fans():
    for a in range(6):
        yield f"F_{a}", _hirzebruch(a)
        yield f"P(O+O({a})) over P^2", _bundle_over_p2(a)
        yield f"F_{a} x P^1", _product(_hirzebruch(a), P1_FAN)
        yield f"P^2 x F_{a}", _product(P2_FAN, _hirzebruch(a))


_VIOLATION = re.compile(r"cone vertex \((.*)\) violates facet of ray \((.*)\)")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wall_test_matches_all_rays_oracle(k):
    """One pairing per wall raises exactly when some cone vertex violates
    some facet, and the vertex and ray it names are such a violation."""
    verdicts = set()
    for name, fan in _wall_test_fans():
        assert validate_fan(fan).valid, name
        oracle = nef_violation_by_all_rays(fan, k)
        verdicts.add(oracle is None)
        if oracle is None:
            anticanonical_polytope(fan, k)
            continue
        with pytest.raises(ValueError) as exc:
            anticanonical_polytope(fan, k)
        point, ray = _VIOLATION.fullmatch(str(exc.value)).groups()
        vertex = tuple(Fraction(x) for x in point.split(", "))
        ray = tuple(int(x) for x in ray.split(", "))
        assert vertex in cone_vertices_by_cramer(fan, k), name
        assert ray in fan.rays, name
        assert sum(r * x for r, x in zip(ray, vertex)) < -k, name
    # guards against a vacuous run: both verdicts occur
    assert verdicts == {True, False}


def test_facet_check_rejects_a_complete_fan_without_nef_minus_k():
    fan = _hirzebruch(3)
    assert validate_fan(fan).valid
    with pytest.raises(ValueError) as exc:
        anticanonical_polytope(fan, 1)
    assert str(exc.value) == "cone vertex (-1, -1) violates facet of ray (-1, 3)"


@pytest.mark.parametrize("k", [1, 2])
def test_f2_cones_share_a_vertex(k):
    """F_2 is nef but not ample: 4 cones, 3 vertices.  The two cones through
    the ray (0, 1) share the vertex (-k, -k), so that ray gives a vertex,
    not an edge, and the triangle has 3 edges for 4 rays; the barycenter is
    still read off the 4 cones."""
    p = anticanonical_polytope(_hirzebruch(2), k)
    assert len(p.cone_vertices) == 4
    assert vertex_values(p) == [(-k, -k), (-k, k), (3 * k, k)]
    assert faces(p, 1, vertex_values(p)) == [
        ((-k, -k), (-k, k)), ((-k, -k), (3 * k, k)), ((-k, k), (3 * k, k)),
    ]
    assert faces(p, 0) == [(v,) for v in p.vertices]
    assert faces(p, 2) == [p.vertices]
    assert polytope_barycenter(p).values() == (Fraction(k, 3), Fraction(k, 3))


def test_faces_of_distinct_vertices_are_one_per_cone():
    """-K ample: the fan is the normal fan, so the d-faces are as many as
    the (dim - d)-cones of the fan."""
    for fan, k in ((X1, 3), (X4, 5), (P2_FAN, 1), (F1_FAN, 1)):
        p = anticanonical_polytope(fan, k)
        assert len(p.vertices) == len(fan.max_cones)
        for d in range(fan.dim + 1):
            taus = {tau for idx in fan.max_cones for tau in combinations(sorted(idx), fan.dim - d)}
            assert len(faces(p, d)) == len(taus)


@pytest.mark.parametrize(
    "fan, two_faces",
    [
        (_product(F2_FAN, P1_FAN), 5),
        (_product(F2_FAN, F2_FAN), 15),
        (_bundle_over_p2(3), 4),
    ],
    ids=["F_2 x P^1", "F_2 x F_2", "P(O+O(3)) over P^2"],
)
@pytest.mark.parametrize("k", [1, 2])
def test_nef_faces_in_dims_3_and_4(fan, two_faces, k):
    """-K nef but not ample in dimensions 3 and 4: cones share vertices, and
    the faces of every dimension equal the oracle's (the autouse check)."""
    p = anticanonical_polytope(fan, k)
    assert len(p.vertices) < len(fan.max_cones)
    assert len(faces(p, 2)) == two_faces


def _cube_fan(m, keep=lambda signs: True):
    """(P^1)^m: rays +-e_i, one cone per sign vector (0 for +e_i) it keeps."""
    rays = tuple(
        tuple(s * int(i == j) for j in range(m)) for i in range(m) for s in (1, -1)
    )
    cones = tuple(
        tuple(2 * i + s for i, s in enumerate(signs))
        for signs in product((0, 1), repeat=m)
        if keep(signs)
    )
    return Fan(dim=m, rays=rays, max_cones=cones)


# Cone lists on the rays of complete fans that are not fans themselves:
# they skip vertices of the region their rays bound.
NON_FANS = {
    "alternating octants": _cube_fan(3, lambda signs: sum(signs) % 2 == 0),
    "alternating hexagon": Fan(
        dim=2,
        rays=((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
        max_cones=((0, 1), (2, 3), (4, 5)),
    ),
    "(P^1)^4 missing alternate vertices of a facet": _cube_fan(
        4, lambda signs: signs[0] == 1 or sum(signs[1:]) % 2 == 0
    ),
}


def _counting_eliminations(monkeypatch):
    calls = []

    def counted(a, ncols, echelon=exact_linalg._echelon):
        calls.append(ncols)
        return echelon(a, ncols)

    monkeypatch.setattr(exact_linalg, "_echelon", counted)
    return calls


@pytest.mark.parametrize("name", sorted(NON_FANS))
def test_face_lattice_of_non_fans(name):
    """A non-fan is rejected before any polytope is built; the region its
    rays bound has a vertex that none of its cones gives, and its face
    lattice is the oracle's alone: the faces are read off a fan's cones."""
    fan = NON_FANS[name]
    violations = validate_fan(fan).violations
    assert violations and all(" of the cones, expected " in v for v in violations)
    with pytest.raises(ValueError, match="^invalid fan: wall "):
        anticanonical_polytope(fan, 1)
    region = polytope_from_h_rep(fan.rays, [-1] * len(fan.rays))
    given = set(cone_vertices_by_cramer(fan, 1))
    assert given < set(region.vertices)
    assert face_lattice_by_edge_rank(region)[frozenset(range(len(region.vertices)))] == fan.dim


def test_face_lattice_takes_no_rank_on_fans(monkeypatch):
    """The faces of every dimension come from the cones and their vertex
    indices alone, with no elimination."""
    rng = random.Random(3)
    fans = [(X1, 3), (X4, 5), (P2_FAN, 1), (F1_FAN, 1), (_cube_fan(4), 1)]
    fans += [(_hirzebruch(2), 1), (_hirzebruch(2), 2), (_product(F2_FAN, P1_FAN), 1)]
    fans += [(_sheared_product_fan(rng, m, r), 1) for m in (3, 5) for r in (2, 3, 5)]
    polytopes = [anticanonical_polytope(fan, k) for fan, k in fans]
    calls = _counting_eliminations(monkeypatch)
    for p in polytopes:
        lattice = [faces(p, d) for d in range(p.dim + 1)]
        assert lattice[p.dim] == [p.vertices]
        assert lattice[0] == [(v,) for v in p.vertices]
    assert calls == []


@st.composite
def h_rep_polytopes(draw):
    """A box [-b, b]^m cut by up to three half-spaces <n, u> >= -c, c > 0."""
    m = draw(st.integers(2, 3))
    b = draw(st.integers(1, 3))
    normals = [tuple(s * int(i == j) for j in range(m)) for i in range(m) for s in (1, -1)]
    offsets = [Fraction(-b)] * (2 * m)
    for _ in range(draw(st.integers(0, 3))):
        n = tuple(draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m)))
        if any(n):
            normals.append(n)
            offsets.append(-Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 3))))
    return polytope_from_h_rep(normals, offsets)


@settings(max_examples=60, deadline=None)
@given(h_rep_polytopes())
def test_face_lattice_matches_edge_rank_on_h_rep_polytopes(p):
    """The face oracles agree: on each face of a full-dimensional polytope,
    the rank of the tight facets' normals gives the edge rank's dimension."""
    lattice = face_lattice_by_edge_rank(p)
    assert lattice == face_dims_by_tight_facets(p)
    assert lattice[frozenset(range(len(p.vertices)))] == p.dim


@pytest.mark.parametrize("name", ["x1", "x4"])
def test_fan_decision_path_makes_no_fraction(name):
    """Vertices, barycenters and the balancing witness are IntegerRows: a
    fan report makes no Fraction in its polytope stage (the polytope, its
    faces and barycenter), and in its balancing stage (the SU vertex
    barycenter, the balancing matrix, its solvers and certificate check)
    only for a printed value, the coefficients and the stripped scale
    (m-1)/m that build_theta records."""
    example = example_by_name(name)
    fan = parse_fan(example.text)
    stacks = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "__new__" and code.co_filename == fractions.__file__:
            names, caller = [], frame.f_back
            while caller is not None:
                names.append(caller.f_code.co_name)
                caller = caller.f_back
            stacks.append(names)

    sys.setprofile(profile)
    try:
        report = build_report(name, example.text, fan)
    finally:
        sys.setprofile(None)
    assert report["report"]["balancing"]["feasible"]
    assert not [names for names in stacks if "_polytope" in names]
    balancing = [names for names in stacks if "_fan_balancing" in names]
    assert balancing  # the leading coefficients are Fractions
    assert all("_point_coefficients" in names or names[0] == "build_theta" for names in balancing)
