"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: cofactor expansion
for determinants, ranks (by minors) and square solves (Cramer's rule), a
Fraction Gauss-Jordan reduction for kernels, subset enumeration for
positive kernel vectors and polytope vertices, the Fraction phase-one
simplex whose witnesses the integer simplex must reproduce, the balancing
matrices entry by entry in chained Fraction arithmetic, Fraction arithmetic for
facet incidence, face dimensions and barycenters over a pulling
triangulation, the face lattice with one edge-rank elimination per face,
boundedness as positive spanning by the Fraction simplex (after every test
these are checked against each fan-built polytope and each valid fan the
test built), -K nef by checking every cone vertex against every ray, the
kernel dimension of every balancing report and the faithfulness of every
quotient action the test built, by nullspace_basis and by a Smith normal
form, monomial counts for the quotient weights of a cone, an explicit
symbolic Laplacian on integer-coefficient polynomials, a recursive
surface-area formula for
sphere volumes, the biharmonic extensions of one spherical mode as sums of
c·r^a (·log r) terms, differentiated at r = 1 into the Dirichlet-to-Neumann
mode matrix, face smoothness by maximal minors for isolated cones, and,
for a finite abelian group, enumeration of its elements, character
averaging in cyclotomic integers and a monomial-basis count.  Small
RationalMatrix helpers (identity, scaling, M·x, zero test) that the
library itself never needs live here too, as does a generator of
balancing-shaped matrices in each of the three verdict classes.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm
from typing import Optional, Sequence

import pytest

from kcscglue import toric_lattice
from kcscglue.balancing import BalancingReport, PiRational, ScaledMatrix
from kcscglue.biharmonic import ModeMatrix
from kcscglue.exact_linalg import (
    RationalMatrix,
    Scalar,
    frac,
    integer_rank,
    nullspace_basis,
    rational_determinant,
    smith_normal_form,
)
from kcscglue.polytope import LatticePolytope, faces, polytope_barycenter
from kcscglue.spectral import eigenvalue
from kcscglue.toric_lattice import Fan, GroupPresentation


def identity(n: int) -> RationalMatrix:
    return RationalMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def scaled(m: RationalMatrix, c: Scalar) -> RationalMatrix:
    cf = frac(c)
    return RationalMatrix(m.rows, m.cols, tuple(cf * e for e in m.entries))


def mul_vector(m: RationalMatrix, x: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """M·x in Fractions."""
    if len(x) != m.cols:
        raise ValueError("vector length does not match column count")
    xs = [frac(v) for v in x]
    return tuple(
        sum((a * b for a, b in zip(m.row(i), xs)), Fraction(0)) for i in range(m.rows)
    )


def is_zero(m: RationalMatrix) -> bool:
    return all(e == 0 for e in m.entries)


def det_cofactor(rows) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("not square")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [
            [rows[i][c] for c in range(n) if c != j] for i in range(1, n)
        ]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * det_cofactor(minor)
    return total


def rank_bruteforce(m: RationalMatrix) -> int:
    """Largest k with a nonzero k x k minor, by cofactor expansion."""
    for k in range(min(m.rows, m.cols), 0, -1):
        for rset in combinations(range(m.rows), k):
            for cset in combinations(range(m.cols), k):
                if det_cofactor([[m[i, j] for j in cset] for i in rset]) != 0:
                    return k
    return 0


def solve_cramer(rows, b) -> Optional[tuple[Fraction, ...]]:
    """x with rows·x = b by Cramer's rule, or None if rows is singular."""
    det = det_cofactor(rows)
    if det == 0:
        return None
    n = len(rows)
    return tuple(
        det_cofactor([[b[i] if c == j else rows[i][c] for c in range(n)] for i in range(n)])
        / det
        for j in range(n)
    )


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Fraction Gauss-Jordan elimination;
    returns (rows, pivot column indices)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        rows[r] = [x / p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def nullspace_by_rref(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Kernel basis read off the RREF: one vector per free column."""
    rows, pivots = rref(m.to_rows())
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def positive_kernel_witness_bruteforce(
    m: RationalMatrix,
) -> Optional[tuple[Fraction, ...]]:
    """Vertex-enumeration oracle for positive_kernel_witness (small n only).

    The feasible set {M x = 0, x >= 1} is a pointed polyhedron, so it is
    nonempty iff it has a vertex, and every vertex pins x_j = 1 on some
    coordinate subset with the rest determined by M x = 0.  Enumerate all
    subsets; exponential, intended for n <= 6.
    """
    n = m.cols
    if n == 0:
        return ()
    for size in range(n + 1):
        for fixed in combinations(range(n), size):
            # Rows: M x = 0 and x_j = 1 for j in fixed.
            rows = [list(m.row(i)) + [Fraction(0)] for i in range(m.rows)]
            for j in fixed:
                ind = [Fraction(0)] * n
                ind[j] = Fraction(1)
                rows.append(ind + [Fraction(1)])
            reduced, pivots = rref([r[:] for r in rows])
            # Inconsistent system: pivot in the augmented column.
            if n in pivots:
                continue
            if len(pivots) != n:
                continue
            x = [Fraction(0)] * n
            for r, c in enumerate(pivots):
                x[c] = reduced[r][n]
            if all(v == 0 for v in mul_vector(m, x)) and min(x) >= 1:
                return tuple(x)
    return None


def positive_kernel_witness_fraction(
    m: RationalMatrix,
) -> Optional[tuple[Fraction, ...]]:
    """The Fraction phase-one simplex that positive_kernel_witness replaced.

    Same search (y = x - 1 >= 0 with M y = -M·1, Bland's rule) on an
    explicit rational tableau, normalizing each pivot row; the integer
    simplex must return exactly this witness, or None with it.
    """
    ncols = m.cols
    nrows = m.rows
    if ncols == 0:
        return ()
    ones = [Fraction(1)] * ncols
    rhs = [-v for v in mul_vector(m, ones)]
    if nrows == 0:
        return tuple(ones)

    # Tableau rows: [A | I_artificial | rhs], artificials start basic.
    tab: list[list[Fraction]] = []
    for i in range(nrows):
        row = list(m.row(i))
        if rhs[i] < 0:
            row = [-x for x in row]
            bi = -rhs[i]
        else:
            bi = rhs[i]
        row += [Fraction(int(i == j)) for j in range(nrows)]
        row.append(bi)
        tab.append(row)
    width = ncols + nrows
    basis = [ncols + i for i in range(nrows)]

    # Objective: minimize the sum of artificials.  Reduced-cost row after
    # pricing out the basic artificials.
    obj = [Fraction(0)] * (width + 1)
    for j in range(width):
        obj[j] = (Fraction(1) if j >= ncols else Fraction(0)) - sum(
            tab[i][j] for i in range(nrows)
        )
    obj[width] = -sum(tab[i][width] for i in range(nrows))

    def pivot(row: int, col: int) -> None:
        p = tab[row][col]
        tab[row] = [x / p for x in tab[row]]
        for i in range(nrows):
            if i != row and tab[i][col]:
                f = tab[i][col]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[row])]
        if obj[col]:
            f = obj[col]
            for k in range(width + 1):
                obj[k] -= f * tab[row][k]
        basis[row] = col

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best: Optional[Fraction] = None
        for i in range(nrows):
            coeff = tab[i][entering]
            if coeff > 0:
                ratio = tab[i][width] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]  # Bland tie-break
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            # Phase-one objective is bounded below by 0, so an unbounded
            # pivot column cannot occur on a well-formed tableau.
            raise RuntimeError("phase-one simplex lost boundedness (bug)")
        pivot(leaving, entering)

    if -obj[width] != 0:
        return None

    y = [Fraction(0)] * ncols
    for i, bv in enumerate(basis):
        if bv < ncols:
            y[bv] = tab[i][width]
    x = tuple(yi + 1 for yi in y)
    if any(v != 0 for v in mul_vector(m, x)) or min(x) < 1:
        raise RuntimeError("simplex witness fails M x = 0, x >= 1 (bug)")
    return x


def orbifold_shaped_matrix(rng: random.Random, klass: str, d: int, n: int) -> RationalMatrix:
    """A d x n balancing-shaped matrix: "balanced" has a positive kernel
    vector, "halfspace" has none (y·column > 0 for a y with no zero entry),
    "hyperplane" has one but rank d - 1 (columns in a hyperplane, then
    mixed by a unimodular matrix)."""

    def rational() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def nonzero() -> Fraction:
        return Fraction(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice((1, -1))

    def unit(i: int, scale: Fraction) -> list[Fraction]:
        return [scale if j == i else Fraction(0) for j in range(d)]

    if klass == "halfspace":
        y = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(d)]
        cols = [unit(i, abs(nonzero()) * (1 if y[i] > 0 else -1)) for i in range(d)]
        while len(cols) < n:
            x = [rational() for _ in range(d)]
            side = sum(a * b for a, b in zip(x, y))
            if side:
                cols.append(x if side > 0 else [-v for v in x])
    else:
        rk = d - 1 if klass == "hyperplane" else d
        cols = [unit(i, nonzero()) for i in range(rk)]
        cols += [[rational() for _ in range(rk)] + [Fraction(0)] * (d - rk) for _ in range(n - 1 - rk)]
        b = [rng.randint(1, 4) for _ in range(n)]
        cols.append([-sum(bj * c[i] for bj, c in zip(b, cols)) / b[-1] for i in range(d)])
        if klass == "hyperplane":
            # unit lower times unit upper triangular: determinant 1
            low = [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(d)] for i in range(d)]
            up = [[rng.randint(-2, 2) if j > i else int(i == j) for j in range(d)] for i in range(d)]
            mix = [[sum(low[i][k] * up[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
            cols = [[sum(mix[i][j] * c[j] for j in range(d)) for i in range(d)] for c in cols]
    rng.shuffle(cols)
    return RationalMatrix.from_rows([[c[i] for c in cols] for i in range(d)])


def build_xi_fraction(points_q) -> ScaledMatrix:
    """The scalar-flat balancing matrix at unit weights by its formula, entry
    by entry: (i, l) = sign(e_l) * phi_i(q_l) / |Gamma_l|."""
    d = len(points_q[0].phi_values)
    rows = [[p.e_sign * p.phi_values[i] / p.group_order for p in points_q] for i in range(d)]
    return ScaledMatrix(RationalMatrix.from_rows(rows))


def build_theta_fraction(points_p, s, m: int) -> ScaledMatrix:
    """The Ricci-flat balancing matrix at unit weights by its formula, entry
    by entry: phi_i(p_j) with the stripped scale (m-1) s / m under the
    Einstein flag, (Lap phi_i + s phi_i)(p_j) otherwise."""
    d = len(points_p[0].phi_values)
    if all(p.laplacian_phi_values is None for p in points_p):
        matrix = RationalMatrix.from_rows(
            [[p.phi_values[i] for p in points_p] for i in range(d)]
        )
        if s is None:
            return ScaledMatrix(matrix, Fraction(m - 1, m), ("s_omega",))
        return ScaledMatrix(matrix, Fraction(m - 1, m) * s)
    rows = [
        [p.laplacian_phi_values[i] + s * p.phi_values[i] for p in points_p]
        for i in range(d)
    ]
    return ScaledMatrix(RationalMatrix.from_rows(rows))


def polytope_from_h_rep(normals, offsets) -> LatticePolytope:
    """General vertex enumeration over all dim-subsets of the facets of a
    bounded region <u, normal_i> >= offset_i, each solved by Cramer's rule."""
    normals = [tuple(int(x) for x in n) for n in normals]
    offs = [Fraction(o) for o in offsets]
    dim = len(normals[0])
    points = set()
    for subset in combinations(range(len(normals)), dim):
        u = solve_cramer([normals[i] for i in subset], [offs[i] for i in subset])
        if u is not None and all(
            sum(ni * xi for ni, xi in zip(n, u)) >= o for n, o in zip(normals, offs)
        ):
            points.add(u)
    vertices = tuple(sorted(points))
    ks = {-o for o in offs}
    k = int(next(iter(ks))) if len(ks) == 1 and next(iter(ks)).denominator == 1 else None
    return LatticePolytope(
        dim=dim,
        k=k,
        facet_normals=tuple(normals),
        facet_offsets=tuple(offs),
        vertices=vertices,
    )


def nef_violation_by_all_rays(fan: Fan, k: int) -> Optional[tuple[tuple[Fraction, ...], tuple]]:
    """The first (cone vertex, ray), cones in fan order and rays in ray
    order, with <ray, u> < -k, each cone's vertex u solved by Cramer's rule;
    None when every vertex satisfies every facet (-K nef)."""
    for idx in fan.max_cones:
        u = solve_cramer([fan.rays[i] for i in idx], [-k] * len(idx))
        if u is None:
            continue
        for ray in fan.rays:
            if sum(r * x for r, x in zip(ray, u)) < -k:
                return u, ray
    return None


def face_lattice_by_edge_rank(p: LatticePolytope) -> dict[frozenset[int], int]:
    """All faces as vertex-index sets, the polytope itself included, by
    facet-intersection closure on the scaled-integer vertices (D, D *
    vertices), D the lcm of the vertex denominators: facet i holds the
    vertices with <normal_i, D v> = D offset_i.  Each face is mapped to the
    integer rank of its edge rows, one elimination per face."""
    d = lcm(1, *(x.denominator for v in p.vertices for x in v))
    scaled = [tuple(x.numerator * (d // x.denominator) for x in v) for v in p.vertices]
    facets = {
        frozenset(
            i
            for i, v in enumerate(scaled)
            if sum(a * b for a, b in zip(n, v)) * o.denominator == o.numerator * d
        )
        for n, o in zip(p.facet_normals, p.facet_offsets)
    }
    found: set[frozenset[int]] = {frozenset(range(len(p.vertices)))}
    frontier = {f for f in facets if f}
    found |= frontier
    while frontier:
        frontier = {f & g for f in frontier for g in facets if f & g} - found
        found |= frontier
    return {
        f: integer_rank([[x - b for x, b in zip(scaled[i], scaled[min(f)])] for i in f])
        if f
        else -1
        for f in found
    }


def check_bounded(dim: int, normals: Sequence[tuple[int, ...]]) -> bool:
    """The region <u, normal_i> >= -1 is bounded iff the normals positively
    span R^dim: they have full rank and a strictly positive kernel vector."""
    rows = [[Fraction(n[i]) for n in normals] for i in range(dim)]
    return (
        len(rref(rows)[1]) == dim
        and positive_kernel_witness_fraction(RationalMatrix.from_rows(rows)) is not None
    )


@pytest.fixture(autouse=True)
def fan_polytopes_match_oracles(monkeypatch):
    """After the test: every valid fan it built bounds its polytope
    (check_bounded), and every polytope it built from a fan has the
    barycenter of barycenter_fraction and, in each dimension, the faces of
    face_lattice_by_edge_rank."""
    init = LatticePolytope.__init__
    prop = Fan.__dict__["validation"]
    polytopes, fans = [], []

    def recording_init(p, *args, init=init, **kwargs):
        init(p, *args, **kwargs)
        if p.fan is not None:
            polytopes.append(p)

    def recorded(fan, validate=prop.func):
        validation = validate(fan)
        if validation.valid:
            fans.append(fan)
        return validation

    monkeypatch.setattr(LatticePolytope, "__init__", recording_init)
    monkeypatch.setattr(prop, "func", recorded)
    yield
    for fan in fans:
        assert check_bounded(fan.dim, fan.rays)
    for p in polytopes:
        lattice = face_lattice_by_edge_rank(p)
        assert polytope_barycenter(p) == barycenter_fraction(p, lattice)
        for dim in range(p.dim + 1):
            assert faces(p, dim) == sorted(
                tuple(sorted(p.vertices[i] for i in f))
                for f, fd in lattice.items()
                if fd == dim
            )


@pytest.fixture(autouse=True)
def balancing_kernel_dims_match_nullspace(monkeypatch):
    """After the test: every balancing report it built with a matrix has
    kernel_dim == len(nullspace_basis(matrix)) (weighting the columns by a
    witness keeps the kernel dimension)."""
    init = BalancingReport.__init__
    reports = []

    def recording_init(rep, *args, init=init, **kwargs):
        init(rep, *args, **kwargs)
        reports.append(rep)

    monkeypatch.setattr(BalancingReport, "__init__", recording_init)
    yield
    for rep in reports:
        if rep.matrix is not None:
            assert rep.kernel_dim == len(nullspace_basis(rep.matrix.matrix))


def acts_faithfully(group: GroupPresentation) -> bool:
    """Gamma acts faithfully iff the m coordinate characters generate its
    character group: the rows [w_k | d_k e_k] have an SNF diagonal of ones."""
    r = len(group.orders)
    rows = [
        list(w) + [d * (k == l) for l in range(r)]
        for k, (d, w) in enumerate(zip(group.orders, group.weights))
    ]
    return all(x == 1 for x in smith_normal_form(rows).diagonal())


@pytest.fixture(autouse=True)
def quotient_actions_are_faithful(monkeypatch):
    """After the test: every group quotient_action returned during it acts
    faithfully.  The function is replaced at every kcscglue or test module
    binding of it, so direct calls from tests are seen too."""
    original = toric_lattice.quotient_action
    groups = []

    def recorded(cone):
        group = original(cone)
        groups.append(group)
        return group

    for name, module in list(sys.modules.items()):
        if name.startswith(("kcscglue", "test_")) and vars(module).get("quotient_action") is original:
            monkeypatch.setattr(module, "quotient_action", recorded)
    yield
    for group in groups:
        assert acts_faithfully(group)


def facet_incidence_fraction(p: LatticePolytope) -> tuple[tuple[int, ...], ...]:
    """Indices of the vertices saturating each inequality, in Fractions."""
    return tuple(
        tuple(
            i
            for i, v in enumerate(p.vertices)
            if sum(ni * vi for ni, vi in zip(n, v)) == o
        )
        for n, o in zip(p.facet_normals, p.facet_offsets)
    )


def affine_dim_fraction(points) -> int:
    """Affine dimension of a point set: rank of its Fraction edge rows."""
    if not points:
        return -1
    base = points[0]
    rows = [[Fraction(x - b) for x, b in zip(q, base)] for q in points[1:]]
    return len(rref(rows)[1])


def face_dims_by_tight_facets(p: LatticePolytope) -> dict[frozenset[int], int]:
    """Each face of face_lattice_by_edge_rank(p) mapped to m - rank of the
    normals of the facets tight on every vertex of the face (its equality
    set in the H-representation), tightness decided in Fractions."""
    incidence = [frozenset(fv) for fv in facet_incidence_fraction(p)]
    dims = {}
    for face in face_lattice_by_edge_rank(p):
        tight = [
            [Fraction(x) for x in n]
            for n, fv in zip(p.facet_normals, incidence)
            if face <= fv
        ]
        dims[face] = p.dim - len(rref(tight)[1])
    return dims


def pulling_triangulation(
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


def barycenter_fraction(p: LatticePolytope, lattice) -> tuple[Fraction, ...]:
    """Volume-weighted centroid in Fractions over the pulling triangulation
    of the given face lattice (face -> dimension), each simplex weighted by
    rational_determinant (checked against cofactor expansion elsewhere) of
    its edges.  Raises ValueError when the polytope is not
    full-dimensional."""
    m = p.dim
    top = frozenset(range(len(p.vertices)))
    if lattice[top] < m:
        raise ValueError("polytope is not full-dimensional")
    total = Fraction(0)
    acc = [Fraction(0)] * m
    for simplex in pulling_triangulation(lattice, top):
        verts = [p.vertices[i] for i in simplex]
        base = verts[0]
        edges = RationalMatrix.from_rows(
            [[v[i] - base[i] for i in range(m)] for v in verts[1:]]
        )
        w = abs(rational_determinant(edges))
        total += w
        for i in range(m):
            acc[i] += w * sum(v[i] for v in verts) / (m + 1)
    return tuple(a / total for a in acc)


# ---------------------------------------------------------------------------
# Quotient weights of a cone by counting invariant monomials
# ---------------------------------------------------------------------------


def invariant_monomial_count_weights(factors, weights, m: int, max_degree: int) -> int:
    """Number of invariant monomials z^a, a in N^m, total degree <= bound,
    decided through the extracted action weights."""
    count = 0
    for a in product(range(max_degree + 1), repeat=m):
        if sum(a) > max_degree:
            continue
        if all(
            sum(w[j] * a[j] for j in range(m)) % d == 0
            for d, w in zip(factors, weights)
        ):
            count += 1
    return count


def invariant_monomial_count_lattice(cone, max_degree: int) -> int:
    """Same count decided through the toric dictionary, independently of the
    weight extraction: z^a descends to the quotient iff the corresponding
    character G^{-T} a is an integral point (of the dual cone, since a >= 0)."""
    m = cone.ambient_dim
    # Columns of (G^T)^{-1}; the rows of G^T are the generators.
    gt = [list(g) for g in cone.generators]
    inv_cols = [solve_cramer(gt, [int(i == j) for i in range(m)]) for j in range(m)]
    count = 0
    for a in product(range(max_degree + 1), repeat=m):
        if sum(a) > max_degree:
            continue
        if all(
            sum(inv_cols[j][i] * a[j] for j in range(m)).denominator == 1
            for i in range(m)
        ):
            count += 1
    return count


class Poly:
    """Exact polynomial in several variables: {exponent tuple: coeff}."""

    def __init__(self, terms=None):
        self.terms = {k: Fraction(v) for k, v in (terms or {}).items() if v}

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return Poly(out)

    def __mul__(self, other):
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                out[key] = out.get(key, Fraction(0)) + va * vb
        return Poly(out)

    def scale(self, c):
        return Poly({k: v * c for k, v in self.terms.items()})

    def laplacian(self):
        out = {}
        for k, v in self.terms.items():
            for i, e in enumerate(k):
                if e >= 2:
                    key = k[:i] + (e - 2,) + k[i + 1 :]
                    out[key] = out.get(key, Fraction(0)) + v * e * (e - 1)
        return Poly(out)

    def is_zero(self):
        return not self.terms


def harmonic_binomial_poly(j: int, nvars: int) -> Poly:
    """Re((x1 + i x2)^j) embedded in nvars variables: degree-j harmonic."""
    terms = {}
    from math import comb

    for t in range(0, j + 1):
        # i^t real part: t = 0 mod 4 -> +, 2 mod 4 -> -, odd -> 0
        if t % 2:
            continue
        sign = 1 if t % 4 == 0 else -1
        key = [0] * nvars
        key[0] = j - t
        if nvars > 1:
            key[1] = t
        terms[tuple(key)] = sign * comb(j, t)
    return Poly(terms)


def sphere_eigenvalue_oracle(j: int, m: int) -> int:
    """Eigenvalue of the spherical Laplacian on degree-j harmonics.

    Checks that the explicit harmonic polynomial really is annihilated by
    the symbolic Euclidean Laplacian, then reads the eigenvalue off the
    radial decomposition Lap = d_rr + (n-1)/r d_r + Lap_sphere / r^2 applied
    to a homogeneous function: Lambda = -(j(j-1) + (n-1) j), n = 2m.
    """
    n = 2 * m
    f = harmonic_binomial_poly(j, n)
    assert f.laplacian().is_zero(), "oracle polynomial is not harmonic"
    return -(j * (j - 1) + (n - 1) * j)


def sphere_volume_oracle(m: int) -> PiRational:
    """|S^{2m-1}| via the recursion |S^n| = (2 pi / (n-1)) |S^{n-2}|."""
    n = 2 * m - 1
    if n == 1:
        return PiRational(Fraction(2), 1)
    prev = sphere_volume_oracle(m - 1)
    return prev * PiRational(Fraction(2, n - 1), 1)


# ---------------------------------------------------------------------------
# Closed forms of the gluing construction that no report prints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialTerm:
    """coefficient * r^exponent (* log r) at spherical mode gamma."""

    coefficient: Fraction
    exponent: int
    mode: int
    log_flag: bool = False


def _normalize(terms: Sequence[RadialTerm]) -> tuple[RadialTerm, ...]:
    """Merge equal (exponent, mode, log) keys and drop zero coefficients."""
    acc: dict[tuple[int, int, bool], Fraction] = {}
    for t in terms:
        key = (t.exponent, t.mode, t.log_flag)
        acc[key] = acc.get(key, Fraction(0)) + t.coefficient
    return tuple(
        RadialTerm(c, e, g, log) for (e, g, log), c in sorted(acc.items()) if c != 0
    )


def _check_mode_oracle(m: int, gamma: int, no_invariant_linear: bool) -> None:
    if m < 2 or gamma < 0 or (gamma == 1 and no_invariant_linear):
        raise ValueError(f"no invariant mode gamma = {gamma} at m = {m}")


def outer_extension(
    m: int, gamma: int, h, k, no_invariant_linear: bool = False
) -> tuple[RadialTerm, ...]:
    """Biharmonic extension to the exterior with H = h, (Lap H) = k on the
    unit sphere, decaying at infinity (log slot at m = 2, gamma = 0)."""
    _check_mode_oracle(m, gamma, no_invariant_linear)
    h = frac(h)
    k = frac(k)
    if m == 2 and gamma == 0:
        return _normalize([RadialTerm(h, -2, 0), RadialTerm(k / 2, 0, 0, log_flag=True)])
    c = k / (4 * (m + gamma - 2))
    return _normalize(
        [
            RadialTerm(h + c, 2 - 2 * m - gamma, gamma),
            RadialTerm(-c, 4 - 2 * m - gamma, gamma),
        ]
    )


def inner_extension(
    m: int, gamma: int, h, k, no_invariant_linear: bool = False
) -> tuple[RadialTerm, ...]:
    """Biharmonic extension to the unit ball with the same boundary data."""
    _check_mode_oracle(m, gamma, no_invariant_linear)
    h = frac(h)
    k = frac(k)
    c = k / (4 * (m + gamma))
    return _normalize([RadialTerm(h - c, gamma, gamma), RadialTerm(c, gamma + 2, gamma)])


def radial_laplacian(terms: Sequence[RadialTerm], m: int) -> tuple[RadialTerm, ...]:
    """One application of the Laplacian in the radial-mode calculus.

    Lap(r^a Phi_g) = (a(a + 2m - 2) + Lambda_g) r^{a-2} Phi_g; the log
    variant adds the cross term and is only supported in the m = 2,
    gamma = 0 slot the construction actually uses.
    """
    out: list[RadialTerm] = []
    for t in terms:
        a = t.exponent
        radial = a * (a + 2 * m - 2) + eigenvalue(t.mode, m)
        if t.log_flag:
            if m != 2 or t.mode != 0:
                raise ValueError("log terms are only handled at m = 2, gamma = 0")
            out.append(RadialTerm(t.coefficient * radial, a - 2, t.mode, log_flag=True))
            out.append(RadialTerm(t.coefficient * (2 * a + 2 * m - 2), a - 2, t.mode))
        else:
            out.append(RadialTerm(t.coefficient * radial, a - 2, t.mode))
    return _normalize(out)


def radial_derivative_at_one(terms: Sequence[RadialTerm]) -> Fraction:
    """d/dr at r = 1: r^a -> a, r^a log r -> 1 (per unit coefficient)."""
    return sum(
        (t.coefficient * (1 if t.log_flag else t.exponent) for t in terms), Fraction(0)
    )


def dtn_image_by_calculus(
    m: int, gamma: int, h, k, no_invariant_linear: bool = False
) -> tuple[Fraction, Fraction]:
    """Jumps, outer minus inner, of d/dr H and d/dr Lap H at r = 1."""
    outer = outer_extension(m, gamma, h, k, no_invariant_linear)
    inner = inner_extension(m, gamma, h, k, no_invariant_linear)
    first = radial_derivative_at_one(outer) - radial_derivative_at_one(inner)
    second = radial_derivative_at_one(radial_laplacian(outer, m)) - radial_derivative_at_one(
        radial_laplacian(inner, m)
    )
    return first, second


def dtn_entries_by_calculus(m: int, gamma: int, no_invariant_linear: bool = False):
    """The mode matrix, column by column, from the images of (1, 0) and (0, 1)."""
    col_h = dtn_image_by_calculus(m, gamma, 1, 0, no_invariant_linear)
    col_k = dtn_image_by_calculus(m, gamma, 0, 1, no_invariant_linear)
    return ((col_h[0], col_k[0]), (col_h[1], col_k[1]))


def apply_mode_matrix(mat: ModeMatrix, h, k) -> tuple[Fraction, Fraction]:
    e = mat.entries
    hv, kv = frac(h), frac(k)
    return (e[0][0] * hv + e[0][1] * kv, e[1][0] * hv + e[1][1] * kv)


def compose_mode_matrices(p: ModeMatrix, q: ModeMatrix):
    """Entries of the product p·q."""
    a, b = p.entries, q.entries
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)) for i in range(2)
    )


def radial_bilaplacian(terms: Sequence[RadialTerm], m: int) -> tuple[RadialTerm, ...]:
    """Two applications; empty output means the profile is biharmonic."""
    return radial_laplacian(radial_laplacian(terms, m), m)


def evaluate(terms: Sequence[RadialTerm], r) -> Fraction:
    """Exact value at rational r > 0; log terms only contribute (zero) at r = 1."""
    rv = frac(r)
    if rv <= 0:
        raise ValueError("r > 0 required")
    total = Fraction(0)
    for t in terms:
        if t.log_flag:
            if rv != 1:
                raise ValueError("log term evaluated away from r = 1 is not rational")
            continue
        total += t.coefficient * rv**t.exponent
    return total


@dataclass(frozen=True)
class EpsPower:
    """The exact power eps^exponent (0 < eps < 1)."""

    eps: Fraction
    exponent: Fraction

    def __str__(self) -> str:
        return f"({self.eps})^({self.exponent})"


def gluing_scales(eps, m: int) -> tuple[EpsPower, EpsPower]:
    """Neck radii (r_eps, R_eps) = (eps^{(2m-1)/(2m+1)}, eps^{-2/(2m+1)}),
    so that r_eps = eps * R_eps identically."""
    e = frac(eps)
    if not 0 < e < 1:
        raise ValueError("need 0 < eps < 1")
    if m < 2:
        raise ValueError("m >= 2")
    return (
        EpsPower(e, Fraction(2 * m - 1, 2 * m + 1)),
        EpsPower(e, Fraction(-2, 2 * m + 1)),
    )


# ---------------------------------------------------------------------------
# Finite abelian groups by element enumeration
# ---------------------------------------------------------------------------


def group_elements(g):
    """Yield (n, ks, exps) per element of the presented group: the lcm n of
    the cyclic orders, the exponent tuple ks, and the element's eigenvalue
    exponents mod n on the m complex coordinates."""
    if not g.orders:
        yield 1, (), tuple(0 for _ in range(g.m))
        return
    n = lcm(*g.orders)
    for ks in product(*(range(d) for d in g.orders)):
        exps = tuple(
            sum(k * w[j] * (n // d) for k, d, w in zip(ks, g.orders, g.weights)) % n
            for j in range(g.m)
        )
        yield n, ks, exps


def isolated_by_enumeration(g) -> bool:
    """No nontrivial element fixes a coordinate axis."""
    return all(
        all(e != 0 for e in exps) for _, ks, exps in group_elements(g) if any(ks)
    )


def isolated_by_face_smoothness(cone) -> bool:
    """The toric criterion for an isolated chart singularity: every proper
    nonempty face of the cone is smooth, i.e. its generators extend to a
    lattice basis, i.e. the gcd of their maximal minors is 1."""
    m = cone.ambient_dim
    for size in range(1, m):
        for subset in combinations(cone.generators, size):
            minors = 0
            for rows in combinations(range(m), size):
                minor = det_cofactor([[g[i] for g in subset] for i in rows])
                minors = gcd(minors, int(minor))
            if minors != 1:
                return False
    return True


def first_invariant_index_by_search(g, m: int) -> int:
    """Smallest j >= 1 with invariant harmonics, by a bounded search over
    the monomial-basis count (degree-|Gamma| invariants always exist)."""
    for j in range(1, 2 * max(g.orders, default=1) + 1):
        if invariant_dimension_bruteforce(g, j, m) > 0:
            return j
    raise AssertionError("no invariant harmonics up to twice the max cyclic order")


# ---------------------------------------------------------------------------
# Cyclotomic integers Z[x]/Phi_n(x) and character averaging
# ---------------------------------------------------------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division in Z[x]; den need not be monic but must divide num."""
    num = num[:]
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("inexact polynomial division")
        q[i] = c // den[-1]
        if q[i]:
            for j, dj in enumerate(den):
                num[i + j] -= q[i] * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree."""
    if n < 1:
        raise ValueError("n >= 1")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class CyclotomicRing:
    """Exact arithmetic in Z[zeta_n] as integer vectors mod Phi_n."""

    def __init__(self, n: int):
        self.n = n
        self.phi = list(cyclotomic_polynomial(n))
        self.deg = len(self.phi) - 1

    def reduce(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        c = list(coeffs)
        for i in range(len(c) - 1, self.deg - 1, -1):
            top = c[i]
            if top:
                # phi is monic, so the reduction stays integral.
                for j in range(self.deg + 1):
                    c[i - self.deg + j] -= top * self.phi[j]
        c = c[: self.deg]
        c += [0] * (self.deg - len(c))
        return tuple(c)

    def zero(self) -> tuple[int, ...]:
        return tuple([0] * self.deg)

    def one(self) -> tuple[int, ...]:
        return self.reduce([1])

    def root_power(self, e: int) -> tuple[int, ...]:
        return self.reduce([0] * (e % self.n) + [1])

    def add(self, a, b) -> tuple[int, ...]:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b) -> tuple[int, ...]:
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a) -> tuple[int, ...]:
        return tuple(-x for x in a)

    def mul(self, a, b) -> tuple[int, ...]:
        return self.reduce(_poly_mul(list(a), list(b)))

    def as_integer(self, a) -> int:
        """The rational-integer value of an element known to be in Z."""
        if any(a[1:]):
            raise ArithmeticError(f"cyclotomic element {a} is not a rational integer")
        return a[0]


def _polynomial_characters(ring: CyclotomicRing, exps, up_to: int):
    """Characters p_0..p_up_to of the element's action on real polynomials.

    p_j is the t^j coefficient of 1/det(1 - t * gamma_R); over C^m the real
    characteristic polynomial factors as prod_i (1 - (z^e + z^-e) t + t^2),
    so the series inversion stays inside the cyclotomic ring.
    """
    # D(t) with ring coefficients, degree 2m.
    den = [ring.one()]
    for e in exps:
        s = ring.add(ring.root_power(e), ring.root_power(-e))
        factor = [ring.one(), ring.neg(s), ring.one()]
        new = [ring.zero()] * (len(den) + 2)
        for i, di in enumerate(den):
            for j, fj in enumerate(factor):
                new[i + j] = ring.add(new[i + j], ring.mul(di, fj))
        den = new
    # Power-series inverse: q_0 = 1, q_k = -sum_{l>=1} D_l q_{k-l}.
    q = [ring.one()]
    for k in range(1, up_to + 1):
        acc = ring.zero()
        for l in range(1, min(k, len(den) - 1) + 1):
            acc = ring.add(acc, ring.mul(den[l], q[k - l]))
        q.append(ring.neg(acc))
    return q


def invariant_dimension_characters(g, j: int, m: int) -> int:
    """Character-averaging oracle: the harmonic character chi_j = p_j - p_{j-2}
    averaged over the group in exact cyclotomic arithmetic; a non-integer
    average is a hard failure."""
    n = lcm(*g.orders) if g.orders else 1
    ring = CyclotomicRing(n)
    total = ring.zero()
    count = 0
    for _, _, exps in group_elements(g):
        count += 1
        p = _polynomial_characters(ring, exps, j)
        chi = p[j]
        if j >= 2:
            chi = ring.sub(chi, p[j - 2])
        total = ring.add(total, chi)
    value = ring.as_integer(total)
    if value % count != 0 or value < 0:
        raise ArithmeticError("character average is not a nonnegative integer")
    return value // count


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def invariant_dimension_bruteforce(g, j: int, m: int) -> int:
    """Monomial-basis oracle: the group acts diagonally on the monomials
    z^a zbar^b, so the invariant polynomial subspace is spanned by the fixed
    basis monomials; harmonic invariants are P_j minus r^2 P_{j-2}."""

    def invariant_monomials(deg: int) -> int:
        if deg < 0:
            return 0
        count = 0
        for mono in _compositions(deg, 2 * m):
            z, zbar = mono[:m], mono[m:]
            if all(
                sum(w[i] * (z[i] - zbar[i]) for i in range(m)) % d == 0
                for d, w in zip(g.orders, g.weights)
            ):
                count += 1
        return count

    return invariant_monomials(j) - invariant_monomials(j - 2)
