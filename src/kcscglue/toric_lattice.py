"""Fans of toric orbifolds and quotient-singularity classification.

Each maximal simplicial cone of a complete fan describes an affine chart
C^m / Gamma with Gamma abelian, presented as a GroupPresentation, the one
abelian-group type of the package: cyclic orders plus diagonal action
weights.  Its order, classification (smooth, SU(m) -- Gorenstein,
crepant-resolvable candidates -- or U(m)-non-SU) and isolation are derived
from the presentation by closed forms, never by enumerating Gamma.  A fan
builds each cone once, with its integer inverse p·V^{-1} (|p| = |det V|,
the sign of p not canonical): one elimination for the first cone of each
connected component of the fan's wall table, and one exchange pivot from a
neighbour's inverse for every further cone.  The inverse gives the cone's
validity, its order |det|, its Gorenstein covector, its moment vertices,
its side of each wall, which the fan check reads to decide that the cones
form a complete fan, and its group: a cyclic Gamma is read off the inverse
as 1/n(w), w the lexicographically least unit multiple of a generator's
weights (1/n(1, a_2, ...) on isolated charts), and only a non-cyclic Gamma
takes a Smith normal form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from math import gcd, lcm
from operator import mul
from typing import Iterator, Optional, Sequence

from .exact_linalg import integer_inverse, smith_normal_form

IntVector = tuple[int, ...]

SMOOTH = "smooth"
SU = "su"
U_NON_SU = "u_non_su"
UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Cone:
    """Simplicial lattice cone given by its primitive generators."""

    generators: tuple[IntVector, ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "Cone":
        return Cone(tuple(tuple(int(x) for x in r) for r in rows))

    @property
    def ambient_dim(self) -> int:
        return len(self.generators[0]) if self.generators else 0

    def generator_matrix(self) -> list[list[int]]:
        """m x k matrix whose columns are the generators."""
        m = self.ambient_dim
        return [[g[i] for g in self.generators] for i in range(m)]

    @cached_property
    def inverse(self) -> Optional[tuple[tuple[IntVector, ...], int]]:
        """(columns A_j of p·V^{-1}, p), V the generators as rows and |p| =
        |det V|, the sign of p not canonical; None if V is singular or not
        square.  <v_i, A_j> = p [i = j]: <q, A_j> / p is q's j-th generator
        coordinate.  A cone of a fan usually has it set by the fan's walk,
        one exchange pivot from a neighbour's; else it is one elimination."""
        try:
            rows, p = integer_inverse(self.generators)
        except ValueError:
            return None
        return tuple(zip(*rows)), p

    @cached_property
    def height_one(self) -> Optional[tuple[list[int], int]]:
        """u with <u, v_i> = 1 as (numerators, p), u = numerators / p: the row
        sums of the inverse.  At height -k it is -k times these over p."""
        if self.inverse is None:
            return None
        columns, p = self.inverse
        return [sum(row) for row in zip(*columns)], p


@dataclass(frozen=True)
class Fan:
    """Rays plus maximal cones (as 0-based ray index sets)."""

    dim: int
    rays: tuple[IntVector, ...]
    max_cones: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"C{i + 1}" for i in range(len(self.max_cones)))
            )
        if len(self.labels) != len(self.max_cones):
            raise ValueError("one label per maximal cone required")

    def cone(self, index: int) -> Cone:
        """The index-th maximal cone, built once per fan, so that what a cone
        caches is shared by every stage of a report."""
        cone = self._cones.get(index)
        if cone is None:
            cone = self._cones[index] = Cone(
                tuple(self.rays[i] for i in self.max_cones[index])
            )
        return cone

    @cached_property
    def walls(self) -> dict[tuple[int, ...], list[tuple[int, int]]]:
        """Each wall, a sorted (dim-1)-subset of the ray indices of a cone
        with dim of them, with its sides (cone, j): the cones it lies in, j
        the position in the cone of the ray the cone adds to the wall."""
        walls: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for c, idx in enumerate(self.max_cones):
            if len(idx) == self.dim:
                for j in range(len(idx)):
                    walls.setdefault(_wall(idx, j), []).append((c, j))
        return walls

    @cached_property
    def _cones(self) -> dict[int, Cone]:
        """The cones on dim distinct in-range rays of length dim, with every
        inverse the walk reaches set: across each wall a cone is one exchange
        pivot from its neighbour's, so only the first cone of each connected
        component takes an elimination.  Other cones are built, and invert
        themselves, when asked for."""
        n = len(self.rays)
        cones = {
            c: Cone(tuple(self.rays[i] for i in idx))
            for c, idx in enumerate(self.max_cones)
            if len(set(idx)) == len(idx) == self.dim
            and all(0 <= i < n and len(self.rays[i]) == self.dim for i in idx)
        }
        sides = {side: others for others in self.walls.values() for side in others}
        for root, cone in cones.items():
            if "inverse" in cone.__dict__ or cone.inverse is None:
                continue
            stack = [root]
            while stack:
                c = stack.pop()
                columns, p = cones[c].inverse
                idx = self.max_cones[c]
                for j in range(self.dim):
                    for c2, j2 in sides[c, j]:
                        target = cones.get(c2)
                        if target is None or "inverse" in target.__dict__:
                            continue
                        idx2 = self.max_cones[c2]
                        inverse = _exchange(columns, p, j, self.rays[idx2[j2]])
                        if inverse is not None:
                            # columns from this cone's ray order to idx2's
                            at = {r: k for k, r in enumerate(idx)}
                            at[idx2[j2]] = j
                            inverse = tuple(inverse[0][at[r]] for r in idx2), inverse[1]
                            stack.append(c2)
                        # the cached_property's slot: the value the cone
                        # would otherwise compute for itself
                        target.__dict__["inverse"] = inverse
        return cones

    def cones(self) -> Iterator[tuple[str, Cone]]:
        for i in range(len(self.max_cones)):
            yield self.labels[i], self.cone(i)

    @cached_property
    def validation(self) -> "FanValidation":
        return _validate(self)

    @cached_property
    def generic_direction(self) -> tuple[IntVector, tuple[IntVector, ...]]:
        """(c, alphas): c = (1, t, t^2, ...) for the least t >= 2 with every
        alpha_j = <c, A_j> of every (nonsingular) cone nonzero, and those
        alpha_j by cone; each is a nonzero polynomial in t of degree < dim."""
        columns = [self.cone(i).inverse[0] for i in range(len(self.max_cones))]
        for t in count(2):
            c = tuple(t**i for i in range(self.dim))
            alphas = tuple(tuple(sum(map(mul, c, a)) for a in cols) for cols in columns)
            if all(map(all, alphas)):
                return c, alphas


def _wall(idx: Sequence[int], j: int) -> tuple[int, ...]:
    """The wall of the cone on ray indices idx opposite its j-th ray."""
    return tuple(sorted(idx[:j] + idx[j + 1 :]))


def _exchange(
    columns: tuple[IntVector, ...], p: int, j: int, ray: IntVector
) -> Optional[tuple[tuple[IntVector, ...], int]]:
    """The inverse (columns, p') of the cone whose generator j is replaced
    by ``ray``, from the inverse (columns A_k, p) of the cone: with a_k =
    <ray, A_k>, p' = a_j, A'_j = A_j and A'_k = (a_j·A_k - a_k·A_j) / p,
    which gives <v_i, A'_k> = p' [i = k] on the new generators.  The
    division is exact, as p'·V'^{-1} is ± the adjugate of V'; a_j = 0 means
    the new cone is singular (None)."""
    a = [sum(map(mul, ray, col)) for col in columns]
    q = a[j]
    if q == 0:
        return None
    pivot = columns[j]
    return (
        tuple(
            pivot if k == j else tuple((q * x - a_k * y) // p for x, y in zip(col, pivot))
            for k, (col, a_k) in enumerate(zip(columns, a))
        ),
        q,
    )


@dataclass(frozen=True)
class GroupPresentation:
    """Finite abelian subgroup of U(m) acting diagonally.

    One weight vector in (Z/d)^m per cyclic factor of order d; the factor's
    generator acts by diag(zeta^w1, ..., zeta^wm) with zeta a primitive d-th
    root of unity.  The trivial group has no factors.  The presented group
    is the direct sum of the factors; a presentation need not be faithful.
    """

    m: int
    orders: tuple[int, ...]
    weights: tuple[IntVector, ...]

    def __post_init__(self) -> None:
        if len(self.orders) != len(self.weights):
            raise ValueError("one weight vector per cyclic factor")
        for d, w in zip(self.orders, self.weights):
            if d < 2:
                raise ValueError("cyclic factor orders must be >= 2")
            if len(w) != self.m:
                raise ValueError("weight vector length must equal m")
        object.__setattr__(
            self,
            "weights",
            tuple(
                tuple(x % d for x in w) for d, w in zip(self.orders, self.weights)
            ),
        )

    @staticmethod
    def trivial(m: int) -> "GroupPresentation":
        return GroupPresentation(m=m, orders=(), weights=())

    @property
    def order(self) -> int:
        n = 1
        for d in self.orders:
            n *= d
        return n

    def is_trivial(self) -> bool:
        return not self.orders

    @cached_property
    def classification(self) -> str:
        """Smooth, SU (every generator has determinant one) or U-non-SU."""
        if self.is_trivial():
            return SMOOTH
        su = all(sum(w) % d == 0 for d, w in zip(self.orders, self.weights))
        return SU if su else U_NON_SU

    @property
    def isolated(self) -> bool:
        """True iff no nontrivial element fixes a coordinate axis.

        Coordinate i is moved by every nontrivial element iff its character
        (w_k[i] mod d_k)_k is injective, that is, has order |Gamma|: the lcm
        over the factors of d_k / gcd(w_k[i], d_k).  This holds for any
        presentation, Smith form or not, faithful or not, and the trivial
        group (an empty lcm) is isolated.
        """
        return all(
            lcm(*(d // gcd(w[i], d) for d, w in zip(self.orders, self.weights)))
            == self.order
            for i in range(self.m)
        )


@dataclass(frozen=True)
class FanValidation:
    valid: bool
    violations: tuple[str, ...]


def _is_primitive(v: IntVector) -> bool:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


def validate_fan(fan: Fan) -> FanValidation:
    """Check primitivity, simpliciality, full-dimensionality and
    distinctness of max cones and of their labels, then that the cones form
    a complete fan.

    Violations are reported, not raised: non-simplicial cones fall outside
    the isolated-singularity setting but should not abort a database scan.
    The verdict is cached on the fan.
    """
    return fan.validation


def _validate(fan: Fan) -> FanValidation:
    violations: list[str] = []
    for i, ray in enumerate(fan.rays):
        if len(ray) != fan.dim:
            violations.append(f"ray {i + 1} has length {len(ray)}, expected {fan.dim}")
        elif all(x == 0 for x in ray):
            violations.append(f"ray {i + 1} is zero")
        elif not _is_primitive(ray):
            violations.append(f"ray {i + 1} {list(ray)} is not primitive")
    if len(set(fan.rays)) != len(fan.rays):
        violations.append("rays are not pairwise distinct")
    # Labels key the moment assignment and the charts balancing glues.
    uses = Counter(fan.labels)
    violations.extend(f"cone label {label} names {n} cones" for label, n in uses.items() if n > 1)
    seen: dict[frozenset[int], int] = {}
    for i, idx in enumerate(fan.max_cones):
        label = fan.labels[i]
        if any(j < 0 or j >= len(fan.rays) for j in idx):
            violations.append(f"cone {label}: ray index out of range")
            continue
        if len(set(idx)) != len(idx):
            violations.append(f"cone {label}: repeated ray")
            continue
        first = seen.setdefault(frozenset(idx), i)
        if first != i:
            # The same chart listed twice would enter balancing twice.
            violations.append(f"cone {label}: same rays as cone {fan.labels[first]}")
            continue
        if len(idx) != fan.dim:
            violations.append(
                f"cone {label}: {len(idx)} generators, expected {fan.dim} "
                "(not full-dimensional simplicial)"
            )
            continue
        if fan.cone(i).inverse is None:
            violations.append(f"cone {label}: generators are linearly dependent")
    if not violations:
        violations = _fan_violations(fan)
    return FanValidation(valid=not violations, violations=tuple(violations))


def _fan_violations(fan: Fan) -> list[str]:
    """Why nonsingular simplicial cones on distinct ray sets are not a
    complete fan (Cox-Little-Schenck 2011, 3.1): a ray in no cone, a wall (a
    cone minus its ray j) not in exactly two cones on opposite sides (the
    other cone's extra ray v' has <v', A_j> p < 0), or else, as the count is
    then the same off every wall, the generic direction c not in exactly
    one cone (c is in a cone iff every alpha_j p > 0)."""
    used = set().union(*fan.max_cones)
    out = [f"ray {i + 1} {list(r)} is in no cone" for i, r in enumerate(fan.rays) if i not in used]
    for wall, sides in fan.walls.items():
        name = f"wall {[i + 1 for i in wall]}"
        if len(sides) != 2:
            out.append(f"{name} lies in {len(sides)} of the cones, expected 2")
            continue
        (c, j), (c2, j2) = sides
        columns, p = fan.cone(c).inverse
        if sum(map(mul, fan.rays[fan.max_cones[c2][j2]], columns[j])) * p >= 0:
            out.append(f"cones {fan.labels[c]} and {fan.labels[c2]} are on one side of {name}")
    point, alphas = fan.generic_direction
    inside = sum(all(a * fan.cone(c).inverse[1] > 0 for a in row) for c, row in enumerate(alphas))
    if inside != 1:
        out.append(f"point {list(point)} lies in {inside} of the cones, expected 1")
    return out


def cone_index(cone: Cone) -> int:
    """|Gamma| = |det| of the generator matrix, read off the height-one solve."""
    if len(cone.generators) != cone.ambient_dim:
        raise ValueError("cone is not full-dimensional")
    if cone.height_one is None:
        raise ValueError("degenerate cone: zero determinant")
    return abs(cone.height_one[1])


def quotient_action(cone: Cone) -> GroupPresentation:
    """Extract Gamma and its diagonal action weights from the cone.

    With (columns A_j, p) the cone's inverse and n = |p| = |Gamma|, the class
    of the lattice point e_k has generator coordinates A_j[k] / p, so it acts
    on chart coordinate j by the n-th roots of unity with exponent A_j[k]·sign(p)
    mod n; these m rows generate Gamma, and the action is faithful.  Gamma
    is cyclic iff its exponent is n, that is, iff n is prime to every entry
    of the inverse.  Then an element of order n generates it, and the chart
    is reported as 1/n(w) with w the lexicographically least unit multiple
    of that element's row, 1/n(1, a_2, ...) whenever the first weight is
    prime to n (on every isolated chart), so the weights depend only on the
    cone and its ray order, not on the lattice basis.  A non-cyclic Gamma
    comes from the Smith normal form of the generator matrix.
    """
    order = cone_index(cone)
    m = cone.ambient_dim
    if order == 1:
        return GroupPresentation.trivial(m)
    columns, p = cone.inverse
    sign = 1 if p > 0 else -1
    rows = [tuple(x * sign % order for x in row) for row in zip(*columns)]
    if gcd(order, *(x for row in rows for x in row)) != 1:
        return _smith_quotient(cone, order)
    return GroupPresentation(
        m=m, orders=(order,), weights=(_least_unit_multiple(_generator(rows, order), order),)
    )


def _element_order(w: IntVector, n: int) -> int:
    return n // gcd(n, *w)


def _generator(rows: list[IntVector], n: int) -> IntVector:
    """An element of order n of the cyclic group of order n that the rows
    generate in (Z/n)^m: the first row of order n, or else the rows combined
    one by one, g + t·r with the least t >= 0 that gives order lcm(ord g,
    ord r).  In a cyclic group such a t exists for every prime of n (a t
    fails for at most one residue mod the prime), so the search is short."""
    orders = [_element_order(r, n) for r in rows]
    if n in orders:
        return rows[orders.index(n)]
    g, order_g = rows[0], orders[0]
    for r, order_r in zip(rows[1:], orders[1:]):
        want = lcm(order_g, order_r)
        for t in range(n):
            h = tuple((x + t * y) % n for x, y in zip(g, r))
            if _element_order(h, n) == want:
                g, order_g = h, want
                break
    if order_g != n:
        raise RuntimeError("the rows of a cyclic group have no element of its order (bug)")
    return g


def _least_unit_multiple(g: IntVector, n: int) -> IntVector:
    """The lexicographically least u·g mod n over the units u mod n.

    With x = e·x' the first nonzero weight and e = gcd(x, n), u·x mod n is e
    times u·x' mod n/e, which runs over the units mod n/e, so the least first
    nonzero weight is e, reached by the units u = x'^{-1} mod n/e; the least
    of those e candidates wins.  When x = g[0] is prime to n (on every
    isolated chart) the one candidate gives 1/n(1, a_2, ...).
    """
    x = next(x for x in g if x)
    e = gcd(x, n)
    step = n // e
    return min(
        tuple(u * y % n for y in g)
        for u in range(pow(x // e, -1, step), n, step)
        if gcd(u, n) == 1
    )


def _smith_quotient(cone: Cone, order: int) -> GroupPresentation:
    """Gamma from the Smith normal form G = U·D·V of the generator-column
    matrix G: Z^m/G(Z^m) is the direct sum of Z/d_i generated by the classes
    of the columns of U, and the generator of the order-d_i factor acts on
    the chart coordinates by the d_i-th roots of unity with exponents given
    by column i of V^{-1} (mod d_i).  The invariant-monomial cross-check in
    the test suite pins this convention down.
    """
    m = cone.ambient_dim
    snf = smith_normal_form(cone.generator_matrix())
    v_inv = snf.v_inv
    # The weights are read off V^{-1}, so it must really invert V.  That
    # also makes the action faithful: the element a of (Z/d_k)_k acts on
    # coordinate j by exp(2 pi i (V^{-1} D^{-1} a)_j), and if V^{-1} D^{-1} a
    # is integral then so is D^{-1} a = V (V^{-1} D^{-1} a), that is, d_k | a_k
    # for every k and a is the identity.
    columns = tuple(zip(*v_inv))
    if any(
        sum(map(mul, row, col)) != (i == j)
        for i, row in enumerate(snf.v)
        for j, col in enumerate(columns)
    ):
        raise RuntimeError("Smith normal form: V^{-1} is not the inverse of V (bug)")
    factors: list[int] = []
    weights: list[IntVector] = []
    for i, d in enumerate(snf.diagonal()):
        if d <= 1:
            continue
        factors.append(d)
        weights.append(tuple(v_inv[j][i] % d for j in range(m)))
    group = GroupPresentation(m=m, orders=tuple(factors), weights=tuple(weights))
    if group.order != order:
        raise RuntimeError("SNF diagonal inconsistent with |det|")
    return group


def gorenstein_covector(cone: Cone) -> Optional[IntVector]:
    """Integer covector u with <u, v_i> = 1 for all generators, if any."""
    if cone.height_one is None:
        raise ValueError("degenerate cone: singular generator system")
    num, p = cone.height_one
    if all(x % p == 0 for x in num):
        return tuple(x // p for x in num)
    return None


def is_gorenstein(cone: Cone) -> bool:
    """True iff the generators lie on an integral affine hyperplane at
    height one (equivalently Gamma is in SU(m) for abelian toric quotients)."""
    return gorenstein_covector(cone) is not None


def _verified_quotient(cone: Cone) -> GroupPresentation:
    """The cone's group, its classification cross-checked two ways.

    On singular cones the weight-sum criterion (each generator has
    determinant one) must agree with the Gorenstein-covector test; a
    mismatch means the group extraction convention broke, so it raises
    rather than guessing.
    """
    group = quotient_action(cone)
    if not group.is_trivial() and is_gorenstein(cone) != (group.classification == SU):
        raise RuntimeError("Gorenstein test disagrees with weight-sum criterion")
    return group


def classify(cone: Cone) -> str:
    """Smooth / SU / U-non-SU, cross-checked two ways."""
    return _verified_quotient(cone).classification


def classify_fan(fan: Fan) -> list[tuple[str, Optional[GroupPresentation]]]:
    """Classify every maximal cone once; results in input order.

    Cones outside the isolated-singularity setting (non-simplicial,
    degenerate) yield None -- consumers present them as unsupported rather
    than aborting a database scan.
    """
    out: list[tuple[str, Optional[GroupPresentation]]] = []
    for label, cone in fan.cones():
        try:
            out.append((label, _verified_quotient(cone)))
        except ValueError:
            out.append((label, None))
    return out
