"""Expected answers for benchmark inputs, derived without kcscglue.

Everything here is plain ``fractions.Fraction`` arithmetic written for the
benchmark: cofactor determinants, Gauss-Jordan solves and ranks, and
determinantal divisors for group structure.  Nothing is imported from the
library, so a defect in its linear algebra cannot hide in its own check.

``check_fan`` and ``check_orbifold`` compare a rendered report (parsed back
from JSON) with the expected answer and return the list of mismatches; an
empty list means the report is correct.  They compare meanings -- verdicts,
cone data, re-verified witnesses -- never report bytes, so a change to the
report layout that keeps the answers keeps passing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm
from typing import Optional, Sequence

SMOOTH, SU, U_NON_SU = "smooth", "su", "u_non_su"


def det(rows: Sequence[Sequence]):
    """Determinant by cofactor expansion along the first row, in the
    entries' own exact type (int or Fraction)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * det(minor)
    return total


def _echelon(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q and its pivot columns."""
    a = [[Fraction(x) for x in r] for r in rows]
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def rank(vectors: Sequence[Sequence]) -> int:
    return len(_echelon(vectors)[1]) if vectors else 0


def inverse(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = _echelon(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [r[n:] for r in red]


def _gcd_of_minors(rows: Sequence[Sequence[int]], k: int) -> int:
    g = 0
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(len(rows[0])), k):
            g = gcd(g, int(det([[rows[i][j] for j in ci] for i in ri])))
            if g == 1:
                return 1
    return g


def invariant_factors(columns: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Orders of the cyclic factors (> 1) of Z^m / span(columns), read off
    the determinantal divisors D_k = gcd of the k x k minors."""
    rows = [list(r) for r in zip(*columns)]
    factors, prev = [], 1
    for k in range(1, len(rows) + 1):
        dk = _gcd_of_minors(rows, k)
        if dk == 0:
            raise ValueError("degenerate cone")
        if dk // prev > 1:
            factors.append(dk // prev)
        prev = dk
    return tuple(factors)


def _faces_smooth(columns: Sequence[Sequence[int]]) -> bool:
    """Every facet (hence every proper face) of the cone is a smooth cone:
    each set of m-1 generators has coprime maximal minors."""
    m = len(columns)
    for face in combinations(columns, m - 1):
        rows = [list(r) for r in zip(*face)]
        if _gcd_of_minors(rows, m - 1) != 1:
            return False
    return True


def _invariant_harmonics(h: Sequence[Sequence[Fraction]]) -> tuple[int, int]:
    """Dimensions of the Gamma-invariant harmonics of degree 1 and 2.

    Gamma = Z^m / G Z^m; with H = G^{-1} the class of n acts on z_i by
    exp(2 pi i (H n)_i), so z_i carries the character row i of H (mod 1) and
    zbar_i its negative.  A monomial is fixed iff its characters sum to an
    integer vector; the degree-2 harmonics are the degree-2 monomials minus
    the one invariant r^2.
    """
    den = lcm(*(x.denominator for row in h for x in row))
    chars = []
    for row in h:
        z = [int(x * den) % den for x in row]
        chars += [z, [-v % den for v in z]]

    def fixed(v) -> bool:
        return not any(x % den for x in v)

    degree1 = sum(map(fixed, chars))
    degree2 = sum(
        fixed([a + b for a, b in zip(x, y)])
        for x, y in combinations_with_replacement(chars, 2)
    )
    return degree1, degree2 - 1


@dataclass(frozen=True)
class ConeAnswer:
    label: str
    order: int
    cyclic_factors: tuple[int, ...]
    classification: str
    isolated: bool
    vertex: tuple[Fraction, ...]  # moment vertex: <u, v_i> = -k
    linear_dim: int  # invariant harmonics of degree 1
    first_index: int  # first degree with invariant harmonics


@dataclass(frozen=True)
class FanAnswer:
    dim: int
    cones: tuple[ConeAnswer, ...]
    su: tuple[str, ...]
    feasible: bool
    barycenter: Optional[tuple[Fraction, ...]]  # None where not derived


class Undecided(ValueError):
    """The oracle has no exact verdict for this fan."""


def _cone_answer(label, gens, k, group_cache) -> ConeAnswer:
    m = len(gens)
    order = abs(int(det(gens)))
    if order == 0:
        raise ValueError(f"cone {label} is degenerate")
    # Group structure and isolation do not depend on generator signs, and
    # symmetric fans repeat one cone up to signs many times.
    key = tuple(sorted(max(g, tuple(-x for x in g)) for g in gens))
    if key not in group_cache:
        group_cache[key] = (invariant_factors(gens), _faces_smooth(gens))
    factors, isolated = group_cache[key]
    h = inverse([list(c) for c in zip(*gens)])  # G^{-1}, G has the gens as columns
    u = [sum(h[i][col] for i in range(m)) for col in range(m)]  # <u, v_i> = 1
    if order == 1:
        cls = SMOOTH
    else:
        cls = SU if all(x.denominator == 1 for x in u) else U_NON_SU
    h1, h2 = _invariant_harmonics(h)
    first = 1 if h1 else 2
    if not h1 and not h2:
        raise Undecided(f"cone {label}: no invariant harmonics of degree <= 2")
    return ConeAnswer(
        label=label,
        order=order,
        cyclic_factors=factors,
        classification=cls,
        isolated=isolated,
        vertex=tuple(-k * x for x in u),
        linear_dim=h1,
        first_index=first,
    )


def fan_answer(dim, rays, cones, labels, k) -> FanAnswer:
    """Expected report content for a complete simplicial fan.

    The verdict is decided only where it follows from a certificate the
    oracle can see: no SU chart, or at most ``dim`` of them (a positive
    kernel vector and rank ``dim`` need ``dim + 1`` columns), is infeasible;
    SU vertices summing to zero admit ``b = 1`` and are feasible iff they
    have rank ``dim``.  Any other fan raises ``Undecided``.
    """
    cache: dict = {}
    answers = tuple(
        _cone_answer(label, [tuple(rays[i]) for i in idx], k, cache)
        for label, idx in zip(labels, cones)
    )
    su = tuple(a.label for a in answers if a.classification == SU)
    su_vertices = [a.vertex for a in answers if a.classification == SU]
    if len(su) <= dim:
        feasible = False
    elif all(sum(col) == 0 for col in zip(*su_vertices)):
        feasible = rank(su_vertices) == dim
    else:
        raise Undecided("SU vertices are not balanced by b = 1")
    vertices = {a.vertex for a in answers}
    if all(tuple(-x for x in v) in vertices for v in vertices):
        barycenter = tuple(Fraction(0) for _ in range(dim))
    elif len(vertices) == dim + 1:
        barycenter = tuple(sum(c) / (dim + 1) for c in zip(*vertices))
    else:
        barycenter = None
    return FanAnswer(dim, answers, su, feasible, barycenter)


@dataclass(frozen=True)
class OrbifoldAnswer:
    regime: str  # "scalar_flat" or "ricci_flat"
    columns: tuple[tuple[Fraction, ...], ...]  # balancing matrix, one column per point
    rank: int
    feasible: bool
    has_witness: bool  # a positive kernel vector exists


def _q(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _check_witness(w, columns, problems: list[str]) -> None:
    if w is None:
        problems.append("positive kernel vector exists but no witness reported")
        return
    w = _q(w)
    if len(w) != len(columns):
        problems.append(f"witness has {len(w)} entries for {len(columns)} columns")
        return
    if min(w) < 1:
        problems.append("witness has an entry below 1")
    residual = [sum(wj * c[i] for wj, c in zip(w, columns)) for i in range(len(columns[0]))]
    if any(residual):
        problems.append("witness is not in the kernel")


def _eigenvalue(j: int, m: int) -> int:
    """Laplacian eigenvalue of the degree-j harmonics on S^{2m-1}."""
    return -j * (j + 2 * m - 2)


def check_fan(report: dict, expected: FanAnswer) -> list[str]:
    problems: list[str] = []
    body = report["report"]
    if not body["validation"]["valid"]:
        return ["valid fan reported invalid"]
    table = {e["label"]: e for e in body["classification"]}
    for a in expected.cones:
        e = table.get(a.label)
        if e is None:
            problems.append(f"cone {a.label} missing")
            continue
        got = (
            e.get("order"),
            tuple(e.get("cyclic_factors", ())),
            e["classification"],
            e.get("isolated"),
        )
        want = (a.order, a.cyclic_factors, a.classification, a.isolated)
        if got != want:
            problems.append(f"cone {a.label}: {got} != {want}")
    poly = body["polytope"]
    moments = poly.get("moment_assignment", {})
    for a in expected.cones:
        if tuple(_q(moments.get(a.label, ()))) != a.vertex:
            problems.append(f"cone {a.label}: moment vertex differs")
    if expected.barycenter is not None and tuple(_q(poly["barycenter"])) != expected.barycenter:
        problems.append("polytope barycenter differs")
    if set(body.get("su_cones", ())) != set(expected.su):
        problems.append("SU cone set differs")
    bal = body["balancing"]
    if bal["feasible"] != expected.feasible:
        problems.append(f"verdict {bal['feasible']} != {expected.feasible}")
    if bal.get("witness_b") is not None or expected.feasible:
        vertex = {a.label: a.vertex for a in expected.cones}
        columns = [vertex[label] for label in body.get("su_cones", ())]
        if columns:
            _check_witness(bal.get("witness_b"), columns, problems)
    want_groups = {
        (a.cyclic_factors, a.linear_dim, a.first_index, _eigenvalue(a.first_index, expected.dim))
        for a in expected.cones
        if a.order > 1
    }
    got_groups = {
        (
            tuple(g["orders"]),
            g["invariant_linear_dimension"],
            g["first_invariant_index"],
            g["first_invariant_eigenvalue"],
        )
        for g in body["spectral"]["groups"]
    }
    if got_groups != want_groups:
        problems.append(f"spectral entries {sorted(got_groups)} != {sorted(want_groups)}")
    return problems


def check_orbifold(report: dict, expected: OrbifoldAnswer) -> list[str]:
    problems: list[str] = []
    body = report["report"]
    if len(body["points"]) != len(expected.columns):
        problems.append("point count differs")
    bal = body["balancing"]
    if bal["regime"] != expected.regime:
        problems.append(f"regime {bal['regime']} != {expected.regime}")
    if bal["feasible"] != expected.feasible:
        problems.append(f"verdict {bal['feasible']} != {expected.feasible}")
    w = bal.get("witness_a" if expected.regime == "scalar_flat" else "witness_b")
    if expected.has_witness:
        _check_witness(w, expected.columns, problems)
    elif w is not None:
        problems.append("witness reported where no positive kernel vector exists")
    # The library reports no rank only for a ricci_flat case with no witness.
    reported_rank = bal.get("xi_rank" if expected.regime == "scalar_flat" else "theta_rank")
    rank_due = expected.regime == "scalar_flat" or expected.has_witness
    if (rank_due or reported_rank is not None) and reported_rank != expected.rank:
        problems.append(f"rank {reported_rank} != {expected.rank}")
    return problems
