import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, gcd, prod

import pytest

from conftest import (
    first_invariant_index_by_search,
    invariant_dimension_bruteforce,
    invariant_dimension_characters,
    isolated_by_enumeration,
    sphere_eigenvalue_oracle,
)
from kcscglue.exact_linalg import RationalMatrix, rank
from kcscglue.examples import example_by_name
from kcscglue.formats import parse_fan
from kcscglue.spectral import (
    BASE_ORBIFOLD_M2,
    BASE_ORBIFOLD_M3,
    NONLINEAR,
    eigenvalue,
    first_invariant_index,
    invariant_harmonic_dimension,
    weight_interval,
)
from kcscglue.toric_lattice import GroupPresentation, classify_fan

# Closed forms of the linear theory that no report prints; the tests pin
# them against the library's counts and intervals.

ALE = "ale"


def harmonic_dimension(j: int, m: int) -> int:
    """Dimension of the degree-j harmonic eigenspace on S^{2m-1}."""
    if j < 0 or m < 1:
        raise ValueError("need j >= 0 and m >= 1")
    n = 2 * m
    second = comb(n + j - 3, j - 2) if j >= 2 else 0
    return comb(n + j - 1, j) - second


@dataclass(frozen=True)
class IndicialRoots:
    """All integers minus a contiguous excluded band."""

    m: int
    excluded: tuple[int, ...]

    def contains(self, value: int) -> bool:
        return value not in self.excluded


def indicial_roots(m: int, operator_context: str = "base") -> IndicialRoots:
    """Indicial roots of the Laplacian at a cone point / at infinity.

    Both the orbifold-point and ALE-infinity contexts share the same set:
    all integers except 5-2m..-1 (empty band for m = 2).
    """
    if m < 2:
        raise ValueError("m >= 2")
    if operator_context not in ("base", "ale"):
        raise ValueError(f"unknown operator context {operator_context!r}")
    return IndicialRoots(m=m, excluded=tuple(range(5 - 2 * m, 0)))


def is_admissible_weight(delta, m: int, context: str) -> bool:
    """Whether the weight avoids the context's Fredholm obstructions."""
    if m < 2:
        raise ValueError("m >= 2")
    d = delta if isinstance(delta, Fraction) else Fraction(delta)
    if context in (BASE_ORBIFOLD_M3, BASE_ORBIFOLD_M2, NONLINEAR):
        iv = weight_interval(context, m)
        return iv.lower < d < iv.upper
    if context == ALE:
        # Excluded: l + m and 4 - m - l for l in N, i.e. integers >= m
        # and integers <= 4 - m.
        if d.denominator != 1:
            return True
        z = int(d)
        return not (z >= m or z <= 4 - m)
    raise ValueError(f"unknown weight context {context!r}")

Z2_MINUS_ID = GroupPresentation(m=2, orders=(2,), weights=((1, 1),))
Z3_12 = GroupPresentation(m=2, orders=(3,), weights=((1, 2),))

# Two-factor, unfaithful and non-isolated presentations.
EXTRA_GROUPS = [
    GroupPresentation(m=2, orders=(2, 2), weights=((1, 1), (0, 1))),
    GroupPresentation(m=2, orders=(2, 2), weights=((1, 0), (0, 1))),
    GroupPresentation(m=2, orders=(2, 2), weights=((1, 1), (1, 1))),
    GroupPresentation(m=2, orders=(2, 4), weights=((1, 1), (1, 3))),
    GroupPresentation(m=2, orders=(3, 3), weights=((1, 2), (1, 1))),
    GroupPresentation(m=2, orders=(4,), weights=((2, 2),)),
    GroupPresentation(m=2, orders=(6,), weights=((1, 2),)),
    GroupPresentation(m=3, orders=(2, 4), weights=((1, 1, 0), (0, 1, 3))),
    GroupPresentation(m=3, orders=(2, 2), weights=((1, 1, 0), (0, 1, 1))),
    GroupPresentation(m=3, orders=(3, 3), weights=((1, 2, 0), (0, 1, 2))),
    GroupPresentation(m=3, orders=(4,), weights=((1, 2, 1),)),
    GroupPresentation(m=3, orders=(2, 2), weights=((1, 1, 1), (1, 1, 1))),
]

# Spec-named presentations that are not in Smith form: "2:1,0;3:0,1" is
# Z/6 with a fixed axis, "2:1,1;3:1,1" is Z/6 acting freely and
# "2:1,0;2:0,1" is not cyclic.
NAMED_ISOLATION = [
    (GroupPresentation(m=2, orders=(2, 3), weights=((1, 0), (0, 1))), False),
    (GroupPresentation(m=2, orders=(2, 3), weights=((1, 1), (1, 1))), True),
    (GroupPresentation(m=2, orders=(2, 2), weights=((1, 0), (0, 1))), False),
]


def _non_smith_presentations(rng: random.Random, count: int) -> list[GroupPresentation]:
    """m = 3..4 and 1-3 factors of repeated or non-coprime orders, |Gamma| <=
    200; weights are mostly units, sometimes zero or any residue, and in a
    quarter of the multi-factor draws the second factor acts through the
    first's weights, which makes the presentation unfaithful."""
    out = []
    while len(out) < count:
        m = rng.choice((3, 4))
        orders = [rng.choice((2, 2, 3, 4, 5, 6, 9)) for _ in range(rng.randint(1, 3))]
        if prod(orders) > 200:
            continue
        weights = []
        for d in orders:
            units = [u for u in range(1, d) if gcd(u, d) == 1]
            weights.append([
                rng.choice(units) if rng.random() < 0.8 else rng.randrange(d)
                for _ in range(m)
            ])
        if len(orders) > 1 and rng.random() < 0.25:
            k = rng.randrange(1, orders[1])
            weights[1] = [k * x for x in weights[0]]
        out.append(
            GroupPresentation(m=m, orders=tuple(orders), weights=tuple(map(tuple, weights)))
        )
    return out


class TestEigenvalue:
    def test_constant_mode(self):
        assert eigenvalue(0, 2) == 0
        assert eigenvalue(0, 5) == 0

    def test_spot_values(self):
        assert eigenvalue(1, 2) == -3
        assert eigenvalue(2, 3) == -12

    @pytest.mark.parametrize("m", range(2, 6))
    @pytest.mark.parametrize("j", range(0, 11))
    def test_symbolic_oracle(self, j, m):
        assert eigenvalue(j, m) == sphere_eigenvalue_oracle(j, m)


def _laplacian_kernel_dimension(j: int, m: int) -> int:
    """Independent oracle: dim ker of the symbolic Laplacian on degree-j
    polynomials in 2m real variables, by exact rank computation."""
    from itertools import combinations_with_replacement

    nvars = 2 * m

    def monomials(deg):
        if deg < 0:
            return []
        out = []
        for combo in combinations_with_replacement(range(nvars), deg):
            key = [0] * nvars
            for i in combo:
                key[i] += 1
            out.append(tuple(key))
        return sorted(set(out))

    source = monomials(j)
    target = {k: i for i, k in enumerate(monomials(j - 2))}
    if not target:
        return len(source)
    rows = []
    for mono in source:
        col = [0] * len(target)
        for i, e in enumerate(mono):
            if e >= 2:
                key = mono[:i] + (e - 2,) + mono[i + 1 :]
                col[target[key]] += e * (e - 1)
        rows.append(col)
    mat = RationalMatrix.from_rows(
        [[rows[r][c] for r in range(len(source))] for c in range(len(target))]
    )
    return len(source) - rank(mat)


class TestHarmonicDimension:
    def test_constants(self):
        assert harmonic_dimension(0, 2) == 1
        assert harmonic_dimension(0, 4) == 1

    def test_linear_functions(self):
        # degree-1 harmonics are exactly the 2m coordinates
        assert harmonic_dimension(1, 2) == 4
        assert harmonic_dimension(1, 3) == 6

    def test_quadratic(self):
        # ten quadratics in four variables minus the single radial relation
        assert harmonic_dimension(2, 2) == 9

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("j", range(0, 5))
    def test_laplacian_kernel_oracle(self, j, m):
        assert harmonic_dimension(j, m) == _laplacian_kernel_dimension(j, m)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_telescoping_sum(self, m):
        for big_j in range(0, 9):
            total = sum(harmonic_dimension(j, m) for j in range(big_j + 1))
            n = 2 * m
            second = comb(n + big_j - 2, big_j - 1) if big_j >= 1 else 0
            assert total == comb(n + big_j - 1, big_j) + second


class TestInvariantDimension:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("j", range(0, 9))
    def test_trivial_group(self, j, m):
        g = GroupPresentation.trivial(m)
        assert invariant_harmonic_dimension(g, j, m) == harmonic_dimension(j, m)

    def test_no_invariant_linear_functions_minus_id(self):
        assert invariant_harmonic_dimension(Z2_MINUS_ID, 1, 2) == 0

    def test_no_invariant_linear_functions_z3(self):
        assert invariant_harmonic_dimension(Z3_12, 1, 2) == 0
        assert invariant_dimension_bruteforce(Z3_12, 1, 2) == 0

    def test_minus_id_quadratics(self):
        # all nine harmonic quadratics survive the sign flip
        assert invariant_harmonic_dimension(Z2_MINUS_ID, 2, 2) == 9

    def test_bruteforce_agreement_various_groups(self):
        groups = [
            GroupPresentation(m=2, orders=(2,), weights=((1, 1),)),
            GroupPresentation(m=2, orders=(3,), weights=((1, 2),)),
            GroupPresentation(m=2, orders=(4,), weights=((1, 3),)),
            GroupPresentation(m=2, orders=(5,), weights=((1, 2),)),
            GroupPresentation(m=2, orders=(2, 2), weights=((1, 1), (0, 1))),
            GroupPresentation(m=3, orders=(3,), weights=((1, 1, 1),)),
            GroupPresentation(m=3, orders=(7,), weights=((1, 2, 4),)),
            GroupPresentation(m=3, orders=(2, 4), weights=((1, 1, 0), (0, 1, 3))),
        ] + EXTRA_GROUPS
        for g in groups:
            for j in range(0, 7):
                want = invariant_dimension_bruteforce(g, j, g.m)
                assert invariant_harmonic_dimension(g, j, g.m) == want, (g, j)
                assert invariant_dimension_characters(g, j, g.m) == want, (g, j)

    def test_random_groups_against_bruteforce(self):
        rng = random.Random(17)
        for _ in range(80):
            m = rng.choice((2, 3))
            order = rng.randint(2, 8)
            weights = tuple(rng.randrange(order) for _ in range(m))
            g = GroupPresentation(m=m, orders=(order,), weights=(weights,))
            j = rng.randint(0, 6)
            assert invariant_harmonic_dimension(g, j, m) == (
                invariant_dimension_bruteforce(g, j, m)
            )


class TestFirstInvariantIndex:
    def test_minus_id(self):
        assert first_invariant_index(Z2_MINUS_ID, 2) == 2

    def test_z3(self):
        assert first_invariant_index(Z3_12, 2) == 2

    def test_trivial_convention(self):
        assert first_invariant_index(GroupPresentation.trivial(2), 2) == 1

    def test_needs_m_at_least_two(self):
        with pytest.raises(ValueError):
            first_invariant_index(GroupPresentation.trivial(1), 1)
        with pytest.raises(ValueError):
            first_invariant_index(GroupPresentation(m=1, orders=(2,), weights=((1,),)), 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            first_invariant_index(Z3_12, 3)

    def test_closed_forms_against_enumeration(self):
        # isolation by element orders and the closed-form index against
        # element enumeration and a bounded search: every m = 2 group with
        # d <= 8, plus the two-factor, unfaithful and spec-named ones
        for g, isolated in NAMED_ISOLATION:
            assert g.isolated is isolated, g
        groups = [GroupPresentation.trivial(2)] + EXTRA_GROUPS
        groups += [g for g, _ in NAMED_ISOLATION]
        for d in range(2, 9):
            for w in product(range(d), repeat=2):
                groups.append(GroupPresentation(m=2, orders=(d,), weights=(w,)))
        isolated = 0
        for g in groups:
            assert g.isolated == isolated_by_enumeration(g), g
            assert first_invariant_index(g, g.m) == (
                first_invariant_index_by_search(g, g.m)
            ), g
            isolated += g.isolated
        assert 0 < isolated < len(groups)
        # isolation alone (the index search is exponential in m) on seeded
        # presentations in m = 3..4 that are not in Smith form
        groups = _non_smith_presentations(random.Random(8), 300)
        isolated = [g for g in groups if g.isolated]
        for g in groups:
            assert g.isolated == isolated_by_enumeration(g), g
        assert 0 < len(isolated) < len(groups)
        assert any(len(g.orders) > 1 for g in isolated)

    def test_bundled_fan_groups(self):
        # every nontrivial isolated chart group has no invariant linear
        # functions, so the first invariant index is at least 2
        for name in ("x1", "x4"):
            fan = parse_fan(example_by_name(name).text).to_fan()
            for _, g in classify_fan(fan):
                if g.order == 1:
                    continue
                assert g.isolated
                assert isolated_by_enumeration(g)
                assert invariant_harmonic_dimension(g, 1, fan.dim) == 0
                assert first_invariant_index(g, fan.dim) >= 2


class TestIndicialRoots:
    def test_m3(self):
        roots = indicial_roots(3)
        assert roots.excluded == (-1,)
        assert not roots.contains(-1)
        assert roots.contains(0) and roots.contains(-2)

    def test_m2_all_integers(self):
        roots = indicial_roots(2)
        assert roots.excluded == ()
        assert all(roots.contains(z) for z in range(-5, 6))

    def test_m4(self):
        assert indicial_roots(4).excluded == (-3, -2, -1)

    def test_same_set_at_infinity(self):
        assert indicial_roots(3, "ale") == indicial_roots(3, "base")


class TestAdmissibleWeights:
    def test_base_orbifold_m3(self):
        assert is_admissible_weight(Fraction(-1, 2), 3, BASE_ORBIFOLD_M3)
        assert not is_admissible_weight(0, 3, BASE_ORBIFOLD_M3)
        assert not is_admissible_weight(-2, 3, BASE_ORBIFOLD_M3)

    def test_base_orbifold_m2(self):
        assert is_admissible_weight(Fraction(1, 2), 2, BASE_ORBIFOLD_M2)
        assert not is_admissible_weight(1, 2, BASE_ORBIFOLD_M2)

    def test_ale_exclusions(self):
        for m in (2, 3, 4):
            assert not is_admissible_weight(m, m, ALE)  # l = 0 of l + m
            assert not is_admissible_weight(m + 5, m, ALE)
            assert not is_admissible_weight(4 - m, m, ALE)
            assert not is_admissible_weight(4 - m - 3, m, ALE)
            assert is_admissible_weight(Fraction(1, 2), m, ALE)

    def test_nonlinear_band(self):
        assert is_admissible_weight(Fraction(-3, 2), 3, NONLINEAR)  # (-2, -1)
        assert not is_admissible_weight(-1, 3, NONLINEAR)

    def test_unknown_context(self):
        with pytest.raises(ValueError):
            is_admissible_weight(0, 3, "nonsense")
