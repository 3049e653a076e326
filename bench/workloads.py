"""Seeded benchmark inputs, each carrying its expected answer.

A workload is a list of cases that the timed loop cycles through.  The seed
chooses the cases; the program sees only their text.  Every pool is
stratified so that each short stretch of the cycle holds the same mix of
input sizes: the run length is fixed in seconds, so the run ends part-way
through a cycle, and a stratified cycle keeps that tail from shifting the
percentiles between seeds.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Union

import oracle


@dataclass(frozen=True)
class Case:
    name: str
    kind: str  # "fan" or "orbifold"
    text: str
    expected: Union[oracle.FanAnswer, oracle.OrbifoldAnswer]


def _shear(rng: random.Random, m: int, steps: int) -> list[list[int]]:
    """Random unimodular matrix: a product of elementary row operations."""
    s = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(steps):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-1, 1))
        s[i] = [a + c * b for a, b in zip(s[i], s[j])]
    return s


def _apply(s: list[list[int]], v) -> tuple:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in s)


def _vec(v) -> str:
    return "[" + ", ".join(str(x) for x in v) + "]"


def fan_case(name: str, dim: int, rays, cones, labels, k: int) -> Case:
    lines = [f"dim {dim}", f"k {k}"]
    lines += [f"ray {_vec(r)}" for r in rays]
    lines += [f"cone {_vec(i + 1 for i in idx)} {lab}" for idx, lab in zip(cones, labels)]
    answer = oracle.fan_answer(dim, rays, cones, labels, k)
    return Case(name, "fan", "\n".join(lines) + "\n", answer)


def product_case(rng: random.Random, m: int, r: int) -> Case:
    """Fan with rays +-A e_i, det A = r, under a random unimodular shear.

    A is the identity with last column (w, r), every w_i a unit mod r, so
    each chart is C^m / Z_r with an isolated fixed point.  The fan is
    antipodally symmetric, hence so are its SU charts and their moment
    vertices, and b = 1 always balances them.
    """
    units = [x for x in range(1, r) if gcd(x, r) == 1]
    last = tuple(rng.choice(units) for _ in range(m - 1)) + (r,)
    columns = [tuple(int(i == j) for i in range(m)) for j in range(m - 1)] + [last]
    shear = _shear(rng, m, m)
    rays = []
    for c in columns:
        g = _apply(shear, c)
        rays += [g, tuple(-x for x in g)]
    cones = [tuple(2 * j + s for j, s in enumerate(signs)) for signs in product((0, 1), repeat=m)]
    labels = [f"C{i + 1}" for i in range(len(cones))]
    return fan_case(f"product-m{m}-r{r}", m, rays, cones, labels, rng.randint(1, 3))


def cyclic_case(rng: random.Random, r: int) -> Case:
    """Complete 2-d fan with rays (0,1), (r,1-r), (-1,0), sheared: charts of
    order r (SU), r-1 and 1."""
    shear = _shear(rng, 2, 2)
    rays = [_apply(shear, v) for v in ((0, 1), (r, 1 - r), (-1, 0))]
    cones, labels = [(0, 1), (1, 2), (2, 0)], ["C1", "C2", "C3"]
    return fan_case(f"cyclic-r{r}", 2, rays, cones, labels, rng.randint(1, 3))


def example_case(name: str) -> Case:
    """A bundled fan, with the oracle's answer checked against the
    hand-written annotations that ship with it."""
    from kcscglue.examples import example_by_name

    ex = example_by_name(name)
    fields: dict[str, list] = {"dim": [], "k": [], "ray": [], "cone": []}
    for line in ex.text.splitlines():
        line = line.split("#")[0].strip()
        if line:
            key, rest = line.split(None, 1)
            fields[key].append(rest)
    dim, k = int(fields["dim"][0]), int(fields["k"][0])
    ints = lambda s: tuple(int(x) for x in re.findall(r"-?\d+", s))
    rays = [ints(r) for r in fields["ray"]]
    cones = [tuple(i - 1 for i in ints(c.rsplit("]", 1)[0])) for c in fields["cone"]]
    labels = [c.rsplit("]", 1)[1].strip() for c in fields["cone"]]
    case = fan_case(name, dim, rays, cones, labels, k)
    ann = ex.annotations
    if set(case.expected.su) != set(ann["su_cones"]) or case.expected.feasible != ann["feasible"]:
        raise RuntimeError(f"oracle disagrees with the annotations of {name}")
    return case


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def orbifold_case(rng: random.Random, klass: str, regime: str, d: int, n: int) -> Case:
    """Orbifold points whose verdict and rank are fixed by construction.

    The balancing matrix has one column x_l per point, and the first columns
    are nonzero multiples of unit vectors, which fixes its rank.
    "balanced": the last column is -sum b_l x_l / b_n for random positive
    b, so a positive kernel vector exists; rank d, feasible.  "hyperplane":
    the same inside a hyperplane (the last coordinate is zero before a
    random unimodular mix); rank d - 1, infeasible with a witness.
    "halfspace": every column has y . x_l > 0 for a y with no zero entry, so
    no positive kernel vector exists; rank d, infeasible.
    """

    def unit(i: int, scale: Fraction) -> list[Fraction]:
        return [scale if j == i else Fraction(0) for j in range(d)]

    def nonzero() -> Fraction:
        return Fraction(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice((1, -1))

    if klass == "halfspace":
        y = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(d)]
        cols = [unit(i, abs(nonzero()) * (1 if y[i] > 0 else -1)) for i in range(d)]
        while len(cols) < n:
            x = [_rational(rng) for _ in range(d)]
            side = sum(a * b for a, b in zip(x, y))
            if side:
                cols.append(x if side > 0 else [-v for v in x])
        rk = d
    else:
        rk = d - 1 if klass == "hyperplane" else d
        cols = [unit(i, nonzero()) for i in range(rk)]
        for _ in range(n - 1 - rk):
            cols.append([_rational(rng) for _ in range(rk)] + [Fraction(0)] * (d - rk))
        b = [rng.randint(1, 4) for _ in range(n)]
        cols.append([-sum(bj * c[i] for bj, c in zip(b, cols)) / b[-1] for i in range(d)])
        if klass == "hyperplane":
            mix = _shear(rng, d, d)
            cols = [list(_apply(mix, c)) for c in cols]
    rng.shuffle(cols)
    m = rng.randint(2, 4)
    lines = [f"m {m}", f"d {d}"]
    if regime == "ricci_flat":
        lines += [f"s {Fraction(rng.randint(1, 9), rng.randint(1, 4))}", "einstein yes"]
        for j, c in enumerate(cols):
            lines.append(f"point P{j + 1} ricci_flat order={rng.randint(2, 6)} phi={_vec(c)}")
    else:
        lines += ["s positive", "einstein no"]
        for j, c in enumerate(cols):
            order, sign = rng.randint(2, 6), rng.choice((1, -1))
            # Column l of the balancing matrix is e_sign * phi / order.
            phi = [sign * order * v for v in c]
            lines.append(
                f"point Q{j + 1} scalar_flat order={order} phi={_vec(phi)} e_sign={sign:+d}"
            )
    answer = oracle.OrbifoldAnswer(
        regime=regime,
        columns=tuple(tuple(c) for c in cols),
        rank=rk,
        feasible=klass == "balanced",
        has_witness=klass != "halfspace",
    )
    return Case(f"{klass}-{regime}-d{d}-n{n}", "orbifold", "\n".join(lines) + "\n", answer)


def toric_scan(rng: random.Random) -> list[Case]:
    """m = 5 product fans, each block of four holding r = 2..5 once; x1 and
    x4 once each per cycle of 34."""
    cases = []
    for block in range(8):
        orders = [2, 3, 4, 5]
        rng.shuffle(orders)
        cases += [product_case(rng, 5, r) for r in orders]
        if block in (3, 7):
            cases.append(example_case("x1" if block == 3 else "x4"))
    return cases


def cyclic_spectral(rng: random.Random) -> list[Case]:
    """r = 48..111 once each; every run of 8 consecutive cases holds one r
    from each eighth of the range."""
    strata = [list(range(48 + 8 * s, 56 + 8 * s)) for s in range(8)]
    for s in strata:
        rng.shuffle(s)
    cases = []
    for t in range(8):
        rng.shuffle(strata)
        cases += [cyclic_case(rng, s[t]) for s in strata]
    return cases


def orbifold_balance(rng: random.Random) -> list[Case]:
    """Every verdict class x regime x d = 3..6, once at each of four point
    counts spread over 32..96; each block of 24 holds every combination once."""
    combos = [
        (klass, regime, d)
        for klass in ("balanced", "halfspace", "hyperplane")
        for regime in ("scalar_flat", "ricci_flat")
        for d in range(3, 7)
    ]
    cases = []
    for block in range(4):
        cases_in_block = [
            orbifold_case(rng, *c, 32 + 16 * ((i + block) % 4) + rng.randint(0, 8))
            for i, c in enumerate(combos)
        ]
        rng.shuffle(cases_in_block)
        cases += cases_in_block
    return cases


WORKLOADS = {
    "toric-scan": toric_scan,
    "cyclic-spectral": cyclic_spectral,
    "orbifold-balance": orbifold_balance,
}


def build(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](random.Random(seed))
