"""Bundled worked inputs with their expected results.

Four inputs: two Kaehler-Einstein toric threefolds given by fans (with
their pluri-anticanonical degree k) and two quotient surfaces given as
orbifold point data.  The annotations drive the acceptance suite and the
`examples` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

X1_FAN = """\
# Kaehler-Einstein toric threefold, 8 rays / 12 cones, k = 3
dim 3
k 3
ray [1, 3, -1]
ray [-1, 0, -1]
ray [-1, -3, 1]
ray [-1, 0, 0]
ray [1, 0, 0]
ray [0, 0, 1]
ray [0, 0, -1]
ray [1, 0, 1]
cone [2, 3, 4] C1
cone [1, 2, 4] C2
cone [3, 4, 6] C3
cone [1, 4, 6] C4
cone [1, 2, 7] C5
cone [2, 3, 7] C6
cone [3, 5, 7] C7
cone [1, 5, 7] C8
cone [1, 6, 8] C9
cone [3, 5, 8] C10
cone [1, 5, 8] C11
cone [3, 6, 8] C12
"""

X4_FAN = """\
# Kaehler-Einstein toric threefold, 6 rays / 8 cones, k = 5
dim 3
k 5
ray [0, 3, 1]
ray [1, 1, 2]
ray [1, 0, 0]
ray [-1, 0, 0]
ray [-2, -1, -2]
ray [1, -3, -1]
cone [1, 2, 4] C1
cone [1, 2, 3] C2
cone [1, 4, 5] C3
cone [1, 3, 5] C4
cone [3, 5, 6] C5
cone [2, 4, 6] C6
cone [4, 5, 6] C7
cone [2, 3, 6] C8
"""

P1XP1_Z2_ORBIFOLD = """\
# P1 x P1 quotient by the simultaneous antipodal involution:
# four SU(2) fixed points of order 2, Einstein product metric.
m 2
d 2
s positive
einstein yes
point P1 ricci_flat order=2 phi=[-1, -1]
point P2 ricci_flat order=2 phi=[-1, 1]
point P3 ricci_flat order=2 phi=[1, -1]
point P4 ricci_flat order=2 phi=[1, 1]
"""

P2_Z3_ORBIFOLD = """\
# P2 quotient by the diagonal order-3 action with weights (1, 2):
# three SU(2) fixed points of order 3, Fubini-Study metric.
m 2
d 2
s positive
einstein yes
point P1 ricci_flat order=3 phi=[1, 0]
point P2 ricci_flat order=3 phi=[-1, -1]
point P3 ricci_flat order=3 phi=[0, 1]
"""


@dataclass(frozen=True)
class EmbeddedExample:
    name: str
    kind: str  # "fan" | "orbifold"
    filename: str
    text: str
    annotations: Mapping[str, Any]


_X1_VERTICES = (
    (0, -2, -3),
    (-3, 0, 0),
    (-3, 1, 3),
    (0, 0, 3),
    (3, -2, 0),
    (0, 2, 3),
    (0, 0, -3),
    (-3, 2, 0),
    (-3, 3, 3),
    (3, 0, 0),
    (3, -1, -3),
    (3, -3, -3),
)

_X1_TWO_FACES = (
    ((0, -2, -3), (3, -3, -3), (-3, 0, 0), (-3, 1, 3), (0, 0, 3), (3, -2, 0)),
    ((-3, 1, 3), (0, 0, 3), (0, 2, 3), (-3, 3, 3)),
    ((0, 0, 3), (3, -2, 0), (0, 2, 3), (3, 0, 0)),
    ((0, -2, -3), (-3, 0, 0), (0, 0, -3), (-3, 2, 0)),
    ((3, -1, -3), (0, 2, 3), (0, 0, -3), (-3, 2, 0), (-3, 3, 3), (3, 0, 0)),
    ((-3, 0, 0), (-3, 1, 3), (-3, 2, 0), (-3, 3, 3)),
    ((3, -1, -3), (0, -2, -3), (3, -3, -3), (0, 0, -3)),
    ((3, -1, -3), (3, -3, -3), (3, -2, 0), (3, 0, 0)),
)

_X1_CORRESPONDENCES = {
    "C1": (3, 0, 0),
    "C4": (3, -3, -3),
    "C5": (0, 0, 3),
    "C7": (-3, 3, 3),
    "C11": (-3, 0, 0),
    "C12": (0, 0, -3),
}

_X4_VERTICES = (
    (5, -1, -2),
    (5, 0, -5),
    (-5, -2, 1),
    (-5, 0, 0),
    (5, 5, -5),
    (-5, -5, 10),
    (-5, -3, 9),
    (5, 6, -8),
)

_X4_TWO_FACES = (
    ((5, 0, -5), (-5, -2, 1), (-5, 0, 0), (5, 6, -8)),
    ((5, -1, -2), (5, 0, -5), (-5, -2, 1), (-5, -5, 10)),
    ((5, -1, -2), (5, 0, -5), (5, 5, -5), (5, 6, -8)),
    ((5, -1, -2), (5, 5, -5), (-5, -5, 10), (-5, -3, 9)),
    ((-5, -2, 1), (-5, 0, 0), (-5, -5, 10), (-5, -3, 9)),
    ((-5, 0, 0), (5, 5, -5), (-5, -3, 9), (5, 6, -8)),
)

_X4_CORRESPONDENCES = {
    "C1": (5, 0, -5),
    "C4": (-5, -5, 10),
    "C7": (5, 5, -5),
    "C8": (-5, 0, 0),
}

# Cone/vertex incidences keyed by facet-ray triples (1-based ray indices)
# rather than cone labels, so they are independent of any cone numbering.
_X4_FACET_TRIPLES = (
    ((1, 2, 3), (-5, -2, 1)),
    ((1, 4, 5), (5, -1, -2)),
    ((3, 5, 6), (-5, -3, 9)),
    ((2, 4, 6), (5, 6, -8)),
)


def embedded_examples() -> list[EmbeddedExample]:
    """The bundled corpus, in deterministic order."""
    return [
        EmbeddedExample(
            name="p1xp1-z2",
            kind="orbifold",
            filename="p1xp1-z2.orb",
            text=P1XP1_Z2_ORBIFOLD,
            annotations={
                "d": 2,
                "points": 4,
                "group_order": 2,
                "theta_rows": ((-1, -1, 1, 1), (-1, 1, -1, 1)),
                "rank": 2,
                "witness_b": (1, 1, 1, 1),
                "kernel_family": "(a, b, b, a)",
                "kernel_dim": 2,
                "certificate": "full_rank",
                "feasible": True,
            },
        ),
        EmbeddedExample(
            name="p2-z3",
            kind="orbifold",
            filename="p2-z3.orb",
            text=P2_Z3_ORBIFOLD,
            annotations={
                "d": 2,
                "points": 3,
                "group_order": 3,
                "theta_rows": ((1, -1, 0), (0, -1, 1)),
                "rank": 2,
                "witness_b": (1, 1, 1),
                "kernel_family": "(a, a, a)",
                "kernel_dim": 1,
                "certificate": "full_rank",
                "feasible": True,
            },
        ),
        EmbeddedExample(
            name="x1",
            kind="fan",
            filename="x1.fan",
            text=X1_FAN,
            annotations={
                "rays": 8,
                "cones": 12,
                "k": 3,
                "su_cones": ("C1", "C4", "C5", "C7", "C11", "C12"),
                "all_isolated": True,
                "vertices": _X1_VERTICES,
                "two_faces": _X1_TWO_FACES,
                "barycenter": (0, 0, 0),
                "correspondences": _X1_CORRESPONDENCES,
                "witness_b": (1, 1, 1, 1, 1, 1),
                "feasible": True,
            },
        ),
        EmbeddedExample(
            name="x4",
            kind="fan",
            filename="x4.fan",
            text=X4_FAN,
            annotations={
                "rays": 6,
                "cones": 8,
                "k": 5,
                "su_cones": ("C1", "C4", "C7", "C8"),
                "all_isolated": True,
                "vertices": _X4_VERTICES,
                "two_faces": _X4_TWO_FACES,
                "barycenter": (0, 0, 0),
                "correspondences": _X4_CORRESPONDENCES,
                "facet_triples": _X4_FACET_TRIPLES,
                "witness_b": (1, 1, 1, 1),
                "feasible": True,
            },
        ),
    ]


def example_by_name(name: str) -> EmbeddedExample:
    for ex in embedded_examples():
        if ex.name == name:
            return ex
    raise KeyError(name)
