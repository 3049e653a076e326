"""Report bytes pinned by sha256.

Each input's JSON report (``render_json(build_report(...))``) must hash to
the digest recorded here, so a refactor of the pipeline that changes one
byte of any report fails.  The inputs cover the bundled examples, two fans
whose polytopes have fractional vertices (a sheared 3-d product fan with
charts of order 3, and a 2-d cyclic fan with a nonzero barycenter), each
balancing outcome of both regimes, and reports that stop early: an invalid
fan and fans whose polytope stage records an error.  Only a deliberate
change to a report's content may update a digest.
"""

import hashlib

import pytest

from kcscglue.examples import embedded_examples
from kcscglue.formats import parse_fan, parse_orbifold
from kcscglue.report import build_report, render_json

P2_RAYS = "dim 2\nk 1\nray [1, 0]\nray [0, 1]\nray [-1, -1]\n"
P2_CONES = "cone [1, 2]\ncone [2, 3]\ncone [3, 1]\n"
INPUTS = {ex.filename: ex.text for ex in embedded_examples()}
INPUTS.update(
    {
        "sheared-product-r3.fan": """\
dim 3
k 2
ray [0, -1, 0]
ray [0, 1, 0]
ray [1, 2, 0]
ray [-1, -2, 0]
ray [2, 3, 3]
ray [-2, -3, -3]
cone [1, 3, 5] C1
cone [1, 3, 6] C2
cone [1, 4, 5] C3
cone [1, 4, 6] C4
cone [2, 3, 5] C5
cone [2, 3, 6] C6
cone [2, 4, 5] C7
cone [2, 4, 6] C8
""",
        "cyclic-r7.fan": """\
dim 2
k 2
ray [-1, 0]
ray [13, 7]
ray [-1, -1]
cone [1, 2] C1
cone [2, 3] C2
cone [3, 1] C3
""",
        "scalar-flat-no-witness.orb": """\
m 2
d 1
s positive
einstein no
point Q1 scalar_flat order=2 e_sign=+1 phi=[1]
point Q2 scalar_flat order=3 e_sign=+1 phi=[2]
""",
        "scalar-flat-rank-deficient.orb": """\
m 3
d 2
s positive
einstein no
point Q1 scalar_flat order=2 e_sign=+1 e_mag=1 phi=[1, 0]
point Q2 scalar_flat order=3 e_sign=-1 phi=[1, 0]
point P1 ricci_flat order=3 phi=[0, 1] dphi=[0, -1]
""",
        "einstein-no-witness.orb": """\
m 2
d 2
s positive
einstein yes
point P1 ricci_flat order=2 phi=[1, 0]
point P2 ricci_flat order=2 phi=[1, 1]
""",
        "numeric-s.orb": """\
m 3
d 2
s 6
einstein yes
point P1 ricci_flat order=3 c_gamma=1/2 phi=[1, 0]
point P2 ricci_flat order=3 phi=[-1, -1]
point P3 ricci_flat order=3 phi=[0, 1]
""",
        "explicit-laplacian.orb": """\
m 2
d 2
s 3/2
einstein no
point P1 ricci_flat order=2 phi=[1, 0] dphi=[-1, 0]
point P2 ricci_flat order=2 phi=[-1, 0] dphi=[1, 1]
point P3 ricci_flat order=2 phi=[0, 1] dphi=[0, -2]
point P4 ricci_flat order=2 phi=[0, -1] dphi=[1, 0]
""",
        # error-shaped reports: a recorded polytope error, an invalid fan
        "incomplete-p2.fan": P2_RAYS + "cone [1, 2]\ncone [2, 3]\n",
        "p2-no-k.fan": P2_RAYS.replace("k 1\n", "") + P2_CONES,
        "overlapping-p2.fan": P2_RAYS + "ray [1, 1]\n" + P2_CONES + "cone [1, 4]\n",
        "three-generator-cone.fan": P2_RAYS + "cone [1, 2, 3]\ncone [2, 3]\ncone [3, 1]\n",
    }
)

DIGESTS = {
    "cyclic-r7.fan": "6d063de4f54a0b50917ca6b98894b060a7801c510356145369f7ddc6a1fd3fd8",
    "einstein-no-witness.orb": "d05d5bb62b6a33ba5f246f50a423652bea89a7e0b2942848fbd454fb2eb9848f",
    "incomplete-p2.fan": "de4b1050d1f4a6f9dab1707b1927737a03b41e4f1a12174873d4c5c010fa18ac",
    "explicit-laplacian.orb": "5044cad617314781d78b525facad5eaf883b2a72c6aba2eb901e137c22e1433e",
    "numeric-s.orb": "e184874edb507267bdba9490949d23b82932494a98d12137b846b7fa21ec39a4",
    "overlapping-p2.fan": "f3b66c1e0f35198fd2c72d0304c0acecf74d694f58be85ff9fd45fc752047fc2",
    "p1xp1-z2.orb": "ea784b7c80e2b81a65ffeab5082ca36931bd951f4208136de8e8679aa5ca4199",
    "p2-no-k.fan": "a318b6734f521e9932c3cf02435fad59f9910fd25b2914efdadcd96e496c4e71",
    "p2-z3.orb": "61bda3c508555dad6d2bb47d7fec4091e53c56808303e0911c9c358e77ecc50a",
    "scalar-flat-no-witness.orb": "d80c37aed79d8c1e0fb177e4badbd94bda8cee28140e43b780686973aafedc0d",
    "scalar-flat-rank-deficient.orb": "2213f3d27990a2e209dcb57ffde1812584ee6e135597f5429b830517ca11aac7",
    "sheared-product-r3.fan": "1c7e1a7ddc48cbaaae5f3d673507762984702f11b01abe1c924121360eb060a2",
    "three-generator-cone.fan": "b35df61ecaa78603c98c52c3bd94205d7e388889384e90bf8cf3d7bcb012c4f6",
    "x1.fan": "ddadb2fae791eb6abfb0174b57ba62ed37a03bb3df15a25ddc7142e80b6b7f9c",
    "x4.fan": "a31dfbb7ebf001149b65a1409c7e3a83d7a82223f5372229a118d7192ec3d483",
}


def report_digest(name: str) -> str:
    text = INPUTS[name]
    parse = parse_fan if name.endswith(".fan") else parse_orbifold
    rendered = render_json(build_report(name, text, parse(text)))
    return hashlib.sha256(rendered.encode()).hexdigest()


def test_every_input_is_pinned():
    assert sorted(DIGESTS) == sorted(INPUTS)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_report_bytes(name):
    assert report_digest(name) == DIGESTS[name]
