"""Report bytes pinned by sha256.

Each input's JSON report (``render_json(build_report(...))``) must hash to
the digest recorded here, so a refactor of the pipeline that changes one
byte of any report fails.  The inputs cover the bundled examples, two fans
whose polytopes have fractional vertices (a sheared 3-d product fan with
charts of order 3, and a 2-d cyclic fan with a nonzero barycenter), a fan
whose charts are not cyclic (Z/2 + Z/2, the Smith normal form path), x4
under a unimodular shear (the same charts, so the same classification),
two fans whose -K is nef but not ample (F_2 and F_2 x P^1, whose cones
share vertices), each
balancing outcome of both regimes (the three that fail, one per kind of
certificate, are read from ``tests/fixtures``), the gluing constants at
m = 4 (Ricci-flat model constants B_j and C_j, scalar-flat leading
coefficients, also read from there), point labels outside ASCII (escaped as
``\\u`` sequences, an astral one as a surrogate pair), and reports that
stop early: fans whose polytope stage records an error (no k, -K not nef)
and invalid fans, one of them a fan whose cone labels repeat.  Among the invalid fans are cone lists that are not fans
-- incomplete and overlapping P^2, P^2 with a ray in no cone, alternate
octants of (P^1)^3, alternate cones of the hexagon fan, and (P^1)^4 without
alternate vertices of one facet -- which pin the fan check's violations.
Only a deliberate change to a report's content may update a digest.
"""

import hashlib
from itertools import product
from pathlib import Path

import pytest

from kcscglue.examples import embedded_examples
from kcscglue.formats import parse_fan, parse_orbifold
from kcscglue.report import build_report, render_json

P2_RAYS = "dim 2\nk 1\nray [1, 0]\nray [0, 1]\nray [-1, -1]\n"
P2_CONES = "cone [1, 2]\ncone [2, 3]\ncone [3, 1]\n"
CUBE3_RAYS = (
    "dim 3\nk 1\nray [1, 0, 0]\nray [-1, 0, 0]\nray [0, 1, 0]\nray [0, -1, 0]\n"
    "ray [0, 0, 1]\nray [0, 0, -1]\n"
)
CUBE4_RAYS = "dim 4\nk 1\n" + "".join(
    f"ray [{', '.join(str(s * (j == i)) for j in range(4))}]\n"
    for i in range(4)
    for s in (1, -1)
)
FIXTURES = Path(__file__).parent / "fixtures"
INPUTS = {ex.filename: ex.text for ex in embedded_examples()}
# The three orbifold files whose verdict is not feasible, one per way to
# fail, a fan whose cone labels repeat, a fan whose charts are Z/2 + Z/2,
# x4.fan in another lattice basis, and two m = 4 files whose gluing
# constants take the m >= 3 branches (model constants, scalar-flat leading),
# and two fans whose -K is nef but not ample.
INPUTS.update(
    (name, (FIXTURES / name).read_text())
    for name in (
        "scalar-flat-no-witness.orb",
        "scalar-flat-rank-deficient.orb",
        "einstein-no-witness.orb",
        "duplicate-labels.fan",
        "z2xz2-product.fan",
        "x4-sheared.fan",
        "m4-ricci-flat-constants.orb",
        "m4-scalar-flat-leading.orb",
        "f2-nef.fan",
        "f2xp1-nef.fan",
    )
)
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
        # labels outside ASCII, one of them astral: the report escapes them
        "non-ascii-label.orb": """\
m 2
d 2
s positive
einstein no
point Qé scalar_flat order=2 e_sign=+1 e_mag=1/2 phi=[1, 0]
point Qü scalar_flat order=2 e_sign=+1 phi=[0, 1]
point Q∞ scalar_flat order=2 e_sign=+1 phi=[-1, -1]
point P𝔽 ricci_flat order=3 phi=[0, 1] dphi=[0, -1]
""",
        # error-shaped reports: recorded polytope errors, invalid fans
        "incomplete-p2.fan": P2_RAYS + "cone [1, 2]\ncone [2, 3]\n",
        "p2-no-k.fan": P2_RAYS.replace("k 1\n", "") + P2_CONES,
        "p2-unused-ray.fan": P2_RAYS + "ray [1, 1]\n" + P2_CONES,
        "f3-not-nef.fan": "dim 2\nk 1\nray [1, 0]\nray [0, 1]\nray [-1, 3]\nray [0, -1]\n"
        "cone [1, 2]\ncone [2, 3]\ncone [3, 4]\ncone [4, 1]\n",
        "overlapping-p2.fan": P2_RAYS + "ray [1, 1]\n" + P2_CONES + "cone [1, 4]\n",
        "three-generator-cone.fan": P2_RAYS + "cone [1, 2, 3]\ncone [2, 3]\ncone [3, 1]\n",
        # not fans: each skips vertices of the region its rays bound
        "alternating-octants.fan": CUBE3_RAYS
        + "cone [1, 3, 5]\ncone [1, 4, 6]\ncone [2, 3, 6]\ncone [2, 4, 5]\n",
        "alternating-hexagon.fan": """\
dim 2
k 1
ray [1, 0]
ray [1, 1]
ray [0, 1]
ray [-1, 0]
ray [-1, -1]
ray [0, -1]
cone [1, 2]
cone [3, 4]
cone [5, 6]
""",
        "p1-4-missing-alternate.fan": CUBE4_RAYS
        + "".join(
            f"cone [{a}, {b}, {c}, {d}]\n"
            for a, b, c, d in product((1, 2), (3, 4), (5, 6), (7, 8))
            if a == 2 or (b + c + d) % 2 == 1
        ),
    }
)

DIGESTS = {
    "duplicate-labels.fan": "4d29ae1e41fbde6567736965e60ced1c656b0e2e9bd05757fbe132dd34df08c3",
    "alternating-hexagon.fan": "f2b0a405b9c315d2431db9af75aa17d0e63d61337cfb3d1d51644d072e561c03",
    "alternating-octants.fan": "b808ed4cee2bfc26d14e13cba23244f4292c1ed5d902128fc5069517e39f3722",
    "p1-4-missing-alternate.fan": "b29cdac2998911c4a361ef1665d40477369ea33ef5f847ca5adc45567877f9c2",
    "cyclic-r7.fan": "f55c4cfdb5048b3ca133d7b9f1b1595e6f29c7f83b07b968556373945f3b65c7",
    "einstein-no-witness.orb": "86a1ce11bc5158e3a1eee21ea33ce5cd2373838df19bf57b801e07f7313ee2fa",
    "m4-ricci-flat-constants.orb": "3f78e16343a89d1ecc2e56162bceec4dc9f5a27af187433e99bc08436d39c851",
    "m4-scalar-flat-leading.orb": "9f57230143221461d195490b8091d165d5cfc4d26585850569b907b0243d43fe",
    "incomplete-p2.fan": "8a29b514dbbb45d64539be417da0e6962da14530f3733ffcbadacb857d114536",
    "f2-nef.fan": "f8023d70d3ed491cda9310535423daf744bf74c4de75b1bedf4abf9ad6ab3930",
    "f2xp1-nef.fan": "d951fb4fdde17d72fcdf687a792fa353f842ce288c4eb957b284068aa274005b",
    "f3-not-nef.fan": "cdf154f5620213c7ed4bcf88f7cd9a1e41b2e3d4bb8cab840f50929c6891092f",
    "explicit-laplacian.orb": "917d8e38ceb6e53907ba75bcd401871db1d76b84825dca3cb164bdb18b8cb812",
    "non-ascii-label.orb": "c7b42218741c367467509b605d92059b087085e2e1c83aa6f9329f790f29baf0",
    "numeric-s.orb": "9609dca14f1d45dbeae10304d72ba81121fef5f1788dc9d89de6c12582365157",
    "overlapping-p2.fan": "bb686cd62ca6d1f04344c77ef3691e96d549870cf73e5f77f9cb837ef6bdd8d4",
    "p1xp1-z2.orb": "a5fb042d192a36278d8508a54702055d934dc483ac596d61273a0cdc7a35a129",
    "p2-no-k.fan": "a318b6734f521e9932c3cf02435fad59f9910fd25b2914efdadcd96e496c4e71",
    "p2-unused-ray.fan": "778a2cb90e29b677a12088e112c7217631357b4bc624e78755d01b9f29110b30",
    "p2-z3.orb": "00ea455d1335478c175303e805648af688704c8787a00f4aa5615e721ff1d534",
    "scalar-flat-no-witness.orb": "7477bf84f58dd9b3f2829d012493c59b1eff783e5cf08fa368d1a7fe4328bdfc",
    "scalar-flat-rank-deficient.orb": "4a0f3941151ab31a517586c173ed0ae54ef05c962d72975882d668888298ae50",
    "sheared-product-r3.fan": "51f6d03838f7d6ae00c946adcb7b97b76c34cf45c4b1cb587bb407462397b66c",
    "three-generator-cone.fan": "b35df61ecaa78603c98c52c3bd94205d7e388889384e90bf8cf3d7bcb012c4f6",
    "x1.fan": "c086d662652589383b5864f137337616ddd1608c7b5e1dda35cf06ac986511b5",
    "x4.fan": "c4703f52caac8084be5e7c227bc8dbf29eab783dd8409abdac657d48a802921f",
    "x4-sheared.fan": "f96ac6d7eae4ab64e7c3de5f565ab51b12cdba90d5077b06a593f676e90353f7",
    "z2xz2-product.fan": "92f9a2bde71c1f10a7301dd526ed7d95511acf7becead06a68a710f2eb136060",
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
