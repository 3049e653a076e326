"""Nothing escapes ``build_report``, and the CLI exit code is read off it.

Random 2-d fans (angle-sorted primitive rays, sometimes with one cone
dropped, with ``k`` from -1 to 3 or absent), fans over random Fano polygons
(primitive vertices, the origin strictly inside) and random orbifold files
(mixed point kinds, explicit ``dphi``, numeric or ``positive`` scalar
curvature) either fail to parse or give a report.  ``kcscglue report`` on
the file exits with ``exit_code`` of that report, and a report that records
a stage error exits 2.  A fan with a dropped cone is invalid, a fan that
passes validation never records an error that only a non-fan could cause,
and every Fano polygon reaches the balancing and spectral stages.
"""

import io
import math
import tempfile
from contextlib import redirect_stderr
from math import gcd
from pathlib import Path

from hypothesis import given, settings, strategies as st

from kcscglue.cli import main
from kcscglue.formats import ParseError, parse_fan, parse_orbifold
from kcscglue.report import build_report, exit_code

PRIMITIVE = [
    (a, b) for a in range(-3, 4) for b in range(-3, 4) if gcd(a, b) == 1
]
SMALL = st.integers(-2, 2)


def _polygon_fan_text(rays, k, dropped=None) -> str:
    """A 2-d fan text over angle-sorted rays, one cone per consecutive pair
    but the dropped one."""
    rays = sorted(rays, key=lambda v: math.atan2(v[1], v[0]))
    cones = [(i + 1, (i + 1) % len(rays) + 1) for i in range(len(rays))]
    if dropped is not None:
        del cones[dropped]
    lines = ["dim 2"] + ([] if k is None else [f"k {k}"])
    lines += [f"ray [{a}, {b}]" for a, b in rays]
    lines += [f"cone [{i}, {j}]" for i, j in cones]
    return "\n".join(lines) + "\n"


@st.composite
def fan_texts(draw) -> tuple[str, bool]:
    """A fan text and whether one of its cones was dropped."""
    rays = draw(st.lists(st.sampled_from(PRIMITIVE), min_size=3, max_size=6, unique=True))
    dropped = draw(st.one_of(st.none(), st.integers(0, len(rays) - 1)))
    k = draw(st.one_of(st.none(), st.integers(-1, 3)))
    return _polygon_fan_text(rays, k, dropped), dropped is not None


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@st.composite
def fano_polygon_texts(draw) -> str:
    """The fan over a Fano polygon: one primitive point per quarter-turn
    sector, so consecutive angles differ by less than a half-turn and the
    origin is strictly inside, plus up to three more; the rays are the
    vertices of their convex hull."""
    sectors = (
        lambda a, b: a > 0 and b >= 0,
        lambda a, b: a <= 0 and b > 0,
        lambda a, b: a < 0 and b <= 0,
        lambda a, b: a >= 0 and b < 0,
    )
    points = [draw(st.sampled_from([v for v in PRIMITIVE if inside(*v)])) for inside in sectors]
    points += draw(st.lists(st.sampled_from(PRIMITIVE), max_size=3))
    # Andrew's monotone chain, strict turns only: the hull vertices
    hull = []
    for chain in (sorted(set(points)), sorted(set(points), reverse=True)):
        part = []
        for q in chain:
            while len(part) >= 2 and _cross(part[-2], part[-1], q) <= 0:
                part.pop()
            part.append(q)
        hull += part[:-1]
    return _polygon_fan_text(hull, draw(st.integers(1, 3)))


@st.composite
def orbifold_texts(draw) -> str:
    m = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3))
    s = draw(
        st.one_of(
            st.just("positive"),
            st.builds(lambda p, q: f"{p}/{q}", st.integers(-2, 3), st.integers(1, 3)),
        )
    )
    einstein = draw(st.booleans())
    lines = [f"m {m}", f"d {d}", f"s {s}", f"einstein {'yes' if einstein else 'no'}"]
    for j in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["ricci_flat", "scalar_flat"]))
        phi = ", ".join(str(draw(SMALL)) for _ in range(d))
        attrs = [f"order={draw(st.integers(2, 5))}", f"phi=[{phi}]"]
        if kind == "scalar_flat":
            attrs.append(f"e_sign={draw(st.sampled_from(['+1', '-1']))}")
        if draw(st.booleans()) or (kind == "ricci_flat" and not einstein):
            dphi = ", ".join(str(draw(SMALL)) for _ in range(d))
            attrs.append(f"dphi=[{dphi}]")
        lines.append(f"point P{j} {kind} " + " ".join(attrs))
    return "\n".join(lines) + "\n"


def check_report(name: str, text: str):
    """The CLI exit code and the report body, or None if the text does not
    parse."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        with redirect_stderr(io.StringIO()):
            code = main(["report", str(path), "--out", str(Path(tmp) / "out.json")])
    parse = parse_fan if name.endswith(".fan") else parse_orbifold
    try:
        parsed = parse(text)
    except ParseError:
        assert code == 2
        return code, None
    body = build_report(name, text, parsed)["report"]
    assert code == exit_code(body)
    if any(isinstance(section, dict) and "error" in section for section in body.values()):
        assert code == 2
    if body.get("validation", {}).get("valid"):
        error = body.get("polytope", {}).get("error", "")
        assert not any(
            e in error for e in ("not full-dimensional", "zero volume", "positively span")
        )
    return code, body


@settings(max_examples=150, derandomize=True, deadline=None)
@given(fan_texts())
def test_fan_reports_never_raise(drawn):
    text, dropped = drawn
    code, body = check_report("random.fan", text)
    if dropped:
        assert code == 2
        assert body is None or not body["validation"]["valid"]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(fano_polygon_texts())
def test_fano_polygon_reports_reach_spectral(text):
    code, body = check_report("fano.fan", text)
    assert body["validation"]["valid"]
    assert "error" not in body["polytope"]
    assert "error" not in body["balancing"]
    assert "spectral" in body


@settings(max_examples=150, derandomize=True, deadline=None)
@given(orbifold_texts())
def test_orbifold_reports_never_raise(text):
    check_report("random.orb", text)
