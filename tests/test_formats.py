import fractions
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rational_list_entrywise
from kcscglue.balancing import RICCI_FLAT, SCALAR_FLAT, SingularPointRecord
from kcscglue.examples import embedded_examples, example_by_name
from kcscglue.formats import (
    MAX_DIGITS,
    MAX_M,
    _rational_row,
    FanFile,
    OrbifoldFile,
    ParseError,
    parse_fan,
    parse_orbifold,
    sniff_kind,
)
from kcscglue.toric_lattice import validate_fan


def serialize_fan(f: FanFile) -> str:
    """A fan file that parses back to ``f``."""
    lines = [f"dim {f.dim}"]
    if f.k is not None:
        lines.append(f"k {f.k}")
    for ray in f.rays:
        lines.append(f"ray [{', '.join(str(x) for x in ray)}]")
    for idx, label in zip(f.max_cones, f.labels):
        lines.append(f"cone [{', '.join(str(i + 1) for i in idx)}] {label}")
    return "\n".join(lines) + "\n"


def serialize_orbifold(o: OrbifoldFile) -> str:
    """An orbifold file that parses back to ``o``."""
    lines = [f"m {o.m}", f"d {o.d}"]
    lines.append(f"s {'positive' if o.s is None else o.s}")
    lines.append(f"einstein {'yes' if o.einstein else 'no'}")
    for p in o.points:
        parts = [
            f"point {p.label} {p.kind} order={p.group_order}",
            f"phi=[{', '.join(str(x) for x in p.phi.values())}]",
        ]
        if p.dphi is not None:
            parts.append(f"dphi=[{', '.join(str(x) for x in p.dphi.values())}]")
        if p.e_sign is not None:
            parts.append(f"e_sign={'+1' if p.e_sign > 0 else '-1'}")
        if p.e_magnitude is not None:
            parts.append(f"e_mag={p.e_magnitude}")
        if p.c_gamma is not None:
            parts.append(f"c_gamma={p.c_gamma}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


class TestParseFan:
    def test_bundled_x1(self):
        f = parse_fan(example_by_name("x1").text)
        assert f.dim == 3
        assert f.k == 3
        assert len(f.rays) == 8
        assert len(f.max_cones) == 12
        assert f.labels[0] == "C1"
        assert f.max_cones[0] == (1, 2, 3)  # 0-based

    def test_bundled_x4(self):
        f = parse_fan(example_by_name("x4").text)
        assert len(f.rays) == 6
        assert len(f.max_cones) == 8

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_fan("")

    # How records relate is no line's to decide: such a file parses, and
    # validation names the violation.
    def test_index_out_of_range(self):
        f = parse_fan("dim 2\nray [1, 0]\nray [0, 1]\ncone [1, 3]\n")
        assert "cone C1: ray index out of range" in validate_fan(f).violations

    def test_dimension_mismatch(self):
        f = parse_fan("dim 3\nray [1, 0]\ncone [1]\n")
        assert "ray 1 has length 2, expected 3" in validate_fan(f).violations

    def test_error_lines_are_precise(self):
        text = "dim 2\nray [1, 0]\nray [x, 1]\ncone [1, 2]\n"
        with pytest.raises(ParseError) as err:
            parse_fan(text)
        assert any(e.startswith("line 3:") for e in err.value.errors)

    def test_dim_below_two_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_fan("# a line\ndim 1\nray [1]\nray [-1]\ncone [1]\ncone [2]\n")
        assert list(err.value.errors) == ["line 2: dim must be >= 2"]

    def test_default_labels(self):
        text = "dim 2\nray [1, 0]\nray [0, 1]\nray [-1, -1]\ncone [1, 2]\ncone [2, 3]\n"
        f = parse_fan(text)
        assert f.labels == ("C1", "C2")


class TestParseOrbifold:
    def test_bundled_surface(self):
        o = parse_orbifold(example_by_name("p1xp1-z2").text)
        assert (o.m, o.d, o.s, o.einstein) == (2, 2, None, True)
        assert len(o.points) == 4
        assert o.points[0].phi.values() == (-1, -1)
        assert o.points[0].group_order == 2

    def test_rational_values(self):
        text = (
            "m 2\nd 1\ns 4/3\neinstein yes\n"
            "point P ricci_flat order=2 phi=[-1/2]\n"
        )
        o = parse_orbifold(text)
        assert o.s == Fraction(4, 3)
        assert o.points[0].phi.values() == (Fraction(-1, 2),)

    def test_float_rejected(self):
        text = "m 2\nd 1\ns 1\neinstein yes\npoint P ricci_flat order=2 phi=[0.5]\n"
        with pytest.raises(ParseError) as err:
            parse_orbifold(text)
        assert any("exact rational" in e for e in err.value.errors)

    def test_scalar_flat_needs_sign(self):
        text = "m 2\nd 1\ns 1\neinstein no\npoint Q scalar_flat order=2 phi=[1]\n"
        with pytest.raises(ParseError) as err:
            parse_orbifold(text)
        assert any("e_sign" in e for e in err.value.errors)

    def test_ricci_flat_needs_dphi_without_einstein(self):
        text = "m 2\nd 1\ns 1\neinstein no\npoint P ricci_flat order=2 phi=[1]\n"
        with pytest.raises(ParseError):
            parse_orbifold(text)

    def test_dphi_conflicts_with_einstein(self):
        text = (
            "m 2\nd 1\ns 1\neinstein yes\n"
            "point P ricci_flat order=2 phi=[1] dphi=[-2]\n"
        )
        with pytest.raises(ParseError) as err:
            parse_orbifold(text)
        assert any("conflicts" in e for e in err.value.errors)

    def test_phi_length_checked(self):
        text = "m 2\nd 2\ns 1\neinstein yes\npoint P ricci_flat order=2 phi=[1]\n"
        with pytest.raises(ParseError) as err:
            parse_orbifold(text)
        assert any("expected d=2" in e for e in err.value.errors)


P2_FAN = "dim 2\nk 1\nray [1, 0]\nray [0, 1]\nray [-1, -1]\ncone [1, 2]\ncone [2, 3]\ncone [3, 1]\n"
P2_Z3 = example_by_name("p2-z3").text
P1_LINE = "point P1 ricci_flat order=3 phi=[1, 0]"
# Inputs that once parsed with a part silently dropped or overridden, and
# the one error each gets now.
DROPPED = {
    "empty ray entry": (
        parse_fan,
        P2_FAN.replace("ray [1, 0]", "ray [1,,0]"),
        "line 3: ray entry '' is not an integer",
    ),
    "trailing comma": (
        parse_fan,
        P2_FAN.replace("ray [0, 1]", "ray [0, 1,]"),
        "line 4: ray entry '' is not an integer",
    ),
    "empty cone entry": (
        parse_fan,
        P2_FAN.replace("cone [1, 2]", "cone [, 1, 2] A"),
        "line 6: cone entry '' is not an integer",
    ),
    "empty phi entry": (
        parse_orbifold,
        P2_Z3.replace(P1_LINE, "point P1 ricci_flat order=3 phi=[1, , 0]"),
        "line 7: phi entry '' is not an exact rational",
    ),
    "unknown attribute": (
        parse_orbifold,
        P2_Z3.replace(P1_LINE, P1_LINE + " bogus=3"),
        "line 7: unknown point attribute 'bogus'",
    ),
    "repeated attribute": (
        parse_orbifold,
        P2_Z3.replace(P1_LINE, P1_LINE + " phi=[0, 1]"),
        "line 7: point attribute phi given twice",
    ),
    "stray text after the attributes": (
        parse_orbifold,
        P2_Z3.replace(P1_LINE, P1_LINE + " junk"),
        "line 7: unexpected text 'junk' in point attributes",
    ),
    "repeated point label": (
        parse_orbifold,
        P2_Z3 + "point P1 ricci_flat order=3 phi=[-1, 0]\n",
        "line 10: point label P1 given twice (first on line 7)",
    ),
    "stray text between attributes": (
        parse_orbifold,
        P2_Z3.replace(P1_LINE, "point P1 ricci_flat order=3 x phi=[1, 0]"),
        "line 7: unexpected text 'x' in point attributes",
    ),
    **{
        f"repeated {key}": (parse, text + f"{key} {value}\n", f"line {line}: {key} given twice")
        for parse, text, line, pairs in (
            (parse_fan, P2_FAN, 9, (("dim", 2), ("k", 1))),
            (parse_orbifold, P2_Z3, 10, (("m", 2), ("d", 2), ("s", 1), ("einstein", "yes"))),
        )
        for key, value in pairs
    },
}


@pytest.mark.parametrize("case", sorted(DROPPED))
def test_nothing_is_dropped_silently(case):
    parse, text, message = DROPPED[case]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.errors == (message,)


def test_empty_list_entry_fixture():
    with pytest.raises(ParseError) as err:
        parse_fan((Path(__file__).parent / "fixtures" / "empty-list-entry.fan").read_text())
    assert err.value.errors == ("line 3: ray entry '' is not an integer",)


# Orbifold files with one rational literal at {x}, and the line it is on.
# e_mag and c_gamma are key=value attributes, which end at a space, and
# must be positive.
RATIONAL_FIELDS = {
    "s": ("m 2\nd 1\ns {x}\neinstein yes\npoint P ricci_flat order=2 phi=[1]\n", 3),
    "phi": ("m 2\nd 1\ns 1\neinstein yes\npoint P ricci_flat order=2 phi=[{x}]\n", 5),
    "dphi": (
        "m 2\nd 1\ns 1\neinstein no\npoint P ricci_flat order=2 phi=[1] dphi=[{x}]\n",
        5,
    ),
    "e_mag": (
        "m 2\nd 1\ns 1\neinstein no\n"
        "point Q scalar_flat order=2 e_sign=+ e_mag={x} phi=[1]\n",
        5,
    ),
    "c_gamma": (
        "m 2\nd 1\ns 1\neinstein yes\npoint P ricci_flat order=2 c_gamma={x} phi=[1]\n",
        5,
    ),
}
NOT_RATIONAL = (
    "0.5", "1e-3", "1_0", "1 / 2", "\u0663", "\uff11", "1/0", "-3/0", "1/", "/2",
    "3/-2", "+-1", ".5", "1.", "0x1", "inf", "nan", "1/2/3",
)
RATIONAL = {
    "3": Fraction(3),
    "+3": Fraction(3),
    "-1/2": Fraction(-1, 2),
    "007": Fraction(7),
    "6/4": Fraction(3, 2),
    "-0": Fraction(0),
    "-0/5": Fraction(0),
}


def _rational_cases(literals):
    return [
        (field, x)
        for field in RATIONAL_FIELDS
        for x in literals
        if not (field in ("e_mag", "c_gamma") and (" " in x or x.startswith("-")))
    ]


def _point(label: str, phi: tuple) -> SingularPointRecord:
    return SingularPointRecord(label=label, kind=RICCI_FLAT, group_order=3, phi=phi)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"m": 0}, "m must be >= 2 and d >= 1, got m=0 and d=2"),
        ({"m": 1}, "m must be >= 2 and d >= 1, got m=1 and d=2"),
        ({"m": 1001}, "m must be <= 1000, got m=1001"),
        ({"d": 0}, "m must be >= 2 and d >= 1, got m=2 and d=0"),
        ({"d": 3}, "point P1: phi needs d=3 entries"),
        (
            {"points": (_point("P1", (1, 0)), _point("P1", (0, 1)))},
            "point labels must be distinct",
        ),
    ],
    ids=["m 0", "m 1", "m 1001", "d 0", "phi shorter than d", "repeated label"],
)
def test_library_built_orbifold_file_is_held_to_the_parser_rules(fields, message):
    """What the parser refuses with a line number, a file built through the
    library is refused with a ValueError, before any report reads it."""
    base = {
        "m": 2,
        "d": 2,
        "s": None,
        "einstein": True,
        "points": (_point("P1", (1, 0)), _point("P2", (0, 1))),
    }
    OrbifoldFile(**base)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OrbifoldFile(**{**base, **fields})


def test_orbifold_file_is_an_immutable_value():
    """OrbifoldFile is a NamedTuple: its fields cannot be assigned, and two
    parses of one text are equal."""
    text = example_by_name("p2-z3").text
    orb = parse_orbifold(text)
    with pytest.raises(AttributeError):
        orb.m = 3
    with pytest.raises(AttributeError):
        orb.extra = 1
    assert parse_orbifold(text) == orb and parse_orbifold(text) is not orb
    assert OrbifoldFile(*orb) == orb
    assert orb._replace(einstein=not orb.einstein) != orb


class TestRationalGrammar:
    """One ASCII grammar, [+-]?[0-9]+(/[0-9]+)?, for s, phi, dphi, e_mag and
    c_gamma, so a file gets the same verdict on every interpreter: Python's
    Fraction(str) takes decimals and exponents everywhere, underscores from
    3.11 on, spaces around the slash from 3.12 on, and non-ASCII digits."""

    @pytest.mark.parametrize("field, literal", _rational_cases(NOT_RATIONAL))
    def test_rejected(self, field, literal):
        template, line = RATIONAL_FIELDS[field]
        with pytest.raises(ParseError) as err:
            parse_orbifold(template.format(x=literal))
        if field == "s":
            message = "s must be an exact rational or 'positive'"
        elif field in ("e_mag", "c_gamma"):
            message = f"{field} must be an exact rational"
        else:
            message = f"{field} entry {literal!r} is not an exact rational"
        assert list(err.value.errors) == [f"line {line}: {message}"]

    @pytest.mark.parametrize("field, literal", _rational_cases(RATIONAL))
    def test_accepted(self, field, literal):
        template, _ = RATIONAL_FIELDS[field]
        o = parse_orbifold(template.format(x=literal))
        point = o.points[0]
        value = {
            "s": o.s,
            "phi": point.phi.values()[0],
            "dphi": (point.dphi.values() if point.dphi else (None,))[0],
            "e_mag": point.e_magnitude,
            "c_gamma": point.c_gamma,
        }[field]
        assert value == RATIONAL[literal]


P2_TEMPLATE = (
    "dim {dim}\nk {k}\nray [{ray}, 0]\nray [0, 1]\nray [-1, -1]\n"
    "cone [{cone}, 2]\ncone [2, 3]\ncone [3, 1]\n"
)
POINT_TEMPLATE = "m {m}\nd {d}\ns 1\neinstein yes\npoint P ricci_flat order={order} phi=[1]\n"
# Integer fields: the line each is on, and the value of a field when it is
# not the one under test.
INTEGER_FIELDS = {
    "dim": (P2_TEMPLATE, 1, 2),
    "k": (P2_TEMPLATE, 2, 1),
    "ray": (P2_TEMPLATE, 3, 1),
    "cone": (P2_TEMPLATE, 6, 1),
    "m": (POINT_TEMPLATE, 1, 2),
    "d": (POINT_TEMPLATE, 2, 1),
    "order": (POINT_TEMPLATE, 5, 2),
}
NOT_INTEGER = (
    "1_0", "\u0661", "\u0662", "\u0663", "\uff11", "1.0", "1e3", "0x1", "+-1", "1/1",
)


# The pieces of the lists the one-pass reader is checked on: whitespace
# that str.strip strips (ASCII, \x1c and Unicode spaces), signs, ASCII
# digits, and entries that are no rational literal.
LIST_SPACE = st.sampled_from(["", " ", "\t", "\x1c", "  ", "\xa0", "\u3000"])
LIST_DIGITS = st.text(st.sampled_from("0123456789"), min_size=1, max_size=3)
NOT_AN_ENTRY = st.sampled_from(
    ["", "1.5", ".5", "1_0", "\u0663", "\uff11", "1e3", "1/", "/2", "1/0", "3/00", "+", "-+1",
     "1 / 2", "1//2", "0x1", "\u00bd", "[1]", "1]"]
)


@st.composite
def list_entries(draw):
    if draw(st.integers(0, 4)) == 0:
        core = draw(NOT_AN_ENTRY)
    else:
        core = draw(st.sampled_from(["", "+", "-"])) + draw(LIST_DIGITS)
        if draw(st.booleans()):
            core += "/" + draw(LIST_DIGITS)  # "0" and "00" are zero denominators
    return draw(LIST_SPACE) + core + draw(LIST_SPACE)


@st.composite
def rational_lists(draw):
    shape = draw(st.sampled_from(["list", "list", "list", "empty", "blank", "bare", "open"]))
    if shape == "empty":
        return "[]"
    if shape == "blank":
        return "[" + draw(LIST_SPACE) + "]"
    inner = ",".join(draw(st.lists(list_entries(), min_size=1, max_size=5)))
    if shape == "bare":
        return inner
    if shape == "open":
        return "[" + inner
    return draw(LIST_SPACE) + "[" + inner + "]" + draw(LIST_SPACE)


class TestOnePassListReader:
    """phi and dphi lists are read in one regex pass into one IntegerRow.
    The entrywise reader they were read with before stays as the oracle:
    both accept the same lists with the same values, and a refused list gets
    the entrywise reader's error text."""

    @staticmethod
    def check(text):
        want, want_errors = rational_list_entrywise(text)
        errors = []
        row = _rational_row(text, errors, 1, "phi")
        assert (row is None) == (want is None)
        if row is not None:
            assert row.values() == tuple(want)
            assert row.den > 0 and math.gcd(row.den, *row.nums) == 1
        assert errors == want_errors

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(rational_lists())
    def test_same_grammar_values_and_errors(self, text):
        self.check(text)

    @pytest.mark.parametrize(
        "text",
        ["[]", "[ ]", "[\x1c]", " [1] ", "[1,,2]", "[,]", "[1,]", "[1/0]", "[1.5]", "[1_0]",
         "[\u0663]", "[-3/6, 4/2]", "[\t+1/3\x1c,\x1c-0/7 ]", "1", "[1", "[1]]", "[[1]",
         # literals at and past the digit bound
         "[-" + "9" * 640 + "/" + "0" * 639 + "7, 1]", "[1/" + "0" * 640 + "]",
         "[2, " + "1" * 641 + "]", "[1/" + "3" * 641 + "]", "[1." + "5" * 641 + "]"],
    )
    def test_named_lists(self, text):
        self.check(text)

    def test_parse_orbifold_constructs_no_fraction(self):
        text = (
            "m 3\nd 3\ns positive\neinstein no\n"
            "point Q1 scalar_flat order=4 phi=[-8, 10/3, 1/2] e_sign=+1\n"
            "point Q2 scalar_flat order=2 phi=[ 11/2 , 2, -4/6] e_sign=-1\n"
            "point P1 ricci_flat order=3 phi=[1, 2/5, 0] dphi=[3/7, -1, 2]\n"
        )
        made = []

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename == fractions.__file__:
                made.append(code.co_name)

        sys.setprofile(profile)
        try:
            orb = parse_orbifold(text)
        finally:
            sys.setprofile(None)
        assert made == []
        assert orb.points[1].phi.values() == (Fraction(11, 2), 2, Fraction(-2, 3))
        assert orb.points[2].dphi.values() == (Fraction(3, 7), -1, 2)


def _integer_text(field, literal):
    template = INTEGER_FIELDS[field][0]
    values = {name: value for name, (t, _, value) in INTEGER_FIELDS.items() if t is template}
    values[field] = literal
    return template.format(**values)


def _parse_integer_text(field, literal):
    parse = parse_fan if INTEGER_FIELDS[field][0] is P2_TEMPLATE else parse_orbifold
    return parse(_integer_text(field, literal))


class TestIntegerGrammar:
    """One ASCII grammar, [+-]?[0-9]+, for dim, k, ray and cone entries, m,
    d and order: Python's int(str) takes underscores and non-ASCII digits,
    so 'k 1_0' would read as 10 and 'm \u0662' as 2."""

    @pytest.mark.parametrize(
        "field, literal", [(f, x) for f in INTEGER_FIELDS for x in NOT_INTEGER]
    )
    def test_rejected(self, field, literal):
        with pytest.raises(ParseError) as err:
            _parse_integer_text(field, literal)
        line = INTEGER_FIELDS[field][1]
        if field in ("ray", "cone"):
            message = f"{field} entry {literal!r} is not an integer"
        else:
            message = f"{field} must be an integer"
        assert err.value.errors[0] == f"line {line}: {message}"

    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    @pytest.mark.parametrize("form", ["{}", "+{}", "00{}"])
    def test_accepted(self, field, form):
        value = INTEGER_FIELDS[field][2]
        parsed = _parse_integer_text(field, form.format(value))
        expected = _parse_integer_text(field, str(value))
        assert parsed == expected

    def test_underscore_and_non_ascii_digits(self):
        for text in (
            P2_TEMPLATE.format(dim=2, k="1_0", ray=1, cone=1),
            P2_TEMPLATE.format(dim=2, k=1, ray="\u0661", cone=1),
            POINT_TEMPLATE.format(m="\u0662", d=1, order=2),
        ):
            with pytest.raises(ParseError):
                parse_fan(text) if text.startswith("dim") else parse_orbifold(text)


class TestRoundTrip:
    def test_all_bundled_inputs(self):
        for ex in embedded_examples():
            if ex.kind == "fan":
                first = parse_fan(ex.text)
                again = parse_fan(serialize_fan(first))
            else:
                first = parse_orbifold(ex.text)
                again = parse_orbifold(serialize_orbifold(first))
            assert first == again

    def test_orbifold_with_optional_fields(self):
        text = (
            "m 3\nd 2\ns positive\neinstein no\n"
            "point Q scalar_flat order=4 phi=[1, 1/3] e_sign=-1 e_mag=2 c_gamma=1/2\n"
            "point P ricci_flat order=3 phi=[1, 0] dphi=[-1, 0] c_gamma=3\n"
        )
        first = parse_orbifold(text)
        assert first.points[0].e_magnitude == 2
        assert first.points[0].e_sign == -1
        assert first.points[1].c_gamma == 3
        assert parse_orbifold(serialize_orbifold(first)) == first


# Labels are single tokens without '#' (a comment) or ']' (the end of a
# cone's index list); they may leave ASCII.
LABELS = st.text(st.sampled_from("abcQPCxyz019_-+.'=éüλΩ∞€𝔽"), min_size=1, max_size=6)
RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
POSITIVE = st.fractions(min_value=0, max_value=20, max_denominator=12).filter(bool)


@st.composite
def fan_files(draw) -> FanFile:
    dim = draw(st.integers(2, 4))
    rays = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * dim), min_size=1, max_size=6))
    cones = draw(
        st.lists(
            st.lists(st.integers(0, len(rays) - 1), min_size=1, max_size=dim).map(tuple),
            min_size=1,
            max_size=6,
        )
    )
    labels = draw(st.lists(LABELS, min_size=len(cones), max_size=len(cones)))
    k = draw(st.one_of(st.none(), st.integers(1, 5)))
    return FanFile(
        dim=dim, rays=tuple(rays), max_cones=tuple(cones), k=k, labels=tuple(labels)
    )


@st.composite
def orbifold_files(draw) -> OrbifoldFile:
    d = draw(st.integers(1, 3))
    einstein = draw(st.booleans())
    points = []
    # Point labels are distinct: a repeated one is a parse error.
    for label in draw(st.lists(LABELS, min_size=1, max_size=5, unique=True)):
        kind = draw(st.sampled_from([RICCI_FLAT, SCALAR_FLAT]))
        dphi = None
        if not einstein and (kind == RICCI_FLAT or draw(st.booleans())):
            dphi = tuple(draw(RATIONALS) for _ in range(d))
        sign = draw(st.sampled_from([1, -1]))
        points.append(
            SingularPointRecord(
                label=label,
                kind=kind,
                group_order=draw(st.integers(1, 24)),
                phi=tuple(draw(RATIONALS) for _ in range(d)),
                dphi=dphi,
                e_sign=sign if kind == SCALAR_FLAT or draw(st.booleans()) else None,
                e_magnitude=draw(st.one_of(st.none(), POSITIVE)),
                c_gamma=draw(st.one_of(st.none(), POSITIVE)),
            )
        )
    return OrbifoldFile(
        m=draw(st.integers(2, 5)),
        d=d,
        s=draw(st.one_of(st.none(), RATIONALS)),
        einstein=einstein,
        points=tuple(points),
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(fan_files())
def test_fan_round_trip(fan):
    assert parse_fan(serialize_fan(fan)) == fan


@settings(max_examples=150, derandomize=True, deadline=None)
@given(orbifold_files())
def test_orbifold_round_trip(orb):
    assert parse_orbifold(serialize_orbifold(orb)) == orb


def test_sniff_kind():
    assert sniff_kind(example_by_name("x1").text) == "fan"
    assert sniff_kind(example_by_name("p2-z3").text) == "orbifold"
    with pytest.raises(ParseError):
        sniff_kind("\n# only comments\n")


FIXTURES = Path(__file__).parent / "fixtures"
LONG = "1" * (MAX_DIGITS + 1)


class TestInputBounds:
    """Every integer literal has at most MAX_DIGITS = 640 digits, the lowest
    limit an interpreter may set for reading an int, and an orbifold file's
    m is at most MAX_M = 1000.  Past either bound the file gets a
    line-numbered ParseError, never the interpreter's own ValueError."""

    @pytest.mark.parametrize(
        "name, error",
        [
            ("long-order.orb", "line 7: order has more than 640 digits"),
            ("long-phi-entry.orb", "line 6: phi entry has more than 640 digits"),
            ("long-k.fan", "line 3: k has more than 640 digits"),
            ("m1700-scalar-flat.orb", "line 3: m must be <= 1000"),
        ],
    )
    def test_fixtures(self, name, error):
        parse = parse_fan if name.endswith(".fan") else parse_orbifold
        with pytest.raises(ParseError) as err:
            parse((FIXTURES / name).read_text())
        assert err.value.errors == (error,)

    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_integer_literal_past_the_bound(self, field):
        with pytest.raises(ParseError) as err:
            _parse_integer_text(field, LONG)
        what = f"{field} entry" if field in ("ray", "cone") else field
        line = INTEGER_FIELDS[field][1]
        assert err.value.errors[0] == f"line {line}: {what} has more than 640 digits"

    @pytest.mark.parametrize(
        "field, literal", _rational_cases([LONG, "-" + LONG, f"1/{LONG}", f"{LONG}/3"])
    )
    def test_rational_literal_past_the_bound(self, field, literal):
        template, line = RATIONAL_FIELDS[field]
        with pytest.raises(ParseError) as err:
            parse_orbifold(template.format(x=literal))
        what = f"{field} entry" if field in ("phi", "dphi") else field
        assert list(err.value.errors) == [f"line {line}: {what} has more than 640 digits"]

    def test_literals_at_the_bound_read_under_the_lowest_limit(self):
        set_limit = getattr(sys, "set_int_max_str_digits", None)
        if set_limit is None:
            pytest.skip("this interpreter has no limit on reading an int")
        nines = "9" * MAX_DIGITS
        text = (
            f"m 2\nd 2\ns {nines}/{nines[1:]}7\neinstein yes\n"
            f"point P ricci_flat order={nines} phi=[-{nines}, 1/{nines}]\n"
        )
        old = sys.get_int_max_str_digits()
        set_limit(MAX_DIGITS)
        try:
            orb = parse_orbifold(text)
        finally:
            set_limit(old)
        big = 10**MAX_DIGITS - 1
        assert orb.points[0].group_order == big
        assert orb.points[0].phi.values() == (-big, Fraction(1, big))

    def test_m_bound(self):
        text = (FIXTURES / "m1700-scalar-flat.orb").read_text()
        at_bound = parse_orbifold(text.replace("m 1700", f"m {MAX_M}"))
        assert at_bound.m == MAX_M
        with pytest.raises(ParseError) as err:
            parse_orbifold(text.replace("m 1700", f"m {MAX_M + 1}"))
        assert err.value.errors == ("line 3: m must be <= 1000",)
