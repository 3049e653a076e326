"""``render_json`` writes the bytes of ``json.dumps(sort_keys=True, indent=2)``.

The report writer is checked against ``json.dumps`` as an oracle: on
hypothesis-drawn JSON values (strings with non-ASCII, astral, control,
quote and backslash characters and lone surrogates; large ints, bools,
None, empty and nested lists, tuples and dicts) and on the report of every
pinned input, the bundled examples included.  A value that is not a report
value (a float, a set, a non-str key) is a TypeError.
"""

import enum
import json

import pytest
from hypothesis import given, settings, strategies as st

from kcscglue.formats import parse_fan, parse_orbifold
from kcscglue.report import build_report, render_json
from test_report_bytes import INPUTS


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


CHARS = st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\ud800", "\udfff"]),
    st.sampled_from(["é", "∞", "€", " ", "𝔽", "😀"]),
)
TEXT = st.text(CHARS, max_size=12)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    TEXT,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(TEXT, max_size=5),
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(VALUES)
def test_matches_json_dumps(value):
    assert render_json(value) == dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        "",
        {"": [[], {}, ()]},
        ["a", 1, True, None, "b"],  # a string list that is not all strings
        [["é", "𝔽"], []],
        {"b": 1, "a": {"d": False, "c": -(10**30)}},
    ],
)
def test_edge_values(value):
    assert render_json(value) == dumps(value)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_every_pinned_report(name):
    text = INPUTS[name]
    parse = parse_fan if name.endswith(".fan") else parse_orbifold
    report = build_report(name, text, parse(text))
    assert render_json(report) == dumps(report)


def test_non_ascii_label_is_escaped():
    name = "non-ascii-label.orb"
    rendered = render_json(build_report(name, INPUTS[name], parse_orbifold(INPUTS[name])))
    assert rendered.isascii()
    assert '"point Q\\u00e9 scalar_flat' in rendered
    assert '"label": "P\\ud835\\udd3d"' in rendered


def test_shared_string_lists():
    """A list of strings the report holds in several places, at several
    depths, is written at each place's indent."""
    vertex = ["-5", "1/2", "\u00e9"]
    face = [vertex, ["0", "1"], vertex]
    value = {"vertices": [vertex], "faces": [face, face], "assignment": {"C1": vertex}}
    assert render_json(value) == dumps(value)


class Label(str):
    pass


class Index(enum.IntEnum):
    ONE = 1


def test_subclasses_of_report_types():
    value = {Label("a"): [Label("x"), Index.ONE], "b": (Index.ONE,), "c": type("D", (dict,), {})()}
    assert render_json(value) == dumps(value)


@pytest.mark.parametrize(
    "value",
    [1.5, {"a": [1, 0.5]}, ["a", 0.5], {1, 2}, {"a": {1: "b"}}, {None: 1}, b"x"],
)
def test_non_report_values_are_rejected(value):
    with pytest.raises(TypeError):
        render_json(value)
