"""Mutation fuzz of the input contract: any text gives a report or a
line-numbered ParseError.

Every fixture and embedded example is mutated by dropping, duplicating and
rewriting its lines and tokens (a token being a run of characters between
whitespace, brackets, commas and '='): a rewritten line is a line of the
corpus, and a rewritten token another token of the corpus or one of a few
edge-case literals.  Each mutated text is read by its source's kind, as
``kcscglue report`` reads a file with that suffix.  It either raises ParseError, or ``build_report``, ``render_json``
and ``render_text`` all return, with an exit code in {0, 1, 2}, within
CASE_SECONDS; no report carries the interpreter's message for an int too
long to write.  The examples are derandomized, so a run is a fixed slice;
KCSCGLUE_FUZZ_CASES sets its size (200 by default), and pytest's
``--hypothesis-show-statistics`` counts the outcomes.
"""

import os
import re
import time
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings, strategies as st

from kcscglue.examples import embedded_examples
from kcscglue.formats import ParseError, parse_fan, parse_orbifold
from kcscglue.report import build_report, exit_code, render_json, render_text

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = {ex.filename: ex.text for ex in embedded_examples()}
CORPUS.update(
    (p.name, p.read_text()) for p in sorted(FIXTURES.iterdir()) if p.suffix in (".fan", ".orb")
)
NAMES = sorted(CORPUS)
# Tokens and the separators around them; re.split keeps the separators, so
# joining the pieces gives the line back.
_PIECES = re.compile(r"(\s+|[\[\],=])")
TOKENS = sorted(
    {t for text in CORPUS.values() for t in _PIECES.split(text) if t and not _PIECES.fullmatch(t)}
)
LINES = sorted({line for text in CORPUS.values() for line in text.splitlines()})
EDGE_TOKENS = [
    "0", "-0", "+1", "-1", "1/0", "0/0", "-1/2", "1/-2", "1.5", "1e3", "1_000", "٣",
    "9" * 640, "9" * 641, "1/" + "9" * 640, "[", "]", "[]", ",", "=", "#", "",
    "positive", "yes", "no", "point", "ray", "cone", "dim", "m", "d", "s", "k",
    "ricci_flat", "scalar_flat", "order=", "phi=[]", "e_sign=+", "e_mag=0",
]
CASE_SECONDS = 2.0
CASES = int(os.environ.get("KCSCGLUE_FUZZ_CASES", "200"))
INTERPRETER_LIMIT_MESSAGE = "Exceeds the limit"


@st.composite
def mutated(draw):
    """(name, mutated text) of one corpus file after one to four edits."""
    name = draw(st.sampled_from(NAMES))
    lines = CORPUS[name].splitlines()
    replacement = st.one_of(st.sampled_from(TOKENS), st.sampled_from(EDGE_TOKENS))
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines.append(draw(replacement))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(
            st.sampled_from(
                ["drop line", "duplicate line", "rewrite line", "drop token",
                 "duplicate token", "rewrite token"]
            )
        )
        if edit == "drop line":
            del lines[i]
        elif edit == "duplicate line":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "rewrite line":
            lines[i] = draw(st.sampled_from(LINES))
        else:
            pieces = _PIECES.split(lines[i])
            j = draw(st.integers(0, len(pieces) - 1))
            if edit == "drop token":
                del pieces[j]
            elif edit == "duplicate token":
                pieces.insert(j, pieces[j])
            else:
                pieces[j] = draw(replacement)
            lines[i] = "".join(pieces)
    return name, "\n".join(lines) + "\n"


@settings(
    max_examples=CASES,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated())
def test_mutated_input_gives_a_report_or_a_parse_error(case):
    name, text = case
    parse = parse_fan if name.endswith(".fan") else parse_orbifold
    start = time.perf_counter()
    try:
        parsed = parse(text)
    except ParseError as exc:
        assert exc.errors and all(e.startswith("line ") for e in exc.errors)
        event("parse error")
        return
    report = build_report(name, text, parsed)
    rendered = render_json(report) + render_text(report)
    elapsed = time.perf_counter() - start
    code = exit_code(report["report"])
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert INTERPRETER_LIMIT_MESSAGE not in rendered
    assert elapsed < CASE_SECONDS, f"{name} mutated took {elapsed:.2f} s"
