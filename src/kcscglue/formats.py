"""Input file parsing.

Both formats are line-oriented `key value` records with exact integer and
p/q rational literals; every integer and every rational is read by one
ASCII grammar each, and every list by one list grammar, so decimals,
underscores, non-ASCII digits, empty list entries and integer literals of
more than MAX_DIGITS digits are rejected by construction and on every
interpreter.  An orbifold point's phi and dphi lists are each read by one
regex match, in that grammar, into one integer row over one positive
denominator (an IntegerRow), so reading them makes no Fraction; a list the
match refuses goes through the entrywise reader, which names the
error.  Fan files carry rays and maximal cones (1-based ray indices,
optional labels); a fan parse error is about one line, and how the records
relate is for ``validate_fan`` to judge.  Orbifold files carry the complex
dimension m (at most MAX_M), the kernel dimension, scalar curvature (exact
or `positive`), the Einstein flag and one `point` record per singular
point.  Nothing is dropped silently: a scalar key given twice, a point
label given twice, an unknown or repeated point attribute and text between
point attributes are errors.  An orbifold file is an OrbifoldFile, a
NamedTuple whose constructor holds a library-built file to the parser's
rules; each point is built positionally as a SingularPointRecord, a
NamedTuple too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .balancing import RICCI_FLAT, SCALAR_FLAT, SingularPointRecord
from .exact_linalg import IntegerRow
from .toric_lattice import Fan

# The largest m of an orbifold file: its coefficients carry (m-2)!, whose
# cost grows faster than m (998! has 2,562 digits; at m = 1000003 the
# factorial alone runs for seconds).
MAX_M = 1000


class ParseError(ValueError):
    """Carries a list of line-precise 'line N: message' strings."""

    def __init__(self, errors: Sequence[str]):
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class FanFile(Fan):
    """A fan file: the fan and the anticanonical multiple k, if given."""

    k: Optional[int] = None


class _OrbifoldFields(NamedTuple):
    m: int
    d: int
    s: Optional[Fraction]  # None = positive, known by sign only
    einstein: bool
    points: tuple[SingularPointRecord, ...]


class OrbifoldFile(_OrbifoldFields):
    """An orbifold file: m, d, s, the Einstein flag and the points."""

    __slots__ = ()

    def __new__(
        cls,
        m: int,
        d: int,
        s: Optional[Fraction],
        einstein: bool,
        points: tuple[SingularPointRecord, ...],
    ) -> "OrbifoldFile":
        # The parser's rules, for a file built through the library; a parsed
        # file meets them, its line-numbered errors coming first.
        if m < 2 or d < 1:
            raise ValueError(f"m must be >= 2 and d >= 1, got m={m} and d={d}")
        if m > MAX_M:
            raise ValueError(f"m must be <= {MAX_M}, got m={m}")
        for p in points:  # a record's dphi has as many entries as its phi
            if len(p.phi.nums) != d:
                raise ValueError(f"point {p.label}: phi needs d={d} entries")
        labels = {p.label for p in points}
        if len(labels) != len(points):
            raise ValueError("point labels must be distinct")
        return tuple.__new__(cls, (m, d, s, einstein, points))


_LIST_RE = re.compile(r"^\[(.*)\]$", re.DOTALL)
_ATTR_RE = re.compile(r"(\w+)=(\[[^\]]*\]|\S+)")
# The one integer literal: at most MAX_DIGITS ASCII digits and an optional
# sign.  int(str) would also take underscores and non-ASCII digits, and 640
# is the lowest limit an interpreter may set on the digits it reads
# (sys.set_int_max_str_digits), so a literal is read or refused alike on
# every interpreter and setting.
MAX_DIGITS = 640
_DIGITS = rf"[0-9]{{1,{MAX_DIGITS}}}"
_INTEGER_RE = re.compile(rf"[+-]?{_DIGITS}")
_LONG_RE = re.compile(rf"[0-9]{{{MAX_DIGITS + 1}}}")
# The one rational literal: an integer and an optional nonzero denominator,
# one with a digit other than 0 after its leading zeros.  Fraction(str)
# would also take decimals, exponents, underscores, spaces around the slash
# and non-ASCII digits, some only on newer interpreters.
_DENOMINATOR = rf"(?=0*[1-9]){_DIGITS}"
_RATIONAL_RE = re.compile(rf"([+-]?{_DIGITS})(?:/({_DENOMINATOR}))?")
# A bracketed list of rational literals, the entries grouped: no entry or
# comma-separated entries, each a rational literal between whitespace.  \s
# is exactly str.isspace, which str.strip strips.
_ROW_ENTRY = rf"\s*[+-]?{_DIGITS}(?:/{_DENOMINATOR})?\s*"
_ROW_RE = re.compile(rf"\[(?:({_ROW_ENTRY}(?:,{_ROW_ENTRY})*)|\s*)\]")


def _strip_comment(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _integer(text: str) -> Optional[int]:
    """The integer a stripped literal names, or None if it is not one."""
    return int(text) if _INTEGER_RE.fullmatch(text) else None


def _rational(text: str) -> Optional[Fraction]:
    """The exact rational a stripped literal names, or None if it is not one
    (a zero denominator included)."""
    m = _RATIONAL_RE.fullmatch(text)
    return Fraction(int(m.group(1)), int(m.group(2) or 1)) if m else None


_NOUNS = {_integer: "an integer", _rational: "an exact rational"}


def _refuse(text: str, errors: list, lineno: int, what: str, why: str) -> None:
    """Record why text is not the literal ``what`` needs: too many digits, or ``why``."""
    if _LONG_RE.search(text):
        why = f"has more than {MAX_DIGITS} digits"
    errors.append(f"line {lineno}: {what} {why}")


def _field(literal, text: str, errors: list, lineno: int, what: str):
    """The value of one integer or rational field, or None with an error."""
    value = literal(text)
    if value is None:
        _refuse(text, errors, lineno, what, f"must be {_NOUNS[literal]}")
    return value


def _parse_list(literal, text: str, errors: list, lineno: int, what: str) -> Optional[list]:
    """The entries of a bracketed, comma-separated list of integer or
    rational literals (``[]`` is empty), or None with an error; an empty
    entry is an error, not a skipped one."""
    m = _LIST_RE.match(text.strip())
    if not m:
        errors.append(f"line {lineno}: {what} must be a bracketed list, got {text!r}")
        return None
    if not m.group(1).strip():
        return []
    out = []
    for t in map(str.strip, m.group(1).split(",")):
        x = literal(t)
        if x is None:
            _refuse(t, errors, lineno, f"{what} entry", f"{t!r} is not {_NOUNS[literal]}")
            return None
        out.append(x)
    return out


def _rational_row(text: str, errors: list, lineno: int, what: str) -> Optional[IntegerRow]:
    """A phi or dphi list as one IntegerRow, or None with an error.  One
    regex match decides the list, in the grammar of _parse_list with
    _rational, and the entries it groups are split at their commas and read
    as ints; a list it refuses goes through _parse_list, which names what is
    wrong."""
    m = _ROW_RE.fullmatch(text.strip())
    if m is None:
        if _parse_list(_rational, text, errors, lineno, what) is not None:
            # The two readers share one grammar; if they ever part, refuse.
            errors.append(f"line {lineno}: {what} must be a list of exact rationals")
        return None
    inner = m.group(1)
    if inner is None:
        return IntegerRow(())
    fields = inner.split(",")
    if "/" not in inner:
        return IntegerRow(tuple(map(int, map(str.strip, fields))))
    nums, dens = [], []
    for field in fields:
        num, _, den = field.strip().partition("/")
        nums.append(int(num))
        dens.append(int(den) if den else 1)
    return IntegerRow.over(nums, dens)


def _records(text: str, scalar_keys: tuple[str, ...], errors: list):
    """(line number, key, stripped rest) of each line with a record; a
    scalar key given a second time is an error and its line is skipped."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key in scalar_keys:
            if key in seen:
                errors.append(f"line {lineno}: {key} given twice")
                continue
            seen.add(key)
        yield lineno, key, rest.strip()


def parse_fan(text: str) -> FanFile:
    errors: list[str] = []
    dim: Optional[int] = None
    k: Optional[int] = None
    rays: list[tuple[int, ...]] = []
    cones: list[tuple[int, ...]] = []
    labels: list[str] = []
    for lineno, key, rest in _records(text, ("dim", "k"), errors):
        if key == "dim":
            value = _field(_integer, rest, errors, lineno, "dim")
            if value is None:
                continue
            dim = value
            if dim < 2:
                errors.append(f"line {lineno}: dim must be >= 2")
        elif key == "k":
            value = _field(_integer, rest, errors, lineno, "k")
            if value is None:
                continue
            k = value
            if k < 1:
                errors.append(f"line {lineno}: k must be >= 1")
        elif key == "ray":
            vec = _parse_list(_integer, rest, errors, lineno, "ray")
            if vec is not None:
                rays.append(tuple(vec))
        elif key == "cone":
            m = _LIST_RE.match(rest)
            label = None
            if m is None:
                # allow a trailing label after the list
                parts = rest.rsplit("]", 1)
                if len(parts) == 2 and parts[1].strip():
                    rest_list, label = parts[0] + "]", parts[1].strip()
                else:
                    errors.append(f"line {lineno}: cone must be a bracketed index list")
                    continue
            else:
                rest_list = rest
            idx = _parse_list(_integer, rest_list, errors, lineno, "cone")
            if idx is None:
                continue
            if any(i < 1 for i in idx):
                errors.append(f"line {lineno}: cone indices are 1-based (got {idx})")
                continue
            cones.append(tuple(i - 1 for i in idx))
            labels.append(label or f"C{len(cones)}")
        else:
            errors.append(f"line {lineno}: unknown key {key!r}")
    if dim is None:
        errors.append("line 0: missing dim")
    if not rays:
        errors.append("line 0: no rays")
    if not cones:
        errors.append("line 0: no cones")
    if errors:
        raise ParseError(errors)
    return FanFile(dim=dim, rays=tuple(rays), max_cones=tuple(cones), k=k, labels=tuple(labels))


_SIGNS = {"+": 1, "+1": 1, "-": -1, "-1": -1}
_POINT_ATTRIBUTES = frozenset(("order", "phi", "dphi", "e_sign", "e_mag", "c_gamma"))


def _point_attributes(text: str, errors: list, lineno: int) -> Optional[dict[str, str]]:
    """A point record's ``key=value`` attributes, or None with an error for
    text that is not an attribute, an unknown attribute or a repeated one.
    One split of the text gives the text between attributes, the keys and
    the values."""
    parts = _ATTR_RE.split(text)
    keys = parts[1::3]
    attrs = dict(zip(keys, parts[2::3]))
    stray = " ".join(parts[::3]).strip()
    if stray:
        errors.append(f"line {lineno}: unexpected text {stray!r} in point attributes")
    elif len(attrs) < len(keys):
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        errors.append(f"line {lineno}: point attribute {repeated} given twice")
    elif not _POINT_ATTRIBUTES.issuperset(keys):
        unknown = next(key for key in keys if key not in _POINT_ATTRIBUTES)
        errors.append(f"line {lineno}: unknown point attribute {unknown!r}")
    else:
        return attrs
    return None


def parse_orbifold(text: str) -> OrbifoldFile:
    errors: list[str] = []
    m: Optional[int] = None
    d: Optional[int] = None
    s: Optional[Fraction] = None
    s_seen = False
    einstein = False
    point_lines: list[tuple[int, str]] = []
    for lineno, key, rest in _records(text, ("m", "d", "s", "einstein"), errors):
        if key == "m":
            value = _field(_integer, rest, errors, lineno, "m")
            if value is not None and value > MAX_M:
                errors.append(f"line {lineno}: m must be <= {MAX_M}")
            m = m if value is None else value
        elif key == "d":
            value = _field(_integer, rest, errors, lineno, "d")
            d = d if value is None else value
        elif key == "s":
            s_seen = True
            s = None if rest == "positive" else _rational(rest)
            if s is None and rest != "positive":
                _refuse(rest, errors, lineno, "s", "must be an exact rational or 'positive'")
        elif key == "einstein":
            if rest in ("yes", "true"):
                einstein = True
            elif rest in ("no", "false"):
                einstein = False
            else:
                errors.append(f"line {lineno}: einstein must be yes/no")
        elif key == "point":
            point_lines.append((lineno, rest))
        else:
            errors.append(f"line {lineno}: unknown key {key!r}")

    if m is None:
        errors.append("line 0: missing m")
    elif m < 2:
        errors.append("line 0: m must be >= 2")
    if d is None:
        errors.append("line 0: missing d")
    elif d < 1:
        errors.append("line 0: d must be >= 1")
    if not s_seen:
        errors.append("line 0: missing s (exact value or 'positive')")
    if not point_lines:
        errors.append("line 0: no points")
    if errors:
        raise ParseError(errors)

    points: list[SingularPointRecord] = []
    label_lines: dict[str, int] = {}
    for lineno, rest in point_lines:
        head = rest.split(None, 2)
        if len(head) < 3:
            errors.append(f"line {lineno}: point needs LABEL KIND key=value...")
            continue
        label, kind, attr_text = head[0], head[1], head[2]
        # Labels name the points of a report and its balancing rows.
        first = label_lines.setdefault(label, lineno)
        if first != lineno:
            errors.append(
                f"line {lineno}: point label {label} given twice (first on line {first})"
            )
            continue
        if kind not in (RICCI_FLAT, SCALAR_FLAT):
            errors.append(f"line {lineno}: unknown point kind {kind!r}")
            continue
        attrs = _point_attributes(attr_text, errors, lineno)
        if attrs is None:
            continue
        if "order" not in attrs or "phi" not in attrs:
            errors.append(f"line {lineno}: point needs order= and phi=")
            continue
        order = _field(_integer, attrs["order"], errors, lineno, "order")
        if order is None:
            continue
        phi = _rational_row(attrs["phi"], errors, lineno, "phi")
        if phi is None:
            continue
        if len(phi.nums) != d:
            errors.append(f"line {lineno}: phi has {len(phi.nums)} entries, expected d={d}")
            continue
        dphi = None
        if "dphi" in attrs:
            if einstein:
                errors.append(
                    f"line {lineno}: explicit dphi conflicts with the einstein flag"
                )
                continue
            dphi = _rational_row(attrs["dphi"], errors, lineno, "dphi")
            if dphi is None:
                continue
            if len(dphi.nums) != d:
                errors.append(f"line {lineno}: dphi length must equal d={d}")
                continue
        elif kind == RICCI_FLAT and not einstein:
            errors.append(
                f"line {lineno}: ricci_flat point needs dphi= unless einstein yes"
            )
            continue
        e_sign = None
        if "e_sign" in attrs:
            if attrs["e_sign"] not in _SIGNS:
                errors.append(f"line {lineno}: e_sign must be one of +, -, +1, -1")
                continue
            e_sign = _SIGNS[attrs["e_sign"]]
        elif kind == SCALAR_FLAT:
            errors.append(f"line {lineno}: scalar_flat point needs e_sign=")
            continue
        e_mag = c_gamma = None
        if "e_mag" in attrs:
            e_mag = _field(_rational, attrs["e_mag"], errors, lineno, "e_mag")
            if e_mag is None:
                continue
        if "c_gamma" in attrs:
            c_gamma = _field(_rational, attrs["c_gamma"], errors, lineno, "c_gamma")
            if c_gamma is None:
                continue
        try:
            points.append(
                SingularPointRecord(label, kind, order, phi, dphi, e_sign, e_mag, c_gamma)
            )
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
    if errors:
        raise ParseError(errors)
    return OrbifoldFile(m, d, s, einstein, tuple(points))


def sniff_kind(text: str) -> str:
    """'fan' or 'orbifold', judged by which record lines appear."""
    for raw in text.splitlines():
        line = _strip_comment(raw)
        if not line:
            continue
        key = line.split(None, 1)[0]
        if key in ("ray", "cone", "dim"):
            return "fan"
        if key in ("point", "einstein", "m", "d", "s"):
            return "orbifold"
    raise ParseError(["line 0: cannot determine file kind (no recognized keys)"])
