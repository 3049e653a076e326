"""Input file parsing.

Both formats are line-oriented `key value` records with exact integer and
p/q rational literals; every integer and every rational is read by one
ASCII grammar each, and every list by one list grammar, so decimals,
underscores, non-ASCII digits and empty list entries are rejected by
construction and on every interpreter.  Fan files carry rays and maximal
cones (1-based ray indices, optional labels); orbifold files carry the
kernel dimension, scalar curvature (exact or `positive`), the Einstein flag
and one `point` record per singular point.  Nothing is dropped silently: a
scalar key given twice, a point label given twice, an unknown or repeated
point attribute and text between point attributes are errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .balancing import RICCI_FLAT, SCALAR_FLAT, SingularPointRecord
from .toric_lattice import Fan


class ParseError(ValueError):
    """Carries a list of line-precise 'line N: message' strings."""

    def __init__(self, errors: Sequence[str]):
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class FanFile:
    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]  # 0-based
    k: Optional[int] = None
    labels: tuple[str, ...] = ()

    def to_fan(self) -> Fan:
        return Fan(
            dim=self.dim, rays=self.rays, max_cones=self.max_cones, labels=self.labels
        )


@dataclass(frozen=True)
class OrbifoldFile:
    m: int
    d: int
    s: Optional[Fraction]  # None = positive, known by sign only
    einstein: bool
    points: tuple[SingularPointRecord, ...]


_LIST_RE = re.compile(r"^\[(.*)\]$", re.DOTALL)
_ATTR_RE = re.compile(r"(\w+)=(\[[^\]]*\]|\S+)")
# The one integer literal: ASCII digits and an optional sign.  int(str)
# would also take underscores and non-ASCII digits.
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
# The one rational literal: an integer and an optional denominator.
# Fraction(str) would also take decimals, exponents, underscores, spaces
# around the slash and non-ASCII digits, some only on newer interpreters.
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


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
    if not m:
        return None
    num, den = m.groups()
    if den is None:
        return Fraction(int(num))
    den = int(den)
    return Fraction(int(num), den) if den else None


_NOUNS = {_integer: "an integer", _rational: "an exact rational"}


def _field(literal, text: str, errors: list, lineno: int, what: str):
    """The value of one integer or rational field, or None with an error."""
    value = literal(text)
    if value is None:
        errors.append(f"line {lineno}: {what} must be {_NOUNS[literal]}")
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
            errors.append(f"line {lineno}: {what} entry {t!r} is not {_NOUNS[literal]}")
            return None
        out.append(x)
    return out


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
    labels: list[Optional[str]] = []
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
            labels.append(label)
        else:
            errors.append(f"line {lineno}: unknown key {key!r}")
    if dim is None:
        errors.append("line 0: missing dim")
    if not rays:
        errors.append("line 0: no rays")
    if not cones:
        errors.append("line 0: no cones")
    if not errors:
        for i, ray in enumerate(rays):
            if len(ray) != dim:
                errors.append(f"ray {i + 1}: dimension mismatch ({len(ray)} != {dim})")
        for ci, idx in enumerate(cones):
            for j in idx:
                if j >= len(rays):
                    errors.append(f"cone {ci + 1}: ray index {j + 1} out of range")
    if errors:
        raise ParseError(errors)
    final_labels = tuple(
        lab if lab is not None else f"C{i + 1}" for i, lab in enumerate(labels)
    )
    return FanFile(
        dim=dim, rays=tuple(rays), max_cones=tuple(cones), k=k, labels=final_labels
    )


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
            m = m if value is None else value
        elif key == "d":
            value = _field(_integer, rest, errors, lineno, "d")
            d = d if value is None else value
        elif key == "s":
            s_seen = True
            s = None if rest == "positive" else _rational(rest)
            if s is None and rest != "positive":
                errors.append(f"line {lineno}: s must be an exact rational or 'positive'")
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
        phi = _parse_list(_rational, attrs["phi"], errors, lineno, "phi")
        if phi is None:
            continue
        if len(phi) != d:
            errors.append(f"line {lineno}: phi has {len(phi)} entries, expected d={d}")
            continue
        dphi = None
        if "dphi" in attrs:
            if einstein:
                errors.append(
                    f"line {lineno}: explicit dphi conflicts with the einstein flag"
                )
                continue
            dphi = _parse_list(_rational, attrs["dphi"], errors, lineno, "dphi")
            if dphi is None:
                continue
            if len(dphi) != d:
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
                SingularPointRecord(
                    label=label,
                    kind=kind,
                    group_order=order,
                    phi_values=tuple(phi),
                    laplacian_phi_values=tuple(dphi) if dphi is not None else None,
                    e_sign=e_sign,
                    e_magnitude=e_mag,
                    c_gamma=c_gamma,
                )
            )
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
    if errors:
        raise ParseError(errors)
    return OrbifoldFile(m=m, d=d, s=s, einstein=einstein, points=tuple(points))


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
