"""Input file parsing and serialization.

Both formats are line-oriented `key value` records with exact integer and
p/q rational literals; decimal floats are rejected by construction.  Fan
files carry rays and maximal cones (1-based ray indices, optional labels);
orbifold files carry the kernel dimension, scalar curvature (exact or
`positive`), the Einstein flag and one `point` record per singular point.
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


def _strip_comment(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _parse_int_list(text: str, errors: list, lineno: int, what: str) -> Optional[list[int]]:
    m = _LIST_RE.match(text.strip())
    if not m:
        errors.append(f"line {lineno}: {what} must be a bracketed list, got {text!r}")
        return None
    items = [t.strip() for t in m.group(1).split(",") if t.strip()]
    out = []
    for t in items:
        try:
            out.append(int(t))
        except ValueError:
            errors.append(f"line {lineno}: {what} entry {t!r} is not an integer")
            return None
    return out


def _parse_rational_list(
    text: str, errors: list, lineno: int, what: str
) -> Optional[list[Fraction]]:
    m = _LIST_RE.match(text.strip())
    if not m:
        errors.append(f"line {lineno}: {what} must be a bracketed list, got {text!r}")
        return None
    items = [t.strip() for t in m.group(1).split(",") if t.strip()]
    out = []
    for t in items:
        if "." in t or "e" in t.lower():
            errors.append(f"line {lineno}: {what} entry {t!r} is not an exact rational")
            return None
        try:
            out.append(Fraction(t))
        except (ValueError, ZeroDivisionError):
            errors.append(f"line {lineno}: {what} entry {t!r} is not an exact rational")
            return None
    return out


def parse_fan(text: str) -> FanFile:
    errors: list[str] = []
    dim: Optional[int] = None
    k: Optional[int] = None
    rays: list[tuple[int, ...]] = []
    cones: list[tuple[int, ...]] = []
    labels: list[Optional[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "dim":
            try:
                dim = int(rest)
            except ValueError:
                errors.append(f"line {lineno}: dim must be an integer")
                continue
            if dim < 2:
                errors.append(f"line {lineno}: dim must be >= 2")
        elif key == "k":
            try:
                k = int(rest)
            except ValueError:
                errors.append(f"line {lineno}: k must be an integer")
                continue
            if k < 1:
                errors.append(f"line {lineno}: k must be >= 1")
        elif key == "ray":
            vec = _parse_int_list(rest, errors, lineno, "ray")
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
            idx = _parse_int_list(rest_list, errors, lineno, "cone")
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


def serialize_fan(f: FanFile) -> str:
    lines = [f"dim {f.dim}"]
    if f.k is not None:
        lines.append(f"k {f.k}")
    for ray in f.rays:
        lines.append(f"ray [{', '.join(str(x) for x in ray)}]")
    for idx, label in zip(f.max_cones, f.labels):
        lines.append(
            f"cone [{', '.join(str(i + 1) for i in idx)}] {label}"
        )
    return "\n".join(lines) + "\n"


_SIGNS = {"+": 1, "+1": 1, "-": -1, "-1": -1}


def parse_orbifold(text: str) -> OrbifoldFile:
    errors: list[str] = []
    m: Optional[int] = None
    d: Optional[int] = None
    s: Optional[Fraction] = None
    s_seen = False
    einstein = False
    point_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "m":
            try:
                m = int(rest)
            except ValueError:
                errors.append(f"line {lineno}: m must be an integer")
        elif key == "d":
            try:
                d = int(rest)
            except ValueError:
                errors.append(f"line {lineno}: d must be an integer")
        elif key == "s":
            s_seen = True
            if rest == "positive":
                s = None
            else:
                try:
                    s = Fraction(rest)
                except (ValueError, ZeroDivisionError):
                    errors.append(
                        f"line {lineno}: s must be an exact rational or 'positive'"
                    )
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
    for lineno, rest in point_lines:
        head = rest.split(None, 2)
        if len(head) < 3:
            errors.append(f"line {lineno}: point needs LABEL KIND key=value...")
            continue
        label, kind, attr_text = head[0], head[1], head[2]
        if kind not in (RICCI_FLAT, SCALAR_FLAT):
            errors.append(f"line {lineno}: unknown point kind {kind!r}")
            continue
        attrs = dict(_ATTR_RE.findall(attr_text))
        if "order" not in attrs or "phi" not in attrs:
            errors.append(f"line {lineno}: point needs order= and phi=")
            continue
        try:
            order = int(attrs["order"])
        except ValueError:
            errors.append(f"line {lineno}: order must be an integer")
            continue
        phi = _parse_rational_list(attrs["phi"], errors, lineno, "phi")
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
            dphi = _parse_rational_list(attrs["dphi"], errors, lineno, "dphi")
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
        e_mag = None
        if "e_mag" in attrs:
            mag = _parse_rational_list(f"[{attrs['e_mag']}]", errors, lineno, "e_mag")
            if mag is None:
                continue
            e_mag = mag[0]
        c_gamma = None
        if "c_gamma" in attrs:
            cg = _parse_rational_list(
                f"[{attrs['c_gamma']}]", errors, lineno, "c_gamma"
            )
            if cg is None:
                continue
            c_gamma = cg[0]
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


def serialize_orbifold(o: OrbifoldFile) -> str:
    lines = [f"m {o.m}", f"d {o.d}"]
    lines.append(f"s {'positive' if o.s is None else o.s}")
    lines.append(f"einstein {'yes' if o.einstein else 'no'}")
    for p in o.points:
        parts = [
            f"point {p.label} {p.kind} order={p.group_order}",
            f"phi=[{', '.join(str(x) for x in p.phi_values)}]",
        ]
        if p.laplacian_phi_values is not None:
            parts.append(
                f"dphi=[{', '.join(str(x) for x in p.laplacian_phi_values)}]"
            )
        if p.e_sign is not None:
            parts.append(f"e_sign={'+1' if p.e_sign > 0 else '-1'}")
        if p.e_magnitude is not None:
            parts.append(f"e_mag={p.e_magnitude}")
        if p.c_gamma is not None:
            parts.append(f"c_gamma={p.c_gamma}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


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
