"""Report assembly, exit codes and rendering.

A report is its input kind's stages run in order, each adding one section.
Fans run classification, validation, the anticanonical polytope with its
moment correspondence, the Einstein-toric balancing over the SU charts, and
spectral notes per distinct group; orbifold files run their points, the
balancing regime their point kinds select (with the coefficient table) and
the weight intervals.  A stage that fails is recorded as its section's
error and ends the run, and ``exit_code`` reads the verdict off the body.
Reports are plain dicts with every number an exact string, rendered either
as sorted JSON or as text; identical inputs give identical bytes.  The text
has one renderer per section (``TEXT_SECTIONS``): ``render_text`` is the
input and tool lines followed by every rendered section, and the
``classify``, ``polytope``, ``balance`` and ``coeffs`` subcommands print
their sections through ``render_sections``.
The JSON comes from a small recursive writer, with one join per list of
strings; its bytes are those of ``json.dumps(report, sort_keys=True,
indent=2)``, which would run json's pure-Python indenting encoder.  A float
is never a report value, and the writer rejects one.  A report prints each
orbifold datum once: a point row has no phi (the input text and the
balancing matrix hold it), and a coefficient waiting for |e(Gamma)| is one
exact value, its divisor named once in the section's notes.  Coefficients
and certificates are written by ``exact_linalg.decimal``, which the
interpreter's limit on the digits of str(int) does not bound, and so are
witnesses and matrix entries once str() refuses one.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii as _json_str
from types import SimpleNamespace
from typing import Any, Optional

from . import __version__
from .balancing import (
    FULL_RANK,
    RANK_DEFICIENT,
    RICCI_FLAT,
    SCALAR_FLAT,
    BalancingReport,
    Certificate,
    PiRational,
    PointCoefficients,
    ScaledMatrix,
    SingularPointRecord,
    solve_ricci_flat_balancing,
    solve_scalar_flat_balancing,
)
from .exact_linalg import decimal, pair_strings
from .formats import FanFile, OrbifoldFile
from .polytope import (
    anticanonical_polytope,
    faces,
    polytope_barycenter,
    subset_barycenter,
)
from .spectral import (
    BASE_ORBIFOLD_M2,
    BASE_ORBIFOLD_M3,
    NONLINEAR,
    eigenvalue,
    first_invariant_index,
    invariant_harmonic_dimension,
    weight_interval,
)
from .toric_lattice import (
    SU,
    U_NON_SU,
    UNSUPPORTED,
    classify_fan,
    validate_fan,
)


def _exact(num: int, den: int) -> str:
    """num/den in lowest terms, den > 0, as str(Fraction) writes it, for
    ints of any size: a coefficient can have more digits than str(int)
    writes."""
    return decimal(num) if den == 1 else f"{decimal(num)}/{decimal(den)}"


def _pi(x: Optional[PiRational]) -> Optional[dict[str, Any]]:
    if x is None:
        return None
    return {"coeff": _exact(x.coeff.numerator, x.coeff.denominator), "pi_power": x.pi_power}


def _scaled_matrix(sm: Optional[ScaledMatrix]) -> Optional[dict[str, Any]]:
    if sm is None:
        return None
    return {
        "scale": str(sm.scale),
        "scale_symbols": list(sm.scale_symbols),
        "rows": [pair_strings(pairs) for pairs in sm.entries],
    }


def _coefficients(coeffs: tuple[PointCoefficients, ...]) -> list[dict[str, Any]]:
    out = []
    for c in coeffs:
        entry: dict[str, Any] = {
            "label": c.label,
            "kind": c.kind,
            "leading": _pi(c.leading),
        }
        if c.leading_pending is not None:
            entry["leading_pending"] = _exact(*c.leading_pending)
        if c.b_radicand is not None:
            entry["b_radicand"] = _pi(c.b_radicand)
            entry["b_root_exponent"] = str(c.b_root_exponent)
        if c.c_constant is not None:
            entry["c_constant"] = _exact(c.c_constant.numerator, c.c_constant.denominator)
        out.append(entry)
    return out


def _certificate(cert: Certificate) -> dict[str, Any]:
    """Columns are 1-based point numbers, in the order of the matrix."""
    if cert.kind == FULL_RANK:
        return {
            "kind": cert.kind,
            "columns": [j + 1 for j in cert.columns],
            "determinant": decimal(cert.determinant),
        }
    return {"kind": cert.kind, "y": list(map(decimal, cert.y))}


def _balancing_dict(rep: BalancingReport) -> dict[str, Any]:
    """The report keys name the matrix, rank and witness by regime: xi and a
    for scalar-flat points, theta and b for Ricci-flat ones.  joint_rank is
    set only at a witness."""
    keyed: dict[str, Any] = dict.fromkeys(
        ("xi", "theta", "xi_rank", "theta_rank", "witness_a", "witness_b")
    )
    matrix, rank, witness = (
        ("xi", "xi_rank", "witness_a")
        if rep.regime == SCALAR_FLAT
        else ("theta", "theta_rank", "witness_b")
    )
    keyed[matrix] = _scaled_matrix(rep.matrix)
    keyed[rank] = rep.rank
    if rep.witness is not None:
        keyed[witness] = rep.witness.strings()
    return {
        "regime": rep.regime,
        "d": rep.d,
        "feasible": rep.feasible,
        **keyed,
        "joint_rank": None if rep.witness is None else rep.rank,
        "witness_c": None if rep.witness_c is None else rep.witness_c.strings(),
        "kernel_dim": rep.kernel_dim,
        "certificate": _certificate(rep.certificate),
        "coefficients": _coefficients(rep.coefficients),
        "notes": list(rep.notes),
    }


def _weight_intervals(m: int) -> dict[str, Any]:
    base = weight_interval(BASE_ORBIFOLD_M3 if m >= 3 else BASE_ORBIFOLD_M2, m)
    nl = weight_interval(NONLINEAR, m)
    return {
        "base_orbifold": [str(base.lower), str(base.upper)],
        "nonlinear": [str(nl.lower), str(nl.upper)],
    }


# Stages.  Each takes the run -- the parsed input, the report built so far
# and what earlier stages left for later ones -- and returns its section.
# They call library functions by module-global name, so that wrappers put
# on those names (bench/spans.py) see every call.


def _classification(run: SimpleNamespace) -> list[dict[str, Any]]:
    run.classified = classify_fan(run.fan)
    table = []
    for label, qd in run.classified:
        if qd is None:
            table.append({"label": label, "classification": UNSUPPORTED})
            continue
        # classify_fan has checked the classification against the
        # Gorenstein covector, so the cell is read off it.
        table.append(
            {
                "label": label,
                "order": qd.order,
                "cyclic_factors": list(qd.orders),
                "action_weights": [list(w) for w in qd.weights],
                "classification": qd.classification,
                "isolated": qd.isolated,
                "gorenstein": qd.classification != U_NON_SU,
            }
        )
    return table


def _validation(run: SimpleNamespace) -> dict[str, Any]:
    # A chart is C^m / Gamma, m >= 2: a lower-dimensional fan (P^1) is no input.
    low = [f"dim is {run.fan.dim}, expected >= 2"] if run.fan.dim < 2 else []
    violations = low + list(validate_fan(run.fan).violations)
    return {"valid": not violations, "violations": violations}


def _polytope(run: SimpleNamespace) -> dict[str, Any]:
    if run.k is None:
        raise ValueError("no anticanonical multiple k given")
    poly = anticanonical_polytope(run.fan, run.k)
    run.cone_vertices = dict(poly.cone_vertices)
    # each distinct vertex is turned into strings once
    vertices = [v.strings() for v in poly.vertices]
    return {
        "k": run.k,
        "vertices": vertices,
        "two_faces": [list(f) for f in faces(poly, 2, vertices)],
        "barycenter": polytope_barycenter(poly).strings(),
        "moment_assignment": {
            label: vertices[i] for label, i in zip(run.fan.labels, poly.cone_vertex_index)
        },
    }


def _fan_balancing(run: SimpleNamespace) -> dict[str, Any]:
    """Einstein-toric balancing over the SU charts; also sets su_cones and,
    when there are SU charts, su_vertex_barycenter."""
    su = [(label, qd) for label, qd in run.classified if qd and qd.classification == SU]
    run.report["su_cones"] = [label for label, _ in su]
    if not su:
        return {
            "regime": "ricci_flat",
            "feasible": False,
            "notes": ["no SU charts: nothing to glue in the Ricci-flat regime"],
        }
    vert = run.cone_vertices
    points = [
        SingularPointRecord(
            label=label,
            kind=RICCI_FLAT,
            group_order=qd.order,
            phi=vert[label],
        )
        for label, qd in su
    ]
    su_vertices = [vert[label] for label, _ in su]
    run.report["su_vertex_barycenter"] = subset_barycenter(su_vertices).strings()
    bal = solve_ricci_flat_balancing(points, s=None, m=run.fan.dim)
    section = _balancing_dict(bal)
    section["notes"] = list(bal.notes) + [
        "kernel data: toric Einstein input, d = m, phi values are moment "
        "coordinates of the SU chart fixed points",
        "resolution existence: SU(3) charts admit Kaehler crepant "
        "resolutions; other orders are external input",
    ]
    return section


def _spectral(run: SimpleNamespace) -> dict[str, Any]:
    m = run.fan.dim
    groups: dict[tuple, dict[str, Any]] = {}
    for _, qd in run.classified:
        if qd is None or qd.is_trivial() or (qd.orders, qd.weights) in groups:
            continue
        first = first_invariant_index(qd, m)
        groups[qd.orders, qd.weights] = {
            "orders": list(qd.orders),
            "weights": [list(w) for w in qd.weights],
            "invariant_linear_dimension": invariant_harmonic_dimension(qd, 1, m),
            "first_invariant_index": first,
            "first_invariant_eigenvalue": eigenvalue(first, m),
        }
    return {
        "groups": sorted(groups.values(), key=lambda e: (e["orders"], e["weights"])),
        "weight_intervals": _weight_intervals(m),
    }


def _points(run: SimpleNamespace) -> list[dict[str, Any]]:
    return [
        {
            "label": p.label,
            "kind": p.kind,
            "classification": SU if p.kind == RICCI_FLAT else U_NON_SU,
            "order": p.group_order,
        }
        for p in run.orb.points
    ]


def _orbifold_balancing(run: SimpleNamespace) -> dict[str, Any]:
    """The regime the point kinds select: scalar-flat as soon as there is a
    scalar-flat point, Ricci-flat otherwise."""
    orb = run.orb
    q_points = [p for p in orb.points if p.kind == SCALAR_FLAT]
    p_points = [p for p in orb.points if p.kind == RICCI_FLAT]
    if not q_points:
        return _balancing_dict(solve_ricci_flat_balancing(p_points, orb.s, orb.m))
    section = _balancing_dict(solve_scalar_flat_balancing(q_points, orb.m))
    if p_points:
        section["notes"].append(
            "ricci-flat weights b are free in this regime; each class "
            "coefficient approaches the chosen b_j"
        )
    return section


FAN_STAGES = (
    ("classification", _classification),
    ("validation", _validation),
    ("polytope", _polytope),
    ("balancing", _fan_balancing),
    ("spectral", _spectral),
)
ORBIFOLD_STAGES = (
    ("points", _points),
    ("balancing", _orbifold_balancing),
    ("weight_intervals", lambda run: _weight_intervals(run.orb.m)),
)

EXIT_OK, EXIT_INFEASIBLE, EXIT_INPUT_ERROR = 0, 1, 2


def stage_error(section: Any) -> Optional[str]:
    """The error a stage recorded as its section, or None."""
    if isinstance(section, dict) and "error" in section:
        return section["error"]
    return None


def input_errors(body: dict[str, Any]) -> list[str]:
    """Why a report body is an input error, one line each: the violations of
    an invalid fan, or the error a stage recorded after its stage name."""
    validation = body.get("validation", {"valid": True})
    if not validation["valid"]:
        return [f"invalid fan: {v}" for v in validation["violations"]]
    for stage, section in body.items():
        error = stage_error(section)
        if error is not None:
            return [f"{stage}: {error}"]
    return []


def exit_code(body: dict[str, Any]) -> int:
    """2 for an input error, 1 for an infeasible balancing verdict, else 0."""
    if input_errors(body):
        return EXIT_INPUT_ERROR
    balancing = body.get("balancing", {"feasible": True})
    return EXIT_OK if balancing["feasible"] else EXIT_INFEASIBLE


def build_report(
    name: str,
    text: str,
    parsed,
    k: Optional[int] = None,
    until: Optional[str] = None,
) -> dict[str, Any]:
    """Run the parsed input's stages in order, through the one named
    ``until`` if given, and wrap the body with input echo, hash and version.

    A stage that raises ValueError or ArithmeticError is recorded as
    ``{"error": message}`` under its name, and once the body is an input
    error (such an error, or an invalid fan) no further stage runs.
    """
    if isinstance(parsed, FanFile):
        run = SimpleNamespace(fan=parsed, k=parsed.k if k is None else k)
        body, stages = {"kind": "fan", "dim": parsed.dim}, FAN_STAGES
    elif isinstance(parsed, OrbifoldFile):
        run, stages = SimpleNamespace(orb=parsed), ORBIFOLD_STAGES
        s = "positive" if parsed.s is None else str(parsed.s)
        body = {"kind": "orbifold", "m": parsed.m, "d": parsed.d, "s": s}
        body["einstein"] = parsed.einstein
    else:
        raise TypeError(f"unsupported input type {type(parsed)!r}")
    run.report = body
    for stage_name, stage in stages:
        try:
            body[stage_name] = stage(run)
        except (ValueError, ArithmeticError) as exc:
            body[stage_name] = {"error": str(exc)}
        if stage_name == until or input_errors(body):
            break
    return {
        "input": {
            "name": name,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "text": text.splitlines(),
        },
        "tool_version": __version__,
        "report": body,
    }


# The text of a scalar report value, by its exact type.
_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write_json(value: Any, indent: str, out: list[str], memo: dict) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, sort_keys=True,
    indent=2)`` writes it, ``indent`` (a newline and two spaces per level)
    going before its closing bracket.  Only str, int, bool, None, lists,
    tuples and dicts with str keys are written, a subclass as its base
    type; anything else, a float included, is a TypeError.  A scalar dict
    value is written with its key, without a call.  ``memo``
    holds the text of each list of strings already written in this
    rendering, by identity and indent: the report shares such lists (a
    polytope vertex appears in every face and cone assignment that holds
    it)."""
    kind = type(value)
    if kind not in _SCALARS and kind not in (list, tuple, dict):
        kind = next((t for t in (str, int, list, tuple, dict) if isinstance(value, t)), None)
        if kind is None:
            raise TypeError(f"{type(value).__name__} is not a report value")
    write = _SCALARS.get(kind)
    if write is not None:
        out.append(write(value))
    elif not value:
        out.append("{}" if kind is dict else "[]")
    elif kind is dict:
        inner = indent + "  "
        sep = "," + inner
        lead = "{" + inner
        # _json_str refuses a key that is not a str.
        for key in sorted(value):
            item = value[key]
            write = _SCALARS.get(type(item))
            if write is None:
                out.append(f"{lead}{_json_str(key)}: ")
                _write_json(item, inner, out, memo)
            else:
                out.append(f"{lead}{_json_str(key)}: {write(item)}")
            lead = sep
        out.append(indent + "}")
    else:
        inner = indent + "  "
        sep = "," + inner
        key = id(value), indent
        text = memo.get(key)
        if text is None and type(value[0]) is str:
            try:  # most report lists hold only strings; a mixed one falls through
                text = memo[key] = f"[{inner}{sep.join(map(_json_str, value))}{indent}]"
            except TypeError:
                pass
        if text is not None:
            out.append(text)
            return
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _write_json(item, inner, out, memo)
            lead = sep
        out.append(indent + "]")


def render_json(report: dict[str, Any]) -> str:
    """The report as sorted, 2-space indented ASCII JSON with a final
    newline: the bytes of ``json.dumps(report, sort_keys=True, indent=2)``,
    written directly rather than by json's pure-Python indenting encoder."""
    out: list[str] = []
    _write_json(report, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _fmt_row(cells: list[str], widths: list[int]) -> str:
    return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()


def render_table(rows: list[list[str]], header: list[str]) -> str:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [_fmt_row(header, widths), _fmt_row(["-" * w for w in widths], widths)]
    lines.extend(_fmt_row(r, widths) for r in rows)
    return "\n".join(lines)


def _vec(v: list[str]) -> str:
    return "(" + ", ".join(v) + ")"


def _factors(orders: list[int]) -> str:
    return "*".join(map(str, orders)) or "1"


def _weights(weights: list[list[int]]) -> str:
    return "; ".join(",".join(map(str, w)) for w in weights) or "-"


# Text renderers, one per report section.  Each takes the section and the
# body it is in and returns the section's lines.


def _classification_text(entries: list[dict[str, Any]], body: dict[str, Any]) -> list[str]:
    rows = []
    for e in entries:
        if e["classification"] == UNSUPPORTED:
            rows.append([e["label"], "-", "-", "-", UNSUPPORTED, "-"])
            continue
        rows.append(
            [
                e["label"],
                str(e["order"]),
                _factors(e["cyclic_factors"]),
                _weights(e["action_weights"]),
                e["classification"],
                "yes" if e["isolated"] else "no",
            ]
        )
    return [render_table(rows, ["cone", "|G|", "factors", "weights", "class", "isolated"])]


def _polytope_text(poly: dict[str, Any], body: dict[str, Any]) -> list[str]:
    return [
        f"k = {poly['k']}",
        f"vertices ({len(poly['vertices'])}):",
        *(f"  {_vec(v)}" for v in poly["vertices"]),
        f"two-faces ({len(poly['two_faces'])}):",
        *("  " + " ".join("(" + ",".join(v) + ")" for v in f) for f in poly["two_faces"]),
        f"barycenter: {_vec(poly['barycenter'])}",
        "cone -> vertex:",
        *(f"  {label} -> {_vec(v)}" for label, v in sorted(poly["moment_assignment"].items())),
    ]


def _points_text(points: list[dict[str, Any]], body: dict[str, Any]) -> list[str]:
    rows = [[e["label"], str(e["order"]), e["classification"], e["kind"]] for e in points]
    return [render_table(rows, ["point", "|G|", "class", "kind"])]


def _why(cert: dict[str, Any]) -> str:
    """The reason a certificate gives for its verdict, in one line."""
    if cert["kind"] == FULL_RANK:
        columns = ", ".join(map(str, cert["columns"]))
        return f"columns {columns} of M_int have det {cert['determinant']}, so the rank is d"
    y = ", ".join(cert["y"])
    if cert["kind"] == RANK_DEFICIENT:
        return f"y = ({y}) gives y^T M_int = 0 with y != 0, so the rank is below d"
    return f"y = ({y}) gives y^T M_int >= 0, != 0 (Gordan), so no positive kernel vector exists"


def _coefficient_row(c: dict[str, Any]) -> list[str]:
    """Point, kind, leading coefficient and model constants (B and C, which
    come together) of one entry."""
    lead, b = c["leading"], c.get("b_radicand")
    if lead is None:
        leading = f"pending: {c['leading_pending']}" if "leading_pending" in c else "-"
    else:
        leading = lead["coeff"] + (f"*pi^{lead['pi_power']}" if lead["pi_power"] else "")
    constants = (
        f"B^(2m) = {b['coeff']}*pi^{b['pi_power']}, exponent {c['b_root_exponent']}"
        f"  C = {c['c_constant']}"
        if b
        else ""
    )
    return [c["label"], c["kind"], leading, constants]


def _balancing_text(bal: dict[str, Any], body: dict[str, Any]) -> list[str]:
    """Regime, verdict, witnesses, the rank with the kernel dimension, one
    "why" line for the certificate, the notes and the coefficient table; a
    fan's SU vertex barycenter goes first.  M_int is the unit-weight matrix
    with its rows scaled to integers."""
    lines = []
    if "su_vertex_barycenter" in body:
        lines.append(f"SU vertices barycenter: {_vec(body['su_vertex_barycenter'])}")
    lines += [f"regime: {bal['regime']}", f"feasible: {'yes' if bal['feasible'] else 'no'}"]
    for key in ("witness_a", "witness_b", "witness_c"):
        if bal.get(key):
            lines.append(f"{key[-1]} = {_vec(bal[key])}")
    for key in ("xi_rank", "theta_rank"):
        if bal.get(key) is not None:
            lines.append(f"{key}: {bal[key]} of d = {bal['d']}, kernel_dim {bal['kernel_dim']}")
    if "certificate" in bal:
        lines.append("why: " + _why(bal["certificate"]))
    lines.extend(f"note: {note}" for note in bal["notes"])
    rows = [_coefficient_row(c) for c in bal.get("coefficients", [])]
    if rows:
        lines.append(render_table(rows, ["point", "kind", "leading coefficient", "model constants"]))
    return lines


def _weight_intervals_text(intervals: dict[str, Any], body: dict[str, Any]) -> list[str]:
    return [
        f"{name.replace('_', '-')} weight interval: ({lower}, {upper})"
        for name, (lower, upper) in intervals.items()
    ]


def _spectral_text(spectral: dict[str, Any], body: dict[str, Any]) -> list[str]:
    """One row per distinct group, then the weight intervals."""
    rows = [
        [
            _factors(g["orders"]),
            _weights(g["weights"]),
            str(g["invariant_linear_dimension"]),
            str(g["first_invariant_index"]),
            str(g["first_invariant_eigenvalue"]),
        ]
        for g in spectral["groups"]
    ]
    header = ["factors", "weights", "invariant linear dim", "first invariant index", "eigenvalue"]
    return [
        render_table(rows, header),
        *_weight_intervals_text(spectral["weight_intervals"], body),
    ]


TEXT_SECTIONS = {
    "classification": _classification_text,
    "validation": lambda validation, body: [f"violation: {v}" for v in validation["violations"]],
    "polytope": _polytope_text,
    "points": _points_text,
    "balancing": _balancing_text,
    "spectral": _spectral_text,
    "weight_intervals": _weight_intervals_text,
}


def render_sections(body: dict[str, Any], names) -> str:
    """The named sections of a report body as text, a blank line between
    two; a section that recorded an error is the line ``<stage>: <error>``."""
    blocks = []
    for name in names:
        error = stage_error(body[name])
        lines = [f"{name}: {error}"] if error is not None else TEXT_SECTIONS[name](body[name], body)
        if lines:
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def render_text(report: dict[str, Any]) -> str:
    """The input and tool lines, then every section of the body that has a
    text rendering."""
    body = report["report"]
    return (
        f"input: {report['input']['name']}  (sha256 {report['input']['sha256'][:12]})\n"
        f"tool: kcscglue {report['tool_version']}\n\n"
        + render_sections(body, [name for name in body if name in TEXT_SECTIONS])
    )
