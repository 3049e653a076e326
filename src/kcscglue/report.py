"""Report assembly, exit codes and rendering.

A report is its input kind's stages run in order, each adding one section.
Fans run classification, validation, the anticanonical polytope with its
moment correspondence, the Einstein-toric balancing over the SU charts, and
spectral notes per distinct group; orbifold files run their points, the
balancing regime their point kinds select (with the coefficient table) and
the weight intervals.  A stage that fails is recorded as its section's
error and ends the run, and ``exit_code`` reads the verdict off the body.
Reports are plain dicts with every number an exact string, rendered either
as sorted JSON or as a text table; identical inputs give identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace
from typing import Any, Optional

from . import __version__
from .balancing import (
    RICCI_FLAT,
    SCALAR_FLAT,
    BalancingReport,
    PiRational,
    PointCoefficients,
    ScaledMatrix,
    SingularPointRecord,
    solve_ricci_flat_balancing,
    solve_scalar_flat_balancing,
)
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


def _qvec(v) -> list[str]:
    return [str(x) for x in v]


def _pi(x: Optional[PiRational]) -> Optional[dict[str, Any]]:
    if x is None:
        return None
    return {"coeff": str(x.coeff), "pi_power": x.pi_power}


def _scaled_matrix(sm: Optional[ScaledMatrix]) -> Optional[dict[str, Any]]:
    if sm is None:
        return None
    return {
        "scale": str(sm.scale),
        "scale_symbols": list(sm.scale_symbols),
        "rows": [_qvec(sm.matrix.row(i)) for i in range(sm.matrix.rows)],
    }


def _coefficients(coeffs: tuple[PointCoefficients, ...]) -> list[dict[str, Any]]:
    out = []
    for c in coeffs:
        entry: dict[str, Any] = {
            "label": c.label,
            "kind": c.kind,
            "leading": _pi(c.leading),
        }
        if c.leading_note:
            entry["leading_note"] = c.leading_note
        if c.b_radicand is not None:
            entry["b_radicand"] = _pi(c.b_radicand)
            entry["b_root_exponent"] = str(c.b_root_exponent)
        if c.c_constant is not None:
            entry["c_constant"] = str(c.c_constant)
        out.append(entry)
    return out


def _balancing_dict(rep: BalancingReport) -> dict[str, Any]:
    """The report keys name the matrix, rank and witness by regime: xi and a
    for scalar-flat points, theta and b for Ricci-flat ones.  A Ricci-flat
    report shows its matrix and rank only at a witness; joint_rank is set
    only at a witness."""
    keyed: dict[str, Any] = dict.fromkeys(
        ("xi", "theta", "xi_rank", "theta_rank", "witness_a", "witness_b")
    )
    matrix, rank, witness = (
        ("xi", "xi_rank", "witness_a")
        if rep.regime == SCALAR_FLAT
        else ("theta", "theta_rank", "witness_b")
    )
    if rep.witness or rep.regime == SCALAR_FLAT:
        keyed[matrix] = _scaled_matrix(rep.matrix)
        keyed[rank] = rep.rank
    if rep.witness:
        keyed[witness] = _qvec(rep.witness)
    return {
        "regime": rep.regime,
        "d": rep.d,
        "feasible": rep.feasible,
        **keyed,
        "joint_rank": rep.rank if rep.witness else None,
        "witness_c": _qvec(rep.witness_c) if rep.witness_c else None,
        "kernel_basis": [_qvec(v) for v in rep.kernel_basis],
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
    validation = validate_fan(run.fan)
    return {"valid": validation.valid, "violations": list(validation.violations)}


def _polytope(run: SimpleNamespace) -> dict[str, Any]:
    if run.k is None:
        raise ValueError("no anticanonical multiple k given")
    poly = anticanonical_polytope(run.fan, run.k)
    run.cone_vertices = dict(poly.cone_vertices)
    return {
        "k": run.k,
        "vertices": [_qvec(v) for v in poly.vertices],
        "two_faces": [[_qvec(v) for v in f] for f in faces(poly, 2)],
        "barycenter": _qvec(polytope_barycenter(poly)),
        "moment_assignment": {label: _qvec(v) for label, v in poly.cone_vertices},
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
            phi_values=tuple(vert[label]),
        )
        for label, qd in su
    ]
    run.report["su_vertex_barycenter"] = _qvec(
        subset_barycenter([vert[label] for label, _ in su])
    )
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
            "phi": _qvec(p.phi_values),
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


def input_errors(body: dict[str, Any]) -> list[str]:
    """Why a report body is an input error, one line each: the violations of
    an invalid fan, or the error a stage recorded after its stage name
    (balancing errors name the input at fault, so they stand alone)."""
    validation = body.get("validation", {"valid": True})
    if not validation["valid"]:
        return [f"invalid fan: {v}" for v in validation["violations"]]
    for stage, section in body.items():
        if isinstance(section, dict) and "error" in section:
            prefix = "" if stage == "balancing" else f"{stage}: "
            return [prefix + section["error"]]
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
        fan = parsed.to_fan()
        run = SimpleNamespace(fan=fan, k=parsed.k if k is None else k)
        body, stages = {"kind": "fan", "dim": fan.dim}, FAN_STAGES
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


def render_json(report: dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


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


def classification_table(entries: list[dict[str, Any]]) -> str:
    """The cone-classification table of a fan report's entries."""
    rows = []
    for e in entries:
        if e["classification"] == UNSUPPORTED:
            rows.append([e["label"], "-", "-", "-", UNSUPPORTED, "-"])
            continue
        rows.append(
            [
                e["label"],
                str(e["order"]),
                "*".join(str(d) for d in e["cyclic_factors"]) or "1",
                "; ".join(",".join(map(str, w)) for w in e["action_weights"]) or "-",
                e["classification"],
                "yes" if e["isolated"] else "no",
            ]
        )
    return render_table(rows, ["cone", "|G|", "factors", "weights", "class", "isolated"])


def leading_cell(c: dict[str, Any]) -> str:
    """The leading-coefficient cell of one coefficient entry."""
    if c["leading"] is None:
        return c.get("leading_note", "-")
    lead = c["leading"]["coeff"]
    if c["leading"]["pi_power"]:
        lead += f"*pi^{c['leading']['pi_power']}"
    return lead


def render_text(report: dict[str, Any]) -> str:
    """Human-readable rendering of a full report."""
    body = report["report"]
    out = [
        f"input: {report['input']['name']}  (sha256 {report['input']['sha256'][:12]})",
        f"tool: kcscglue {report['tool_version']}",
        "",
    ]
    if body["kind"] == "fan":
        if not body["validation"]["valid"]:
            out.append("INVALID FAN:")
            out.extend(f"  - {v}" for v in body["validation"]["violations"])
            return "\n".join(out) + "\n"
        out.append(classification_table(body["classification"]))
        out.append("")
        poly = body["polytope"]
        if "error" in poly:
            out.append(f"polytope: {poly['error']}")
        else:
            out.append(
                f"polytope (k = {poly['k']}): {len(poly['vertices'])} vertices, "
                f"{len(poly['two_faces'])} two-faces, "
                f"barycenter ({', '.join(poly['barycenter'])})"
            )
            rows = [
                [label, "(" + ", ".join(v) + ")"]
                for label, v in sorted(poly["moment_assignment"].items())
            ]
            out.append(render_table(rows, ["cone", "moment vertex"]))
        out.append("")
        if "su_vertex_barycenter" in body:
            out.append(
                "SU vertices barycenter: ("
                + ", ".join(body["su_vertex_barycenter"])
                + ")"
            )
    else:
        rows = [
            [e["label"], e["kind"], str(e["order"]), "(" + ", ".join(e["phi"]) + ")"]
            for e in body["points"]
        ]
        out.append(render_table(rows, ["point", "kind", "|G|", "phi"]))
        out.append("")

    bal = body.get("balancing")
    if bal and "error" in bal:
        out.append(f"balancing: {bal['error']}")
    elif bal:
        out.append(f"balancing regime: {bal.get('regime')}")
        out.append(f"feasible: {'yes' if bal.get('feasible') else 'no'}")
        for key in ("witness_a", "witness_b", "witness_c"):
            if bal.get(key):
                out.append(f"{key}: ({', '.join(bal[key])})")
        for rank_key in ("xi_rank", "theta_rank", "joint_rank"):
            if bal.get(rank_key) is not None:
                out.append(f"{rank_key}: {bal[rank_key]} (d = {bal.get('d')})")
        if bal.get("kernel_basis"):
            out.append(
                "kernel basis: "
                + "; ".join("(" + ", ".join(v) + ")" for v in bal["kernel_basis"])
            )
        coeffs = bal.get("coefficients") or []
        rows = [[c["label"], c["kind"], leading_cell(c)] for c in coeffs]
        if rows:
            out.append(render_table(rows, ["point", "kind", "leading coefficient"]))
        for note in bal.get("notes", []):
            out.append(f"note: {note}")
    return "\n".join(out) + "\n"
