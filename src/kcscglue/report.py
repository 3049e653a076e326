"""Report assembly and rendering.

One pipeline per input kind: fans run classification, the anticanonical
polytope with its moment correspondence, the Einstein-toric balancing over
the SU charts, and spectral notes per distinct group; orbifold files run
the balancing regime their point kinds select plus the coefficient table.
Reports are plain dicts with every number an exact string, rendered either
as sorted JSON or as a text table; identical inputs give identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Optional, Sequence

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
    Fan,
    GroupPresentation,
    classify_fan,
    validate_fan,
)


def _q(x: Fraction) -> str:
    return str(x)


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


def _spectral_notes(group: GroupPresentation, m: int) -> dict[str, Any]:
    j1 = invariant_harmonic_dimension(group, 1, m)
    first = first_invariant_index(group, m)
    entry = {
        "orders": list(group.orders),
        "weights": [list(w) for w in group.weights],
        "invariant_linear_dimension": j1,
        "first_invariant_index": first,
        "first_invariant_eigenvalue": eigenvalue(first, m),
    }
    if group.is_trivial():
        entry["note"] = "trivial group: index 1 by convention"
    return entry


def _weight_intervals(m: int) -> dict[str, Any]:
    base = weight_interval(BASE_ORBIFOLD_M3 if m >= 3 else BASE_ORBIFOLD_M2, m)
    nl = weight_interval(NONLINEAR, m)
    return {
        "base_orbifold": [str(base.lower), str(base.upper)],
        "nonlinear": [str(nl.lower), str(nl.upper)],
    }


def classification_entries(
    classified: list[tuple[str, Optional[GroupPresentation]]],
) -> list[dict[str, Any]]:
    """The classification section of a fan report, one entry per cone."""
    table = []
    for label, qd in classified:
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


def polytope_section(
    fan: Fan, k: Optional[int]
) -> tuple[dict[str, Any], tuple[tuple[str, tuple[Fraction, ...]], ...]]:
    """The polytope section of a fan report, with the (cone label, moment
    vertex) pairs it lists; a failing stage is recorded as {"error": ...}
    and has no pairs."""
    if k is None:
        return {"error": "no anticanonical multiple k given"}, ()
    try:
        poly = anticanonical_polytope(fan, k)
        two_faces = faces(poly, 2) if fan.dim >= 2 else []
        barycenter = polytope_barycenter(poly)
    except ValueError as exc:
        return {"error": str(exc)}, ()
    section = {
        "k": k,
        "vertices": [_qvec(v) for v in poly.vertices],
        "two_faces": [[_qvec(v) for v in f] for f in two_faces],
        "barycenter": _qvec(barycenter),
        "moment_assignment": {label: _qvec(v) for label, v in poly.cone_vertices},
    }
    return section, poly.cone_vertices


def fan_report(fanfile: FanFile, k: Optional[int] = None) -> dict[str, Any]:
    """Full pipeline on a fan: classification, polytope, balancing, spectra.

    Validation violations do not abort the scan: every cone is classified
    independently (unsupported where the isolated-singularity hypotheses
    fail) and only the polytope/balancing stages require a fully valid fan.
    """
    fan = fanfile.to_fan()
    validation = validate_fan(fan)
    classified = classify_fan(fan)
    report: dict[str, Any] = {
        "kind": "fan",
        "dim": fan.dim,
        "validation": {
            "valid": validation.valid,
            "violations": list(validation.violations),
        },
        "classification": classification_entries(classified),
    }
    if not validation.valid:
        return report

    report["polytope"], assignment = polytope_section(
        fan, k if k is not None else fanfile.k
    )
    if "error" in report["polytope"]:
        return report

    su_labels = [
        label for label, qd in classified if qd and qd.classification == SU
    ]
    report["su_cones"] = su_labels
    if su_labels:
        vert = dict(assignment)
        orders = {label: qd.order for label, qd in classified if qd}
        points = [
            SingularPointRecord(
                label=label,
                kind=RICCI_FLAT,
                group_order=orders[label],
                phi_values=tuple(vert[label]),
            )
            for label in su_labels
        ]
        report["su_vertex_barycenter"] = _qvec(
            subset_barycenter([vert[label] for label in su_labels])
        )
        bal = solve_ricci_flat_balancing(points, s=None, m=fan.dim)
        report["balancing"] = _balancing_dict(bal)
        report["balancing"]["notes"] = list(bal.notes) + [
            "kernel data: toric Einstein input, d = m, phi values are moment "
            "coordinates of the SU chart fixed points",
            "resolution existence: SU(3) charts admit Kaehler crepant "
            "resolutions; other orders are external input",
        ]
    else:
        report["balancing"] = {
            "regime": "ricci_flat",
            "feasible": False,
            "notes": ["no SU charts: nothing to glue in the Ricci-flat regime"],
        }

    groups: dict[tuple, dict[str, Any]] = {}
    for label, qd in classified:
        if qd is None or qd.is_trivial():
            continue
        key = (qd.orders, qd.weights)
        if key not in groups:
            groups[key] = _spectral_notes(qd, fan.dim)
    report["spectral"] = {
        "groups": sorted(groups.values(), key=lambda e: (e["orders"], e["weights"])),
        "weight_intervals": _weight_intervals(fan.dim),
    }
    return report


def point_entries(points: Sequence[SingularPointRecord]) -> list[dict[str, Any]]:
    """The points section of an orbifold report, one entry per point."""
    return [
        {
            "label": p.label,
            "kind": p.kind,
            "classification": SU if p.kind == RICCI_FLAT else U_NON_SU,
            "order": p.group_order,
            "phi": _qvec(p.phi_values),
        }
        for p in points
    ]


def orbifold_report(orb: OrbifoldFile) -> dict[str, Any]:
    """Balancing pipeline on explicit orbifold point data."""
    report: dict[str, Any] = {
        "kind": "orbifold",
        "m": orb.m,
        "d": orb.d,
        "s": "positive" if orb.s is None else str(orb.s),
        "einstein": orb.einstein,
    }
    report["points"] = point_entries(orb.points)

    q_points = [p for p in orb.points if p.kind == SCALAR_FLAT]
    p_points = [p for p in orb.points if p.kind == RICCI_FLAT]
    if q_points:
        bal = solve_scalar_flat_balancing(q_points, orb.m)
        report["balancing"] = _balancing_dict(bal)
        if p_points:
            report["balancing"]["notes"].append(
                "ricci-flat weights b are free in this regime; each class "
                "coefficient approaches the chosen b_j"
            )
    else:
        bal = solve_ricci_flat_balancing(p_points, orb.s, orb.m)
        report["balancing"] = _balancing_dict(bal)
    report["weight_intervals"] = _weight_intervals(orb.m)
    return report


def build_report(
    name: str,
    text: str,
    parsed,
    k: Optional[int] = None,
) -> dict[str, Any]:
    """Wrap the pipeline output with input echo, hash and version."""
    if isinstance(parsed, FanFile):
        body = fan_report(parsed, k=k)
    elif isinstance(parsed, OrbifoldFile):
        body = orbifold_report(parsed)
    else:
        raise TypeError(f"unsupported input type {type(parsed)!r}")
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
    if bal:
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
