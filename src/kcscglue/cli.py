"""Command line interface.

Subcommands: classify | polytope | balance | coeffs | spectral | dtn |
report | examples.  Exit codes: 0 feasible/valid, 1 infeasible verdict,
2 input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .biharmonic import dtn_inverse, dtn_mode_matrix
from .examples import embedded_examples
from .formats import (
    FanFile,
    OrbifoldFile,
    ParseError,
    parse_fan,
    parse_orbifold,
    sniff_kind,
)
from .report import (
    build_report,
    classification_entries,
    classification_table,
    leading_cell,
    point_entries,
    polytope_section,
    render_json,
    render_table,
    render_text,
)
from .spectral import (
    eigenvalue,
    first_invariant_index,
    invariant_harmonic_dimension,
)
from .toric_lattice import GroupPresentation, classify_fan, validate_fan

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT_ERROR = 2


def _load(path: str):
    """Read and parse a fan or orbifold file (kind by suffix, then sniffing)."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError([f"cannot read {path}: {exc}"])
    if not text.strip():
        raise ParseError([f"{path}: empty file"])
    suffix = p.suffix.lower()
    if suffix == ".fan":
        kind = "fan"
    elif suffix == ".orb":
        kind = "orbifold"
    else:
        kind = sniff_kind(text)
    parsed = parse_fan(text) if kind == "fan" else parse_orbifold(text)
    return text, parsed


def _parse_group(spec: str, m: int) -> GroupPresentation:
    """Group spec 'd:w1,...,wm[;d2:...]'; empty string is the trivial group."""
    spec = spec.strip()
    if not spec:
        return GroupPresentation.trivial(m)
    orders = []
    weights = []
    for part in spec.split(";"):
        head, _, tail = part.partition(":")
        orders.append(int(head))
        weights.append(tuple(int(x) for x in tail.split(",")))
    return GroupPresentation(m=m, orders=tuple(orders), weights=tuple(weights))


def _emit(report: dict, fmt: str, out: Optional[str]) -> None:
    rendered = render_json(report) if fmt == "structured" else render_text(report)
    if out:
        Path(out).write_text(rendered)
    else:
        sys.stdout.write(rendered)


def _report_exit_code(report: dict) -> int:
    bal = report["report"].get("balancing")
    if bal is not None and not bal.get("feasible", False):
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_classify(args) -> int:
    _, parsed = _load(args.input)
    if isinstance(parsed, FanFile):
        fan = parsed.to_fan()
        validation = validate_fan(fan)
        print(classification_table(classification_entries(classify_fan(fan))))
        if not validation.valid:
            for v in validation.violations:
                print(f"violation: {v}")
            return EXIT_INPUT_ERROR
    else:
        rows = [
            [e["label"], str(e["order"]), e["classification"], e["kind"]]
            for e in point_entries(parsed.points)
        ]
        print(render_table(rows, ["point", "|G|", "class", "kind"]))
    return EXIT_OK


def cmd_polytope(args) -> int:
    _, parsed = _load(args.input)
    if not isinstance(parsed, FanFile):
        raise ParseError(["polytope needs a fan file"])
    k = args.k if args.k is not None else parsed.k
    if k is None:
        raise ParseError(["no anticanonical multiple: pass --k or put k in the file"])
    fan = parsed.to_fan()
    validation = validate_fan(fan)
    if not validation.valid:
        raise ParseError([f"invalid fan: {v}" for v in validation.violations])
    poly, _ = polytope_section(fan, k)
    if "error" in poly:
        raise ParseError([f"polytope: {poly['error']}"])
    print(f"k = {poly['k']}")
    print(f"vertices ({len(poly['vertices'])}):")
    for v in poly["vertices"]:
        print("  (" + ", ".join(v) + ")")
    print(f"two-faces ({len(poly['two_faces'])}):")
    for f in poly["two_faces"]:
        print("  " + " ".join("(" + ",".join(v) + ")" for v in f))
    print("barycenter: (" + ", ".join(poly["barycenter"]) + ")")
    print("cone -> vertex:")
    for label, v in sorted(poly["moment_assignment"].items()):
        print(f"  {label} -> (" + ", ".join(v) + ")")
    return EXIT_OK


def cmd_balance(args) -> int:
    text, parsed = _load(args.input)
    report = build_report(args.input, text, parsed, k=args.k)
    if args.out:
        Path(args.out).write_text(render_json(report))
    bal = report["report"].get("balancing")
    if bal is None:
        raise ParseError(["input produced no balancing problem"])
    print(f"regime: {bal['regime']}")
    print(f"feasible: {'yes' if bal['feasible'] else 'no'}")
    for key in ("witness_a", "witness_b", "witness_c"):
        if bal.get(key):
            print(f"{key[-1]} = ({', '.join(bal[key])})")
    for rank_key in ("xi_rank", "theta_rank"):
        if bal.get(rank_key) is not None:
            print(f"{rank_key}: {bal[rank_key]} of d = {bal['d']}")
    if bal.get("kernel_basis"):
        print(
            "kernel basis: "
            + "; ".join("(" + ", ".join(v) + ")" for v in bal["kernel_basis"])
        )
    for note in bal.get("notes", []):
        print(f"note: {note}")
    return EXIT_OK if bal["feasible"] else EXIT_INFEASIBLE


def cmd_coeffs(args) -> int:
    text, parsed = _load(args.input)
    if not isinstance(parsed, OrbifoldFile):
        raise ParseError(["coeffs needs an orbifold file"])
    report = build_report(args.input, text, parsed)
    bal = report["report"]["balancing"]
    if not bal["feasible"]:
        print("balancing infeasible; no coefficients")
        return EXIT_INFEASIBLE
    rows = []
    for c in bal["coefficients"]:
        extra = ""
        if "b_radicand" in c:
            extra = (
                f"B^(2m) = {c['b_radicand']['coeff']}*pi^{c['b_radicand']['pi_power']}"
                f", exponent {c['b_root_exponent']}"
            )
        if "c_constant" in c:
            extra += f"  C = {c['c_constant']}"
        rows.append([c["label"], c["kind"], leading_cell(c), extra])
    print(render_table(rows, ["point", "kind", "leading", "model constants"]))
    return EXIT_OK


def cmd_spectral(args) -> int:
    m = args.m
    group = _parse_group(args.group, m)
    print(f"m = {m}, group order {group.order}")
    rows = [
        [str(j), str(eigenvalue(j, m)), str(invariant_harmonic_dimension(group, j, m))]
        for j in range(args.jmax + 1)
    ]
    print(render_table(rows, ["j", "eigenvalue", "invariant dim"]))
    first = first_invariant_index(group, m)
    print(f"first invariant index: {first} (eigenvalue {eigenvalue(first, m)})")
    if group.is_trivial():
        print("note: trivial group, index 1 by convention")
    return EXIT_OK


def cmd_dtn(args) -> int:
    mat = dtn_mode_matrix(args.m, args.gamma, nontrivial_group=args.nontrivial_group)
    inv = dtn_inverse(args.m, args.gamma, nontrivial_group=args.nontrivial_group)
    print(f"mode matrix (m = {args.m}, gamma = {args.gamma}):")
    for row in mat.entries:
        print("  [" + ", ".join(str(x) for x in row) + "]")
    print(f"determinant: {mat.determinant}")
    print("inverse:")
    for row in inv.entries:
        print("  [" + ", ".join(str(x) for x in row) + "]")
    return EXIT_OK


def cmd_report(args) -> int:
    if args.batch:
        return _batch_report(args)
    text, parsed = _load(args.input)
    report = build_report(args.input, text, parsed, k=args.k)
    _emit(report, args.format, args.out)
    return _report_exit_code(report)


def _batch_report(args) -> int:
    """One report per input file plus a summary table, deterministic order."""
    directory = Path(args.batch)
    if not directory.is_dir():
        raise ParseError([f"{args.batch}: not a directory"])
    files = sorted(
        p for p in directory.iterdir() if p.suffix.lower() in (".fan", ".orb")
    )
    if not files:
        raise ParseError([f"{args.batch}: no .fan or .orb files"])
    out_dir = Path(args.out) if args.out else directory
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    any_error = False
    any_infeasible = False
    for path in files:
        try:
            text, parsed = _load(str(path))
            report = build_report(path.name, text, parsed, k=args.k)
        except ParseError as exc:
            any_error = True
            summary.append([path.name, "error", "; ".join(exc.errors)])
            continue
        except (ValueError, ArithmeticError) as exc:
            # One bad file must not cost the later files their reports.
            any_error = True
            summary.append([path.name, "error", str(exc)])
            continue
        (out_dir / (path.stem + ".report.json")).write_text(render_json(report))
        bal = report["report"].get("balancing")
        if bal is None:
            verdict = "n/a"
        elif bal.get("feasible"):
            verdict = "feasible"
        else:
            verdict = "infeasible"
            any_infeasible = True
        summary.append([path.name, verdict, report["input"]["sha256"][:12]])
    print(render_table(summary, ["input", "verdict", "sha256"]))
    if any_error:
        return EXIT_INPUT_ERROR
    if any_infeasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_examples(args) -> int:
    rows = []
    for ex in embedded_examples():
        rows.append([ex.name, ex.kind, ex.filename])
    print(render_table(rows, ["name", "kind", "file"]))
    if args.dump:
        out = Path(args.dump)
        out.mkdir(parents=True, exist_ok=True)
        for ex in embedded_examples():
            (out / ex.filename).write_text(ex.text)
        print(f"wrote {len(embedded_examples())} files to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcscglue",
        description=(
            "Exact feasibility checks for Kcsc gluing on toric orbifolds "
            "with isolated quotient singularities."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="fan (.fan) or orbifold (.orb) file")

    def add_k(p):
        p.add_argument("--k", type=int, default=None, help="anticanonical multiple")

    p = sub.add_parser("classify", help="classify the quotient singularities")
    add_input(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("polytope", help="anticanonical polytope data")
    add_input(p)
    add_k(p)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("balance", help="decide the balancing conditions")
    add_input(p)
    add_k(p)
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("coeffs", help="gluing coefficients for an orbifold file")
    add_input(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("spectral", help="sphere eigenvalue / invariant dimensions")
    p.add_argument("--m", type=int, required=True, help="complex dimension")
    p.add_argument(
        "--group",
        default="",
        help="cyclic factors as 'd:w1,...,wm[;d2:...]'; empty = trivial",
    )
    p.add_argument("--jmax", type=int, default=6)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("dtn", help="Dirichlet-to-Neumann mode matrix")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--nontrivial-group", action="store_true")
    p.set_defaults(func=cmd_dtn)

    p = sub.add_parser("report", help="full machine-readable report")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument(
        "--format", choices=("text", "structured"), default="structured"
    )
    p.add_argument("--batch", default=None, help="process a directory of inputs")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("examples", help="list or dump the bundled inputs")
    p.add_argument("--dump", default=None, help="write the bundled files here")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report" and not args.batch and not args.input:
        parser.error("report needs an input file or --batch DIR")
    try:
        return args.func(args)
    except ParseError as exc:
        for e in exc.errors:
            print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
