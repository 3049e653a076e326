"""Command line interface.

Subcommands: classify | polytope | balance | coeffs | spectral | dtn |
report | examples.  ``classify``, ``polytope`` and ``balance`` run the
report stages up to the section they print.  Exit codes, one rule for
every report-backed subcommand (``report.exit_code``): 0 feasible/valid,
1 infeasible verdict, 2 input error -- a file that does not parse, an
invalid fan or a stage that recorded an error.  Batch mode exits with the
largest code of its files.
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
    EXIT_INPUT_ERROR,
    EXIT_OK,
    build_report,
    classification_table,
    exit_code,
    input_errors,
    leading_cell,
    render_json,
    render_table,
    render_text,
)
from .spectral import (
    eigenvalue,
    first_invariant_index,
    invariant_harmonic_dimension,
)
from .toric_lattice import GroupPresentation


def _load(path: str):
    """Read and parse a fan or orbifold file (kind by suffix, then sniffing)."""
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
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


def _print_errors(body: dict) -> bool:
    """Print a report body's input errors to stderr; whether it had any."""
    errors = input_errors(body)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return bool(errors)


def cmd_classify(args) -> int:
    text, parsed = _load(args.input)
    if isinstance(parsed, FanFile):
        body = build_report(args.input, text, parsed, until="validation")["report"]
        print(classification_table(body["classification"]))
        for v in body["validation"]["violations"]:
            print(f"violation: {v}")
    else:
        body = build_report(args.input, text, parsed, until="points")["report"]
        rows = [
            [e["label"], str(e["order"]), e["classification"], e["kind"]]
            for e in body["points"]
        ]
        print(render_table(rows, ["point", "|G|", "class", "kind"]))
    return exit_code(body)


def cmd_polytope(args) -> int:
    text, parsed = _load(args.input)
    if not isinstance(parsed, FanFile):
        raise ParseError(["polytope needs a fan file"])
    body = build_report(args.input, text, parsed, k=args.k, until="polytope")["report"]
    if _print_errors(body):
        return exit_code(body)
    poly = body["polytope"]
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
    return exit_code(body)


def cmd_balance(args) -> int:
    text, parsed = _load(args.input)
    # The JSON report written with --out is the full one.
    until = None if args.out else "balancing"
    report = build_report(args.input, text, parsed, k=args.k, until=until)
    if args.out:
        Path(args.out).write_text(render_json(report))
    body = report["report"]
    if _print_errors(body):
        return exit_code(body)
    bal = body["balancing"]
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
    return exit_code(body)


def cmd_coeffs(args) -> int:
    text, parsed = _load(args.input)
    if not isinstance(parsed, OrbifoldFile):
        raise ParseError(["coeffs needs an orbifold file"])
    body = build_report(args.input, text, parsed, until="balancing")["report"]
    if _print_errors(body):
        return exit_code(body)
    bal = body["balancing"]
    if not bal["feasible"]:
        print("balancing infeasible; no coefficients")
        return exit_code(body)
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
    return exit_code(body)


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
    return exit_code(report["report"])


# Summary-row verdict by exit code.
VERDICTS = ("feasible", "infeasible", "error")


def _batch_report(args) -> int:
    """One report per input file plus a summary table, deterministic order.

    A file that does not parse gets an error row and no report; the run's
    exit code is the largest of its files'.
    """
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
    worst = EXIT_OK
    for path in files:
        try:
            text, parsed = _load(str(path))
        except ParseError as exc:
            code, detail = EXIT_INPUT_ERROR, "; ".join(exc.errors)
        else:
            report = build_report(path.name, text, parsed, k=args.k)
            (out_dir / (path.stem + ".report.json")).write_text(render_json(report))
            code = exit_code(report["report"])
            detail = "; ".join(input_errors(report["report"]))
            detail = detail or report["input"]["sha256"][:12]
        summary.append([path.name, VERDICTS[code], detail])
        worst = max(worst, code)
    print(render_table(summary, ["input", "verdict", "sha256"]))
    return worst


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
