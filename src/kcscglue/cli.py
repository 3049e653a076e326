"""Command line interface.

Subcommands: classify | polytope | balance | coeffs | spectral | dtn |
report | examples.  ``classify``, ``polytope``, ``balance`` and ``coeffs``
run the report stages through the last section they print, and print those
sections as ``report --format text`` does (``report.render_sections``);
this module formats only the spectral, dtn, examples and batch-summary
tables.  Exit codes, one rule for every report-backed subcommand
(``report.exit_code``): 0 feasible/valid, 1 infeasible verdict, 2 input
error -- a file that does not parse, an invalid fan or a stage that
recorded an error.  Batch mode exits with the largest code of its files.
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
    exit_code,
    input_errors,
    render_json,
    render_sections,
    render_table,
    render_text,
    stage_error,
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
    try:
        factors = [part.split(":") for part in spec.split(";")]
        orders = tuple(int(d) for d, _ in factors)
        weights = tuple(tuple(int(x) for x in w.split(",")) for _, w in factors)
    except ValueError:
        raise ValueError(
            f"group spec {spec!r} is not of the form 'd:w1,...,wm[;d2:...]' "
            "with integers d and w_i"
        ) from None
    try:
        return GroupPresentation(m=m, orders=orders, weights=weights)
    except ValueError as exc:
        raise ValueError(f"group spec {spec!r}: {exc}") from None


# The report sections each report-backed subcommand prints, by input type.
SECTIONS = {
    "classify": {FanFile: ("classification", "validation"), OrbifoldFile: ("points",)},
    "polytope": {FanFile: ("polytope",)},
    "balance": {FanFile: ("balancing",), OrbifoldFile: ("balancing",)},
    "coeffs": {OrbifoldFile: ("balancing",)},
}


def cmd_sections(args) -> int:
    """Run the report stages through the subcommand's last section and print
    its sections as the text report does, or the input errors on stderr
    when one of them is missing or recorded an error."""
    text, parsed = _load(args.input)
    by_type = SECTIONS[args.command]
    names = by_type.get(type(parsed))
    if names is None:
        needed = "a fan" if FanFile in by_type else "an orbifold"
        raise ParseError([f"{args.command} needs {needed} file"])
    out = getattr(args, "out", None)
    # The JSON report written with --out is the full one.
    until = None if out else names[-1]
    report = build_report(args.input, text, parsed, k=getattr(args, "k", None), until=until)
    if out:
        Path(out).write_text(render_json(report))
    body = report["report"]
    if all(name in body and stage_error(body[name]) is None for name in names):
        sys.stdout.write(render_sections(body, names))
    else:
        for e in input_errors(body):
            print(f"error: {e}", file=sys.stderr)
    return exit_code(body)


def cmd_spectral(args) -> int:
    m = args.m
    if args.jmax < 0:
        raise ValueError(f"--jmax must be >= 0, got {args.jmax}")
    group = _parse_group(args.group, m)
    rows = [
        [str(j), str(eigenvalue(j, m)), str(invariant_harmonic_dimension(group, j, m))]
        for j in range(args.jmax + 1)
    ]
    first = first_invariant_index(group, m)
    print(f"m = {m}, group order {group.order}")
    print(render_table(rows, ["j", "eigenvalue", "invariant dim"]))
    print(f"first invariant index: {first} (eigenvalue {eigenvalue(first, m)})")
    if group.is_trivial():
        print("note: trivial group, index 1 by convention")
    return EXIT_OK


def cmd_dtn(args) -> int:
    mat = dtn_mode_matrix(args.m, args.gamma, no_invariant_linear=args.nontrivial_group)
    inv = dtn_inverse(args.m, args.gamma, no_invariant_linear=args.nontrivial_group)
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
    rendered = render_json(report) if args.format == "structured" else render_text(report)
    if args.out:
        Path(args.out).write_text(rendered)
    else:
        sys.stdout.write(rendered)
    return exit_code(report["report"])


# Summary-row verdict by exit code.
VERDICTS = ("feasible", "infeasible", "error")


def _batch_report(args) -> int:
    """One report per input file plus a summary table, deterministic order.

    A file that does not parse, or whose stem an earlier file has taken,
    gets an error row and no report; the run's exit code is the largest of
    its files'.  The detail column holds a report's input errors, else the
    first 12 hex digits of its input's sha256, and an error row's error.
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
    stems: dict[str, str] = {}
    for path in files:
        first = stems.setdefault(path.stem, path.name)
        try:
            if first != path.name:
                raise ParseError([f"{path.stem}.report.json is taken by {first}"])
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
    print(render_table(summary, ["input", "verdict", "detail"]))
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
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser("polytope", help="anticanonical polytope data")
    add_input(p)
    add_k(p)
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser("balance", help="decide the balancing conditions")
    add_input(p)
    add_k(p)
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser("coeffs", help="gluing coefficients for an orbifold file")
    add_input(p)
    p.set_defaults(func=cmd_sections)

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
    p.add_argument(
        "--nontrivial-group",
        action="store_true",
        help="the group has no invariant linear function (rejects gamma = 1)",
    )
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
