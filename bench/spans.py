"""Outside-in tracing of the report pipeline, layer by layer.

``Tracer.install`` replaces the named public functions of each kcscglue
layer with timing wrappers, at every module attribute bound to them: the
defining module (so calls inside a module are seen) and every module that
imported the name (so calls from one layer into another are seen).  Each
call becomes a span -- name, start, end, parent span, report id, whether it
raised, and an optional recorded quantity -- kept in memory and written out
once the run is over.  Nothing in the library is edited; ``uninstall`` puts
the original functions back.

Self time follows one rule: a named call's self time is its duration minus
the time covered by its descendant spans of *other* layers, so a layer's own
helpers count as its self time and the exact-arithmetic kernels it calls do
not.  A function that no longer exists is skipped, and every metric that
needs it is reported absent rather than raising.
"""

from __future__ import annotations

import functools
import json
import time
from importlib import import_module
from pathlib import Path
from typing import Callable, Optional

PACKAGE = "kcscglue"
REPORT_SPAN = "bench.report"

# Layer -> functions wrapped at every binding.  spectral.weight_interval (a
# constant table lookup made for every report) is deliberately left out, so
# that "spectral made no calls" means no group was analysed.
SPANS = {
    "formats": ("parse_fan", "parse_orbifold"),
    "report": ("build_report", "render_json"),
    "toric_lattice": (
        "validate_fan", "classify_fan", "quotient_action", "classify", "is_gorenstein",
    ),
    "polytope": (
        "anticanonical_polytope",
        "moment_assignment",
        "faces",
        "polytope_barycenter",
        "subset_barycenter",
    ),
    "balancing": ("solve_ricci_flat_balancing", "solve_scalar_flat_balancing"),
    "exact_linalg": (
        "positive_kernel_witness",
        "nullspace_basis",
        "rank",
        "smith_normal_form",
        "unimodular_inverse",
        "solve_square",
        "integer_determinant",
        "rational_determinant",
    ),
    "spectral": ("invariant_harmonic_dimension", "first_invariant_index", "eigenvalue"),
}

# Quantity recorded with a span, from its positional arguments and result.
VALUES: dict[str, Callable] = {
    "toric_lattice.classify_fan": lambda args, result: len(args[0].max_cones),
    "balancing.solve_ricci_flat_balancing": lambda args, result: len(args[0]),
    "balancing.solve_scalar_flat_balancing": lambda args, result: len(args[0]),
    "exact_linalg.positive_kernel_witness": lambda args, result: int(result is not None),
    "spectral.invariant_harmonic_dimension": lambda args, result: args[0].order,
}

NAME, START, END, PARENT, REPORT, FAILED, VALUE = range(7)

# Per-layer metrics: name -> (unit, spec) or (unit, numerator, denominator),
# where a spec is (Summary method, the spans it reads).  A metric whose spans
# are not all installed is left out.
_QA = "toric_lattice.quotient_action"
_CONES = ("values", ("toric_lattice.classify_fan",))
_VERTICES = ("polytope.anticanonical_polytope", "polytope.moment_assignment")
_SOLVERS = ("balancing.solve_ricci_flat_balancing", "balancing.solve_scalar_flat_balancing")
_SIMPLEX = ("exact_linalg.positive_kernel_witness",)
_INVARIANT = ("spectral.invariant_harmonic_dimension",)
METRICS = {
    "formats.parse_ms": ("ms", ("ms", ("formats.parse_fan", "formats.parse_orbifold"))),
    "report.build_self_ms": ("ms", ("self_ms", ("report.build_report",))),
    "report.render_json_ms": ("ms", ("ms", ("report.render_json",))),
    "toric_lattice.validate_ms": ("ms", ("ms", ("toric_lattice.validate_fan",))),
    "toric_lattice.classify_fan_self_ms": ("ms", ("self_ms", ("toric_lattice.classify_fan",))),
    "toric_lattice.cones": ("count", _CONES),
    "toric_lattice.quotient_action_calls": ("count", ("calls", (_QA,))),
    "toric_lattice.quotient_actions_per_cone": ("ratio", ("calls", (_QA,)), _CONES),
    "polytope.vertices_self_ms": ("ms", ("self_ms", _VERTICES)),
    "polytope.faces_self_ms": ("ms", ("self_ms", ("polytope.faces",))),
    "polytope.barycenter_self_ms": ("ms", ("self_ms", ("polytope.polytope_barycenter",))),
    "polytope.vertex_solves_per_cone": (
        "ratio", ("child_calls", ("exact_linalg.solve_square",) + _VERTICES), _CONES,
    ),
    "balancing.solve_self_ms": ("ms", ("self_ms", _SOLVERS)),
    "balancing.points": ("count", ("values", _SOLVERS)),
    "exact_linalg.simplex_ms": ("ms", ("ms", _SIMPLEX)),
    "exact_linalg.simplex_calls": ("count", ("calls", _SIMPLEX)),
    "exact_linalg.simplex_witness_ratio": ("ratio", ("values", _SIMPLEX), ("calls", _SIMPLEX)),
    "exact_linalg.nullspace_ms": ("ms", ("ms", ("exact_linalg.nullspace_basis",))),
    "exact_linalg.rank_ms": ("ms", ("ms", ("exact_linalg.rank",))),
    "exact_linalg.snf_ms": ("ms", ("ms", ("exact_linalg.smith_normal_form",))),
    "exact_linalg.snf_calls": ("count", ("calls", ("exact_linalg.smith_normal_form",))),
    "exact_linalg.unimodular_inverse_ms": ("ms", ("ms", ("exact_linalg.unimodular_inverse",))),
    "exact_linalg.solve_ms": ("ms", ("ms", ("exact_linalg.solve_square",))),
    "exact_linalg.solve_calls": ("count", ("calls", ("exact_linalg.solve_square",))),
    "exact_linalg.determinant_ms": (
        "ms", ("ms", ("exact_linalg.integer_determinant", "exact_linalg.rational_determinant")),
    ),
    "spectral.invariant_dim_ms": ("ms", ("ms", _INVARIANT)),
    "spectral.invariant_dim_calls": ("count", ("calls", _INVARIANT)),
    "spectral.group_elements": ("count", ("values", _INVARIANT)),
    "spectral.first_index_self_ms": ("ms", ("self_ms", ("spectral.first_invariant_index",))),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._report = -1
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = {}
        for layer in SPANS:
            try:
                modules[layer] = import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
        for layer, names in SPANS.items():
            for fname in names:
                original = getattr(modules.get(layer), fname, None)
                if not callable(original):
                    continue
                span = f"{layer}.{fname}"
                wrapper = self._wrap(span, original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))
                self.installed.add(span)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._report, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _wrap(self, name: str, fn: Callable) -> Callable:
        extract = VALUES.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if extract is not None:
                try:
                    rec[VALUE] = extract(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # recorded as missing; its metric is reported absent
            return result

        return wrapper

    def begin_report(self, report_id: int) -> None:
        self._report = report_id
        self._open(REPORT_SPAN)[START] = time.perf_counter()

    def end_report(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter()
        self._report = -1

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        return Summary(self.spans, self.installed).metrics()


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Summary:
    """Per-layer metrics over a finished trace; times are per-report means."""

    def __init__(self, spans: list[list], installed: set[str]) -> None:
        self.spans = spans
        self.installed = installed
        self.reports = sum(1 for s in spans if s[NAME] == REPORT_SPAN)
        n = len(spans)
        self.dur = [s[END] - s[START] for s in spans]
        # Layer self time of each span: its duration minus the spans of
        # other layers directly below it or below its same-layer children.
        # Children always come after their parent, so one reverse pass works.
        self.own = self.dur[:]
        for i in range(n - 1, -1, -1):
            p = spans[i][PARENT]
            if p >= 0:
                self.own[p] -= self.dur[i]
                if _layer(spans[i][NAME]) == _layer(spans[p][NAME]):
                    self.own[p] += self.own[i]

    def _has_ancestor(self, i: int, test: Callable[[list], bool]) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if test(self.spans[p]):
                return True
            p = self.spans[p][PARENT]
        return False

    def _select(self, names) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[NAME] in names]

    def _per_report(self, total: float) -> float:
        return total / self.reports if self.reports else 0.0

    def ms(self, *names: str) -> float:
        """Inclusive time of the named calls, nested repeats counted once."""
        names = set(names)
        return self._per_report(1000 * sum(
            self.dur[i] for i in self._select(names)
            if not self._has_ancestor(i, lambda s: s[NAME] in names)
        ))

    def self_ms(self, *names: str) -> float:
        names = set(names)
        return self._per_report(1000 * sum(
            self.own[i] for i in self._select(names)
            if not self._has_ancestor(i, lambda s: _layer(s[NAME]) == _layer(self.spans[i][NAME]))
        ))

    def calls(self, *names: str) -> float:
        return self._per_report(len(self._select(set(names))))

    def values(self, *names: str) -> Optional[float]:
        """Per-report sum of the recorded quantity; None if any is missing."""
        vals = [self.spans[i][VALUE] for i in self._select(set(names))]
        return None if None in vals else self._per_report(sum(vals))

    def layer_share(self, layer: str) -> float:
        inside = sum(
            self.dur[i] for i, s in enumerate(self.spans)
            if _layer(s[NAME]) == layer
            and not self._has_ancestor(i, lambda a: _layer(a[NAME]) == layer)
        )
        total = sum(self.dur[i] for i in self._select({REPORT_SPAN}))
        return inside / total if total else 0.0

    def layer_calls(self, layer: str) -> float:
        return self._per_report(sum(1 for s in self.spans if _layer(s[NAME]) == layer))

    def layer_errors(self, layer: str) -> int:
        return sum(1 for s in self.spans if _layer(s[NAME]) == layer and s[FAILED])

    def child_calls(self, child: str, *parents: str) -> float:
        """Calls of ``child`` made directly by one of ``parents``."""
        return self._per_report(sum(
            1 for i in self._select({child}) if self.spans[self.spans[i][PARENT]][NAME] in parents
        ))

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for layer, names in SPANS.items():
            if any(f"{layer}.{f}" in self.installed for f in names):
                out[f"{layer}.calls"] = (self.layer_calls(layer), "count")
                out[f"{layer}.errors"] = (self.layer_errors(layer), "count")
                out[f"{layer}.share"] = (self.layer_share(layer), "ratio")
        for name, (unit, *specs) in METRICS.items():
            if not all(span in self.installed for _, spans in specs for span in spans):
                continue
            values = [getattr(self, how)(*spans) for how, spans in specs]
            if None in values:
                continue
            if len(values) == 2:
                values = [values[0] / values[1] if values[1] else 0.0]
            out[name] = (values[0], unit)
        return out
