"""Benchmark of the kcscglue report pipeline.

    python3 bench/run.py --workload toric-scan --seed 1 --seconds 40 --trace 0

One client in one process submits one input at a time, in a closed loop:
each input goes through the calls ``kcscglue report --batch`` makes for a
file (``formats.parse_fan`` or ``formats.parse_orbifold``, then
``report.build_report``, then ``report.render_json``), and the next input
follows once the JSON is rendered.  Inputs are generated in memory from the
seed before timing; one warm-up report fills the library's caches.  Every
report is checked against an answer the benchmark derives itself (see
``oracle.py``); the check runs between reports and is not timed.

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it runs each input twice in a row, once plainly and once with
every layer wrapped (see ``spans.py``), and reports the per-layer metrics
and the tracing overhead.  The last line of output is one JSON object; the lines
before it say the same for a reader.  The library is imported from
``src/`` next to this directory and is never installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACES = BENCH / "traces"

# Fresh CLI imports timed per run, spread evenly over the timed loop so that
# setup_s sees the same machine speed as the reports around it.
SETUP_SAMPLES = 8


def load_library() -> None:
    package = SRC / "kcscglue"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no kcscglue sources in {package}")
    sys.path.insert(0, str(SRC))
    import kcscglue

    if Path(kcscglue.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: kcscglue was imported from {kcscglue.__file__}, not {package}")


def pipeline(case: workloads.Case) -> str:
    # Module attributes are looked up on every call, so a traced run sees
    # the wrapped functions.
    from kcscglue import formats, report

    parse = formats.parse_fan if case.kind == "fan" else formats.parse_orbifold
    parsed = parse(case.text)
    return report.render_json(report.build_report(case.name, case.text, parsed))


def check(case: workloads.Case, rendered: str) -> list[str]:
    try:
        body = json.loads(rendered)
        if case.kind == "fan":
            return oracle.check_fan(body, case.expected)
        return oracle.check_orbifold(body, case.expected)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"report does not have the expected shape: {exc!r}"]


@dataclass
class Tally:
    latencies_ms: list[float] = field(default_factory=list)  # correct reports only
    busy_s: float = 0.0  # time inside the pipeline, all reports
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, case: workloads.Case, elapsed: float, problems: list[str]) -> None:
        self.attempted += 1
        self.busy_s += elapsed
        if problems:
            self.failures.append(f"{case.name}: {'; '.join(problems)}")
        else:
            self.latencies_ms.append(1000 * elapsed)

    def add(self, other: "Tally") -> None:
        """Count the other run's reports as attempted here too."""
        self.attempted += other.attempted
        self.failures += other.failures


def timed_report(case: workloads.Case, tracer=None, report_id=0) -> tuple[float, list[str]]:
    """One report: its pipeline time and what the untimed check found wrong."""
    clock = time.perf_counter
    if tracer:
        tracer.begin_report(report_id)
    start = clock()
    try:
        rendered = pipeline(case)
    except Exception as exc:  # a report that raises is a failed report
        rendered, problems = None, [f"raised {exc!r}"]
    elapsed = clock() - start
    if tracer:
        tracer.end_report()
    if rendered is not None:
        problems = check(case, rendered)
    return elapsed, problems


def run_cases(cases, seconds=None, count=None, between=None) -> Tally:
    """Closed loop over the cycle of cases until the time or count is used.

    ``between``, if given, is called before each report, outside its timing.
    """
    tally = Tally()
    clock = time.perf_counter
    deadline = None if seconds is None else clock() + seconds
    while (count is None or tally.attempted < count) and (deadline is None or clock() < deadline):
        if between:
            between()
        case = cases[tally.attempted % len(cases)]
        tally.record(case, *timed_report(case))
    return tally


def time_cli_import() -> float:
    """Wall time of a fresh ``python -c "import kcscglue.cli"``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import kcscglue.cli"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"), check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


class SetupSampler:
    """Times a fresh CLI import whenever ``interval`` seconds have passed."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.times: list[float] = []
        self._due = time.perf_counter()

    def __call__(self) -> None:
        if time.perf_counter() >= self._due:
            self.times.append(time_cli_import())
            self._due += self.interval


def end_to_end(tally: Tally, setup_s: float) -> dict[str, tuple[float, str]]:
    lat = tally.latencies_ms
    if len(lat) < 2:
        raise SystemExit("error: fewer than two correct reports; nothing to measure")
    return {
        "reports_per_s": (len(lat) / tally.busy_s, "1/s"),
        "report_ms.p50": (statistics.median(lat), "ms"),
        "report_ms.p90": (statistics.quantiles(lat, n=10)[-1], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(cases, seconds: float, trace_file: Path) -> tuple[dict, Tally]:
    """Runs each case twice in a row, plainly and traced, taking turns which
    goes first, so that machine drift and cache state fall on both alike.
    The wrappers are installed around each traced report only."""
    plain, traced_run = Tally(), Tally()
    tracer = spans.Tracer()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        n = traced_run.attempted
        case = cases[n % len(cases)]
        for wrapped in (False, True) if n % 2 == 0 else (True, False):
            if not wrapped:
                plain.record(case, *timed_report(case))
                continue
            tracer.install()
            try:
                traced_run.record(case, *timed_report(case, tracer, n))
            finally:
                tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced_run.busy_s / plain.busy_s, "ratio")
    metrics["trace.reports"] = (traced_run.attempted, "count")
    metrics["trace.report_ms"] = (1000 * traced_run.busy_s / traced_run.attempted, "ms")
    tracer.write(trace_file)
    plain.add(traced_run)
    return metrics, plain


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "kcscglue").rglob("*.py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_library()
    cases = workloads.build(args.workload, args.seed)
    total = run_cases(cases, count=1)  # warm-up, checked like any report
    if args.trace:
        trace_file = TRACES / f"{args.workload}-seed{args.seed}.jsonl"
        metrics, tally = traced(cases, args.seconds, trace_file)
    else:
        time_cli_import()  # untimed: leaves the bytecode cache as an installed CLI has it
        sampler = SetupSampler(args.seconds / SETUP_SAMPLES)
        tally = run_cases(cases, seconds=args.seconds, between=sampler)
        metrics = end_to_end(tally, statistics.median(sampler.times))
    total.add(tally)

    failed = len(total.failures)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"src_lines {src_lines()}  cases in cycle {len(cases)}  timed reports {tally.attempted}")
    if not args.trace and tally.attempted < 100:
        print(f"note: report_ms.p90 rests on {tally.attempted} reports, fewer than 100")
    print(f"answer check: {'ok' if not failed else 'FAILED'}  "
          f"failed_ratio {failed / total.attempted:.4f} ratio ({failed} of {total.attempted})")
    for msg in total.failures[:5]:
        print(f"  {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": total.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
