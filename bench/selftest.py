"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload briefly, untraced and traced, and prints every metric
by name with its unit together with the answer-check result.  Fails unless
no report failed its check and the metrics printed are exactly the ones
BENCHMARK.json declares, with the same units.  Then corrupts expected
answers -- a flipped verdict for each workload, a changed balancing column
and a changed cone order -- and fails unless the check reports each one,
which shows that the check can fail.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 11
SECONDS = 3  # per run of run.py


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    require(proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *summary, last = proc.stdout.splitlines()
    print("\n".join(summary))
    return json.loads(last)


def check_corruption(seed: int) -> None:
    """Corrupted expectations must be reported as failed reports by the
    same loop that counts failures in a benchmark run."""
    import run as bench
    import workloads

    bench.load_library()

    def failures(case) -> int:
        return len(bench.run_cases([case], count=1).failures)

    for name in sorted(workloads.WORKLOADS):
        case = workloads.build(name, seed)[0]
        require(failures(case) == 0, f"{name}: correct case {case.name} failed its check")
        flipped = dataclasses.replace(case.expected, feasible=not case.expected.feasible)
        require(failures(dataclasses.replace(case, expected=flipped)) == 1,
                f"{name}: flipped verdict of {case.name} not detected")
        print(f"corrupted verdict detected: {name} {case.name}")

    case = next(c for c in workloads.build("orbifold-balance", seed) if c.expected.has_witness)
    columns = [list(col) for col in case.expected.columns]
    columns[0][0] += 1
    moved = dataclasses.replace(case.expected, columns=tuple(map(tuple, columns)))
    require(failures(dataclasses.replace(case, expected=moved)) == 1,
            f"changed balancing column of {case.name} not detected by the witness check")
    print(f"corrupted balancing column detected: {case.name}")

    case = workloads.build("toric-scan", seed)[0]
    cones = list(case.expected.cones)
    cones[0] = dataclasses.replace(cones[0], order=cones[0].order + 1)
    wrong = dataclasses.replace(case.expected, cones=tuple(cones))
    require(failures(dataclasses.replace(case, expected=wrong)) == 1,
            f"changed cone order of {case.name} not detected")
    print(f"corrupted cone order detected: {case.name}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in spec["workloads"]:
        for trace in (0, 1):
            result = run(workload["name"], SEED, SECONDS, trace)
            where = f"{workload['name']} --trace {trace}"
            require(result["correct"] and result["failed"] == 0, f"{where}: failed_ratio is not 0")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            require(printed == declared[trace], f"{where}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(printed.items()) ^ set(declared[trace].items()))}")
    check_corruption(SEED)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
