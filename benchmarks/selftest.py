"""Self-test of the benchmark on the tiny ``fold_smoke`` input (about 10 s).

    python3 benchmarks/selftest.py

Checks that both modes print every metric of BENCHMARK.json with its unit and
no failed operation, that corrupted outputs count as failed operations, and
that the benchmark refuses to run, printing no result, where the program is
missing.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SMOKE = "fold_smoke"
SEED = 3


def bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", SMOKE, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_printed_metrics(failures):
    e2e, layers = run.metric_specs()
    for trace, specs in ((0, e2e), (1, layers)):
        proc = bench(ROOT, trace)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures.append(f"trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            continue
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            failures.append(f"trace {trace}: {result['attempted']} attempted, "
                            f"{result['failed']} failed\n{proc.stderr}")
        want = {m["name"]: m["unit"] for m in specs}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            failures.append(f"trace {trace}: metric units {got} != {want}")
        bad = [name for name, m in result["metrics"].items()
               if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool)]
        if bad:
            failures.append(f"trace {trace}: non-numeric values {bad}")


def check_corruption_fails(failures):
    workload = workloads.WORKLOADS[SMOKE]
    inputs = workloads.setup(workload, workloads.input_index(SEED))
    output = workloads.run(inputs)
    expected = workloads.load_expected()
    if not all(ok for _, ok, _ in workloads.check(inputs, output, expected)):
        failures.append("the uncorrupted output fails its checks")

    flipped = copy.deepcopy(output)
    flipped["verdict"] = "chaotic at budget"
    failed = [name for name, ok, _ in workloads.check(inputs, flipped, expected) if not ok]
    if "expected" not in failed or "verdict" not in failed:
        failures.append(f"a flipped verdict failed only {failed}")

    broken = copy.deepcopy(output)
    broken["transitivity"]["found"] += 1
    if all(ok for _, ok, _ in workloads.check(inputs, broken, expected)):
        failures.append("a miscounted transitivity tally passed")

    op = {"index": 0, "checks": [["expected", True, None]], "digest": "a"}
    _, failed_ops = run.tally([op, dict(op, digest="b")])
    if failed_ops != 1:
        failures.append("two outputs of one input that differ passed the determinism check")


def check_refuses_without_program(failures):
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "benchmarks",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(tmp, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")


def main():
    failures = []
    check_printed_metrics(failures)
    check_corruption_fails(failures)
    check_refuses_without_program(failures)
    for failure in failures:
        sys.stderr.write(f"FAIL {failure}\n")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
