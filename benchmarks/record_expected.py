"""Record the output signature of every workload input into expected.json.

Run on the commit whose outputs define "correct" (the benchmark was recorded
on the commit that added it), from the root of a checkout:

    python3 benchmarks/record_expected.py [workload ...]

Each input runs in this process, one after another; the time of each entry
call goes to stderr, which shows how much the inputs differ in cost.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(names):
    expected = workloads.load_expected() if workloads.EXPECTED_PATH.exists() else {}
    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        table = {}
        for index in range(workloads.INPUT_COUNT):
            inputs = workloads.setup(workload, index)
            t0 = time.perf_counter()
            output = workloads.run(inputs)
            wall = time.perf_counter() - t0
            table[str(index)] = workloads.signature(workload, output)
            sys.stderr.write(f"{name} input {index:2d}: {wall:7.3f} s  {table[str(index)]}\n")
        expected[name] = table
        workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
