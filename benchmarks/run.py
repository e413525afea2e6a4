"""Benchmark of the filippov toolkit: chaos diagnosis and saturation workloads.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload torus_chaos --seed 7 --seconds 30 --trace 0

Each operation runs in a fresh single-threaded Python process (``child.py``),
one at a time, until ``--seconds`` of operations are spent (at least
``MIN_OPS``).  An operation loads and validates the scenario (timed as
set-up), then times the workload's entry call and checks its output.  Every
check is one attempted operation; a failed check or an exception is a failed
one.  Operations cycle through ``INPUTS_PER_RUN`` inputs that follow from the
seed, so every run also checks that one input gives byte-identical outputs
twice.

``--trace 0`` prints the end-to-end metrics: medians over the run's operations.
``--trace 1`` alternates untraced and traced operations on the seed's own
input, runs the micro-timings once, prints the per-layer metrics (medians over
traced operations) with the tracing overhead, writes spans to
``benchmarks/out/`` and a layer split to stderr.  The last line of stdout is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from child import EXIT_NO_PROGRAM  # noqa: E402

INPUTS_PER_RUN = 5
MIN_OPS = INPUTS_PER_RUN + 1  # every input once, and the first one again
RUN_LIMIT_S = 170.0  # whole-run ceiling, below the 180 s allowed per run
OUT_DIR = HERE / "out"


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run_inputs(seed):
    """Input indexes the run cycles through: the seed's own, then the next ones."""
    return [workloads.input_index(seed + k) for k in range(INPUTS_PER_RUN)]


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload, index, mode, deadline, spans=None):
    """Run child.py to completion; returns its JSON payload (None if it died)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--index", str(index), "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=None, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and waits for the child
        sys.stderr.write(f"{mode} operation on input {index} timed out\n")
        return None
    if proc.returncode == EXIT_NO_PROGRAM:
        raise BenchmarkError("the filippov package is not importable from src/")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{mode} operation on input {index} exited {proc.returncode}\n")
        return None
    return json.loads(lines[-1])


def run_ops(workload, seed, seconds, trace):
    """Operations until the time is spent; returns (ops, micro payload).

    A traced run stays on the seed's own input, so its counts are exact and
    each traced operation has an untraced twin to compare with.
    """
    inputs = run_inputs(seed)[:1] if trace else run_inputs(seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    modes = ["plain", "traced"] if trace else ["plain"]
    # plain: the first input comes round again; traced: a traced twin of a plain op
    min_ops = 2 if trace else MIN_OPS
    ops, micro, longest = [], None, 0.0
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
    k = 0
    while True:
        elapsed = time.monotonic() - start
        if k >= min_ops and elapsed + longest > seconds:
            break
        if elapsed + longest > RUN_LIMIT_S:
            break
        mode = modes[k % len(modes)]
        index = inputs[(k // len(modes)) % len(inputs)]
        spans = OUT_DIR / f"spans-{workload.name}-seed{seed}-op{k}.json" if mode == "traced" else None
        t0 = time.monotonic()
        payload = run_child(workload.name, index, mode, deadline, spans)
        longest = max(longest, time.monotonic() - t0)
        if payload is None:
            payload = {"index": index, "error": "operation died",
                       "checks": [[n, False, "died"] for n in workload.check_names]}
        payload["mode"] = mode
        sys.stderr.write(f"{mode} op {k}: input {index}, set-up {payload.get('setup_s', 0):.3f} s, "
                         f"call {payload.get('wall_s', 0):.3f} s\n")
        ops.append(payload)
        k += 1
        if trace and micro is None:
            micro = run_child(workload.name, index, "micro", deadline)
            if micro is None:
                raise BenchmarkError("micro-timings failed")
    return ops, micro


def tally(ops):
    """(attempted, failed): every check plus one determinism check per repeated input."""
    attempted = failed = 0
    first_digest = {}
    for op in ops:
        for name, ok, detail in op["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                sys.stderr.write(f"check {name} failed on input {op['index']}: {detail}\n")
        if op.get("error"):
            sys.stderr.write(op["error"])
        digest = op.get("digest")
        if op["index"] in first_digest:
            attempted += 1
            if digest is None or digest != first_digest[op["index"]]:
                failed += 1
                sys.stderr.write(f"check determinism failed on input {op['index']}\n")
        elif digest is not None:
            first_digest[op["index"]] = digest
    return attempted, failed


def _median(ops, key):
    """Median over inputs of the per-input median, so repeats do not weigh an input more."""
    per_input = {}
    for op in ops:
        if key in op:
            per_input.setdefault(op["index"], []).append(op[key])
    if not per_input:
        raise BenchmarkError(f"no operation measured {key}")
    return statistics.median(statistics.median(v) for v in per_input.values())


def end_to_end(ops):
    plain = [op for op in ops if op["mode"] == "plain"]
    return {key: _median(plain, key) for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}


def per_layer(ops, micro):
    traced = [op for op in ops if op["mode"] == "traced" and "layers" in op]
    if not traced:
        raise BenchmarkError("no traced operation completed")
    names = traced[0]["layers"]
    values = {name: statistics.median(op["layers"][name] for op in traced) for name in names}
    values.update(micro["micro"])
    values["trace.overhead_ratio"] = _median(traced, "wall_s") / end_to_end(ops)["wall_s"]
    return values


def report_split(ops):
    """Layer split of the median traced operation, to stderr."""
    traced = sorted((op for op in ops if op["mode"] == "traced" and "self_s" in op),
                    key=lambda op: op["wall_s"])
    if not traced:
        return
    op = traced[len(traced) // 2]
    wall = op["wall_s"]
    rows = sorted(op["self_s"].items(), key=lambda kv: -kv[1])
    rows.append(("(entry call outside traced functions)", wall - sum(op["self_s"].values())))
    sys.stderr.write(f"layer split of one traced call, wall {wall:.3f} s (self time):\n")
    for name, secs in rows:
        sys.stderr.write(f"  {name:<40s} {secs:9.3f} s {100.0 * secs / wall:6.1f} %\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="filippov benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload not in workloads.WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "filippov" / "__init__.py").is_file():
            raise BenchmarkError("no program to measure: src/filippov is missing")
        e2e_specs, layer_specs = metric_specs()
        workload = workloads.WORKLOADS[args.workload]
        ops, micro = run_ops(workload, args.seed, args.seconds, bool(args.trace))
        attempted, failed = tally(ops)
        if args.trace:
            values, specs = per_layer(ops, micro), layer_specs
            report_split(ops)
        else:
            values, specs = end_to_end(ops), e2e_specs
        missing = [m["name"] for m in specs if m["name"] not in values]
        if missing:
            raise BenchmarkError(f"metrics not measured: {missing}")
    except BenchmarkError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    sys.stderr.write(f"{len(ops)} operations on inputs {sorted({op['index'] for op in ops})}\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
