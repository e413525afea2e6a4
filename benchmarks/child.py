"""One benchmark operation in a fresh process; prints one JSON line.

Modes:

* ``plain``: set up, time the workload's entry call, check the output;
* ``traced``: the same with the tracer installed; adds per-layer metrics and
  writes the spans to ``--spans``;
* ``micro``: per-call timings of public primitives.

Exit code 3 means the program could not be imported.  Any other failure is
reported in the JSON line and counts against the operation's checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

EXIT_NO_PROGRAM = 3


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def run_op(workload, index, tracer=None, spans_path=None):
    result = {"index": index, "error": None}
    origin = time.perf_counter()
    try:
        expected = workloads.load_expected()
        t0 = time.perf_counter()
        inputs = workloads.setup(workload, index)
        result["setup_s"] = time.perf_counter() - t0
        if tracer:
            tracer.mark()
        c0 = time.process_time()
        t0 = time.perf_counter()
        output = workloads.run(inputs)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
        result["digest"] = workloads.digest(output)
        if tracer:
            # metrics before the checks, whose re-integrations would count too
            result["layers"] = tracer.metrics()
            result["self_s"] = tracer.self_times()
        result["checks"] = [[name, bool(ok), detail] for name, ok, detail in
                            workloads.check(inputs, output, expected)]
    except Exception:
        result["error"] = traceback.format_exc()
        result["checks"] = [[name, False, "exception"] for name in workload.check_names]
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer and spans_path:
        tracer.write(spans_path, origin)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "micro"), default="plain")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    try:
        import filippov  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(f"cannot import the filippov package: {exc}\n")
        return EXIT_NO_PROGRAM

    if args.mode == "micro":
        import micro

        payload = {"micro": micro.run()}
    else:
        tracer = None
        if args.mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        payload = run_op(workloads.WORKLOADS[args.workload], args.index, tracer, args.spans)
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
