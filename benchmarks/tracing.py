"""Span tracing of the program's public calls, installed from outside the program.

``Tracer.install()`` replaces each traced function with a wrapper wherever a
``filippov`` module holds a reference to it (``filippov.diagnostics`` imports
names directly, so patching the defining module alone would miss callers), and
patches two methods on their classes.  Every call records a span
``[name, start, end, parent]`` in memory.  Counts are taken from the returned
``Orbit`` segments, and ``ScalarField.raw()`` hands out counting callables.

Only the traced run installs this; end-to-end metrics come from untraced runs.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import time

# (module, function) pairs traced by name, and the diagnostics phase each opens
FUNCTIONS = (
    ("filippov.sigma", "sigma_decomposition"),
    ("filippov.sigma", "trace_curve"),
    ("filippov.sigma", "classify_point"),
    ("filippov.diagnostics", "saturate"),
    ("filippov.diagnostics", "transitivity_probe"),
    ("filippov.diagnostics", "sensitivity_probe"),
    ("filippov.diagnostics", "build_segment_graph"),
    ("filippov.diagnostics", "assemble_closed_orbits"),
    ("filippov.integrate", "integrate_filippov"),
    ("filippov.integrate", "enumerate_branches"),
    ("filippov.integrate", "integrate_regular"),
    ("filippov.integrate", "integrate_sliding"),
)
METHODS = (
    ("filippov.diagnostics", "GridCoverage", "mark_orbit"),
    ("filippov.system", "FilippovSystem", "validate"),
)
PHASES = {
    "sigma_decomposition": "sigma",
    "saturate": "saturate",
    "transitivity_probe": "transitivity",
    "sensitivity_probe": "sensitivity",
    "build_segment_graph": "graph",
    "assemble_closed_orbits": "cycles",
    "GridCoverage.mark_orbit": "coverage",
}
ARC_KINDS = ("regular_arc", "sliding_arc")


def _orbit_samples(orbit):
    return sum(len(seg.points) for seg in orbit.segments)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = dict.fromkeys(
            ("samples", "events", "choices", "regular_arcs", "sliding_arcs",
             "enum_returned", "coverage_marks"), 0)
        self.model_time = {"regular": 0.0, "sliding": 0.0}
        self._evals = itertools.count()
        self._since = 0
        self._evals_at_mark = 0
        self._hooks = {
            "integrate_filippov": self._on_orbit,
            "integrate_regular": self._on_regular,
            "integrate_sliding": self._on_sliding,
            "enumerate_branches": self._on_enumerate,
            "GridCoverage.mark_orbit": self._on_mark,
        }

    # -- installation ---------------------------------------------------------

    def install(self):
        """Patch the program; call before the scenario is loaded."""
        import filippov.diagnostics  # noqa: F401  (with filippov, loads every traced module)
        import filippov.scenario  # noqa: F401
        from filippov.expr import ScalarField

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "filippov" or n.startswith("filippov."))]
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(fn_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth_name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            setattr(cls, meth_name, self._wrap(f"{cls_name}.{meth_name}", getattr(cls, meth_name)))

        raw = ScalarField.raw
        tick = self._evals.__next__

        def counting_raw(field):
            fn = raw(field)

            def counted(x, y):
                tick()
                return fn(x, y)

            return counted

        ScalarField.raw = counting_raw

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- counts from returned values --------------------------------------------

    def _on_orbit(self, args, orbit):
        c = self.counts
        c["samples"] += _orbit_samples(orbit)
        c["events"] += sum(1 for seg in orbit.segments if seg.kind not in ARC_KINDS)
        c["choices"] += len(orbit.choices)

    def _on_regular(self, args, result):
        seg = result[0]
        self.counts["regular_arcs"] += 1
        self.model_time["regular"] += seg.t_end - seg.t_start

    def _on_sliding(self, args, result):
        seg = result[0]
        self.counts["sliding_arcs"] += 1
        self.model_time["sliding"] += seg.t_end - seg.t_start

    def _on_enumerate(self, args, orbits):
        self.counts["enum_returned"] += len(orbits)

    def _on_mark(self, args, result):
        self.counts["coverage_marks"] += _orbit_samples(args[1])

    # -- results ----------------------------------------------------------------

    def evals(self):
        """Compiled-callable evaluations so far (reading does not count as one)."""
        return int(repr(self._evals)[len("count("):-1])

    def mark(self):
        """Start of the measured call: later metrics cover only what follows."""
        self._since = len(self.spans)
        self._evals_at_mark = self.evals()

    def metrics(self):
        """Per-layer metrics of the measured call (validation: of the set-up)."""
        since = self._since
        validate_s = sum(end - start for name, start, end, _ in self.spans[:since]
                         if name == "FilippovSystem.validate")
        spans = [(name, start, end, parent - since if parent >= since else -1)
                 for name, start, end, parent in self.spans[since:]]
        durations = [end - start for _, start, end, _ in spans]
        by_name = {}
        for (name, _, _, _), dur in zip(spans, durations):
            by_name.setdefault(name, []).append(dur)

        def total(name):
            return sum(by_name.get(name, ()))

        def calls(name):
            return len(by_name.get(name, ()))

        # phase self time: a phase span minus the phase spans nested in it
        phase_of = [PHASES.get(name) for name, _, _, _ in spans]
        owner = [-1] * len(spans)  # nearest enclosing phase span
        phase_time = dict.fromkeys(set(PHASES.values()), 0.0)
        for i, (name, _, _, parent) in enumerate(spans):
            up = -1 if parent < 0 else (parent if phase_of[parent] else owner[parent])
            owner[i] = up
            if phase_of[i]:
                phase_time[phase_of[i]] += durations[i]
                if up >= 0:
                    phase_time[phase_of[up]] -= durations[i]

        enum_spans = {i for i, s in enumerate(spans) if s[0] == "enumerate_branches"}
        integrated = sum(1 for s in spans if s[0] == "integrate_filippov" and s[3] in enum_spans)
        orbit_ms = sorted(1e3 * d for d in by_name.get("integrate_filippov", ()))
        tail_pct, tail = tail_percentile(orbit_ms)
        c, mt = self.counts, self.model_time
        out = {f"diagnostics.{phase}_s": phase_time[phase]
               for phase in ("sigma", "saturate", "transitivity", "sensitivity", "graph", "cycles",
                             "coverage")}
        out.update({
            "diagnostics.coverage_marks": c["coverage_marks"],
            "integrate.orbits": len(orbit_ms),
            "integrate.orbit_ms.p50": statistics.median(orbit_ms) if orbit_ms else 0.0,
            "integrate.orbit_ms.tail": tail,
            "integrate.orbit_ms.tail_pct": tail_pct,
            "integrate.regular_arcs": c["regular_arcs"],
            "integrate.regular_s": total("integrate_regular"),
            "integrate.regular_us_per_t": _per(1e6 * total("integrate_regular"), mt["regular"]),
            "integrate.sliding_arcs": c["sliding_arcs"],
            "integrate.sliding_s": total("integrate_sliding"),
            "integrate.sliding_us_per_t": _per(1e6 * total("integrate_sliding"), mt["sliding"]),
            "integrate.samples": c["samples"],
            "integrate.events": c["events"],
            "integrate.choices": c["choices"],
            "integrate.enumerate_s": total("enumerate_branches"),
            "integrate.enum_integrated": integrated,
            "integrate.enum_returned": c["enum_returned"],
            "integrate.enum_useful": _per(c["enum_returned"], integrated),
            "sigma.trace_calls": calls("trace_curve"),
            "sigma.trace_s": total("trace_curve"),
            "sigma.classify_calls": calls("classify_point"),
            "sigma.classify_s": total("classify_point"),
            "expr.evals": self.evals() - self._evals_at_mark,
            "system.validate_s": validate_s,
            "trace.spans": len(spans),
        })
        return out

    def self_times(self):
        """Seconds of the measured call in each traced function outside its traced callees."""
        spans, since = self.spans, self._since
        own = {}
        for i in range(since, len(spans)):
            name, start, end, parent = spans[i]
            own[name] = own.get(name, 0.0) + (end - start)
            if parent >= since:
                pname = spans[parent][0]
                own[pname] -= end - start
        return own

    def write(self, path, origin):
        """Write the spans with times relative to ``origin``."""
        rows = [[name, start - origin, end - origin, parent]
                for name, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)


def tail_percentile(sorted_values, beyond=10):
    """(q, value): the highest of p50/p90/p99/p99.9 with >= ``beyond`` values above it."""
    n = len(sorted_values)
    best = (50.0, statistics.median(sorted_values) if sorted_values else 0.0)
    for q in (90.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= beyond:
            k = min(n - 1, int(q / 100.0 * n))
            best = (q, sorted_values[k])
    return best


def _per(num, den):
    return num / den if den else 0.0
