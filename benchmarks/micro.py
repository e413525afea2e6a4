"""Per-call timings of public primitives at fixed inputs (medians of repeats)."""

from __future__ import annotations

import statistics
import time

REPEATS = 7


def _median_ns(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def run():
    from filippov import diagnostics, integrate, sigma
    from filippov.scenario import load_shipped

    torus_sc = load_shipped("chaotic_torus")
    torus = torus_sc.build_system()
    belt_sc = load_shipped("sliding_belt_torus")
    belt = belt_sc.build_system()

    # region 1 of the chaotic torus lies between the curve's zeros y = 0 and y = 0.5
    points = [((i + 0.5) / 16, 0.02 + 0.46 * (j + 0.5) / 4) for i in range(16) for j in range(4)]
    fx, fy = torus.region(1).field.raw_pair()
    loops = 200

    def field_evals():
        for _ in range(loops):
            for x, y in points:
                fx(x, y)
                fy(x, y)

    wrapped = [(x + 3.0 * k - 5.0, y - 2.0 * k + 1.0) for k, (x, y) in enumerate(points)]
    canonical = torus.domain.canonical

    def canonicals():
        for _ in range(loops):
            for p in wrapped:
                canonical(p)

    calls = loops * len(points)
    opts = torus_sc.integrator

    def regular_arc():
        integrate.integrate_regular(torus, (0.1, 0.25), 1, 2.0, opts)

    def sliding_arc():
        integrate.integrate_sliding(belt, 0, (0.3, 0.0), 2.0, belt_sc.integrator)

    def trace():
        sigma.trace_curve(torus, 0, 512)

    orbit = integrate.integrate_filippov(torus, (0.1, 0.25), 20.0, opts=opts)
    n_samples = sum(len(seg.points) for seg in orbit.segments)

    def mark():
        diagnostics.GridCoverage(torus.domain, 32).mark_orbit(orbit)

    return {
        "expr.field_eval_ns": _median_ns(field_evals) / calls,
        "system.canonical_ns": _median_ns(canonicals) / calls,
        "integrate.regular_arc_ms": _median_ns(regular_arc) / 1e6,
        "integrate.sliding_arc_ms": _median_ns(sliding_arc) / 1e6,
        "sigma.trace_curve_ms": _median_ns(trace, repeats=3) / 1e6,
        "diagnostics.mark_ns_per_sample": _median_ns(mark) / n_samples,
    }
