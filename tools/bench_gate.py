#!/usr/bin/env python3
"""Benchmark-regression gate: diff a freshly emitted BENCH_*.json against the
committed baseline and fail on significant slowdowns.

Cases are matched by (scenario, edge, rings); the compared metrics are every
"*_seconds" field both records share. A case or field the baseline has and the
current run lacks fails the gate by name, so an emitter cannot drop a gated
field silently. CI machines differ in speed from the
machine that produced the baseline, so raw ratios are useless on their own:
the gate first estimates the machine scale as the *median* new/base ratio
over all timing metrics, then flags any metric whose ratio exceeds
scale * --max-slowdown AND whose absolute excess clears --abs-floor (so
microsecond-scale timings cannot trip the gate on noise). Physics outputs
(peak stress, ΔT extremes) are compared at a tight relative tolerance as a
correctness-drift tripwire.

Cases carrying a "trace_overhead_ratio" field (instrumented vs disabled
wall time of the same solve) are additionally gated against
--max-trace-overhead on the *current* run alone — the observability layer
must stay within a few percent of the untraced pipeline on every machine,
so no baseline normalization applies.

Limitation: median normalization absorbs *uniform* slowdowns by design
(that is what makes the gate portable across runner speeds), so a change
that slows every case equally only fails once the median ratio itself
exceeds --max-scale. Keep --max-scale at the slowest runner you expect
relative to the baseline machine; regressions confined to a minority of
metrics are caught regardless.

Exit code 0 = pass, 1 = regression or malformed input.

Usage:
  python3 tools/bench_gate.py bench/baseline/BENCH_thermal.json \
      build/BENCH_thermal.json [--max-slowdown 1.25] [--abs-floor 0.05]
"""

import argparse
import json
import statistics
import sys


def case_key(case):
    return (case.get("scenario"), case.get("edge"), case.get("rings"))


def load_cases(path):
    with open(path) as f:
        data = json.load(f)
    cases = {}
    for case in data.get("cases", []):
        cases[case_key(case)] = case
    if not cases:
        sys.exit(f"error: no cases in {path}")
    # A null metric means the emitter failed mid-run (e.g. a scenario error
    # left a field unset). Refuse it with the offending metric named instead
    # of silently skipping the comparison or tracebacking on float(None).
    nulls = [f"{key} {metric}"
             for key, case in sorted(cases.items(), key=str)
             for metric, value in sorted(case.items()) if value is None]
    if nulls:
        sys.exit(f"error: {path} has null metric values: {'; '.join(nulls)} "
                 "(re-run the bench; the gate cannot compare null)")
    return cases


VALUE_FIELDS = ("peak_von_mises", "dt_min", "dt_max", "envelope_dt_max", "time_average_dt_max",
                # Solver determinism tripwires: the ordering and supernode
                # detection are deterministic, so factor fill may not drift.
                "amd_factor_nnz", "amd_fill_ratio", "num_supernodes",
                "stepper_factor_nnz", "stepper_fill_ratio",
                "package_factor_nnz", "package_fill_ratio",
                # Reliability tripwires: the batched fatigue panel must keep
                # one factorization and a fixed RHS count, and the rainflow /
                # Miner reduction is deterministic, so the log-lifetime and
                # counted cycle content may not drift.
                "num_rhs", "num_factorizations", "min_life_log10", "total_cycle_counts",
                # Hot-path timing tripwires: "_seconds"-suffixed entries are
                # gated as strict scale-normalized budgets (no abs-floor, see
                # below) instead of relative value drift — the batched channel
                # extraction is the fatigue hot path and must not creep back
                # toward per-step dense reconstruction even by small absolute
                # amounts.
                "channel_extraction_seconds",
                # Sweep-engine tripwires: the cache hit/miss counts are exact
                # consequences of structure-keyed memoization, the warm pass
                # must stay bit-identical to cold legacy runs, and the
                # "_per_second" throughput fields are gated as inverted
                # scale-normalized floors (see below) rather than value drift.
                "queries_per_second", "cold_queries_per_second",
                "factor_cache_hits", "factor_cache_misses", "model_cache_hits",
                "pareto_count", "bitwise_identical",
                # Reliability screen: the evaluated fraction is a deterministic
                # function of the per-point stress bounds, so it may not drift.
                "screen_evaluated_fraction")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-slowdown", type=float, default=1.25,
                        help="per-case slowdown factor tolerated on top of the machine scale")
    parser.add_argument("--abs-floor", type=float, default=0.05,
                        help="seconds of absolute excess a slowdown must clear to count")
    parser.add_argument("--value-tolerance", type=float, default=0.02,
                        help="relative drift tolerated on physics outputs")
    parser.add_argument("--max-scale", type=float, default=4.0,
                        help="largest machine-speed ratio the normalization may absorb; a "
                             "median timing ratio beyond this fails outright")
    parser.add_argument("--max-trace-overhead", type=float, default=1.05,
                        help="largest instrumented/disabled wall-time ratio tolerated on "
                             "cases that report trace_overhead_ratio")
    parser.add_argument("--max-telemetry-overhead", type=float, default=1.05,
                        help="largest fully-enabled/disabled wall-time ratio tolerated on "
                             "cases that report telemetry_overhead_ratio (tracing + "
                             "flight recorder + per-query attribution all on)")
    args = parser.parse_args()

    baseline = load_cases(args.baseline)
    current = load_cases(args.current)

    missing = sorted(set(baseline) - set(current), key=str)
    failures = []
    if missing:
        failures.append(f"cases missing from the current run: {missing}")
    for key, base_case in sorted(baseline.items(), key=str):
        if key not in current:
            continue
        for field in sorted(set(base_case) - set(current[key])):
            failures.append(f"{key} {field}: field missing from the current run")

    # Machine scale: median of all timing ratios over non-trivial baselines.
    pairs = []  # (key, metric, base, new)
    for key, base_case in baseline.items():
        if key not in current:
            continue
        for metric, base in base_case.items():
            if not metric.endswith("_seconds") or not isinstance(base, (int, float)):
                continue
            new = current[key].get(metric)
            if isinstance(new, (int, float)):
                pairs.append((key, metric, float(base), float(new)))
    ratios = [new / base for _, _, base, new in pairs if base >= args.abs_floor]
    scale = statistics.median(ratios) if ratios else 1.0
    print(f"machine scale (median timing ratio): {scale:.3f} over {len(ratios)} metrics")
    if scale > args.max_scale:
        failures.append(
            f"median timing ratio {scale:.2f} exceeds --max-scale {args.max_scale:.2f}: "
            "either the runner is drastically slower than the baseline machine or "
            "everything regressed uniformly")
        scale = args.max_scale

    for key, metric, base, new in pairs:
        budget = base * scale * args.max_slowdown
        status = "ok"
        if new > budget and new - base * scale > args.abs_floor:
            status = "REGRESSION"
            failures.append(
                f"{key} {metric}: {new:.3f}s vs baseline {base:.3f}s "
                f"(budget {budget:.3f}s at scale {scale:.2f})")
        print(f"  {key} {metric}: base {base:.3f}s new {new:.3f}s "
              f"budget {budget:.3f}s [{status}]")

    for key, base_case in baseline.items():
        if key not in current:
            continue
        for field in VALUE_FIELDS:
            base = base_case.get(field)
            new = current[key].get(field)
            if not isinstance(base, (int, float)) or not isinstance(new, (int, float)):
                continue
            if field.endswith("_per_second"):
                # Inverted throughput budget: queries/second may not fall
                # below the baseline floor. A slower machine (scale > 1)
                # lowers the floor by the same factor the timing budgets rise.
                floor = base / (scale * args.max_slowdown)
                status = "ok"
                if new < floor:
                    status = "REGRESSION"
                    failures.append(
                        f"{key} {field}: {new:.3f}/s below throughput floor "
                        f"{floor:.3f}/s (baseline {base:.3f}/s at scale {scale:.2f})")
                print(f"  {key} {field} (throughput): base {base:.3f}/s new {new:.3f}/s "
                      f"floor {floor:.3f}/s [{status}]")
                continue
            if field.endswith("_seconds"):
                # Strict timing tripwire: the scale-normalized budget applies
                # with no absolute floor, unlike the generic timing loop above.
                budget = base * scale * args.max_slowdown
                status = "ok"
                if new > budget:
                    status = "REGRESSION"
                    failures.append(
                        f"{key} {field}: {new:.3f}s exceeds strict budget "
                        f"{budget:.3f}s (baseline {base:.3f}s at scale {scale:.2f})")
                print(f"  {key} {field} (strict): base {base:.3f}s new {new:.3f}s "
                      f"budget {budget:.3f}s [{status}]")
                continue
            denom = max(abs(base), 1e-12)
            drift = abs(new - base) / denom
            if drift > args.value_tolerance:
                failures.append(
                    f"{key} {field}: {new:.6g} drifted {100 * drift:.2f}% from "
                    f"baseline {base:.6g}")

    # Tracing-overhead gate: absolute on the current run (both states ran on
    # this machine, so no scale normalization is needed). The abs-floor guard
    # keeps millisecond-scale cases from tripping it on scheduler noise.
    for key, case in sorted(current.items(), key=str):
        ratio = case.get("trace_overhead_ratio")
        if not isinstance(ratio, (int, float)):
            continue
        excess = float(case.get("enabled_seconds", 0.0)) - float(case.get("disabled_seconds", 0.0))
        print(f"  {key} trace overhead: ratio {ratio:.3f} "
              f"(excess {excess:.3f}s, limit {args.max_trace_overhead:.2f})")
        if ratio > args.max_trace_overhead and excess > args.abs_floor:
            failures.append(
                f"{key} trace_overhead_ratio {ratio:.3f} exceeds "
                f"--max-trace-overhead {args.max_trace_overhead:.2f} "
                f"({excess:.3f}s of instrumented excess)")

    # Telemetry-overhead gate: same shape as the trace gate, for cases that
    # run with the full query-scoped telemetry stack enabled (span tracing,
    # flight recorder, attribution sinks, event log).
    for key, case in sorted(current.items(), key=str):
        ratio = case.get("telemetry_overhead_ratio")
        if not isinstance(ratio, (int, float)):
            continue
        excess = (float(case.get("telemetry_enabled_seconds", 0.0)) -
                  float(case.get("telemetry_disabled_seconds", 0.0)))
        print(f"  {key} telemetry overhead: ratio {ratio:.3f} "
              f"(excess {excess:.3f}s, limit {args.max_telemetry_overhead:.2f})")
        if ratio > args.max_telemetry_overhead and excess > args.abs_floor:
            failures.append(
                f"{key} telemetry_overhead_ratio {ratio:.3f} exceeds "
                f"--max-telemetry-overhead {args.max_telemetry_overhead:.2f} "
                f"({excess:.3f}s of fully-enabled excess)")

    if failures:
        print("\nbench gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nbench gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
