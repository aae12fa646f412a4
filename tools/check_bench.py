#!/usr/bin/env python
"""Benchmark-regression gate: compare a smoke run against a committed baseline.

The gate re-runs the smoke-scale benchmark scenarios of
``benchmarks/run_all.py`` (median of ``--runs``, default 3) for the
requested executors and fails when any scenario got more than
``--threshold`` (default 25%) slower than ``benchmarks/baseline_smoke.json``.

Raw wall-clock baselines do not travel between machines, so the gate
carries a **calibration** workload: a fixed, allocation-free arithmetic
loop timed on every run and stored in the baseline.  Measured medians are
compared against ``baseline * (calibration_now / calibration_baseline) *
threshold`` — a CI runner that is uniformly 2x slower than the machine
that produced the baseline moves the allowance with it, while a genuine
regression in the reasoner does not move the calibration and trips the
gate.  Sub-``--min-abs-slack`` differences (default 50 ms) never fail:
the tiny smoke scenarios are noise-dominated below that.

Usage::

    python tools/check_bench.py --executor compiled streaming
    python tools/check_bench.py --executor compiled --update-baseline
    python tools/check_bench.py --executor compiled --inject-slowdown 2.0  # self-test
    python tools/check_bench.py --trace-overhead --executor compiled streaming
    python tools/check_bench.py --service-throughput
    python tools/check_bench.py --service-throughput --update-baseline
    python tools/check_bench.py --scaling-curves
    python tools/check_bench.py --scaling-curves --update-baseline

``--scaling-curves`` switches the gate to the scenario-lab sweep check:
the smoke-scale knob grid of ``repro.workloads.sweep`` (every parametric
iWarded axis — recursion depth, existential density, arity, join fan-in,
fact-set size) is re-run on the committed sweep executors, every grid
point answer-checked against the naive executor, and compared against the
``scaling_curves`` entry of the baseline **per curve point** instead of
per-scenario medians: (a) derived-fact and peak-resident-fact counts must
match the baseline exactly; (b) no point's wall-clock may
exceed its calibration-scaled baseline by more than ``--threshold`` (a
*cliff* regression localised to one knob value trips the gate even when
scenario medians elsewhere stay flat); (c) curves that are monotone by
construction (fact-size, recursion-depth) must stay monotone in derived
facts.  ``--executor`` does not apply — the gate always measures the
committed smoke executor set so baselines stay comparable.

``--service-throughput`` switches the gate to the resident-reasoner service
check: the smoke-scale mixed update/query workload is replayed ``--runs``
times through the resident ``ReasoningService`` and the from-scratch
baseline service, and the gate fails when (a) the median sustained
queries/sec falls below ``baseline / calibration-scale / threshold`` and
the implied per-query latency regressed by more than ``--min-abs-slack``
seconds, or (b) the median resident speedup over from-scratch drops below
the 2x target, or (c) the two services disagree on the final ``Reach``
relation (a correctness failure, never excused by noise slack).

``--trace-overhead`` switches the gate to the telemetry-overhead check of
the observability layer: every smoke scenario is run untraced and with
``trace=True`` (interleaved pairs, median of ``--runs``) and the gate
fails when any traced median exceeds the untraced one by more than
``--trace-threshold`` (default 10%) *and* ``--min-abs-slack`` seconds.

``--inject-slowdown F`` multiplies every measured median by ``F`` before
the comparison; it exists to prove the gate trips (the CI wiring is only
trustworthy if an injected 2x slowdown fails the build).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))

import run_all  # noqa: E402  (benchmarks/run_all.py)

DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline_smoke.json"

def calibrate(runs: int = 3) -> float:
    """Median wall-clock of a fixed pure-Python arithmetic loop.

    The loop shape (integer arithmetic, attribute-free, allocation-free)
    is deliberately close to the interpreter profile of the join inner
    loops, so machine-speed differences scale it the same way they scale
    the benchmark scenarios.
    """
    samples = []
    for _ in range(runs):
        started = time.perf_counter()
        accumulator = 0
        for i in range(2_000_000):
            accumulator += i % 7
        samples.append(time.perf_counter() - started)
    if accumulator < 0:  # pragma: no cover - keeps the loop un-eliminable
        raise AssertionError
    return statistics.median(samples)


def measure_trace_overhead(executors, runs: int, only=None) -> dict:
    """Paired traced/untraced smoke medians per (scenario, executor).

    The pairs are sampled interleaved (untraced, traced, untraced, ...) so a
    machine-speed drift during the run hits both sides equally.  No
    committed baseline is involved — the untraced run *is* the baseline, so
    the comparison needs no calibration either.
    """
    scenarios = {}
    for name, (_figure, _heavy, _recursive, _full, smoke) in run_all.SCENARIOS.items():
        if only and name not in only:
            continue
        row = {}
        for executor in executors:
            untraced, traced = [], []
            for _ in range(runs):
                untraced.append(run_all.run_one(smoke, executor)["elapsed_seconds"])
                traced.append(
                    run_all.run_one(smoke, executor, trace=True)["elapsed_seconds"]
                )
            row[executor] = {
                "untraced": round(statistics.median(untraced), 4),
                "traced": round(statistics.median(traced), 4),
            }
            print(
                f"   {name} [{executor}]: untraced {row[executor]['untraced']:.4f}s "
                f"traced {row[executor]['traced']:.4f}s",
                flush=True,
            )
        scenarios[name] = row
    return scenarios


def gate_trace_overhead(args, executors) -> int:
    """Fail when the traced smoke median exceeds the untraced one by more
    than ``--trace-threshold`` (and more than ``--min-abs-slack`` seconds)."""
    print(
        f"measuring telemetry overhead (median of {args.runs}, "
        f"allowed {round((args.trace_threshold - 1) * 100)}%)...",
        flush=True,
    )
    measured = measure_trace_overhead(executors, args.runs, args.only)
    violations = []
    checked = 0
    for name, row in measured.items():
        for executor, pair in row.items():
            checked += 1
            untraced, traced = pair["untraced"], pair["traced"]
            allowed = untraced * args.trace_threshold
            status = "ok"
            if traced > allowed and (traced - untraced) > args.min_abs_slack:
                status = "OVERHEAD"
                violations.append((name, executor, traced, untraced, allowed))
            ratio = traced / untraced if untraced > 0 else float("inf")
            print(
                f"   {name} [{executor}]: {ratio:.3f}x "
                f"(allowed {allowed:.4f}s) {status}"
            )
    if violations:
        print(
            f"\ntelemetry-overhead gate FAILED: {len(violations)} pair(s) beyond "
            f"{round((args.trace_threshold - 1) * 100)}% of the untraced baseline:",
            file=sys.stderr,
        )
        for name, executor, traced, untraced, allowed in violations:
            print(
                f"  {name} [{executor}]: traced {traced:.4f}s > allowed "
                f"{allowed:.4f}s (untraced {untraced:.4f}s)",
                file=sys.stderr,
            )
        return 1
    print(
        f"\ntelemetry-overhead gate OK: {checked} (scenario, executor) pairs "
        f"within the traced-run allowance"
    )
    return 0


def measure_service(runs: int) -> dict:
    """Median-of-``runs`` resident service throughput on the smoke workload.

    Each run replays the identical smoke-scale mixed stream (default ratio,
    one update per ten queries) through both the resident service and the
    from-scratch baseline, so the speedup sample is paired — machine-speed
    drift during the gate cancels out of the ratio.
    """
    ratio = run_all.SERVICE_DEFAULT_RATIOS[0]
    qps, speedups, p50s = [], [], []
    for _ in range(runs):
        section = run_all.run_service_throughput(smoke=True)
        row = section["ratios"][ratio]
        if not row["answers_identical"]:
            raise SystemExit(
                "service gate FAILED: resident and from-scratch services "
                "disagree on the final Reach relation (correctness, not noise)"
            )
        qps.append(row["resident"]["queries_per_second"])
        speedups.append(row["speedup_vs_scratch"])
        p50s.append(row["resident"]["p50_query_seconds"])
    return {
        "ratio": ratio,
        "queries": row["resident"]["queries"],
        "queries_per_second": round(statistics.median(qps), 1),
        "speedup_vs_scratch": round(statistics.median(speedups), 2),
        "p50_query_seconds": round(statistics.median(p50s), 6),
        "samples_qps": sorted(qps),
    }


def gate_service_throughput(args) -> int:
    """The resident-service throughput gate (see module docstring)."""
    print(f"calibrating ({args.runs} runs)...", flush=True)
    calibration = calibrate(args.runs)
    print(f"calibration: {calibration:.4f}s", flush=True)
    print(
        f"measuring service throughput (median of {args.runs} replays)...",
        flush=True,
    )
    measured = measure_service(args.runs)
    print(
        f"   resident median {measured['queries_per_second']} q/s "
        f"of {measured['samples_qps']}, "
        f"speedup {measured['speedup_vs_scratch']}x",
        flush=True,
    )

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        merged = {"scenarios": {}}
        if baseline_path.exists():
            merged = json.loads(baseline_path.read_text())
        merged["service_throughput"] = {
            "ratio": measured["ratio"],
            "queries_per_second": measured["queries_per_second"],
            "speedup_vs_scratch": measured["speedup_vs_scratch"],
            "p50_query_seconds": measured["p50_query_seconds"],
            # The service entry carries its own calibration so partial
            # updates never skew the scenario entries (and vice versa).
            "calibration_seconds": round(calibration, 4),
            "python": platform.python_version(),
            "runs": args.runs,
        }
        baseline_path.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"baseline updated: {baseline_path} [service_throughput]")
        return 0

    if not baseline_path.exists():
        print(
            f"baseline {baseline_path} does not exist; run with "
            f"--service-throughput --update-baseline to create it",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(baseline_path.read_text())
    entry = baseline.get("service_throughput")
    if not entry:
        print(
            "baseline has no service_throughput entry; run with "
            "--service-throughput --update-baseline to add it",
            file=sys.stderr,
        )
        return 2
    scale = calibration / entry["calibration_seconds"]
    print(
        f"machine speed vs baseline machine: {1 / scale:.2f}x "
        f"(calibration {calibration:.4f}s vs {entry['calibration_seconds']:.4f}s)"
    )

    median_qps = measured["queries_per_second"]
    if args.inject_slowdown:
        print(
            f"!! self-test: injecting a {args.inject_slowdown}x slowdown "
            f"into the measured throughput"
        )
        median_qps /= args.inject_slowdown

    failures = []
    # (a) absolute throughput vs the calibration-scaled committed baseline.
    # Throughput scales inversely with machine slowness, so the expectation
    # divides by ``scale``.  The noise floor mirrors the scenario gate's:
    # --min-abs-slack bounds the *elapsed* gap over the whole query stream
    # (queries / qps), so sub-50ms total differences never fail.
    expected_qps = entry["queries_per_second"] / scale
    allowed_qps = expected_qps / args.threshold
    queries = measured["queries"]
    elapsed_gap = (
        queries / median_qps - queries / expected_qps
        if median_qps
        else float("inf")
    )
    status = "ok"
    if median_qps < allowed_qps and elapsed_gap > args.min_abs_slack:
        status = "REGRESSION"
        failures.append(
            f"throughput {median_qps:.1f} q/s < allowed {allowed_qps:.1f} q/s "
            f"(expected {expected_qps:.1f} q/s, elapsed gap "
            f"{elapsed_gap * 1000:.1f}ms over {queries} queries)"
        )
    print(
        f"   throughput: {median_qps:.1f} q/s vs expected {expected_qps:.1f} q/s "
        f"(allowed {allowed_qps:.1f} q/s) {status}"
    )

    # (b) the resident service must stay >= the 2x speedup target.  The
    # ratio is machine-independent (both sides run on this machine), so no
    # calibration scaling applies.
    speedup = measured["speedup_vs_scratch"]
    if args.inject_slowdown:
        speedup /= args.inject_slowdown
    target = run_all.SERVICE_SPEEDUP_TARGET
    status = "ok" if speedup >= target else "BELOW TARGET"
    if speedup < target:
        failures.append(
            f"speedup {speedup:.2f}x < {target}x target over the "
            f"from-scratch service"
        )
    print(f"   speedup vs from-scratch: {speedup:.2f}x (target {target}x) {status}")

    if failures:
        print(
            f"\nservice gate FAILED: {len(failures)} violation(s):",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nservice gate OK: throughput and speedup within budget")
    return 0


#: Axes whose derived-fact curves are monotone non-decreasing by
#: construction (more source facts / deeper recursion chains can only add
#: derivations); the other axes trade rule shapes and may legitimately dip.
MONOTONE_AXES = ("recursion-depth", "fact-size")

#: Smoke grid points run in 0.02–0.2s, where scheduler noise easily
#: exceeds the relative threshold; the scaling gate therefore uses a
#: larger minimum absolute slack than the scenario gate before a point
#: may fail on wall-clock alone (a genuine cliff — the arity-6 style
#: blowup this gate exists for — is seconds, not fractions of one).
SCALING_MIN_ABS_SLACK = 0.15


def measure_scaling_curves(runs: int) -> dict:
    """The smoke-scale knob-grid sweep, answer-checked per point."""
    from repro.workloads import sweep as sweep_mod

    return sweep_mod.run_sweep(smoke=True, answer_check=True, measure_runs=runs)


def _flatten_curve_points(section: dict) -> dict:
    """``(axis, value-as-string, executor) -> point row`` over all curves."""
    points = {}
    for axis, curve in section["axes"].items():
        for point in curve["points"]:
            points[(axis, str(point["value"]), point["executor"])] = point
    return points


def gate_scaling_curves(args) -> int:
    """The scaling-curve gate (see module docstring)."""
    print(f"calibrating ({args.runs} runs)...", flush=True)
    calibration = calibrate(args.runs)
    print(f"calibration: {calibration:.4f}s", flush=True)
    print(
        f"sweeping the smoke knob grid (median of {args.runs} per point, "
        f"every point answer-checked against naive)...",
        flush=True,
    )
    measured = measure_scaling_curves(args.runs)
    points = _flatten_curve_points(measured)
    unchecked = [key for key, point in points.items() if not point["answer_checked"]]
    if unchecked:  # run_sweep raises on mismatch; this guards the wiring
        print(
            f"scaling gate FAILED: {len(unchecked)} curve point(s) were not "
            f"answer-checked",
            file=sys.stderr,
        )
        return 1
    for axis, curve in measured["axes"].items():
        for executor in measured["executors"]:
            trail = " ".join(
                f"{p['value']}:{p['elapsed_seconds']:.3f}s/{p['derived_facts']}f"
                for p in curve["points"]
                if p["executor"] == executor
            )
            print(f"   {axis} [{executor}]: {trail}", flush=True)

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        merged = {"scenarios": {}}
        if baseline_path.exists():
            merged = json.loads(baseline_path.read_text())
        merged["scaling_curves"] = {
            "executors": measured["executors"],
            "answer_reference": measured["answer_reference"],
            # Like the service entry, the sweep carries its own calibration
            # so partial baseline updates never skew the other entries.
            "calibration_seconds": round(calibration, 4),
            "python": platform.python_version(),
            "runs": args.runs,
            "points": [
                {
                    "axis": axis,
                    "value": point["value"],
                    "executor": executor,
                    "elapsed_seconds": point["elapsed_seconds"],
                    "derived_facts": point["derived_facts"],
                    "peak_resident_facts": point["peak_resident_facts"],
                }
                for (axis, _value, executor), point in sorted(points.items())
            ],
        }
        baseline_path.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"baseline updated: {baseline_path} [scaling_curves]")
        return 0

    if not baseline_path.exists():
        print(
            f"baseline {baseline_path} does not exist; run with "
            f"--scaling-curves --update-baseline to create it",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(baseline_path.read_text())
    entry = baseline.get("scaling_curves")
    if not entry:
        print(
            "baseline has no scaling_curves entry; run with "
            "--scaling-curves --update-baseline to add it",
            file=sys.stderr,
        )
        return 2
    scale = calibration / entry["calibration_seconds"]
    print(
        f"machine speed vs baseline machine: {1 / scale:.2f}x "
        f"(calibration {calibration:.4f}s vs {entry['calibration_seconds']:.4f}s)"
    )
    factor = args.inject_slowdown or 1.0
    if factor != 1.0:
        print(f"!! self-test: injecting a {factor}x slowdown into the curve points")

    failures = []
    checked = 0
    baseline_points = {
        (row["axis"], str(row["value"]), row["executor"]): row
        for row in entry["points"]
    }
    for key, base in sorted(baseline_points.items()):
        axis, value, executor = key
        point = points.get(key)
        if point is None:
            failures.append(
                f"{axis}={value} [{executor}]: baseline curve point was not "
                f"measured (grid drifted?)"
            )
            continue
        checked += 1
        # (a) fact counts are exact on every executor: drift is a logic
        # change, not noise.
        for metric in ("derived_facts", "peak_resident_facts"):
            if point[metric] != base[metric]:
                failures.append(
                    f"{axis}={value} [{executor}]: {metric} "
                    f"{point[metric]} != baseline {base[metric]}"
                )
        # (b) per-point wall-clock cliff check against the scaled baseline.
        median = point["elapsed_seconds"] * factor
        expected = base["elapsed_seconds"] * scale
        allowed = expected * args.threshold
        min_slack = max(args.min_abs_slack, SCALING_MIN_ABS_SLACK)
        status = "ok"
        if median > allowed and (median - expected) > min_slack:
            status = "CLIFF"
            failures.append(
                f"{axis}={value} [{executor}]: {median:.4f}s > allowed "
                f"{allowed:.4f}s ({median / expected:.2f}x the scaled baseline)"
            )
        print(
            f"   {axis}={value} [{executor}]: {median:.4f}s vs expected "
            f"{expected:.4f}s (allowed {allowed:.4f}s) {status}"
        )
    # (c) monotone-sanity on the curves that are monotone by construction.
    for axis in MONOTONE_AXES:
        curve = measured["axes"].get(axis)
        if not curve:
            continue
        for executor in measured["executors"]:
            series = [
                (point["value"], point["derived_facts"])
                for point in curve["points"]
                if point["executor"] == executor
            ]
            derived = [d for _v, d in series]
            if any(b < a for a, b in zip(derived, derived[1:])):
                failures.append(
                    f"{axis} [{executor}]: derived-fact curve is not "
                    f"monotone: {series}"
                )

    if failures:
        print(
            f"\nscaling gate FAILED: {len(failures)} violation(s):",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        f"\nscaling gate OK: {checked} curve points within budget, fact "
        f"counts exact, monotone axes monotone"
    )
    return 0


def measure(executors, runs: int, only=None) -> dict:
    """Median-of-``runs`` smoke elapsed per (scenario, executor)."""
    scenarios = {}
    for name, (_figure, _heavy, _recursive, _full, smoke) in run_all.SCENARIOS.items():
        if only and name not in only:
            continue
        row = {}
        for executor in executors:
            samples = [
                run_all.run_one(smoke, executor)["elapsed_seconds"]
                for _ in range(runs)
            ]
            row[executor] = round(statistics.median(samples), 4)
            print(
                f"   {name} [{executor}]: median {row[executor]:.4f}s "
                f"of {sorted(samples)}",
                flush=True,
            )
        scenarios[name] = row
    return scenarios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--executor",
        nargs="+",
        default=["compiled"],
        choices=list(run_all.EXECUTORS),
        help="executors to gate (default: compiled)",
    )
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument("--runs", type=int, default=3, help="runs per median")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="fail when median > baseline * calibration-scale * threshold",
    )
    parser.add_argument(
        "--min-abs-slack",
        type=float,
        default=0.05,
        help="never fail on absolute differences below this many seconds",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the measured medians as the new baseline and exit",
    )
    parser.add_argument(
        "--inject-slowdown",
        type=float,
        default=None,
        metavar="FACTOR",
        help="multiply measured medians by FACTOR (gate self-test)",
    )
    parser.add_argument(
        "--trace-overhead",
        action="store_true",
        help=(
            "gate telemetry overhead instead of the baseline comparison: "
            "run each smoke scenario untraced and with trace=True and fail "
            "when the traced median exceeds --trace-threshold"
        ),
    )
    parser.add_argument(
        "--trace-threshold",
        type=float,
        default=1.10,
        help="traced/untraced ratio allowed by --trace-overhead (default 1.10)",
    )
    parser.add_argument(
        "--service-throughput",
        action="store_true",
        help=(
            "gate the resident-reasoner service instead of the executor "
            "scenarios: median sustained queries/sec on the smoke mixed "
            "workload vs the committed baseline, plus the 2x speedup target"
        ),
    )
    parser.add_argument(
        "--scaling-curves",
        action="store_true",
        help=(
            "gate the scenario-lab knob-grid sweep instead of the scenario "
            "medians: per-curve-point wall-clock cliffs, exact fact counts "
            "and monotone-sanity vs the committed smoke curves "
            "(--executor does not apply; the committed sweep executors run)"
        ),
    )
    parser.add_argument("--only", nargs="*", default=None)
    args = parser.parse_args(argv)

    executors = list(dict.fromkeys(args.executor))
    if args.trace_overhead:
        return gate_trace_overhead(args, executors)
    if args.service_throughput:
        return gate_service_throughput(args)
    if args.scaling_curves:
        return gate_scaling_curves(args)
    print(f"calibrating ({args.runs} runs)...", flush=True)
    calibration = calibrate(args.runs)
    print(f"calibration: {calibration:.4f}s", flush=True)
    print(f"measuring smoke scenarios (median of {args.runs})...", flush=True)
    measured = measure(executors, args.runs, args.only)

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        merged = {"scenarios": {}}
        if baseline_path.exists():
            merged = json.loads(baseline_path.read_text())
            # A partial update (--only / subset of executors) measured on a
            # different machine would otherwise leave retained entries on
            # the old machine's scale under the new calibration.  Rescale
            # everything that was *not* re-measured to the new calibration
            # so the file stays internally consistent.
            old_calibration = merged.get("calibration_seconds")
            if old_calibration:
                rescale = calibration / old_calibration
                for name, row in merged.get("scenarios", {}).items():
                    for executor, value in row.items():
                        if executor not in measured.get(name, {}):
                            row[executor] = round(value * rescale, 4)
        merged.update(
            {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "calibration_seconds": round(calibration, 4),
                "runs": args.runs,
                "threshold": args.threshold,
            }
        )
        for name, row in measured.items():
            merged["scenarios"].setdefault(name, {}).update(row)
        baseline_path.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"baseline updated: {baseline_path}")
        return 0

    if not baseline_path.exists():
        print(
            f"baseline {baseline_path} does not exist; run with "
            f"--update-baseline to create it",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(baseline_path.read_text())
    scale = calibration / baseline["calibration_seconds"]
    print(
        f"machine speed vs baseline machine: {1 / scale:.2f}x "
        f"(calibration {calibration:.4f}s vs {baseline['calibration_seconds']:.4f}s)"
    )

    factor = args.inject_slowdown or 1.0
    if factor != 1.0:
        print(f"!! self-test: injecting a {factor}x slowdown into the medians")

    regressions = []
    checked = 0
    for name, row in measured.items():
        base_row = baseline["scenarios"].get(name, {})
        for executor, median in row.items():
            base = base_row.get(executor)
            if base is None:
                print(f"   {name} [{executor}]: no baseline entry, skipped")
                continue
            checked += 1
            median *= factor
            expected = base * scale
            allowed = expected * args.threshold
            status = "ok"
            if median > allowed and (median - expected) > args.min_abs_slack:
                status = "REGRESSION"
                regressions.append((name, executor, median, expected, allowed))
            print(
                f"   {name} [{executor}]: {median:.4f}s vs expected "
                f"{expected:.4f}s (allowed {allowed:.4f}s) {status}"
            )

    if regressions:
        print(
            f"\nbench gate FAILED: {len(regressions)} regression(s) beyond "
            f"{round((args.threshold - 1) * 100)}% of the scaled baseline:",
            file=sys.stderr,
        )
        for name, executor, median, expected, allowed in regressions:
            print(
                f"  {name} [{executor}]: {median:.4f}s > {allowed:.4f}s "
                f"({median / expected:.2f}x the scaled baseline)",
                file=sys.stderr,
            )
        return 1
    print(f"\nbench gate OK: {checked} (scenario, executor) pairs within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
