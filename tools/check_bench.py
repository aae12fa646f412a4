#!/usr/bin/env python
"""CI benchmark gates: scaling curves, service throughput, trace overhead.

Exactly one gate runs per call.  Each one measures at smoke scale, then
judges the numbers; measuring and judging are separate functions, so the
judges can be fed synthetic numbers (``tests/test_check_bench.py``).

``--scaling-curves``
    Re-runs the smoke knob grid of :mod:`repro.workloads.sweep` (every
    point answer-checked against ``naive``) and compares it with the
    ``scaling_curves`` entry of ``benchmarks/baseline_smoke.json``.  It
    fails when the grid drifted either way (a baseline point was not
    measured, or a measured point has no baseline), when a derived or
    peak-resident fact count differs from the baseline, when a point or the
    grid's total time got slower than its scaled baseline, or when the
    recursion-depth or fact-size curve stops being monotone in derived
    facts.
``--service-throughput``
    Replays the smoke mixed update/query stream through the resident
    ``ReasoningService`` and a from-scratch service.  It fails when the
    median queries/sec fell below the scaled ``service_throughput`` entry,
    when the resident speedup over from-scratch drops below 2x, or when the
    two services disagree, at any query of the stream or at its end, on the
    ground ``Reach`` answers or on the nodes of the ``Audit`` answers (its
    second column is a labelled null).
``--trace-overhead``
    Runs eleven smoke scenarios untraced and with ``trace=True`` on the
    compiled and streaming executors and fails when a traced median exceeds
    its untraced one by more than 10 %.  The untraced run is the baseline,
    so no file is read.

Wall-clock times do not travel between machines, so every baseline entry
stores the time of a fixed arithmetic loop (:func:`calibrate`) and the
expected times are scaled by ``calibration_now / calibration_baseline``.
No time fails unless it is over its expectation both by the threshold
factor and by an absolute noise floor (:func:`within`).

``--update-baseline`` writes the measured numbers as the gate's entry and
leaves the other entries as they are.  ``--inject-slowdown F`` slows the
measured side down by ``F`` before judging, to prove the gate trips.

Usage::

    python tools/check_bench.py --scaling-curves
    python tools/check_bench.py --service-throughput --update-baseline
    python tools/check_bench.py --trace-overhead --inject-slowdown 2
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.parser import parse_atom  # noqa: E402
from repro.engine.reasoner import VadalogReasoner, _filter_answers  # noqa: E402
from repro.engine.service import ReasoningService  # noqa: E402
from repro.workloads import (  # noqa: E402
    arity_scenario,
    atom_count_scenario,
    control_scenario,
    dbsize_scenario,
    doctors_scenario,
    ibench_scenario,
    iwarded_scenario,
    lubm_scenario,
    psc_scenario,
    rule_count_scenario,
    service_operations,
    service_scenario,
    strong_links_scenario,
)
from repro.workloads.sweep import REFERENCE_EXECUTOR, SWEEP_EXECUTORS, run_sweep  # noqa: E402

BASELINE = REPO_ROOT / "benchmarks" / "baseline_smoke.json"
#: Samples per median.
RUNS = 3
#: A time fails only when it exceeds its expectation by this factor ...
THRESHOLD = 1.25
#: ... and by this many seconds: smoke runs are noise below it.
MIN_ABS_SLACK = 0.05
#: The scaling gate's floor.  A grid point runs in 0.02-0.2 s, where
#: scheduler noise exceeds the threshold; a genuine cliff costs seconds.
SCALING_MIN_ABS_SLACK = 0.15
#: Every smoke grid point sits under that floor, so only the grid's total
#: time can show a uniform slowdown.  Clean runs on a shared 2-vCPU VM
#: read 0.88-1.40x their scaled baseline total; the calibration loop does
#: not track the sweep's drift closely enough for ``THRESHOLD``.
GRID_TOTAL_THRESHOLD = 1.5
#: Derived-fact curves that are monotone by construction: more source
#: facts or deeper recursion can only add derivations.
MONOTONE_AXES = ("recursion-depth", "fact-size")
#: Traced over untraced time the trace gate allows.
TRACE_THRESHOLD = 1.10
TRACE_EXECUTORS = ("compiled", "streaming")
#: The resident service must answer at least this many times the
#: queries/sec of the from-scratch service.
SERVICE_SPEEDUP_TARGET = 2.0
SERVICE_NODES = 30
#: 600 operations replay in ~150 ms, so a 2x slowdown clears the 50 ms
#: floor; 150 operations replayed in ~35 ms and hid it.
SERVICE_OPS = 600
SERVICE_RATIO = (1, 10)

#: The smoke scenarios of the trace gate, from the figures of the paper's
#: Section 6 evaluation.
SMOKE_SCENARIOS: Dict[str, Callable] = {
    "fig5a-iwarded": lambda: iwarded_scenario("synthA", facts_per_predicate=3),
    "fig5b-ibench": lambda: ibench_scenario("STB-128", source_facts=2),
    "fig5c-psc": lambda: psc_scenario(n_companies=20, n_persons=12),
    "fig5d-strong-links": lambda: strong_links_scenario(
        n_companies=12, n_persons=10, threshold=2
    ),
    "fig5gh-doctors": lambda: doctors_scenario(60),
    "fig5i-lubm": lambda: lubm_scenario(100),
    "fig6-control": lambda: control_scenario(30),
    "fig8a-dbsize": lambda: dbsize_scenario(6),
    "fig8b-rules": lambda: rule_count_scenario(2, facts_per_predicate=3),
    "fig8c-atoms": lambda: atom_count_scenario(3, facts_per_predicate=3),
    "fig8d-arity": lambda: arity_scenario(4, facts_per_predicate=3),
}


# ------------------------------------------------------------- shared core
def median_of(sample: Callable[[], Sequence[float]], runs: int = RUNS) -> List[float]:
    """Per-position medians over ``runs`` calls of ``sample``.

    One call returns a tuple of readings taken back to back, so paired
    readings see the same machine speed.
    """
    readings = [sample() for _ in range(runs)]
    return [statistics.median(column) for column in zip(*readings)]


def _spin() -> Tuple[float]:
    started = time.perf_counter()
    accumulator = 0
    for i in range(2_000_000):
        accumulator += i % 7
    if accumulator < 0:  # pragma: no cover - keeps the loop un-eliminable
        raise AssertionError
    return (time.perf_counter() - started,)


def calibrate() -> float:
    """Median time of a fixed pure-Python arithmetic loop.

    Integer arithmetic without allocation is close to the interpreter
    profile of the join loops, so machine speed scales both alike.
    """
    calibration = median_of(_spin)[0]
    print(f"calibration: {calibration:.4f}s", flush=True)
    return calibration


def within(measured: float, expected: float, threshold: float, min_slack: float) -> bool:
    """False only when ``measured`` exceeds ``expected`` by the factor
    ``threshold`` and by ``min_slack`` seconds."""
    return measured <= expected * threshold or measured - expected <= min_slack


def load_entry(key: str) -> Optional[dict]:
    """Baseline entry ``key``, or None after saying how to create it."""
    entry = json.loads(BASELINE.read_text()).get(key) if BASELINE.exists() else None
    if entry is None:
        flag = "--" + key.replace("_", "-")
        print(
            f"{BASELINE} has no {key} entry; run with {flag} --update-baseline "
            f"to add it",
            file=sys.stderr,
        )
    return entry


def store_entry(key: str, entry: dict, calibration: float) -> int:
    """Write ``entry`` under ``key``; the other entries stay as they are."""
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    baseline[key] = {
        **entry,
        # Each entry carries its own calibration, so updating one never
        # skews another.
        "calibration_seconds": round(calibration, 4),
        "python": platform.python_version(),
        "runs": RUNS,
    }
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"baseline updated: {BASELINE} [{key}]")
    return 0


def machine_scale(entry: dict, calibration: float) -> float:
    """How much slower this machine is than the one behind ``entry``."""
    scale = calibration / entry["calibration_seconds"]
    print(
        f"machine speed vs baseline machine: {1 / scale:.2f}x "
        f"(calibration {calibration:.4f}s vs {entry['calibration_seconds']:.4f}s)"
    )
    return scale


def verdict(gate: str, failures: List[str], passed: str) -> int:
    """Print the gate's verdict; the exit code is 1 on any failure."""
    if failures:
        print(f"\n{gate} gate FAILED: {len(failures)} violation(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\n{gate} gate OK: {passed}")
    return 0


# ---------------------------------------------------------- scaling curves
def measure_scaling() -> List[dict]:
    """Curve points of the smoke grid, in sweep order."""
    print(f"sweeping the smoke knob grid (median of {RUNS} per point)...", flush=True)
    section = run_sweep(smoke=True, measure_runs=RUNS)
    points = [point for curve in section["axes"].values() for point in curve["points"]]
    for axis in section["axes"]:
        for executor in section["executors"]:
            trail = " ".join(
                f"{p['value']}:{p['elapsed_seconds']:.3f}s/{p['derived_facts']}f"
                for p in points
                if p["axis"] == axis and p["executor"] == executor
            )
            print(f"   {axis} [{executor}]: {trail}", flush=True)
    return points


def _point_key(point: dict) -> Tuple[str, str, str]:
    return point["axis"], str(point["value"]), point["executor"]


def judge_scaling(
    measured: List[dict], baseline: List[dict], scale: float, slowdown: float = 1.0
) -> List[str]:
    """Violations of the measured curve points (in sweep order)."""
    now = {_point_key(p): p for p in measured}
    then = {_point_key(p): p for p in baseline}
    failures = [
        f"{axis}={value} [{executor}]: baseline point was not measured (grid drifted?)"
        for axis, value, executor in sorted(then.keys() - now.keys())
    ] + [
        f"{axis}={value} [{executor}]: measured point has no baseline (grid drifted?)"
        for axis, value, executor in sorted(now.keys() - then.keys())
    ]
    total = total_expected = 0.0
    for key in sorted(now.keys() & then.keys()):
        point, base = now[key], then[key]
        label = "{}={} [{}]".format(*key)
        # Fact counts are deterministic: any drift is a logic change.
        for metric in ("derived_facts", "peak_resident_facts"):
            if point[metric] != base[metric]:
                failures.append(f"{label}: {metric} {point[metric]} != baseline {base[metric]}")
        elapsed = point["elapsed_seconds"] * slowdown
        expected = base["elapsed_seconds"] * scale
        total += elapsed
        total_expected += expected
        if not within(elapsed, expected, THRESHOLD, SCALING_MIN_ABS_SLACK):
            failures.append(
                f"{label}: {elapsed:.4f}s is {elapsed / expected:.2f}x the scaled "
                f"baseline {expected:.4f}s"
            )
    if not within(total, total_expected, GRID_TOTAL_THRESHOLD, SCALING_MIN_ABS_SLACK):
        failures.append(
            f"grid total: {total:.4f}s is {total / total_expected:.2f}x the scaled "
            f"baseline {total_expected:.4f}s"
        )
    for axis in MONOTONE_AXES:
        for executor in sorted({p["executor"] for p in measured}):
            series = [
                (p["value"], p["derived_facts"])
                for p in measured
                if p["axis"] == axis and p["executor"] == executor
            ]
            derived = [d for _value, d in series]
            if derived != sorted(derived):
                failures.append(f"{axis} [{executor}]: derived facts not monotone: {series}")
    return failures


def gate_scaling_curves(update: bool, slowdown: float) -> int:
    calibration = calibrate()
    points = measure_scaling()
    if update:
        return store_entry(
            "scaling_curves",
            {
                "executors": list(SWEEP_EXECUTORS),
                "answer_reference": REFERENCE_EXECUTOR,
                "points": [
                    {
                        "axis": p["axis"],
                        "value": p["value"],
                        "executor": p["executor"],
                        "elapsed_seconds": p["elapsed_seconds"],
                        "derived_facts": p["derived_facts"],
                        "peak_resident_facts": p["peak_resident_facts"],
                    }
                    for p in sorted(points, key=_point_key)
                ],
            },
            calibration,
        )
    entry = load_entry("scaling_curves")
    if entry is None:
        return 2
    failures = judge_scaling(
        points, entry["points"], machine_scale(entry, calibration), slowdown
    )
    return verdict(
        "scaling",
        failures,
        f"{len(points)} curve points within budget, fact counts exact, "
        f"monotone axes monotone",
    )


# ------------------------------------------------------- service throughput
def _final_outputs(answers):
    """What both services must agree on, per query and at the end of the
    stream: ``Reach`` and the audited nodes."""
    return {
        "Reach": sorted(answers.ground_tuples("Reach")),
        "Audit": sorted({row[0] for row in answers.tuples("Audit")}),
    }


def _query_outputs(answers, query):
    """:func:`_final_outputs` of one query's answers: a point query's of
    its own predicate only."""
    outputs = _final_outputs(answers)
    if query is None:
        return outputs
    predicate = parse_atom(query).predicate
    return {predicate: outputs[predicate]}


def _replay_resident(scenario, operations):
    """(seconds, query latencies, each query's answers, final outputs)
    through the resident service."""
    service = ReasoningService(scenario.program.copy(), database=scenario.database)
    latencies = []
    answers = []
    started = time.perf_counter()
    for kind, payload in operations:
        if kind == "upsert":
            service.upsert(payload)
        elif kind == "retract":
            service.retract(payload)
        else:
            t0 = time.perf_counter()
            answer = service.query(payload)
            latencies.append(time.perf_counter() - t0)
            answers.append(answer)
    elapsed = time.perf_counter() - started
    return elapsed, latencies, answers, _final_outputs(service.query())


def _replay_scratch(scenario, operations):
    """(seconds, each query's answers, final outputs) through the
    from-scratch service.

    The honest non-resident service: answers and the point-query index over
    them are memoized between writes, but every write drops them and the
    next query pays a full chase.
    """
    reasoner = VadalogReasoner(scenario.program.copy())
    edges = {tuple(row) for row in scenario.database.relation("Edge")}
    sources = [tuple(row) for row in scenario.database.relation("Source")]
    result = None
    answers = []
    started = time.perf_counter()
    for kind, payload in operations:
        if kind == "upsert":
            edges.update(tuple(row) for row in payload.get("Edge", ()))
            sources.extend(tuple(row) for row in payload.get("Source", ()))
            result = None
        elif kind == "retract":
            edges.difference_update(tuple(row) for row in payload.get("Edge", ()))
            result = None
        else:
            if result is None:
                result = reasoner.reason(
                    database={"Edge": sorted(edges), "Source": sources},
                    outputs=scenario.outputs,
                )
                index = {}
            if payload is None:
                answers.append(result.answers)
            else:
                answers.append(_filter_answers(result.answers, parse_atom(payload), index))
    elapsed = time.perf_counter() - started
    final = reasoner.reason(
        database={"Edge": sorted(edges), "Source": sources}, outputs=scenario.outputs
    )
    return elapsed, answers, _final_outputs(final.answers)


def replay_service() -> Tuple[int, float, float, float]:
    """One paired replay: (queries, resident q/s, speedup, resident p50 s).

    Both services replay the identical stream, so the speedup is a paired
    sample that machine drift cancels out of.
    """
    scenario = service_scenario(n_nodes=SERVICE_NODES)
    operations = list(
        service_operations(scenario, n_ops=SERVICE_OPS, update_ratio=SERVICE_RATIO)
    )
    resident_seconds, latencies, resident_answers, resident_final = _replay_resident(
        scenario, operations
    )
    scratch_seconds, scratch_answers, scratch_final = _replay_scratch(
        service_scenario(n_nodes=SERVICE_NODES), operations
    )
    queries = [payload for kind, payload in operations if kind == "query"]
    for number, (query, resident, scratch) in enumerate(
        zip(queries, resident_answers, scratch_answers)
    ):
        if _query_outputs(resident, query) != _query_outputs(scratch, query):
            raise SystemExit(
                "service gate FAILED: resident and from-scratch services disagree "
                f"at query {number} ({query!r}) of the stream (correctness, not noise)"
            )
    for predicate, rows in resident_final.items():
        if rows != scratch_final[predicate]:
            raise SystemExit(
                "service gate FAILED: resident and from-scratch services disagree "
                f"on the final {predicate} relation (correctness, not noise)"
            )
    return (
        len(latencies),
        len(latencies) / resident_seconds,
        scratch_seconds / resident_seconds,
        statistics.median(latencies),
    )


def measure_service() -> dict:
    print(f"replaying the smoke service stream (median of {RUNS})...", flush=True)
    queries, qps, speedup, p50 = median_of(replay_service)
    print(f"   resident {qps:.1f} q/s, speedup {speedup:.2f}x", flush=True)
    return {
        "queries": queries,
        "queries_per_second": round(qps, 1),
        "speedup_vs_scratch": round(speedup, 2),
        "p50_query_seconds": round(p50, 6),
    }


def judge_service(
    measured: dict, entry: dict, scale: float, slowdown: float = 1.0
) -> List[str]:
    failures = []
    queries = measured["queries"]
    qps = measured["queries_per_second"] / slowdown
    # Throughput scales inversely with machine slowness.  It is judged as
    # the time the stream's queries take, so the noise floor bounds the
    # gap over the whole stream.
    expected_qps = entry["queries_per_second"] / scale
    elapsed = queries / qps if qps else float("inf")
    if not within(elapsed, queries / expected_qps, THRESHOLD, MIN_ABS_SLACK):
        failures.append(
            f"throughput {qps:.1f} q/s < allowed {expected_qps / THRESHOLD:.1f} q/s "
            f"(expected {expected_qps:.1f} q/s over {queries} queries)"
        )
    # Both services run on this machine, so the speedup needs no scaling.
    speedup = measured["speedup_vs_scratch"] / slowdown
    if speedup < SERVICE_SPEEDUP_TARGET:
        failures.append(
            f"speedup {speedup:.2f}x < {SERVICE_SPEEDUP_TARGET}x target over the "
            f"from-scratch service"
        )
    return failures


def gate_service_throughput(update: bool, slowdown: float) -> int:
    calibration = calibrate()
    measured = measure_service()
    if update:
        return store_entry(
            "service_throughput",
            {
                "ratio": "{}:{}".format(*SERVICE_RATIO),
                "queries_per_second": measured["queries_per_second"],
                "speedup_vs_scratch": measured["speedup_vs_scratch"],
                "p50_query_seconds": measured["p50_query_seconds"],
            },
            calibration,
        )
    entry = load_entry("service_throughput")
    if entry is None:
        return 2
    failures = judge_service(measured, entry, machine_scale(entry, calibration), slowdown)
    return verdict("service", failures, "throughput and speedup within budget")


# ----------------------------------------------------------- trace overhead
def _timed_run(factory, executor: str, trace: bool) -> float:
    scenario = factory()
    started = time.perf_counter()
    reasoner = VadalogReasoner(
        scenario.program.copy(), executor=executor, base_path=scenario.base_path
    )
    reasoner.reason(database=scenario.database, outputs=scenario.outputs, trace=trace)
    return time.perf_counter() - started


def measure_trace_overhead() -> Dict[str, Tuple[float, float]]:
    """``"scenario [executor]" -> (untraced, traced)`` medians of interleaved pairs."""
    print(f"measuring telemetry overhead (median of {RUNS} pairs)...", flush=True)
    pairs = {}
    for name, factory in SMOKE_SCENARIOS.items():
        for executor in TRACE_EXECUTORS:
            untraced, traced = median_of(
                lambda: (
                    _timed_run(factory, executor, trace=False),
                    _timed_run(factory, executor, trace=True),
                )
            )
            label = f"{name} [{executor}]"
            pairs[label] = (untraced, traced)
            print(f"   {label}: untraced {untraced:.4f}s traced {traced:.4f}s", flush=True)
    return pairs


def judge_trace(pairs: Dict[str, Tuple[float, float]], slowdown: float = 1.0) -> List[str]:
    failures = []
    for label, (untraced, traced) in pairs.items():
        traced *= slowdown
        if not within(traced, untraced, TRACE_THRESHOLD, MIN_ABS_SLACK):
            failures.append(
                f"{label}: traced {traced:.4f}s is {traced / untraced:.2f}x the "
                f"untraced {untraced:.4f}s"
            )
    return failures


def gate_trace_overhead(update: bool, slowdown: float) -> int:
    pairs = measure_trace_overhead()
    return verdict(
        "telemetry-overhead",
        judge_trace(pairs, slowdown),
        f"{len(pairs)} (scenario, executor) pairs within the traced-run allowance",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    gates = parser.add_mutually_exclusive_group(required=True)
    for flag, gate, what in (
        ("--scaling-curves", gate_scaling_curves, "the smoke knob-grid sweep"),
        ("--service-throughput", gate_service_throughput, "the resident service"),
        ("--trace-overhead", gate_trace_overhead, "traced vs untraced smoke runs"),
    ):
        gates.add_argument(
            flag, dest="gate", action="store_const", const=gate, help=f"gate {what}"
        )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the measured numbers as the gate's baseline entry and exit",
    )
    parser.add_argument(
        "--inject-slowdown",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="slow the measured side down by FACTOR before judging (gate self-test)",
    )
    args = parser.parse_args(argv)
    if args.update_baseline and args.gate is gate_trace_overhead:
        parser.error("--trace-overhead has no baseline to update")
    if args.inject_slowdown != 1.0:
        print(f"!! self-test: injecting a {args.inject_slowdown}x slowdown")
    return args.gate(args.update_baseline, args.inject_slowdown)


if __name__ == "__main__":
    raise SystemExit(main())
