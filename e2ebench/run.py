"""The claim-bearing benchmark: text in, answers out, one workload per run.

    python3 e2ebench/run.py --workload iwarded.chase --seed 11 --seconds 12 --trace 0

generates the workload's inputs from the seed, runs repetitions — each a
fresh ``child.py`` process — until ``--seconds`` have been measured, checks
every answer against ``reference.py`` and ``expected.json``, prints every
metric by name and unit and, as the last line, the result object
BENCHMARK.json describes.  ``--trace 1`` reports the per-layer ledger
(``tracing.py``) instead; end-to-end numbers never come from traced
repetitions.  Without ``--workload`` every workload runs, untraced then
traced.  Either way the full report is written to ``--report``, and

    python3 e2ebench/run.py compare A.json B.json

holds two such reports against the bounds of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
from tracing import UNATTRIBUTED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())

#: Fewest repetitions per run, whatever ``--seconds`` says.
MIN_REPS = {"service.mixed": 3}
DEFAULT_MIN_REPS = 5

#: Workload-specific metrics: reported and compared, but outside the
#: BENCHMARK.json contract, whose end-to-end metrics must exist on every
#: workload.  name -> (unit, better, bound).
EXTRAS = {
    "ops_per_s": ("1/s", "higher", 0.10),
    "query_p50_ms": ("ms", "lower", 0.10),
    "query_p95_ms": ("ms", "lower", 0.15),
    "query_p99_ms": ("ms", "lower", None),  # too few samples beyond it to gate
    "upsert_p50_ms": ("ms", "lower", None),  # ~27 samples of 0.4 ms: reported only
    "retract_p50_ms": ("ms", "lower", 0.10),
    "first_answer_ms": ("ms", "lower", None),
}

#: ``compare`` ignores differences below these, so a near-zero value
#: (``setup_s`` of a 2-rule program is a millisecond) never trips a bound.
FLOORS = {"s": 0.005, "ms": 0.05, "MB": 1.0, "1/s": 0.5}


# --------------------------------------------------------------------- running
def run_rep(directory: Path, spans: Optional[Path] = None) -> Dict[str, object]:
    """One repetition in a fresh process; a crash is a failed repetition."""
    command = [sys.executable, str(HERE / "child.py"), "--dir", str(directory)]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    try:
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "error": "no result within 120 s"}
    if done.returncode != 0 or not done.stdout.strip():
        return {"attempted": 1, "failed": 1, "error": done.stderr.strip()[-2000:]}
    return json.loads(done.stdout.splitlines()[-1])


def expected_answers(manifest: Dict[str, object], directory: Path) -> Dict[str, Dict[str, object]]:
    """Reference fingerprints of the ground answers, from ``reference.py`` only."""
    workload = manifest["workload"]
    if workload == "control.sqlite":
        with sqlite3.connect(str(directory / "companies.db")) as connection:
            own = connection.execute('SELECT * FROM "Own"').fetchall()
        return {"Control": reference.digest(reference.company_control(own))}
    if workload == "service.mixed":
        return {}  # checked operation by operation inside the child
    facts = reference.skolem_chase(
        (directory / "program.vada").read_text(),
        json.loads((directory / "rows.json").read_text()),
    )
    return {
        predicate: reference.digest(reference.ground(facts.get(predicate, ())))
        for predicate in manifest["outputs"]
    }


def check_rep(
    rep: Dict[str, object],
    manifest: Dict[str, object],
    expected: Dict[str, Dict[str, object]],
    pins: Dict[str, object],
    directory: Path,
) -> List[str]:
    """Everything wrong with one repetition's answers (empty when correct)."""
    if "error" in rep:
        return [f"crashed: {rep['error'][-300:]}"]
    problems = [] if rep["status"] == "complete" else [f"status {rep['status']}"]
    for predicate, want in expected.items():
        if rep["answers"][predicate]["ground"] != want:
            problems.append(f"{predicate}: ground answers differ from the reference")
    # The pinned fingerprints add the null patterns — except on the
    # streaming executor, whose witnesses are order-sensitive.
    for kind, want in pins.get("answers", {}).items():
        if reference.combined(rep["answers"], kind) != want:
            problems.append(f"{kind} answers differ from expected.json")
    if manifest["workload"] == "control.sqlite":
        with sqlite3.connect(str(directory / "companies.db")) as connection:
            written = connection.execute('SELECT * FROM "Control"').fetchall()
        if reference.digest(written) != expected["Control"]:
            problems.append("Control: rows written back differ from the reference")
    return problems


def input_drift(manifest: Dict[str, object], pins: Dict[str, object]) -> List[str]:
    """Pinned input digests that no longer match (a generator under src/ moved)."""
    workload = manifest["workload"]
    drift = []
    for part in ("program_sha256", "shape_sha256"):
        if manifest[part] != EXPECTED["shapes"][workload][part]:
            drift.append(f"input_drift: {part} of {workload}")
    if manifest["data_sha256"] != pins.get("data_sha256", manifest["data_sha256"]):
        drift.append(f"input_drift: data_sha256 of {workload} at seed {manifest['seed']}")
    return drift


def summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of one metric over the repetitions."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(rep: Dict[str, object], untraced_wall: float) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced repetition.

    Layer times are shares of the traced wall, not seconds: a layer that a
    workload bypasses reads 0, which is a measurement as a share but would
    read as a constant time.  ``traced_wall_s`` converts back.
    """
    ledger = rep["ledger"]
    spans = ledger["boundaries"]
    wall = ledger["wall_s"]
    stats = rep["stats"]
    chase = stats.get("chase", {})
    sources = stats.get("sources", {}).values()
    service = stats.get("service", {})
    resident = service.get("resident", {})
    pull = chase.get("pull_protocol", {})

    def share(*names: str) -> float:
        return sum(spans.get(name, {}).get("self_s", 0.0) for name in names) / wall

    def calls(*names: str) -> int:
        return sum(spans.get(name, {}).get("calls", 0) for name in names)

    def useful(*names: str) -> int:
        return sum(spans.get(name, {}).get("useful", 0) for name in names)

    # The compiled chase asks the strategy, the pipeline asks its wrapper
    # (which asks the strategy): count the outermost question only.
    asked = "check_termination" if calls("check_termination") else "admit"
    return {
        "parse_wall_share": share("parse_program"),
        "rules_parsed": stats["rules_in"],
        "analyse_wall_share": share("analyse_program"),
        "optimize_wall_share": share("eliminate_harmful_joins", "normalize_for_chase"),
        "rules_out": stats["rules_out"],
        "plan_wall_share": share("compile_plan"),
        "joinplan_wall_share": share("compile_join_plans"),
        "plan_nodes": stats.get("plan_nodes", 0),
        "plan_edges": stats.get("plan_edges", 0),
        "schedule_wall_share": share("schedule"),
        "bind_wall_share": share("collect_bindings", "load_bound_facts"),
        "scan_wall_share": share("scan"),
        "rows_scanned": sum(s["rows_scanned"] for s in sources),
        "write_wall_share": share("write_rows"),
        "rows_written": sum(s["rows_written"] for s in sources),
        "chase_self_wall_share": share("chase_run", "continue_rounds"),
        "chase_rounds": chase.get("rounds", resident.get("rounds", 0)),
        "chase_steps": chase.get("chase_steps", 0),
        "derived_per_candidate": ratio(chase.get("chase_steps", 0), chase.get("candidate_facts", 0)),
        "match_wall_share": share("matches"),
        "bindings_yielded": useful("matches"),
        "admit_wall_share": share("admit", "check_termination"),
        "admit_calls": calls(asked),
        "admitted_share": ratio(useful(asked), calls(asked)),
        "add_wall_share": share("add"),
        "add_accepted_share": ratio(useful("add"), calls("add")),
        "remove_wall_share": share("remove"),
        "removes": calls("remove"),
        "answers_wall_share": share("extract_answers"),
        "writeback_wall_share": share("write_output_bindings"),
        "answers": sum(a["ground"]["n"] + a["patterns"]["n"] for a in rep["answers"].values()),
        "pipeline_self_wall_share": share("first_answer", "run_to_completion"),
        "next_calls": pull.get("next_calls", 0),
        "hits_per_next": ratio(pull.get("hits", 0), pull.get("next_calls", 0)),
        "upsert_wall_share": share("upsert"),
        "retract_wall_share": share("retract"),
        "settle_wall_share": share("ensure_settled"),
        "overdeleted": resident.get("overdeleted", 0),
        "rederived_per_overdeleted": ratio(resident.get("rederived", 0), resident.get("overdeleted", 0)),
        "rebuilds": resident.get("full_rebuilds", 0),
        "service_query_wall_share": share("service_query"),
        "cache_hit_share": ratio(service.get("cache_hits", 0), service.get("queries", 0)),
        "invalidations": service.get("invalidations", 0),
        "unattributed_wall_share": ledger["layers_s"].get(UNATTRIBUTED, 0.0) / wall,
        "import_s": rep["import_s"],
        "traced_wall_s": wall,
        "trace_overhead": wall / untraced_wall,
        "absent_boundaries": len(ledger["absent"]),
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    scale: float = 1.0,
    min_reps: Optional[int] = None,
) -> Dict[str, object]:
    """Generate, repeat, check: the report of one workload at one seed.

    ``scale`` and ``min_reps`` exist for ``test_e2e_bench.py`` only.
    """
    if min_reps is None:
        min_reps = MIN_REPS.get(workload, DEFAULT_MIN_REPS)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        source = work / "inputs"
        manifest = inputs.build(workload, seed, source, scale)
        pins: Dict[str, object] = {}
        problems: List[str] = []
        if scale == 1.0:  # expected.json describes the full-scale inputs only
            pins = EXPECTED["seeds"].get(str(seed), {}).get(workload, {})
            problems = input_drift(manifest, pins)
        expected = expected_answers(manifest, source)
        reps: List[Dict[str, object]] = []
        started = time.perf_counter()
        while len(reps) < min_reps or time.perf_counter() - started < seconds:
            directory = source
            if workload == "control.sqlite":
                # Writeback mutates the file: every repetition gets its own.
                directory = work / f"rep{len(reps)}"
                shutil.copytree(source, directory)
            # A traced run opens with one untraced repetition: the base of
            # ``trace_overhead``.
            spans = OUT / f"spans-{workload}.jsonl" if trace and reps else None
            rep = run_rep(directory, spans)
            rep["traced"] = spans is not None
            wrong = check_rep(rep, manifest, expected, pins, directory)
            if wrong:
                rep["failed"] = max(1, rep["failed"])
                problems += [f"rep {len(reps)}: {text}" for text in wrong]
            reps.append(rep)
            if directory is not source:
                shutil.rmtree(directory)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [rep for rep in reps if "error" not in rep]
    report: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "executor": manifest["executor"],
        "inputs": {k: v for k, v in manifest.items() if k.endswith("_sha256")},
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "problems": problems,
        "metrics": {},
    }
    report["failed_share"] = report["failed"] / report["attempted"]
    untraced = [rep for rep in good if not rep["traced"]]
    if not trace:
        for metric in SPEC["end_to_end"]:
            values = [rep[metric["name"]] for rep in untraced]
            if values:
                report["metrics"][metric["name"]] = dict(summary(values), unit=metric["unit"])
        for name in sorted({key for rep in untraced for key in rep["extras"]}):
            values = [rep["extras"][name] for rep in untraced]
            report["metrics"][name] = dict(summary(values), unit=EXTRAS[name][0])
    else:
        traced = [rep for rep in good if rep["traced"]]
        if traced and untraced:
            base = untraced[0]["setup_s"] + untraced[0]["reason_s"]
            rows = [layer_metrics(rep, base) for rep in traced]
            for metric in SPEC["per_layer"]:
                values = [row[metric["name"]] for row in rows]
                report["metrics"][metric["name"]] = dict(summary(values), unit=metric["unit"])
            ledger = traced[-1]["ledger"]
            report["ledger"] = {
                "wall_s": ledger["wall_s"],
                "layer_share": {
                    layer: ratio(value, ledger["wall_s"])
                    for layer, value in sorted(ledger["layers_s"].items())
                },
                "absent": ledger["absent"],
                "spans": ledger["spans"],
            }
    return report


# -------------------------------------------------------------------- printing
def print_report(report: Dict[str, object]) -> None:
    print(
        f"== {report['workload']} (seed {report['seed']}, {report['executor']}) "
        f"failed {report['failed']}/{report['attempted']} "
        f"failed_share {report['failed_share']:.4f} ratio"
    )
    for name, m in report["metrics"].items():
        print(
            f"  {name:<28} {m['median']:>14.6g} {m['unit']:<6} "
            f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]"
        )
    ledger = report.get("ledger")
    if ledger:
        print(f"  ledger: share of the traced wall ({ledger['wall_s']:.3f} s, {ledger['spans']} spans)")
        for layer, share in sorted(ledger["layer_share"].items(), key=lambda item: -item[1]):
            print(f"    {layer:<24} {share:7.2%}")
        print(f"    absent boundaries: {', '.join(ledger['absent']) or 'none'}")
    for problem in report["problems"]:
        print(f"  PROBLEM {problem}")


def contract_line(report: Dict[str, object]) -> str:
    """The one JSON object the driver reads from the last line."""
    return json.dumps(
        {
            "correct": report["failed"] == 0 and not report["problems"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": m["median"], "unit": m["unit"]}
                for name, m in report["metrics"].items()
                if name not in EXTRAS
            },
        }
    )


# ------------------------------------------------------------------- comparing
def compare(path_a: str, path_b: str) -> int:
    """Row per (metric, workload): better / same / worse / unresolved."""
    bounds = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}
    bounds.update({name: (better, bound) for name, (_, better, bound) in EXTRAS.items()})
    sides = [json.loads(Path(p).read_text())["untraced"] for p in (path_a, path_b)]
    bad = 0
    for workload in sides[0]:
        if workload not in sides[1]:
            continue
        a, b = sides[0][workload], sides[1][workload]
        if b["failed_share"] > a["failed_share"]:
            bad += 1
            print(f"{workload:<16} failed_share            {a['failed_share']:.4f} -> {b['failed_share']:.4f} ratio  worse")
        for name, ma in a["metrics"].items():
            better, bound = bounds[name]
            mb = b["metrics"].get(name)
            if mb is None or bound is None:
                continue
            change = (mb["median"] - ma["median"]) * (1 if better == "lower" else -1)
            allowed = max(bound * ma["median"], FLOORS.get(ma["unit"], 0.0))
            if max(m["q3"] - m["q1"] for m in (ma, mb)) > allowed:
                verdict = "unresolved"
            elif abs(change) <= allowed:
                verdict = "same"
            else:
                verdict = "worse" if change > 0 else "better"
            bad += verdict == "worse"
            print(
                f"{workload:<16} {name:<22} {ma['median']:>12.6g} -> {mb['median']:<12.6g} "
                f"{ma['unit']:<5} {ratio(mb['median'] - ma['median'], ma['median']):+7.2%} "
                f"(bound {bound:.0%})  {verdict}"
            )
    return 1 if bad else 0


# ------------------------------------------------------------------------ main
def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--report", type=Path, default=OUT / "report.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(inputs.WORKLOADS)
    passes = [bool(args.trace)] if args.trace is not None else [False, True]
    started = time.perf_counter()
    full: Dict[str, object] = {"seed": args.seed, "seconds": args.seconds, "untraced": {}, "traced": {}}
    for trace in passes:
        for workload in workloads:
            report = measure(workload, args.seed, args.seconds, trace=trace)
            full["traced" if trace else "untraced"][workload] = report
            print_report(report)
    full["wall_s"] = time.perf_counter() - started
    args.report.parent.mkdir(parents=True, exist_ok=True)
    args.report.write_text(json.dumps(full, indent=1))
    print(f"report written to {args.report} after {full['wall_s']:.1f} s")
    reports = [r for side in ("untraced", "traced") for r in full[side].values()]
    if args.workload and args.trace is not None:
        print(contract_line(reports[0]))
    return 1 if any(r["failed"] or r["problems"] for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
