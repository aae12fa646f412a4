"""One repetition in a fresh process: time the public entry points, report JSON.

``run.py`` starts this file once per repetition (``PYTHONHASHSEED=0``, one
thread), so no repetition sees another's heap or warm caches.  Only the
calls a user makes are timed — ``VadalogReasoner(text, ...)``, ``reason()``,
``stream()``/``first_answer()``/``complete()``, ``ReasoningService(...)`` and
its ``query``/``upsert``/``retract`` — and the answers are fingerprinted (or,
for the service, checked against ``reference.ReachOracle``) outside the
timed regions.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from reference import ReachOracle, digest


def _null_pattern(values, null_type) -> tuple:
    """A fact's values with its nulls renamed by order of first occurrence."""
    seen: Dict[object, str] = {}
    return tuple(
        seen.setdefault(v, f"_{len(seen)}") if isinstance(v, null_type) else v
        for v in values
    )


def fingerprint_answers(answers, outputs: List[str]) -> Dict[str, object]:
    """Per output predicate: ground answers and the set of null patterns."""
    from repro import Null

    report = {}
    for predicate in outputs:
        facts = answers.facts(predicate)
        report[predicate] = {
            "ground": digest(f.values() for f in facts if not f.has_nulls),
            "patterns": digest(
                _null_pattern(f.values(), Null) for f in facts if f.has_nulls
            ),
        }
    return report


def run_batch(manifest, text: str, rows, directory: Path, root) -> Dict[str, object]:
    """``root(name)`` opens the trace's root span around a public entry point."""
    from repro import VadalogReasoner

    streaming = manifest["executor"] == "streaming"
    extras: Dict[str, float] = {}
    clock = time.perf_counter
    t0 = clock()
    with root("setup"):
        reasoner = VadalogReasoner(
            text, executor=manifest["executor"], base_path=str(directory)
        )
    t1 = clock()
    with root("reason"):
        if streaming:
            result = reasoner.stream(database=rows)
            result.first_answer()
            extras["first_answer_ms"] = (clock() - t1) * 1e3
            result.complete()
        else:
            result = reasoner.reason(database=rows)
    t2 = clock()
    return {
        "setup_s": t1 - t0,
        "reason_s": t2 - t1,
        "extras": extras,
        "attempted": 1,
        "failed": 0 if result.status == "complete" else 1,
        "status": result.status,
        "answers": fingerprint_answers(result.answers, manifest["outputs"]),
        "stats": {
            "chase": result.chase.stats(),
            "sources": result.source_stats,
            "rules_in": len(reasoner.original_program.rules),
            "rules_out": len(reasoner.program.rules),
            "plan_nodes": len(reasoner.plan.nodes),
            "plan_edges": len(reasoner.plan.edges),
        },
    }


def peak_rss_mb() -> float:
    """This process's high-water RSS.

    ``VmHWM`` rather than ``ru_maxrss``: the latter survives ``exec``, so a
    child lighter than the ``run.py`` that started it would report its
    parent's peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def run_service(text: str, rows, ops, root) -> Dict[str, object]:
    """Closed loop, one client: the next operation starts when this one ends.

    The client's own work between operations (checking each answer against
    the oracle) is outside every latency and outside ``reason_s``, which is
    the sum of the operation latencies.
    """
    from repro import ReasoningService

    clock = time.perf_counter
    oracle = ReachOracle(rows["Edge"], [row[0] for row in rows["Source"]])
    t0 = clock()
    with root("setup"):
        service = ReasoningService(text, database=rows)
    setup_s = clock() - t0
    latencies: Dict[str, List[float]] = {"query": [], "upsert": [], "retract": []}
    failed = 0
    for kind, payload in ops:
        with root(kind):
            start = clock()
            try:
                if kind == "query":
                    answers = service.query(payload)
                else:
                    getattr(service, kind)(payload)
            except Exception as exc:  # an operation that raises is a failed one
                print(f"{kind} {payload!r} raised {exc!r}", file=sys.stderr)
                failed += 1
                continue
            finally:
                latencies[kind].append(clock() - start)
        if kind != "query":
            for edge in payload["Edge"]:
                getattr(oracle, kind)(edge)
        elif payload is None:
            good = answers.ground_tuples("Reach") == oracle.reach_all() and {
                row[0] for row in answers.tuples("Audit")
            } == oracle.audited()
            failed += not good
        else:
            start_node = payload.split('"')[1]
            got = {row[1] for row in answers.ground_tuples("Reach")}
            failed += got != oracle.reach_from(start_node)
    final = service.query(None)
    failed += final.ground_tuples("Reach") != oracle.reach_all()
    reason_s = sum(sum(values) for values in latencies.values())
    queries = latencies["query"]
    return {
        "setup_s": setup_s,
        "reason_s": reason_s,
        "extras": {
            "ops_per_s": len(ops) / reason_s,
            "query_p50_ms": _percentile(queries, 0.50) * 1e3,
            "query_p95_ms": _percentile(queries, 0.95) * 1e3,
            "query_p99_ms": _percentile(queries, 0.99) * 1e3,
            "upsert_p50_ms": _percentile(latencies["upsert"], 0.50) * 1e3,
            "retract_p50_ms": _percentile(latencies["retract"], 0.50) * 1e3,
        },
        "attempted": len(ops) + 1,
        "failed": int(failed),
        "status": "complete",
        "answers": {},
        "stats": {
            "service": service.stats(),
            "rules_in": text.count(":-"),
            "rules_out": len(service.resident.program.rules),
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", type=Path, required=True, help="inputs written by inputs.build")
    parser.add_argument("--executor", help="override the manifest's executor (reference runs)")
    parser.add_argument("--spans", type=Path, help="trace the layers and write the spans here")
    args = parser.parse_args(argv)

    manifest = json.loads((args.dir / "manifest.json").read_text())
    if args.executor:
        manifest["executor"] = args.executor
    text = (args.dir / "program.vada").read_text()
    rows = None  # control.sqlite: the rows reach the program through @bind only
    if (args.dir / "rows.json").exists():
        rows = json.loads((args.dir / "rows.json").read_text())
        rows = {name: [tuple(row) for row in table] for name, table in rows.items()}

    started = time.perf_counter()
    import repro  # noqa: F401  (timed: a fresh process pays it before any answer)

    import_s = time.perf_counter() - started
    tracer = None
    root = lambda name: nullcontext()  # noqa: E731  (untraced: no root spans)
    if args.spans is not None:
        from tracing import Tracer

        tracer = Tracer(run_id=f"{manifest['workload']}:{manifest['seed']}")
        tracer.install()
        root = tracer.root

    if manifest["workload"] == "service.mixed":
        ops = json.loads((args.dir / "ops.json").read_text())
        result = run_service(text, rows, ops, root)
    else:
        result = run_batch(manifest, text, rows, args.dir, root)
    result["peak_rss_mb"] = peak_rss_mb()
    result["import_s"] = import_s
    if tracer is not None:
        result["ledger"] = tracer.ledger()
        tracer.write(args.spans)
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
