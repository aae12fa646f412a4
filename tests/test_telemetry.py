"""Telemetry layer: span tracing across all three executors.

Pins the observability contract:

* every executor produces a well-formed span tree under one ``run`` root
  (valid parent ids, children contained in the parent's interval, every
  span closed);
* the span totals reconcile with ``ReasoningResult`` — the run span's
  counters equal the chase stats, and per-rule fires sum to
  ``chase_steps``;
* the null tracer is the identity: ``trace=None`` runs carry no tracer
  and produce the same answers as traced runs;
* JSONL traces round-trip through ``load_jsonl`` and export to the Chrome
  Trace Event Format, and ``tools/trace_view.py`` renders them;
* injected datasource faults surface as error-tagged retry spans;
* the streaming executor records both its clocks (``t_create`` /
  ``t_first_pull``) on the chase span.
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import JsonlTraceSink, Tracer, reason
from repro.core.limits import STATUS_BUDGET, STATUS_COMPLETE, ExecutionBudget
from repro.engine.reasoner import EXECUTORS, VadalogReasoner
from repro.obs.export import load_jsonl, to_perfetto, write_perfetto
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import aggregate_rules, render_trace, top_rules
from repro.obs.trace import RingBufferSink, Span, as_tracer, get_tracer
from repro.testing import FaultSpec, inject

REPO_ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """
@output("T").
T(X, Y) :- E(X, Y).
T(X, Z) :- T(X, Y), E(Y, Z).
"""

CHAIN_ROWS = [(i, i + 1) for i in range(12)]
DB = {"E": CHAIN_ROWS}


def traced_run(executor, **kwargs):
    result = reason(PROGRAM, database=DB, executor=executor, trace=True, **kwargs)
    assert result.trace is not None
    return result


# ---------------------------------------------------------------------------
# Span tree invariants, all three executors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("executor", EXECUTORS)
def test_span_tree_well_formed(executor):
    result = traced_run(executor)
    spans = result.trace.spans()
    assert spans, "traced run produced no spans"
    by_id = {span.span_id: span for span in spans}
    roots = [span for span in spans if span.parent_id is None]
    assert [span.kind for span in roots] == ["run"]
    for span in spans:
        assert span.t_end is not None, f"span {span.kind}:{span.name} never ended"
        assert span.t_end >= span.t_start
        assert span.status in ("ok", "error")
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert span.t_start >= parent.t_start - 1e-9
            assert span.t_end <= parent.t_end + 1e-9


@pytest.mark.parametrize("executor", EXECUTORS)
def test_totals_reconcile_with_result(executor):
    result = traced_run(executor)
    (run_span,) = result.trace.spans("run")
    chase = result.chase
    assert run_span.counters["facts"] == len(chase.store)
    assert run_span.counters["derived"] == chase.chase_steps
    assert run_span.counters["rounds"] == chase.rounds
    assert run_span.counters["peak_resident_facts"] == chase.peak_resident_facts
    assert run_span.attrs["status"] == STATUS_COMPLETE
    rule_fires = sum(
        span.counters.get("fires", 0) for span in result.trace.spans("rule")
    )
    assert rule_fires == chase.chase_steps
    (chase_span,) = result.trace.spans("chase")
    assert chase_span.counters["derived"] == chase.chase_steps
    assert chase_span.attrs["executor"] == executor


@pytest.mark.parametrize("executor", ("compiled", "streaming"))
def test_round_spans_cover_every_round(executor):
    result = traced_run(executor)
    rounds = result.trace.spans("round")
    assert len(rounds) == result.chase.rounds
    assert [span.attrs["round"] for span in rounds] == list(
        range(1, result.chase.rounds + 1)
    )
    derived = sum(span.counters["derived"] for span in rounds)
    assert derived == result.chase.chase_steps


# ---------------------------------------------------------------------------
# Null tracer: identity, no leakage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("executor", EXECUTORS)
def test_untraced_run_is_identical(executor):
    untraced = reason(PROGRAM, database=DB, executor=executor)
    traced = traced_run(executor)
    assert untraced.trace is None
    assert sorted(untraced.ground_tuples("T")) == sorted(traced.ground_tuples("T"))
    assert untraced.chase.chase_steps == traced.chase.chase_steps
    assert untraced.chase.rounds == traced.chase.rounds
    assert get_tracer() is None, "active tracer leaked out of the run"


def test_as_tracer_coercions(tmp_path):
    assert as_tracer(None) is None
    assert as_tracer(False) is None
    assert isinstance(as_tracer(True), Tracer)
    tracer = Tracer()
    assert as_tracer(tracer) is tracer
    path_tracer = as_tracer(str(tmp_path / "t.jsonl"))
    assert any(isinstance(s, JsonlTraceSink) for s in path_tracer.sinks)
    path_tracer.finish()
    with pytest.raises(TypeError):
        as_tracer(42)


# ---------------------------------------------------------------------------
# JSONL / Perfetto round-trip + trace_view CLI
# ---------------------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "run.jsonl"
    result = reason(PROGRAM, database=DB, executor="compiled", trace=str(path))
    dump = load_jsonl(path)
    assert dump.meta.get("format") == "repro-trace"
    live = result.trace.spans()
    assert len(dump.spans) == len(live)
    assert sorted(s.kind for s in dump.spans) == sorted(s.kind for s in live)
    (run_span,) = [s for s in dump.spans if s.kind == "run"]
    assert run_span.counters["derived"] == result.chase.chase_steps
    assert "histograms" in dump.metrics
    # The restored dump aggregates exactly like the live tracer.
    assert aggregate_rules(dump) == aggregate_rules(result.trace)


def test_perfetto_export(tmp_path):
    result = traced_run("compiled")
    document = to_perfetto(result.trace)
    events = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(events) == len(result.trace.spans())
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
    assert {e["tid"] for e in events} == {1}
    out = write_perfetto(result.trace, tmp_path / "run.perfetto.json")
    assert json.loads(out.read_text())["traceEvents"]


def test_trace_view_cli(tmp_path):
    path = tmp_path / "run.jsonl"
    reason(PROGRAM, database=DB, executor="compiled", trace=str(path))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "trace_view.py"), str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "reasoning run report" in proc.stdout
    assert "rounds:" in proc.stdout
    tree = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "trace_view.py"),
            str(path),
            "--tree",
            "--perfetto",
            str(tmp_path / "out.json"),
        ],
        capture_output=True,
        text=True,
    )
    assert tree.returncode == 0, tree.stderr
    assert "run reason:compiled" in tree.stdout
    assert (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# Faults surface as error-tagged spans
# ---------------------------------------------------------------------------


def test_datasource_retry_becomes_error_span(tmp_path):
    path = tmp_path / "edges.csv"
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(CHAIN_ROWS)
    program = (
        f'@bind("E", "csv", "{path}").\n'
        '@output("T").\n'
        "T(X, Y) :- E(X, Y).\n"
        "T(X, Z) :- T(X, Y), E(Y, Z).\n"
    )
    with inject(FaultSpec(point="datasource.scan", exception=OSError, times=1)):
        result = reason(program, executor="compiled", trace=True)
    assert result.status == STATUS_COMPLETE  # absorbed by the retry layer
    retries = result.trace.spans("source-retry")
    assert len(retries) == 1
    (retry,) = retries
    assert retry.status == "error"
    assert retry.attrs["action"] == "retry"
    assert retry.attrs["predicate"] == "E"
    assert result.trace.metrics.counter("source.retries").value == 1
    scans = result.trace.spans("source-scan")
    assert scans and any(s.attrs["predicate"] == "E" for s in scans)


def test_governor_stop_span():
    result = reason(
        PROGRAM,
        database=DB,
        executor="compiled",
        budget=ExecutionBudget(max_rounds=1),
        trace=True,
    )
    assert result.status == STATUS_BUDGET
    (stop,) = result.trace.spans("governor-stop")
    assert stop.attrs["status"] == STATUS_BUDGET
    (run_span,) = result.trace.spans("run")
    assert run_span.attrs["status"] == STATUS_BUDGET
    assert run_span.attrs["stop_reason"]


# ---------------------------------------------------------------------------
# Streaming: clock attrs, lazy finalization, the round loop's own spans
# ---------------------------------------------------------------------------


def test_streaming_chase_span_records_both_clocks():
    reasoner = VadalogReasoner(PROGRAM, executor="streaming")
    lazy = reasoner.stream(database=DB, trace=True)
    assert lazy.trace is not None
    first = lazy.first_answer()
    assert first is not None
    lazy.complete()
    (chase_span,) = lazy.trace.spans("chase")
    assert chase_span.attrs["t_first_pull"] >= chase_span.attrs["t_create"]
    # The span itself starts at the first pull, matching timings["chase"].
    assert chase_span.t_start == pytest.approx(chase_span.attrs["t_first_pull"])
    (run_span,) = lazy.trace.spans("run")
    assert run_span.t_end is not None
    assert run_span.attrs["status"] == STATUS_COMPLETE


def test_streaming_rounds_and_rules_nest_under_the_first_pull_chase_span():
    reasoner = VadalogReasoner(PROGRAM, executor="streaming")
    lazy = reasoner.stream(database=DB, trace=True)
    assert lazy.trace.spans("chase") == [] and lazy.trace.current().kind == "run"
    answers = lazy.iter_answers()
    next(answers), next(answers)  # two batches: rounds in separate calls
    lazy.complete()
    (chase_span,) = lazy.trace.spans("chase")
    assert chase_span.t_start == chase_span.attrs["t_first_pull"]
    rounds = lazy.trace.spans("round")
    assert [span.attrs["round"] for span in rounds] == list(
        range(1, lazy.chase.rounds + 1)
    )
    assert all(span.parent_id == chase_span.span_id for span in rounds)
    round_ids = {span.span_id for span in rounds}
    rules = lazy.trace.spans("rule")
    assert rules and all(span.parent_id in round_ids for span in rules)
    assert sum(span.counters["fires"] for span in rules) == lazy.chase.chase_steps
    assert not any(key.startswith("pull.") for key in chase_span.counters)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_run_report_traced_and_untraced():
    traced = traced_run("compiled")
    report = traced.run_report()
    assert "reasoning run report" in report
    assert "top" in report and "rounds:" in report
    untraced = reason(PROGRAM, database=DB, executor="compiled")
    degraded = untraced.run_report()
    assert "untraced" in degraded
    assert "trace=True" in degraded


def test_top_rules_orderings():
    result = traced_run("compiled")
    by_time = top_rules(result.trace, limit=2, by="seconds")
    by_fires = top_rules(result.trace, limit=2, by="fires")
    assert by_time and by_fires
    assert {entry["rule"] for entry in by_time} <= set(aggregate_rules(result.trace))
    assert render_trace(result.trace)  # renders without a ReasoningResult


# ---------------------------------------------------------------------------
# Tracer primitives
# ---------------------------------------------------------------------------


def test_ring_buffer_drops_oldest():
    sink = RingBufferSink(max_spans=2)
    for index in range(4):
        sink.emit(Span(kind="rule", name=f"r{index}", span_id=index, t_end=0.0))
    assert sink.dropped == 2
    assert [span.name for span in sink.spans] == ["r2", "r3"]


def test_end_closes_forgotten_children():
    tracer = Tracer()
    outer = tracer.begin("run", "run")
    tracer.begin("chase", "chase")  # never ended explicitly
    tracer.end(outer)
    kinds = {span.kind: span for span in tracer.spans()}
    assert kinds["chase"].t_end is not None
    assert kinds["run"].t_end >= kinds["chase"].t_end


def test_metrics_registry_summary():
    metrics = MetricsRegistry()
    metrics.counter("a").inc()
    metrics.counter("a").inc(2)
    metrics.gauge("g").set_max(5)
    metrics.gauge("g").set_max(3)
    metrics.histogram("h").observe(1.0)
    metrics.histogram("h").observe(3.0)
    data = metrics.as_dict()
    assert data["counters"]["a"] == 3
    assert data["gauges"]["g"] == 5
    assert data["histograms"]["h"]["count"] == 2
    assert data["histograms"]["h"]["mean"] == pytest.approx(2.0)
