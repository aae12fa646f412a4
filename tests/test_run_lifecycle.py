"""The run lifecycle: one start → drive → finish path behind every entry point.

``reason()`` is ``stream().complete()`` on the reasoner's own executor: both
go through ``VadalogReasoner._start`` and ``ReasoningResult._finish``, and
``ResidentReasoner.query`` ends in the same answer step.  This matrix pins
that the entry points agree, that the finish step runs once, and that
``timings`` and the phase spans are one measurement.
"""

import pytest

from repro import ExecutionBudget, ResidentReasoner, VadalogReasoner
from repro.core.limits import STATUS_BUDGET, STATUS_COMPLETE
from repro.engine.reasoner import EXECUTORS
from repro.obs import trace as trace_module

PROGRAM = """
@bind("E", "csv", "edges.csv").
@bind("T", "csv", "closure.csv").
@output("T").
T(X, Y) :- E(X, Y).
T(X, Z) :- T(X, Y), E(Y, Z).
"""

EDGES = [(i, i + 1) for i in range(8)] + [(20, 21)]
CLOSURE = {(a, b) for a in range(9) for b in range(a + 1, 9)} | {(20, 21)}

PHASES = ("rewrite", "load", "chase", "answers")
KEYS = set(PHASES) | {"total"}

CASES = {
    "plain": {},
    "magic": {"query": "T(0, Y)", "rewrite": "magic"},
    "budget": {"budget": ExecutionBudget(max_rounds=1)},
}


@pytest.fixture
def base(tmp_path):
    (tmp_path / "edges.csv").write_text("".join(f"{a},{b}\n" for a, b in EDGES))
    return str(tmp_path)


def make(executor, base):
    # A reasoner per run: ``@bind`` page caches persist across the runs of
    # one reasoner and would make the second run's source_stats differ.
    return VadalogReasoner(PROGRAM, executor=executor, base_path=base, parallelism=2)


def drained(lazy):
    for _fact in lazy.iter_answers():
        pass
    return lazy


def answer_tuples(result):
    return set(result.ground_tuples("T"))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_entry_points_agree(executor, case, base):
    kwargs = CASES[case]
    eager = make(executor, base).reason(**kwargs)
    lazy = make(executor, base).stream(**kwargs).complete()
    pulled = drained(make(executor, base).stream(**kwargs))

    # Every entry point reports every phase; only pipeline runs can say
    # when the first answer arrived.
    on_pipeline = KEYS | {"first_answer"}
    assert set(eager.timings) == (on_pipeline if executor == "streaming" else KEYS)
    assert set(lazy.timings) == set(pulled.timings) == on_pipeline

    assert eager.status == lazy.status == pulled.status
    assert set(eager.source_stats) == set(lazy.source_stats) == set(pulled.source_stats)
    assert lazy.warnings == pulled.warnings
    if case == "budget":
        assert eager.status == STATUS_BUDGET
        for result in (eager, lazy, pulled):
            assert len(result.warnings) == 1
            assert answer_tuples(result) <= CLOSURE
    else:
        assert eager.status == STATUS_COMPLETE
        expected = CLOSURE if case == "plain" else {t for t in CLOSURE if t[0] == 0}
        assert answer_tuples(eager) == answer_tuples(lazy) == answer_tuples(pulled) == expected
        assert eager.warnings == lazy.warnings
        assert lazy.source_stats == pulled.source_stats
        # The sequential engines load every bound row; the pipeline scans
        # the same rows lazily — the counters agree either way.
        assert eager.source_stats == lazy.source_stats
    if executor == "streaming":
        # Same driver, same drain: reason() *is* stream().complete().
        assert eager.answers.facts_by_predicate == lazy.answers.facts_by_predicate
        assert eager.warnings == lazy.warnings
        assert eager.source_stats == lazy.source_stats


@pytest.mark.parametrize("entry", ["complete", "iter_answers"])
def test_finish_step_runs_once(entry, base, tmp_path):
    lazy = make("streaming", base).stream()
    if entry == "complete":
        lazy.complete()
    else:
        drained(lazy)
    written = lazy.source_stats["T"]["rows_written"]
    assert written == len(CLOSURE)
    answers, warnings = lazy.answers, list(lazy.warnings)
    assert lazy.complete() is lazy
    drained(lazy)
    # A second finish would write the rows back again and merge the chase
    # warnings twice.
    assert lazy.source_stats["T"]["rows_written"] == written
    assert lazy.answers is answers and lazy.warnings == warnings
    assert len((tmp_path / "closure.csv").read_text().splitlines()) == len(CLOSURE)


def test_eager_result_is_finished(base):
    eager = make("compiled", base).reason()
    written = eager.source_stats["T"]["rows_written"]
    assert eager.complete() is eager
    assert eager.source_stats["T"]["rows_written"] == written == len(CLOSURE)


def check_one_clock(result):
    trace = result.trace
    for phase in PHASES:
        (span,) = trace.spans(phase)
        assert result.timings[phase] == span.duration, phase
    (run_span,) = trace.spans("run")
    assert result.timings["total"] == run_span.duration
    (rewrite,) = trace.spans("rewrite")
    (load,) = trace.spans("load")
    # ``load`` is the load phase alone: it starts after the rewrite ended.
    assert load.t_start >= rewrite.t_end
    assert result.timings["rewrite"] + result.timings["load"] <= load.t_end - run_span.t_start
    assert sum(result.timings[p] for p in PHASES) <= result.timings["total"]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_timings_are_the_phase_spans(executor, base):
    # The magic rewriting gives the rewrite phase real work, so a ``load``
    # measured from the start of the run could not equal its span.
    check_one_clock(make(executor, base).reason(trace=True, **CASES["magic"]))


def test_timings_are_the_phase_spans_on_a_lazy_run(base):
    lazy = make("compiled", base).stream(trace=True, **CASES["magic"])
    assert lazy.first_answer() is not None
    check_one_clock(lazy.complete())
    (chase,) = lazy.trace.spans("chase")
    assert lazy.timings["first_answer"] <= lazy.timings["chase"]
    assert chase.attrs["t_first_pull"] == chase.t_start >= chase.attrs["t_create"]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_untraced_run_allocates_no_tracer_or_span(executor, base, monkeypatch):
    def allocated(self, *args, **kwargs):
        raise AssertionError(f"untraced run built a {type(self).__name__}")

    monkeypatch.setattr(trace_module.Span, "__init__", allocated)
    monkeypatch.setattr(trace_module.Tracer, "__init__", allocated)
    eager = make(executor, base).reason()
    lazy = make(executor, base).stream().complete()
    assert eager.trace is None and lazy.trace is None
    assert answer_tuples(eager) == answer_tuples(lazy) == CLOSURE


POST_PROGRAM = """
@output("Reach").
@output("Tagged").
@post("Reach", "sort", 1, 0).
@post("Tagged", "certain").
Reach(X, Y) :- Edge(X, Y).
Reach(X, Z) :- Reach(X, Y), Edge(Y, Z).
Tagged(X, T) :- Edge(X, Y).
Tagged(X, Y) :- Edge(X, Y).
"""


@pytest.mark.parametrize("executor", ["compiled", "naive"])
def test_resident_query_is_the_reasoner_answer_step(executor):
    database = {"Edge": [(3, 4), (1, 2), (2, 3), (7, 1)]}
    reasoner = VadalogReasoner(POST_PROGRAM, executor=executor)
    resident = ResidentReasoner(POST_PROGRAM, database=database, executor=executor)

    eager = reasoner.reason(database=database)
    assert resident.query().facts_by_predicate == eager.answers.facts_by_predicate
    # The post directives did something: sorted by target, nulls dropped.
    targets = [fact.values()[1] for fact in eager.facts("Reach")]
    assert targets == sorted(targets) and len(targets) > 4
    assert not any(fact.has_nulls for fact in eager.facts("Tagged"))

    point = reasoner.reason(database=database, query="Reach(1, Y)", rewrite="none")
    assert (
        resident.query("Reach(1, Y)").facts_by_predicate
        == point.answers.facts_by_predicate
    )
    assert [fact.values() for fact in point.facts("Reach")] == [(1, 2), (1, 3), (1, 4)]
