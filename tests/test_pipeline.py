"""Tests for the streaming driver: lazy sources, early answers, the query slice."""

import sys

import pytest

from repro.core.atoms import fact
from repro.core.chase import ChaseConfig
from repro.core.limits import STATUS_BUDGET, ExecutionBudget
from repro.core.parser import parse_program
from repro.core.termination import strategy_by_name
from repro.engine.pipeline import FIRST_BATCH, PipelineExecutor
from repro.engine.reasoner import VadalogReasoner, reason
from repro.engine.record_managers import (
    ChainedRecordManager,
    RecordManager,
    managers_for_facts,
)
from repro.workloads import (
    arity_scenario,
    atom_count_scenario,
    control_scenario,
    dbsize_scenario,
    iwarded_scenario,
    lubm_scenario,
    psc_scenario,
    rule_count_scenario,
)

TC_PROGRAM = """
@output("T").
T(X, Y) :- E(X, Y).
T(X, Z) :- T(X, Y), E(Y, Z).
"""


#: Recursion-heavy smoke scenarios of the paper's Section 6 figures.
RECURSIVE_SMOKE = {
    "fig5a-iwarded": lambda: iwarded_scenario("synthA", facts_per_predicate=3),
    "fig5c-psc": lambda: psc_scenario(n_companies=20, n_persons=12),
    "fig5i-lubm": lambda: lubm_scenario(100),
    "fig6-control": lambda: control_scenario(30),
    "fig8a-dbsize": lambda: dbsize_scenario(6),
    "fig8b-rules": lambda: rule_count_scenario(2, facts_per_predicate=3),
    "fig8c-atoms": lambda: atom_count_scenario(3, facts_per_predicate=3),
    "fig8d-arity": lambda: arity_scenario(4, facts_per_predicate=3),
}


def chain_edges(n):
    return {"E": [(i, i + 1) for i in range(n)]}


def tc_pipeline(n_edges=8, **kwargs):
    program = parse_program(TC_PROGRAM)
    facts = [fact("E", i, i + 1) for i in range(n_edges)]
    return PipelineExecutor(
        program,
        outputs=["T"],
        input_managers=managers_for_facts(facts),
        strategy=strategy_by_name("warded"),
        **kwargs,
    )


class TestStreamingMatchesCompiled:
    def test_transitive_closure(self):
        expected = reason(TC_PROGRAM, database=chain_edges(6), executor="compiled")
        streamed = reason(TC_PROGRAM, database=chain_edges(6), executor="streaming")
        assert streamed.ground_tuples("T") == expected.ground_tuples("T")
        assert streamed.chase.executor == "streaming"

    def test_cyclic_graph(self):
        db = {"E": [("a", "b"), ("b", "c"), ("c", "a")]}
        expected = reason(TC_PROGRAM, database=db, executor="compiled")
        streamed = reason(TC_PROGRAM, database=db, executor="streaming")
        assert streamed.ground_tuples("T") == expected.ground_tuples("T")

    def test_existential_rule(self):
        program = """
        @output("HasDept").
        HasDept(X, D) :- Employee(X).
        """
        streamed = reason(program, database={"Employee": [("e1",), ("e2",)]}, executor="streaming")
        facts = streamed.answers.facts("HasDept")
        assert len(facts) == 2
        assert all(f.has_nulls for f in facts)


class TestLazyDriving:
    def test_first_answer_stops_reading_early(self):
        """``first_answer()`` returns before the model is materialised."""
        reasoner = VadalogReasoner(TC_PROGRAM, executor="streaming")
        lazy = reasoner.stream(database=chain_edges(30))
        first = lazy.first_answer()
        assert first is not None and first.predicate == "T"
        resident = len(lazy.chase.store)
        assert not lazy.pipeline.finished
        # Completing derives the full closure: 30 edges + 465 T facts.
        lazy.complete()
        assert len(lazy.chase.store) > resident * 5
        assert lazy.pipeline.finished
        # The snapshot taken at first-answer time is recorded in the stats.
        assert lazy.chase.extra_stats["pipeline_facts_at_first_answer"] == resident

    @pytest.mark.parametrize("name", sorted(RECURSIVE_SMOKE))
    def test_first_answer_holds_fewer_facts_than_materialisation(self, name):
        """On recursive workloads the first answer arrives while the store
        holds fewer facts than the compiled executor materialises."""
        scenario = RECURSIVE_SMOKE[name]()
        compiled = VadalogReasoner(scenario.program.copy()).reason(
            database=scenario.database, outputs=scenario.outputs
        )
        scenario = RECURSIVE_SMOKE[name]()
        reasoner = VadalogReasoner(scenario.program.copy(), executor="streaming")
        lazy = reasoner.stream(database=scenario.database, outputs=scenario.outputs)
        assert lazy.first_answer() is not None
        assert len(lazy.chase.store) < len(compiled.chase.store)

    def test_lazy_iterator_streams_answers(self):
        reasoner = VadalogReasoner(TC_PROGRAM, executor="streaming")
        lazy = reasoner.stream(database=chain_edges(4))
        seen = list(lazy.iter_answers())
        assert {f.values() for f in seen} == {
            (i, j) for i in range(5) for j in range(i + 1, 5)
        }
        # Draining the iterator finalizes the post-processed answer set.
        assert lazy.ground_tuples("T") == {f.values() for f in seen}

    def test_stream_available_from_compiled_reasoner(self):
        reasoner = VadalogReasoner(TC_PROGRAM)  # default executor: compiled
        lazy = reasoner.stream(database=chain_edges(3))
        assert lazy.first_answer() is not None
        lazy.complete()
        eager = reasoner.reason(database=chain_edges(3))
        assert lazy.ground_tuples("T") == eager.ground_tuples("T")


class TestRelevancePruning:
    PROGRAM = """
    @output("Good").
    Good(X) :- Base(X).
    Junk(X) :- Noise(X).
    MoreJunk(X) :- Junk(X).
    """

    def test_irrelevant_rules_and_sources_pruned(self):
        result = reason(
            self.PROGRAM,
            database={"Base": [(1,)], "Noise": [(2,), (3,)]},
            executor="streaming",
        )
        stats = result.chase.extra_stats
        assert stats["pipeline_pruned_rules"] == 2
        assert stats["pipeline_pruned_sources"] == 1
        # Pruned inputs never enter the store; the answers are unaffected.
        assert result.chase.store.count("Noise") == 0
        assert result.ground_tuples("Good") == {(1,)}

    def test_compiled_keeps_everything(self):
        result = reason(
            self.PROGRAM,
            database={"Base": [(1,)], "Noise": [(2,)]},
            executor="compiled",
        )
        assert result.chase.store.count("Junk") == 1


class CountingManager(RecordManager):
    """A record manager that counts ``stream()`` calls and rows read."""

    def __init__(self, predicate, rows):
        self.predicate = predicate
        self.rows = [fact(predicate, *row) for row in rows]
        self.opened = 0
        self.read = 0

    def stream(self):
        self.opened += 1
        for row in self.rows:
            self.read += 1
            yield row


class TestLaziness:
    PROGRAM = """
    @output("Good").
    Good(X) :- Base(X), Flag(X).
    Junk(X) :- Noise(X).
    """

    def pipeline(self, text=PROGRAM, outputs=("Good",)):
        managers = {
            "Base": CountingManager("Base", [(i,) for i in range(100)]),
            "Flag": CountingManager("Flag", [(i,) for i in range(100)]),
            "Noise": CountingManager("Noise", [(i,) for i in range(100)]),
        }
        executor = PipelineExecutor(
            parse_program(text),
            outputs=list(outputs),
            input_managers=managers,
            strategy=strategy_by_name("warded"),
        )
        return executor, managers

    def test_building_opens_nothing(self):
        _executor, managers = self.pipeline()
        assert [m.opened for m in managers.values()] == [0, 0, 0]

    def test_first_answer_reads_one_batch_per_source(self):
        executor, managers = self.pipeline()
        first = executor.first_answer()
        assert first == fact("Good", 0)
        # One row per relevant source sufficed: the first batch.
        assert managers["Base"].read == managers["Flag"].read == FIRST_BATCH
        assert not executor.finished

    def test_batches_double_on_further_demand(self):
        executor, managers = self.pipeline()
        answers = executor.answers()
        seen = [next(answers) for _ in range(4)]  # batches of 1, 2 and 4 rows
        assert seen == [fact("Good", i) for i in range(4)]
        assert managers["Base"].read == 1 + 2 + 4
        assert managers["Base"].opened == 1

    def test_pruned_source_is_never_opened(self):
        executor, managers = self.pipeline()
        executor.run_to_completion()
        assert managers["Noise"].opened == 0
        assert managers["Base"].read == 100
        assert executor.result.store.count("Noise") == 0
        assert len(executor.result.store.by_predicate("Good")) == 100

    def test_input_row_of_an_output_predicate_answers_before_any_rule_fires(self):
        executor, managers = self.pipeline(
            '@output("Base"). @output("Good"). Good(X) :- Base(X), Flag(X).',
            outputs=("Base", "Good"),
        )
        assert executor.first_answer() == fact("Base", 0)
        assert executor.result.chase_steps == 0 and executor.result.rounds == 0
        # The loaded rows ride along as the next rounds' delta.
        executor.run_to_completion()
        assert len(executor.result.store.by_predicate("Good")) == 100

    def test_recursion_limit_is_left_alone(self):
        # The pull engine had to raise it for deep filter chains.
        depth = 1200
        text = f'@output("P{depth}").\n' + "\n".join(
            f"P{i + 1}(X, Y) :- P{i}(X, Y)." for i in range(depth)
        )
        before = sys.getrecursionlimit()
        result = reason(text, database={"P0": [(1, 2)]}, executor="streaming")
        assert result.ground_tuples(f"P{depth}") == {(1, 2)}
        assert sys.getrecursionlimit() == before


class TestMergedSources:
    """A predicate fed by ``@bind`` *and* ``database=`` stays lazy."""

    PROGRAM = """
    @bind("E", "csv", "edges.csv").
    @bind("N", "csv", "noise.csv").
    @output("T").
    T(X, Y) :- E(X, Y).
    Junk(X) :- N(X).
    """

    @pytest.fixture
    def reasoner(self, tmp_path):
        (tmp_path / "edges.csv").write_text("1,2\n2,3\n")
        (tmp_path / "noise.csv").write_text("7\n8\n")
        return VadalogReasoner(self.PROGRAM, executor="streaming", base_path=str(tmp_path))

    def test_stream_scans_nothing(self, reasoner):
        lazy = reasoner.stream(database={"E": [(9, 10)], "N": [(5,)]})
        stats = reasoner._bindings.source_stats()
        assert stats["E"]["scans"] == stats["E"]["rows_scanned"] == 0
        # database= rows come first (the order the compiled executor loads
        # them in), the bound file is opened when they run dry.
        assert lazy.first_answer() == fact("T", 9, 10)
        assert reasoner._bindings.source_stats()["E"]["rows_scanned"] == 0
        lazy.complete()
        assert lazy.ground_tuples("T") == {(9, 10), (1, 2), (2, 3)}
        assert lazy.source_stats["E"]["rows_scanned"] == 2

    def test_pruned_merged_source_is_never_opened(self, reasoner):
        result = reasoner.reason(database={"E": [(9, 10)], "N": [(5,)]})
        assert result.chase.extra_stats["pipeline_pruned_sources"] == 1
        assert result.source_stats["N"]["scans"] == 0
        assert result.source_stats["N"]["rows_scanned"] == 0

    def test_chain_opens_each_manager_when_the_one_before_runs_dry(self):
        first = CountingManager("E", [(1, 2)])
        second = CountingManager("E", [(3, 4)])
        rows = ChainedRecordManager("E", [first, second]).stream()
        assert (first.opened, second.opened) == (0, 0)
        assert next(rows) == fact("E", 1, 2)
        assert (first.opened, second.opened) == (1, 0)
        assert list(rows) == [fact("E", 3, 4)]
        assert (first.read, second.read) == (1, 1)


class TestLimitsAndErrors:
    def test_resident_fact_ceiling_checked_at_round_boundaries(self):
        # One meaning of the ceiling on every executor: it is checked before
        # each round, so the run stops at most one round's derivations past
        # the bound, with a status and sound partial answers.
        database = chain_edges(30)
        complete = set(reason(TC_PROGRAM, database=database).ground_tuples("T"))
        config = ChaseConfig(budget=ExecutionBudget(max_resident_facts=70))
        results = [
            VadalogReasoner(TC_PROGRAM, executor=executor, chase_config=config).reason(
                database=database
            )
            for executor in ("compiled", "streaming")
        ]
        for result in results:
            assert result.status == STATUS_BUDGET
            assert "resident-fact ceiling" in result.stop_reason
            assert set(result.ground_tuples("T")) < complete
        compiled, streaming = results
        # 30 edges, then 30 and 29 derivations: over 70 after round 2.
        assert len(streaming.chase.store) == len(compiled.chase.store) == 89
        assert streaming.chase.rounds == compiled.chase.rounds == 2

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            VadalogReasoner("A(X) :- B(X).", executor="pipelined")

    def test_streaming_compiles_join_plans(self):
        reasoner = VadalogReasoner("A(X) :- B(X).", executor="streaming")
        assert reasoner.join_plans


class TestPostDirectivesAllExecutors:
    PROGRAM = """
    @output("Copy").
    @post("Copy", "sort", 0).
    @post("Copy", "limit", 2).
    Copy(X) :- Item(X).
    """

    @pytest.mark.parametrize("executor", ["naive", "compiled", "streaming"])
    def test_sort_and_limit(self, executor):
        result = reason(
            self.PROGRAM,
            database={"Item": [(10,), (9,), (2,), (30,)]},
            executor=executor,
        )
        values = [f.values() for f in result.answers.facts("Copy")]
        # Numeric-aware sort: 9 < 10 (not the lexicographic "10" < "9").
        assert values == [(2,), (9,)]

    @pytest.mark.parametrize("executor", ["naive", "compiled", "streaming"])
    def test_certain_drops_null_answers(self, executor):
        program = """
        @output("HasBoss").
        @post("HasBoss", "certain").
        HasBoss(X, B) :- Employee(X).
        """
        result = reason(program, database={"Employee": [("e1",)]}, executor=executor)
        assert result.answers.count("HasBoss") == 0

    def test_stream_complete_applies_directives(self):
        reasoner = VadalogReasoner(self.PROGRAM, executor="streaming")
        lazy = reasoner.stream(database={"Item": [(10,), (9,), (2,), (30,)]})
        lazy.complete()
        assert [f.values() for f in lazy.answers.facts("Copy")] == [(2,), (9,)]


class TestPipelineTopology:
    def test_describe_lists_nodes(self):
        pipeline = tc_pipeline()
        text = pipeline.describe()
        assert "source:E" in text and "sink:T" in text and "rule:" in text

    def test_constraint_predicates_get_drained(self):
        program = """
        @output("A").
        A(X) :- Base(X).
        :- Forbidden(X).
        """
        result = reason(
            program,
            database={"Base": [(1,)], "Forbidden": [(9,)]},
            executor="streaming",
        )
        # The constraint body predicate is not an output, yet its facts must
        # be materialised for the deferred violation check.
        assert len(result.chase.violations) == 1
