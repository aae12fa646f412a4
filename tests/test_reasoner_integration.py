"""End-to-end tests of the VadalogReasoner facade on the paper's examples."""

import pytest

from repro import Database, ExecutionBudget, VadalogReasoner, reason
from repro.core.atoms import fact
from repro.core.chase import ChaseConfig
from repro.engine.annotations import AnnotationError, collect_bindings
from repro.engine.incremental import ResidentReasoner
from repro.core.parser import parse_program

EXAMPLE_1 = """
@output("Spouse").
Spouse(Y, X, S, L, E) :- Spouse(X, Y, S, L, E).
"""

EXAMPLE_2 = """
@output("Control").
Control(X, Y) :- Own(X, Y, W), W > 0.5.
Control(X, Z) :- Control(X, Y), Own(Y, Z, W), V = msum(W, <Y>), V > 0.5.
"""

EXAMPLE_6 = """
@output("SoftLink").
SoftLink(X, Y) :- Own(X, Y, W).
SoftLink(Y, X) :- SoftLink(X, Y).
SoftLink(X, Y) :- Own(Z, X, W1), Own(Z, Y, W2).
Own(Z, X, W1), Own(Z, Y, W2) :- Incorp(X, Y).
X1 = X2 :- Dom(*), Incorp(Y, Z), Own(X1, Y, W1), Own(X2, Z, W1).
:- Own(X, X, W).
"""

#: A constraint whose ``Dom`` guard rejects the null-bearing ``Own`` fact the
#: existential rule derives; ``{guard}`` is ``*`` or a body variable.
DOM_GUARDED_CONSTRAINT = """
@output("Own").
Own(Z, Y, W) :- Incorp(Y).
:- Own(X, Y, W), Dom({guard}).
"""

#: Every path that runs the EGD and constraint checks.
CHECK_PATHS = ["compiled", "naive", "streaming", "resident"]


def check_violations(program, database, path):
    """The violations one check path reports for ``program`` on ``database``."""
    if path == "resident":
        return ResidentReasoner(program, database=database).violations()
    return VadalogReasoner(program, executor=path).reason(database=database).chase.violations


class TestPaperExamples:
    def test_example_1_symmetric_marriage(self):
        result = reason(
            EXAMPLE_1,
            database={"Spouse": [("alice", "bob", 2001, "rome", 2010)]},
        )
        tuples = result.ground_tuples("Spouse")
        assert ("bob", "alice", 2001, "rome", 2010) in tuples
        assert len(tuples) == 2

    def test_example_2_company_control(self):
        database = {
            "Own": [
                ("a", "b", 0.6),
                ("a", "d", 0.8),
                ("b", "c", 0.3),
                ("d", "c", 0.3),
            ]
        }
        result = reason(EXAMPLE_2, database=database)
        control = result.ground_tuples("Control")
        assert ("a", "b") in control and ("a", "d") in control
        # a controls c only jointly through b and d (0.3 + 0.3 > 0.5).
        assert ("a", "c") in control
        assert ("b", "c") not in control

    def test_example_3_key_person(self):
        program = """
        @output("KeyPerson").
        KeyPerson(P, X) :- Company(X).
        KeyPerson(P, Y) :- Control(X, Y), KeyPerson(P, X).
        """
        database = {
            "Company": [("a",), ("b",), ("c",)],
            "Control": [("a", "b"), ("a", "c")],
            "KeyPerson": [("Bob", "a")],
        }
        result = reason(program, database=database)
        assert result.ground_tuples("KeyPerson") == {
            ("Bob", "a"),
            ("Bob", "b"),
            ("Bob", "c"),
        }
        universal = result.tuples("KeyPerson")
        assert len(universal) > 3  # anonymous key persons for b and c exist

    def test_example_6_constraints_and_egds(self):
        database = {
            "Own": [("holding", "x", 0.5), ("holding", "y", 0.5)],
            "Incorp": [("x", "y")],
        }
        result = reason(EXAMPLE_6, database=database)
        soft_links = result.ground_tuples("SoftLink")
        assert ("x", "y") in soft_links and ("y", "x") in soft_links
        assert result.chase.violations == []

    @pytest.mark.parametrize("path", CHECK_PATHS)
    def test_example_6_egd_with_dom_star_over_two_owners(self, path):
        database = {"Own": [("a", "x", 1), ("b", "y", 1)], "Incorp": [("x", "y")]}
        violations = check_violations(EXAMPLE_6, database, path)
        assert [(v.kind, v.detail) for v in violations] == [("egd", "('a' != 'b')")]
        assert {f.predicate for f in violations[0].witnesses} == {"Incorp", "Own"}

    @pytest.mark.parametrize("guard", ["*", "X"])
    @pytest.mark.parametrize("path", CHECK_PATHS)
    def test_dom_guarded_constraint_skips_null_bindings(self, path, guard):
        database = {"Own": [("a", "x", 1), ("b", "y", 2)], "Incorp": [("x",)]}
        program = DOM_GUARDED_CONSTRAINT.format(guard=guard)
        violations = check_violations(program, database, path)
        # One violation per ground Own fact; the derived Own(ν, x, ν') has
        # labelled nulls under the guard and reports none.
        assert sorted((v.witnesses for v in violations), key=repr) == [
            (fact("Own", "a", "x", 1),),
            (fact("Own", "b", "y", 2),),
        ]
        assert all(v.kind == "negative-constraint" for v in violations)

    def test_example_6_detects_self_ownership(self):
        database = {"Own": [("x", "x", 1.0)], "Incorp": []}
        result = reason(EXAMPLE_6, database=database)
        assert any(v.kind == "negative-constraint" for v in result.chase.violations)


class TestReasonerInterface:
    def test_accepts_program_object_and_database_object(self):
        program = parse_program(EXAMPLE_2)
        database = Database.from_dict({"Own": [("a", "b", 0.9)]})
        reasoner = VadalogReasoner(program)
        result = reasoner.reason(database=database)
        assert ("a", "b") in result.ground_tuples("Control")

    def test_certain_flag_drops_nulls(self):
        program = """
        @output("HasBoss").
        HasBoss(X, B) :- Employee(X).
        """
        result = reason(program, database={"Employee": [("emma",)]}, certain=True)
        assert result.answers.count("HasBoss") == 0
        universal = reason(program, database={"Employee": [("emma",)]}, certain=False)
        assert universal.answers.count("HasBoss") == 1

    def test_outputs_override(self):
        result = reason(
            EXAMPLE_2,
            database={"Own": [("a", "b", 0.9)]},
            outputs=["Control", "Own"],
        )
        assert result.answers.count("Own") == 1

    def test_explain_mentions_fragment_and_plan(self):
        reasoner = VadalogReasoner(EXAMPLE_2)
        text = reasoner.explain()
        assert "fragment" in text
        assert "Reasoning access plan" in text

    def test_strategy_override_per_reason_call(self):
        reasoner = VadalogReasoner(EXAMPLE_2)
        result = reasoner.reason(
            database={"Own": [("a", "b", 0.9)]}, strategy="trivial-isomorphism"
        )
        assert result.chase.strategy.name == "trivial-isomorphism"

    def test_non_warded_program_warns(self):
        program = """
        @output("Out").
        P(X, H) :- S(X).
        Q(Y, H) :- P(Y, H).
        Out(H) :- P(X, H), Q(Y, H).
        """
        reasoner = VadalogReasoner(program)
        assert any("not warded" in w for w in reasoner.warnings)

    def test_unsupported_harmful_join_warns_but_runs(self):
        program = """
        @output("StrongLink").
        PSC(X, P) :- Company(X).
        PSC(X, P) :- Control(Y, X), PSC(Y, P).
        StrongLink(X, Y, W) :- PSC(X, P), PSC(Y, P), W = mcount(P), W >= 1.
        """
        result = reason(program, database={"Company": [("a",), ("b",)], "Control": [("a", "b")]})
        assert any("harmful-join elimination skipped" in w for w in result.warnings)
        assert result.chase.rounds > 0

    @pytest.mark.parametrize("executor", ["compiled", "naive"])
    def test_chase_config_limits_respected(self, executor):
        program = """
        @output("T").
        T(X, Y) :- E(X, Y).
        T(X, Z) :- T(X, Y), E(Y, Z).
        """
        edges = {"E": [(f"n{i}", f"n{i+1}") for i in range(40)]}
        complete = set(reason(program, database=edges).ground_tuples("T"))
        config = ChaseConfig(budget=ExecutionBudget(max_rounds=2))
        reasoner = VadalogReasoner(program, chase_config=config, executor=executor)
        result = reasoner.reason(database=edges)
        assert result.status == "budget_exceeded"
        assert result.chase.rounds == 2
        partial = set(result.ground_tuples("T"))
        # Two rounds derive paths of length ≤ 2 and nothing else.
        assert partial < complete
        assert len(partial) == 40 + 39

    def test_timings_and_stats_exposed(self):
        result = reason(EXAMPLE_2, database={"Own": [("a", "b", 0.9)]})
        stats = result.stats()
        assert "time_total" in stats and stats["facts"] >= 2


class TestAnnotations:
    def test_csv_bind_loads_facts(self, tmp_path):
        csv_path = tmp_path / "own.csv"
        csv_path.write_text("a,b,0.9\nb,c,0.8\n")
        program = f"""
        @bind("Own", "csv", "own.csv").
        @output("Control").
        Control(X, Y) :- Own(X, Y, W), W > 0.5.
        """
        reasoner = VadalogReasoner(program, base_path=str(tmp_path))
        result = reasoner.reason()
        assert result.ground_tuples("Control") == {("a", "b"), ("b", "c")}

    def test_post_certain_directive(self):
        program = """
        @output("HasBoss").
        @post("HasBoss", "certain").
        HasBoss(X, B) :- Employee(X).
        """
        result = reason(program, database={"Employee": [("e1",)]})
        assert result.answers.count("HasBoss") == 0

    def test_post_limit_directive(self):
        program = """
        @output("Copy").
        @post("Copy", "limit", 1).
        Copy(X) :- Item(X).
        """
        result = reason(program, database={"Item": [("a",), ("b",), ("c",)]})
        assert result.answers.count("Copy") == 1

    def test_malformed_bind_raises(self):
        program = parse_program('@bind("Own", "csv").\nP(X) :- Own(X).')
        with pytest.raises(AnnotationError):
            collect_bindings(program)

    def test_unsupported_post_operation(self):
        program = parse_program('@post("P", "explode").\nP(X) :- Q(X).')
        with pytest.raises(AnnotationError):
            collect_bindings(program)
