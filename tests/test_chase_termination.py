"""Tests for the chase engine and the termination strategies (Algorithm 1)."""

import pytest

from repro.core.chase import ChaseConfig, run_chase
from repro.core.limits import STATUS_BUDGET, ExecutionBudget
from repro.core.forests import LinearForest, WardedForest
from repro.core.parser import parse_program
from repro.core.atoms import fact
from repro.core.termination import (
    DepthBoundedStrategy,
    TrivialIsomorphismStrategy,
    UnboundedStrategy,
    WardedTerminationStrategy,
    strategy_by_name,
)
from repro.core.transform import normalize_for_chase

EXAMPLE_3 = """
@output("KeyPerson").
KeyPerson(P, X) :- Company(X).
KeyPerson(P, Y) :- Control(X, Y), KeyPerson(P, X).
"""

EXAMPLE_3_DB = [
    fact("Company", "a"),
    fact("Company", "b"),
    fact("Company", "c"),
    fact("Control", "a", "b"),
    fact("Control", "a", "c"),
    fact("KeyPerson", "Bob", "a"),
]

TRANSITIVE = """
T(X, Y) :- E(X, Y).
T(X, Z) :- T(X, Y), E(Y, Z).
"""


def chain_edges(n):
    return [fact("E", f"n{i}", f"n{i+1}") for i in range(n)]


class TestDatalogChase:
    def test_transitive_closure(self):
        result = run_chase(parse_program(TRANSITIVE), chain_edges(5))
        closure = {f.values() for f in result.facts("T")}
        assert ("n0", "n5") in closure
        assert len(closure) == 15  # 5+4+3+2+1

    def test_exact_duplicates_not_duplicated(self):
        program = parse_program("P(X) :- E(X, Y).\nP(X) :- E(X, Z).")
        result = run_chase(program, [fact("E", "a", "b"), fact("E", "a", "c")])
        assert len(result.facts("P")) == 1

    def test_conditions_filter_matches(self):
        program = parse_program("Control(X, Y) :- Own(X, Y, W), W > 0.5.")
        result = run_chase(program, [fact("Own", "a", "b", 0.6), fact("Own", "a", "c", 0.2)])
        assert {f.values() for f in result.facts("Control")} == {("a", "b")}

    def test_assignments_compute_head_values(self):
        program = parse_program("Double(X, V) :- P(X, W), V = W * 2.")
        result = run_chase(program, [fact("P", "a", 3)])
        assert {f.values() for f in result.facts("Double")} == {("a", 6)}

    def test_constants_in_rule_bodies(self):
        program = parse_program('Special(X) :- Edge(X, "hub").')
        result = run_chase(program, [fact("Edge", "a", "hub"), fact("Edge", "b", "other")])
        assert {f.values() for f in result.facts("Special")} == {("a",)}

    @pytest.mark.parametrize("executor", ["compiled", "naive"])
    def test_round_limit_enforced(self, executor):
        program = parse_program(TRANSITIVE)
        complete = set(run_chase(program, chain_edges(30)).facts())
        config = ChaseConfig(budget=ExecutionBudget(max_rounds=3))
        result = run_chase(program, chain_edges(30), config=config, executor=executor)
        assert result.status == STATUS_BUDGET
        assert result.rounds == 3
        assert set(result.facts()) < complete


class TestExistentialChase:
    def test_example_3_universal_answer(self):
        program = normalize_for_chase(parse_program(EXAMPLE_3))
        result = run_chase(program, EXAMPLE_3_DB)
        key_person = result.facts("KeyPerson")
        ground = {f.values() for f in key_person if not f.has_nulls}
        assert ground == {("Bob", "a"), ("Bob", "b"), ("Bob", "c")}
        # Existential witnesses are produced for every company as well.
        assert any(f.has_nulls for f in key_person)

    def test_termination_on_cyclic_existential_program(self):
        # A person generates a company which generates a person ... the warded
        # strategy must cut this infinite chase.
        program = parse_program(
            """
            WorksFor(P, C) :- Person(P).
            Employs(C, Q) :- WorksFor(P, C).
            WorksFor(Q, D) :- Employs(C, Q).
            """
        )
        result = run_chase(normalize_for_chase(program), [fact("Person", "alice")])
        assert result.rounds < 50
        assert len(result.store) < 100

    def test_nulls_are_fresh_per_firing(self):
        program = parse_program("Id(X, N) :- Item(X).")
        result = run_chase(program, [fact("Item", "a"), fact("Item", "b")])
        nulls = [f.terms[1] for f in result.facts("Id")]
        assert len(set(nulls)) == 2

    def test_multi_head_shared_existential(self):
        program = normalize_for_chase(
            parse_program("Owner(Z, X), Account(Z) :- Company(X).")
        )
        result = run_chase(program, [fact("Company", "acme")])
        owners = result.facts("Owner")
        accounts = result.facts("Account")
        assert len(owners) == 1 and len(accounts) == 1
        assert owners[0].terms[0] == accounts[0].terms[0]


class TestTerminationStrategies:
    def test_warded_strategy_prunes_isomorphic_subtrees(self):
        program = normalize_for_chase(
            parse_program(
                """
                Owns(P, S, X) :- Company(X).
                PSC(X, P) :- Owns(P, S, X).
                Owns(P, S, Y) :- PSC(X, P), Controls(X, Y).
                Company(X) :- PSC(X, P).
                """
            )
        )
        database = [fact("Company", "a"), fact("Controls", "a", "b"), fact("Controls", "b", "a")]
        strategy = WardedTerminationStrategy()
        result = run_chase(program, database, strategy=strategy)
        assert strategy.stats.rejected > 0
        assert result.rounds < 100

    def test_trivial_strategy_terminates_and_agrees_on_ground_answers(self):
        program = normalize_for_chase(parse_program(EXAMPLE_3))
        warded = run_chase(program, EXAMPLE_3_DB, strategy=WardedTerminationStrategy())
        trivial = run_chase(program, EXAMPLE_3_DB, strategy=TrivialIsomorphismStrategy())
        def ground(r):
            return {f.values() for f in r.facts("KeyPerson") if not f.has_nulls}

        assert ground(warded) == ground(trivial)

    def test_trivial_strategy_stores_every_fact(self):
        program = normalize_for_chase(parse_program(EXAMPLE_3))
        strategy = TrivialIsomorphismStrategy()
        result = run_chase(program, EXAMPLE_3_DB, strategy=strategy)
        # Ground facts are decided by the store; every null-bearing fact the
        # chase kept is memorised up to isomorphism.
        null_bearing = sum(1 for f in result.store if f.has_nulls)
        assert strategy.stats.stored_facts == null_bearing > 0

    def test_warded_strategy_agrees_with_trivial_on_large_input(self):
        program = normalize_for_chase(parse_program(EXAMPLE_3))
        database = EXAMPLE_3_DB + [fact("Company", f"x{i}") for i in range(50)]
        warded = WardedTerminationStrategy()
        trivial = TrivialIsomorphismStrategy()
        warded_result = run_chase(program, database, strategy=warded)
        trivial_result = run_chase(program, database, strategy=trivial)
        def ground(r):
            return {f.values() for f in r.facts("KeyPerson") if not f.has_nulls}

        assert ground(warded_result) == ground(trivial_result)
        # Both strategies performed isomorphism checks and stayed bounded.
        assert warded.stats.isomorphism_checks > 0
        assert trivial.stats.isomorphism_checks > 0
        assert len(warded_result.store) < 10 * len(database)

    def test_depth_bounded_strategy(self):
        program = parse_program(TRANSITIVE)
        strategy = DepthBoundedStrategy(max_depth=2)
        result = run_chase(program, chain_edges(10), strategy=strategy)
        assert strategy.stats.rejected >= 0
        assert len(result.facts("T")) <= 55

    def test_unbounded_strategy_on_datalog(self):
        result = run_chase(parse_program(TRANSITIVE), chain_edges(4), strategy=UnboundedStrategy())
        assert len(result.facts("T")) == 10

    def test_strategy_factory(self):
        assert isinstance(strategy_by_name("warded"), WardedTerminationStrategy)
        assert isinstance(strategy_by_name("trivial-isomorphism"), TrivialIsomorphismStrategy)
        assert isinstance(strategy_by_name("depth-bounded", max_depth=3), DepthBoundedStrategy)
        with pytest.raises(ValueError):
            strategy_by_name("nope")

    def test_depth_bound_validation(self):
        with pytest.raises(ValueError):
            DepthBoundedStrategy(max_depth=0)


class TestForestsMetadata:
    def test_forest_construction_from_chase(self):
        program = normalize_for_chase(parse_program(EXAMPLE_3))
        result = run_chase(program, EXAMPLE_3_DB)
        warded_forest = WardedForest(result.nodes)
        linear_forest = LinearForest(result.nodes)
        assert len(warded_forest) == len(result.nodes)
        assert len(linear_forest.roots()) >= len(warded_forest.roots())
        assert warded_forest.max_depth() >= 1

    def test_input_facts_are_roots(self):
        program = normalize_for_chase(parse_program(EXAMPLE_3))
        result = run_chase(program, EXAMPLE_3_DB)
        forest = WardedForest(result.nodes)
        root_facts = {node.fact for node in forest.roots()}
        for input_fact in EXAMPLE_3_DB:
            assert input_fact in root_facts

    def test_provenance_grows_along_linear_rules(self):
        program = parse_program("B(X) :- A(X).\nC(X) :- B(X).\nD(X) :- C(X).")
        result = run_chase(program, [fact("A", "v")])
        depths = {node.fact.predicate: len(node.provenance) for node in result.nodes}
        assert depths["A"] == 0 and depths["B"] == 1 and depths["C"] == 2 and depths["D"] == 3


class TestConstraintsAndEgds:
    def test_negative_constraint_violation_detected(self):
        program = parse_program("Linked(X, Y) :- Own(X, Y, W).\n:- Own(X, X, W).")
        result = run_chase(program, [fact("Own", "a", "a", 0.5)])
        assert len(result.violations) == 1
        assert result.violations[0].kind == "negative-constraint"

    def test_negative_constraint_failfast(self):
        from repro.core.chase import InconsistencyError

        program = parse_program(":- Own(X, X, W).")
        with pytest.raises(InconsistencyError):
            run_chase(
                program,
                [fact("Own", "a", "a", 0.5)],
                config=ChaseConfig(fail_on_violation=True),
            )

    def test_egd_violation_on_ground_values(self):
        program = parse_program(
            """
            Copy(X, Y) :- HasName(X, Y).
            N1 = N2 :- HasName(X, N1), HasName(X, N2).
            """
        )
        result = run_chase(program, [fact("HasName", "a", "Ann"), fact("HasName", "a", "Bob")])
        assert any(v.kind == "egd" for v in result.violations)

    def test_egd_not_violated_when_equal(self):
        program = parse_program("N1 = N2 :- HasName(X, N1), HasName(X, N2).")
        result = run_chase(program, [fact("HasName", "a", "Ann")])
        assert result.violations == []

    def test_stats_dictionary(self):
        result = run_chase(parse_program(TRANSITIVE), chain_edges(3))
        stats = result.stats()
        assert stats["facts"] == len(result.store)
        assert "strategy_isomorphism_checks" in stats
