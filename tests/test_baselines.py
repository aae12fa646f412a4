"""Tests for the baseline engines and differential comparison with the reasoner."""

import pytest

from repro.baselines import (
    GraphTraversalEngine,
    RecursiveSqlEngine,
    RestrictedChaseEngine,
    SkolemChaseEngine,
    find_homomorphism,
    homomorphism_exists,
)
from repro.baselines.sql_recursion import UnsupportedSqlFeature
from repro.core.atoms import Atom, Fact, fact
from repro.core.fact_store import FactStore
from repro.core.parser import parse_program
from repro.core.terms import Constant, Null, Variable
from repro.engine.reasoner import reason

TRANSITIVE = parse_program(
    """
    @output("T").
    T(X, Y) :- E(X, Y).
    T(X, Z) :- T(X, Y), E(Y, Z).
    """
)

EXISTENTIAL = parse_program(
    """
    @output("KeyPerson").
    KeyPerson(P, X) :- Company(X).
    KeyPerson(P, Y) :- Control(X, Y), KeyPerson(P, X).
    """
)

EXISTENTIAL_DB = [
    fact("Company", "a"),
    fact("Company", "b"),
    fact("Control", "a", "b"),
    fact("KeyPerson", "Bob", "a"),
]


class TestHomomorphism:
    def test_constant_atoms(self):
        store = FactStore([fact("P", 1, 2)])
        assert homomorphism_exists([Atom("P", (Constant(1), Constant(2)))], store)
        assert not homomorphism_exists([Atom("P", (Constant(2), Constant(1)))], store)

    def test_variables_map_to_terms(self):
        store = FactStore([fact("P", 1, 2), fact("Q", 2)])
        atoms = [Atom("P", (Variable("X"), Variable("Y"))), Atom("Q", (Variable("Y"),))]
        mapping = find_homomorphism(atoms, store)
        assert mapping is not None
        assert mapping[Variable("Y")] == Constant(2)

    def test_nulls_behave_like_variables(self):
        store = FactStore([fact("P", 7)])
        assert homomorphism_exists([Fact("P", (Null(0),))], store)

    def test_initial_mapping_is_respected(self):
        store = FactStore([fact("P", 1), fact("P", 2)])
        atoms = [Atom("P", (Variable("X"),))]
        assert find_homomorphism(atoms, store, {Variable("X"): Constant(2)}) is not None
        assert find_homomorphism(atoms, store, {Variable("X"): Constant(3)}) is None

    def test_shared_variable_consistency(self):
        store = FactStore([fact("P", 1, 2), fact("Q", 3)])
        atoms = [Atom("P", (Variable("X"), Variable("Y"))), Atom("Q", (Variable("X"),))]
        assert not homomorphism_exists(atoms, store)


class TestRestrictedChase:
    def test_transitive_closure_matches_reasoner(self):
        database = [fact("E", "a", "b"), fact("E", "b", "c"), fact("E", "c", "d")]
        baseline = RestrictedChaseEngine(TRANSITIVE.copy()).run(database)
        reference = reason(TRANSITIVE.copy(), database=database)
        assert baseline.ground_tuples("T") == reference.ground_tuples("T")
        assert baseline.homomorphism_checks > 0

    def test_restricted_chase_reuses_existing_witnesses(self):
        program = parse_program("HasId(X, I) :- Thing(X).")
        database = [fact("Thing", "a"), fact("HasId", "a", "already-there")]
        result = RestrictedChaseEngine(program).run(database)
        # The head is already satisfied: no new null must be invented.
        assert len(result.facts("HasId")) == 1

    def test_existential_recursion_terminates(self):
        result = RestrictedChaseEngine(EXISTENTIAL.copy()).run(EXISTENTIAL_DB)
        ground = result.ground_tuples("KeyPerson")
        assert ("Bob", "a") in ground and ("Bob", "b") in ground


class TestSkolemChase:
    def test_skolem_nulls_are_deterministic(self):
        program = parse_program("HasId(X, I) :- Thing(X).\nAlsoId(X, I) :- Thing(X).")
        result = SkolemChaseEngine(program).run([fact("Thing", "a")])
        has_id = result.facts("HasId")[0]
        assert has_id.has_nulls
        # Re-running produces the same number of facts (no duplicate invention).
        again = SkolemChaseEngine(program).run([fact("Thing", "a")])
        assert len(again.store) == len(result.store)

    def test_grounding_counter_reported(self):
        database = [fact("E", "a", "b"), fact("E", "b", "c")]
        result = SkolemChaseEngine(TRANSITIVE.copy()).run(database)
        assert getattr(result, "grounded_instances") > 0

    def test_agrees_with_reasoner_on_certain_answers(self):
        result = SkolemChaseEngine(EXISTENTIAL.copy()).run(EXISTENTIAL_DB)
        reference = reason(EXISTENTIAL.copy(), database=EXISTENTIAL_DB)
        assert result.ground_tuples("KeyPerson") == reference.ground_tuples("KeyPerson")


@pytest.mark.parametrize("engine_class", [SkolemChaseEngine, RestrictedChaseEngine])
def test_aggregate_state_does_not_outlive_a_run(engine_class):
    program = parse_program("Total(X, S) :- Own(X, Y, W), S = msum(W, <Y>).")
    engine = engine_class(program)
    engine.run([fact("Own", "a", "b", 0.6)])
    second = engine.run([fact("Own", "a", "c", 0.1)])
    fresh = engine_class(program).run([fact("Own", "a", "c", 0.1)])
    assert second.ground_tuples("Total") == fresh.ground_tuples("Total") == {("a", 0.1)}


class TestRecursiveSql:
    def test_rejects_existentials_and_aggregates(self):
        with pytest.raises(UnsupportedSqlFeature):
            RecursiveSqlEngine(EXISTENTIAL.copy())
        with pytest.raises(UnsupportedSqlFeature):
            RecursiveSqlEngine(
                parse_program("C(X, N) :- P(X, Y), N = mcount(Y).")
            )

    def test_transitive_closure_matches_reasoner(self):
        database = [fact("E", "a", "b"), fact("E", "b", "c"), fact("E", "c", "a")]
        baseline = RecursiveSqlEngine(TRANSITIVE.copy()).run(database)
        reference = reason(TRANSITIVE.copy(), database=database)
        assert baseline.ground_tuples("T") == reference.ground_tuples("T")

    def test_conditions_supported(self):
        program = parse_program("Control(X, Y) :- Own(X, Y, W), W > 0.5.")
        result = RecursiveSqlEngine(program).run(
            [fact("Own", "a", "b", 0.6), fact("Own", "a", "c", 0.1)]
        )
        assert result.ground_tuples("Control") == {("a", "b")}


class TestGraphEngine:
    def test_label_propagation_matches_psc_semantics(self):
        edges = [("a", "b"), ("b", "c")]
        seeds = [("a", "bob")]
        result = GraphTraversalEngine(edges).propagate_labels(seeds)
        assert result.pairs() == {("a", "bob"), ("b", "bob"), ("c", "bob")}

    def test_cycle_safe(self):
        edges = [("a", "b"), ("b", "a")]
        result = GraphTraversalEngine(edges).propagate_labels([("a", "p")])
        assert result.pairs() == {("a", "p"), ("b", "p")}

    def test_reachable_from(self):
        engine = GraphTraversalEngine([("a", "b"), ("b", "c"), ("x", "y")])
        assert engine.reachable_from("a") == {"b", "c"}

    def test_matches_datalog_psc(self):
        program = parse_program(
            """
            @output("PSC").
            PSC(X, P) :- KeyPerson(X, P).
            PSC(Y, P) :- Control(X, Y), PSC(X, P).
            """
        )
        control = [("a", "b"), ("b", "c"), ("a", "d")]
        key_people = [("a", "bob"), ("d", "eve")]
        database = {"Control": control, "KeyPerson": key_people}
        reference = reason(program, database=database).ground_tuples("PSC")
        traversal = GraphTraversalEngine(control).propagate_labels(key_people).pairs()
        assert traversal == reference
