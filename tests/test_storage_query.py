"""Tests for the storage substrate, the fact store and answer extraction."""

import random

import pytest

from repro.core.atoms import Atom, Fact, fact
from repro.core.chase import run_chase
from repro.core.fact_store import FactStore, StaleSnapshotError
from repro.core.parser import parse_program
from repro.core.query import Query, certain_answer, extract_answers, universal_answer
from repro.core.terms import Constant, Null, Variable
from repro.storage.csv_io import load_relation_csv, save_relation_csv
from repro.storage.database import Database, Relation


class TestRelationDatabase:
    def test_relation_arity_enforced(self):
        relation = Relation("P", 2)
        relation.add(("a", "b"))
        with pytest.raises(ValueError):
            relation.add(("a",))

    def test_relation_facts(self):
        relation = Relation("P", 2, [("a", 1)])
        facts = relation.facts()
        assert facts[0] == fact("P", "a", 1)

    def test_relation_distinct(self):
        relation = Relation("P", 1, [("a",), ("a",), ("b",)])
        assert len(relation.distinct()) == 2

    def test_database_building_and_size(self):
        database = Database.from_dict({"E": [("a", "b"), ("b", "c")], "N": [("a",)]})
        assert database.size() == 3
        assert database.size("E") == 2
        assert "E" in database and "missing" not in database

    def test_database_from_facts_roundtrip(self):
        database = Database.from_facts([fact("P", 1, 2), fact("Q", "x")])
        assert {f.values() for f in database.facts("P")} == {(1, 2)}

    def test_unknown_relation_raises(self):
        with pytest.raises(KeyError):
            Database().relation("nope")


class TestCsvIO:
    def test_roundtrip(self, tmp_path):
        relation = Relation("Own", 3, [("a", "b", 0.6), ("b", "c", 0.4)])
        path = save_relation_csv(relation, tmp_path / "own.csv")
        loaded = load_relation_csv(path)
        assert loaded.name == "own"
        assert loaded.tuples == [("a", "b", 0.6), ("b", "c", 0.4)]

    def test_type_inference(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,1,2.5,true\n")
        loaded = load_relation_csv(path)
        assert loaded.tuples == [("a", 1, 2.5, True)]

    def test_header_skipping(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("col1,col2\na,b\n")
        loaded = load_relation_csv(path, has_header=True)
        assert loaded.tuples == [("a", "b")]


class TestFactStore:
    def test_add_and_duplicates(self):
        store = FactStore()
        assert store.add(fact("P", 1))
        assert not store.add(fact("P", 1))
        assert len(store) == 1

    def test_by_predicate_and_count(self):
        store = FactStore([fact("P", 1), fact("P", 2), fact("Q", 3)])
        assert store.count("P") == 2
        assert {f.values() for f in store.by_predicate("Q")} == {(3,)}

    def test_active_domain(self):
        store = FactStore([fact("P", "a", 1)])
        assert store.in_active_domain("a") and store.in_active_domain(1)
        assert not store.in_active_domain("z")

    def test_candidates_use_position_index(self):
        store = FactStore([fact("E", "a", i) for i in range(100)] + [fact("E", "b", 0)])
        atom = Atom("E", (Constant("b"), Variable("Y")))
        candidates = store.candidates(atom, {})
        assert len(candidates) == 1

    def test_matches_with_partial_binding(self):
        store = FactStore([fact("E", "a", "b"), fact("E", "a", "c"), fact("E", "z", "b")])
        atom = Atom("E", (Variable("X"), Variable("Y")))
        results = list(store.matches(atom, {Variable("X"): Constant("a")}))
        assert len(results) == 2

    def test_nulls_indexed_separately_from_constants(self):
        store = FactStore([Fact("P", (Null(0),)), fact("P", 0)])
        assert len(store) == 2


class TestFactStoreRemove:
    """``FactStore.remove`` against a plain insertion-ordered model."""

    PREDICATES = {"P": 2, "Q": 1, "R": 3}
    TERMS = [Constant(i) for i in range(5)] + [Null(0), Null(1)]

    def test_last_fact_of_a_predicate_takes_the_predicate_with_it(self):
        store = FactStore([fact("P", "a"), fact("Q", "b")])
        assert store.remove(fact("P", "a"))
        assert store.predicates() == ("Q",) == store.copy().predicates()
        assert store._position_index.get("P") is None
        assert store.by_predicate("P") == () and store.count("P") == 0
        assert store.add(fact("P", "c"))
        assert store.position_candidates("P", 0, Constant("c")) == [fact("P", "c")]

    def test_remove_absent_fact_changes_nothing(self):
        store = FactStore([fact("P", 1)])
        epoch = store.epoch
        assert not store.remove(fact("P", 2))
        assert not store.remove(fact("Q", 1))
        assert store.epoch == epoch and store.facts() == (fact("P", 1),)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleavings_match_the_model(self, seed):
        rng = random.Random(seed)
        store = FactStore()
        live = {}  # fact -> slot; dict order is insertion order
        rounds = {}  # fact -> round it entered in
        next_slot = 0
        since_round = []  # facts added since the last begin_round, in order
        delta = []
        current_round = 0

        def random_fact():
            predicate = rng.choice(sorted(self.PREDICATES))
            arity = self.PREDICATES[predicate]
            return Fact(predicate, [rng.choice(self.TERMS) for _ in range(arity)])

        # The active domain is built on first request and maintained from
        # then on: first ask for it before, during or after the steps.
        domain_from = (0, 200, 400)[seed % 3]
        for step in range(400):
            if step == domain_from:
                assert store._domain_counts is None
                store.active_domain()
            roll = rng.random()
            if roll < 0.5 or not live:
                candidate = random_fact()
                assert store.add(candidate) == (candidate not in live)
                if candidate not in live:
                    live[candidate] = next_slot
                    rounds[candidate] = current_round
                    next_slot += 1
                    since_round.append(candidate)
            elif roll < 0.9:
                # Mostly a live fact (often a re-added one), sometimes absent.
                victim = rng.choice(list(live)) if rng.random() < 0.85 else random_fact()
                assert store.remove(victim) == (victim in live)
                live.pop(victim, None)
            else:
                current_round += 1
                delta = [f for f in since_round if f in live]
                # A removed and re-added fact sits in the list twice; its
                # live slot is the last one.
                delta = sorted(set(delta), key=live.__getitem__)
                since_round = []
                store.begin_round(current_round, delta)
            delta = [f for f in delta if f in live]
            self.check(store, live, rounds, delta, domain=step >= domain_from)
        self.check(store, live, rounds, delta, domain=True)

    def check(self, store, live, rounds, delta, domain):
        def slots(bucket):
            return [store.index_of_row(f.predicate, f.terms) for f in bucket]

        def ordered(bucket):
            return slots(bucket) == sorted(set(slots(bucket)))

        facts = list(live)
        assert store.facts() == tuple(facts) == tuple(store)
        assert len(store) == len(facts)
        assert set(store.predicates()) == {f.predicate for f in facts}
        assert set(store.copy().predicates()) == set(store.predicates())
        if domain:
            assert store.active_domain() == {
                t.value for f in facts for t in f.terms if isinstance(t, Constant)
            }
        else:
            assert store._domain_counts is None
        for f, slot in live.items():
            assert f in store and store.contains_row(f.predicate, f.terms)
            assert store.index_of_row(f.predicate, f.terms) == slot
            assert store.fact_at(slot) == f
            assert store.round_of(f) == rounds[f]
        assert set(store.null_predicates()) == {f.predicate for f in facts if f.has_nulls}
        for predicate, arity in self.PREDICATES.items():
            extent = [f for f in facts if f.predicate == predicate]
            assert list(store.by_predicate(predicate)) == extent
            assert store.count(predicate) == len(extent)
            nulls = sum(f.has_nulls for f in extent)
            assert store.null_facts(predicate) == nulls
            assert store.snapshot().null_facts(predicate) == nulls
            assert ordered(store.by_predicate(predicate))
            dicts = store._position_index.get(predicate)
            if not extent:
                assert dicts is None
            else:
                assert len(dicts) == arity
                assert all(bucket for index in dicts for bucket in index.values())
            in_delta = [f for f in delta if f.predicate == predicate]
            assert list(store.delta_facts(predicate)) == in_delta
            assert ordered(store.delta_facts(predicate))
            for position in range(arity):
                for term in self.TERMS:
                    expected = [f for f in extent if f.terms[position] == term]
                    bucket = store.position_candidates(predicate, position, term)
                    assert list(bucket) == expected
                    assert ordered(bucket)
                    assert list(store.delta_candidates(predicate, position, term)) == [
                        f for f in in_delta if f.terms[position] == term
                    ]
        gone = Fact("P", (Constant(99), Constant(99)))
        assert gone not in store
        with pytest.raises(KeyError):
            store.index_of_row(gone.predicate, gone.terms)

    def test_removal_compares_no_facts(self, monkeypatch):
        """Cost by count: 500 removals out of a 5 000-fact predicate."""
        facts = [fact("P", i % 50, i) for i in range(5000)]
        store = FactStore(facts)
        store.begin_round(1, facts[2500:])
        calls = 0
        original = Atom.__eq__

        def counting_eq(self, other):
            nonlocal calls
            calls += 1
            return original(self, other)

        monkeypatch.setattr(Atom, "__eq__", counting_eq)
        victims = random.Random(3).sample(facts, 500)
        assert store.remove_all(victims) == 500
        assert calls == 0
        monkeypatch.undo()
        survivors = [f for f in facts if f not in set(victims)]
        assert store.facts() == tuple(survivors)
        assert list(store.by_predicate("P")) == survivors
        assert list(store.delta_facts("P")) == [f for f in facts[2500:] if f in store]


class TestStoreSnapshot:
    """The epoch-guarded read view the reasoning service answers through."""

    def test_snapshot_goes_stale_on_mutation(self):
        store = FactStore([fact("P", "a")])
        snapshot = store.snapshot()
        assert snapshot.by_predicate("P")
        store.add(fact("P", "b"))
        assert snapshot.stale
        with pytest.raises(StaleSnapshotError):
            snapshot.by_predicate("P")
        # A retraction moves the epoch too.
        snapshot = store.snapshot()
        assert not snapshot.stale
        store.remove(fact("P", "a"))
        assert snapshot.stale


class TestAnswers:
    def make_result(self):
        program = parse_program(
            """
            KeyPerson(P, X) :- Company(X).
            KeyPerson(P, Y) :- Control(X, Y), KeyPerson(P, X).
            """
        )
        database = [
            fact("Company", "a"),
            fact("Control", "a", "b"),
            fact("KeyPerson", "Bob", "a"),
        ]
        return run_chase(program, database)

    def test_universal_vs_certain(self):
        result = self.make_result()
        universal = universal_answer(result, ["KeyPerson"])
        certain = certain_answer(result, ["KeyPerson"])
        assert certain.count() < universal.count()
        assert all(not f.has_nulls for f in certain.facts("KeyPerson"))

    def test_ground_tuples_and_tuples(self):
        result = self.make_result()
        answers = universal_answer(result, ["KeyPerson"])
        assert ("Bob", "a") in answers.ground_tuples("KeyPerson")
        assert len(answers.tuples("KeyPerson")) >= len(answers.ground_tuples("KeyPerson"))

    def test_order_and_limit(self):
        result = self.make_result()
        answers = extract_answers(
            result, Query(("KeyPerson",), certain=True, order_by=(1,), limit=1)
        )
        assert answers.count("KeyPerson") == 1

    def test_isomorphic_duplicates_removed(self):
        result = self.make_result()
        answers = universal_answer(result, ["KeyPerson"])
        keys = set()
        from repro.core.isomorphism import isomorphism_key

        for f in answers.facts("KeyPerson"):
            key = isomorphism_key(f)
            assert key not in keys
            keys.add(key)

    def test_unknown_predicate_gives_empty_answers(self):
        result = self.make_result()
        answers = universal_answer(result, ["Nope"])
        assert answers.count("Nope") == 0
