"""Tests for the storage substrate, the fact store and answer extraction."""

import random
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.core.atoms import Atom, Fact, fact
from repro.core.chase import ChaseEngine, run_chase
from repro.core.fact_store import FactStore, StaleSnapshotError
from repro.core.parser import parse_program
from repro.core.query import certain_answer, universal_answer
from repro.core.terms import Constant, Null, Variable
from repro.engine.joins import CompiledRuleExecutor
from repro.engine.plan import compile_rule_join_plan
from repro.engine.reasoner import VadalogReasoner
from repro.storage.csv_io import load_relation_csv, save_relation_csv
from repro.storage.database import Database, Relation


def built_positions(store):
    """The positions a store has indexed so far, per predicate."""
    return {
        predicate: tuple(sorted(built))
        for predicate, built in store._position_index.items()
        if built
    }


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
        # The seed atom binds X; the second atom then matches under it.
        store = FactStore([fact("E", "a", "b"), fact("E", "a", "c"), fact("E", "z", "b")])
        program = parse_program("T(X, Z) :- E(X, Y), E(X, Z).")
        engine = ChaseEngine(program, executor="naive")
        seed = (0, [fact("E", "a", "b")])
        results = list(engine.match_body(program.rules[0], store, seed))
        assert [binding[Variable("Z")] for binding, _ in results] == [
            Constant("b"),
            Constant("c"),
        ]
        assert [used for _, used in results][1] == [fact("E", "a", "b"), fact("E", "a", "c")]

    def test_round_zero_facts_take_no_round_entry(self):
        store = FactStore([fact("P", 1)])
        store.begin_round(1, [])
        store.add(fact("P", 2))
        assert store._round_of == {fact("P", 2): 1}
        assert store.round_of(fact("P", 1)) == 0
        assert store.round_of(fact("P", 2)) == 1

    def test_chased_inputs_take_no_round_entry(self):
        program = parse_program("T(X, Y) :- E(X, Y). T(X, Z) :- T(X, Y), E(Y, Z).")
        database = [fact("E", i, i + 1) for i in range(5)]
        store = run_chase(program, database).store
        assert not set(database) & set(store._round_of)
        assert all(store.round_of(f) == 0 for f in database)
        assert store._round_of and all(r > 0 for r in store._round_of.values())

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
        # Each position is first probed at its own step, some only by the
        # final check: an index built after interleaved adds and removals
        # must still equal the model, and so must every later state of it.
        positions = [(p, i) for p, arity in sorted(self.PREDICATES.items()) for i in range(arity)]
        probe_rng = random.Random(1000 + seed)
        first_probe = {pair: probe_rng.choice((0, 60, 150, 280, 400)) for pair in positions}
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
            probed = {pair for pair, first in first_probe.items() if first <= step}
            self.check(store, live, rounds, delta, domain=step >= domain_from, probed=probed)
        self.check(store, live, rounds, delta, domain=True, probed=set(positions))

    def test_built_index_outlives_its_predicate(self):
        store = FactStore([fact("P", "a", 1)])
        index = store.index("P", 0)
        assert store.remove(fact("P", "a", 1))
        assert store.predicates() == () and index == {}
        store.add(fact("P", "b", 2))
        assert store.index("P", 0) is index and index == {Constant("b"): [fact("P", "b", 2)]}
        assert built_positions(store) == {"P": (0,)}

    def check(self, store, live, rounds, delta, domain, probed):
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
            in_delta = [f for f in delta if f.predicate == predicate]
            assert list(store.delta_facts(predicate)) == in_delta
            assert ordered(store.delta_facts(predicate))
            for position in range(arity):
                for term in self.TERMS:
                    assert list(store.delta_candidates(predicate, position, term)) == [
                        f for f in in_delta if f.terms[position] == term
                    ]
                    if (predicate, position) not in probed:
                        continue
                    expected = [f for f in extent if f.terms[position] == term]
                    bucket = store.position_candidates(predicate, position, term)
                    assert list(bucket) == expected
                    assert ordered(bucket)
            # The built indexes are exactly the probed positions, and each
            # holds the model's non-empty, slot-ordered buckets.
            built = built_positions(store).get(predicate, ())
            assert set(built) == {i for p, i in probed if p == predicate}
            for position in built:
                index = store.index(predicate, position)
                assert all(index.values()) and all(map(ordered, index.values()))
                model = {}
                for f in extent:
                    model.setdefault(f.terms[position], []).append(f)
                assert index == model
        gone = Fact("P", (Constant(99), Constant(99)))
        assert gone not in store
        with pytest.raises(KeyError):
            store.index_of_row(gone.predicate, gone.terms)

    def test_removal_compares_no_facts(self, monkeypatch):
        """Cost by count: 500 removals out of a 5 000-fact predicate."""
        facts = [fact("P", i % 50, i) for i in range(5000)]
        store = FactStore(facts)
        store.index("P", 0)  # removals edit a built index's buckets too
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
        assert store.index("P", 0)[Constant(7)] == [f for f in survivors if f.terms[0] == Constant(7)]

    def test_blocks_per_stored_fact(self):
        """Memory by count: 10 000 arity-3 facts, one position probed."""
        facts = [fact("P", i, i % 100, i % 7) for i in range(10_000)]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            store = FactStore(facts)
            store.index("P", 1)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stored = [
            stat
            for stat in after.compare_to(before, "filename")
            if "fact_store" in str(stat.traceback)
        ]
        blocks = sum(stat.count_diff for stat in stored)
        # Per fact only its slot number (an int beyond the small-int cache);
        # the extent, the dedup map and the probed index's 100 buckets grow
        # in few blocks.  Indexing the unprobed, all-distinct position 0
        # would add a bucket list (two blocks) per fact, and a dedup key
        # tuple per fact one more.
        assert len(store) == 10_000
        assert blocks / len(facts) < 1.1


class TestProbedIndexes:
    """A position is indexed when something probes it, and only then."""

    def test_company_control_builds_only_the_probed_positions(self):
        program = """
        @output("Control").
        Control(X, Y) :- Own(X, Y, W), W > 0.5.
        Control(X, Z) :- Control(X, Y), Own(Y, Z, W), V = msum(W, <Y>), V > 0.5.
        """
        own = [
            ("a", "b", 0.6), ("b", "c", 0.6), ("c", "d", 0.7),
            ("a", "e", 0.7), ("b", "f", 0.3), ("e", "f", 0.3),
        ]
        result = VadalogReasoner(program).reason(database={"Own": own})
        assert result.ground_tuples("Control") == {
            ("a", "b"), ("b", "c"), ("c", "d"), ("a", "e"),
            ("a", "c"), ("a", "d"), ("b", "d"), ("a", "f"),
        }
        # The recursive rule seeds from Control's delta and probes Own on
        # its first position, or seeds from Own's and probes Control on its
        # second; nothing reads the other three positions through an index.
        assert built_positions(result.chase.store) == {"Own": (0,), "Control": (1,)}

    def test_kernel_sees_facts_added_while_suspended(self):
        program = parse_program("Out(X, Z) :- E(X, Y), T(Y, Z).")
        (rule,) = program.rules
        executor = CompiledRuleExecutor(compile_rule_join_plan(rule))
        store = FactStore([fact("T", "b", "x")])
        store.begin_round(1, [])
        for edge in (fact("E", "a", "b"), fact("E", "c", "d")):
            store.add(edge)
        store.begin_round(2, [fact("E", "a", "b"), fact("E", "c", "d")])
        result = SimpleNamespace(candidate_facts=0)  # what the kernel writes
        matches = executor.matches(store, 2, result=result)
        _, used = next(matches)
        assert used == [fact("E", "a", "b"), fact("T", "b", "x")]
        # Both land in T's position-0 index the kernel bound before its
        # first yield: one in the bucket it is iterating, one under a key
        # it has not probed yet.
        store.add(fact("T", "b", "y"))
        store.add(fact("T", "d", "z"))
        assert [used for _, used in matches] == [
            [fact("E", "a", "b"), fact("T", "b", "y")],
            [fact("E", "c", "d"), fact("T", "d", "z")],
        ]
        assert built_positions(store) == {"T": (0,)}


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
