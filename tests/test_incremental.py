"""The resident incremental reasoner: differential + DRed edge cases.

The main body is a differential over the shared 16-scenario registry of
``differential_harness``: after any sequence of upserts/retractions the
resident answers must match a from-scratch ``reason()`` on the final
database — ground answers exactly, null-witness answers at *pattern*
level (the resident materialisation may retain a different multiset of
isomorphic null witnesses, the same contract as a lazily completed
streaming run, so ``check_iso=False`` throughout).

The second half pins the delete-and-rederive edge cases one by one:
independently rederivable facts survive, existential null witnesses
disappear exactly when their last justification goes, retract-then-
reinsert is idempotent, and the documented hard errors/fallbacks hold.
"""

import random

import pytest

from differential_harness import (
    SCENARIOS,
    AnswerProfile,
    _profile_facts,
    assert_one_node_per_fact,
    assert_profiles_match,
    scenario_names,
)
from repro.core.atoms import Atom
from repro.core.parser import parse_atom
from repro.engine.incremental import ResidentError, ResidentReasoner
from repro.engine.reasoner import VadalogReasoner, _answer_step

REACH_PROGRAM = """
@output("Reach").
Reach(X, Y) :- Edge(X, Y).
Reach(X, Z) :- Reach(X, Y), Edge(Y, Z).
"""

AUDIT_PROGRAM = """
@output("Audit").
Reach(X, Y) :- Edge(X, Y).
Reach(X, Z) :- Reach(X, Y), Edge(Y, Z).
Audit(Y, Z) :- Source(X), Reach(X, Y).
"""

COUNT_PROGRAM = """
@output("Degree").
Degree(X, N) :- Edge(X, Y), N = mcount(Y).
"""


def _scenario_split(name):
    """One scenario's facts split into an initial set and a held-out tail.

    Every 5th fact (by sorted repr, deterministic) is held out — enough to
    exercise multi-fact deltas without reducing any scenario to an empty
    database.
    """
    scenario = SCENARIOS[name]()
    facts = sorted(VadalogReasoner._database_facts(scenario.database), key=repr)
    late = facts[::5] or facts[:1]
    held_out = set(late)
    initial = [fact for fact in facts if fact not in held_out]
    return scenario, facts, initial, late


def _profile_answers(answers, predicates) -> AnswerProfile:
    ground, iso, patterns = {}, {}, {}
    for predicate in predicates:
        g, i, p = _profile_facts(answers.facts(predicate))
        ground[predicate] = g
        iso[predicate] = i
        patterns[predicate] = p
    return AnswerProfile(ground=ground, iso=iso, patterns=patterns, result=None)


def _scratch_profile(name, facts) -> AnswerProfile:
    """From-scratch ``reason()`` on an explicit fact list, profiled."""
    scenario = SCENARIOS[name]()
    reasoner = VadalogReasoner(scenario.program.copy(), executor="compiled")
    result = reasoner.reason(database=facts, outputs=scenario.outputs)
    return _profile_answers(result.answers, scenario.outputs)


def _warm(resident, predicates) -> None:
    """Fill every memo entry a write could leave stale: all outputs, each output."""
    resident.answers()
    for predicate in predicates:
        resident.query(outputs=[predicate])


def _resident_profile(resident, predicates) -> AnswerProfile:
    answers = resident.answers()
    for predicate in predicates:
        assert resident.query(outputs=[predicate]).facts(predicate) == answers.facts(
            predicate
        ), predicate
    return _profile_answers(answers, predicates)


@pytest.mark.parametrize("name", scenario_names())
def test_upsert_matches_from_scratch(name):
    """Resident(initial) + upsert(tail) == reason(initial + tail)."""
    scenario, facts, initial, late = _scenario_split(name)
    resident = ResidentReasoner(scenario.program.copy(), database=initial)
    assert_one_node_per_fact(resident.result)
    _warm(resident, scenario.outputs)
    resident.upsert(late)
    assert_one_node_per_fact(resident.result)
    reference = _scratch_profile(name, facts)
    candidate = _resident_profile(resident, scenario.outputs)
    assert_profiles_match(
        name, reference, candidate, check_iso=False, label="upsert"
    )


@pytest.mark.parametrize("name", scenario_names())
def test_retract_matches_from_scratch(name):
    """Resident(full) - retract(tail) == reason(initial)."""
    scenario, _facts, initial, late = _scenario_split(name)
    resident = ResidentReasoner(
        SCENARIOS[name]().program.copy(), database=scenario.database
    )
    assert_one_node_per_fact(resident.result)
    _warm(resident, scenario.outputs)
    resident.retract(late)
    assert_one_node_per_fact(resident.result)
    reference = _scratch_profile(name, initial)
    candidate = _resident_profile(resident, scenario.outputs)
    assert_profiles_match(
        name, reference, candidate, check_iso=False, label="retract"
    )


@pytest.mark.parametrize("name", scenario_names())
def test_retract_then_reinsert_matches_from_scratch(name):
    """A retract/upsert round trip converges back to the full database."""
    scenario, facts, initial, late = _scenario_split(name)
    resident = ResidentReasoner(
        SCENARIOS[name]().program.copy(), database=scenario.database
    )
    assert_one_node_per_fact(resident.result)
    _warm(resident, scenario.outputs)
    resident.retract(late)
    assert_one_node_per_fact(resident.result)
    # Checked midway too: memo entries left over from the full database
    # would be right again after the round trip.
    assert_profiles_match(
        name,
        _scratch_profile(name, initial),
        _resident_profile(resident, scenario.outputs),
        check_iso=False,
        label="round-trip retract",
    )
    resident.upsert(late)
    assert_one_node_per_fact(resident.result)
    reference = _scratch_profile(name, facts)
    candidate = _resident_profile(resident, scenario.outputs)
    assert_profiles_match(
        name, reference, candidate, check_iso=False, label="round-trip"
    )


class TestUpsert:
    def test_upsert_derives_consequences(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b")]}
        )
        assert resident.query().ground_tuples("Reach") == {("a", "b")}
        resident.upsert({"Edge": [("b", "c")]})
        assert resident.query().ground_tuples("Reach") == {
            ("a", "b"),
            ("b", "c"),
            ("a", "c"),
        }

    def test_upsert_returns_new_fact_count(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b")]}
        )
        assert resident.upsert({"Edge": [("a", "b"), ("b", "c")]}) == 1
        assert resident.upsert({"Edge": [("b", "c")]}) == 0

    def test_upsert_of_already_derived_fact_adds_nothing(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b"), ("b", "c")]}
        )
        # Reach("a", "c") is derived; upserting it as extensional must not
        # create a duplicate store entry or a second chase node.
        facts_before = len(resident.store)
        assert resident.upsert({"Reach": [("a", "c")]}) == 0
        assert len(resident.store) == facts_before
        # ...but it is now extensional: retracting the edge that derived it
        # keeps it alive.
        resident.retract({"Edge": [("b", "c")]})
        assert ("a", "c") in resident.query().ground_tuples("Reach")

    def test_epoch_advances_on_every_write(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b")]}
        )
        first = resident.epoch
        resident.upsert({"Edge": [("b", "c")]})
        second = resident.epoch
        assert second > first
        resident.retract({"Edge": [("b", "c")]})
        assert resident.epoch > second

    def test_no_op_writes_keep_the_memo(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b"), ("b", "c")]}
        )
        resident.query('Reach("a", Y)')
        epoch = resident.epoch
        # Already extensional, already derived, never stored: nothing changes.
        assert resident.upsert({"Edge": [("a", "b")]}) == 0
        assert resident.upsert({"Reach": [("a", "c")]}) == 0
        assert resident.retract({"Edge": [("x", "y")]}) == 0
        assert resident.epoch > epoch
        assert resident.query('Reach("b", Y)').ground_tuples("Reach") == {("b", "c")}
        stats = resident.stats()
        assert (stats["cache_misses"], stats["cache_hits"]) == (1, 1)
        assert stats["invalidations"] == 0

    def test_aggregates_stay_incremental_under_upsert(self):
        resident = ResidentReasoner(
            COUNT_PROGRAM, database={"Edge": [("a", "b"), ("a", "c")]}
        )
        assert resident.query().ground_tuples("Degree") == {("a", 2)}
        resident.upsert({"Edge": [("a", "d"), ("b", "c")]})
        assert not resident.needs_settle
        assert resident.query().ground_tuples("Degree") == {("a", 3), ("b", 1)}

    def test_derived_facts_follow_a_retraction(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b"), ("b", "c"), ("x", "y")]}
        )
        assert ("x", "y") in {f.values() for f in resident.result.derived_facts()}
        # One node goes and one comes back per predicate: the node count
        # is what it was, the derived facts are not.
        resident.retract({"Edge": [("x", "y")]})
        resident.upsert({"Edge": [("p", "q")]})
        derived = resident.result.derived_facts()
        assert set(derived) == set(resident.store.by_predicate("Reach"))
        assert ("p", "q") in {f.values() for f in derived}


class TestDRedEdgeCases:
    def test_independently_rederivable_fact_survives(self):
        # a->c through b (length 2, derived first, so it owns the recorded
        # justification) and through d->e (length 3): deleting the b-route
        # overdeletes Reach("a", "c") and the rederivation step must bring
        # it back via the longer route.
        resident = ResidentReasoner(
            REACH_PROGRAM,
            database={
                "Edge": [
                    ("a", "b"),
                    ("b", "c"),
                    ("a", "d"),
                    ("d", "e"),
                    ("e", "c"),
                ]
            },
        )
        resident.retract({"Edge": [("b", "c")]})
        reach = resident.query().ground_tuples("Reach")
        assert ("a", "c") in reach
        assert ("b", "c") not in reach
        assert resident.stats()["rederived"] >= 1

    def test_fact_with_surviving_recorded_justification_is_untouched(self):
        # The recorded justification of Reach("a", "c") is whichever route
        # derived it first; with two length-2 routes the surviving one keeps
        # the fact out of the overdeletion closure entirely.
        resident = ResidentReasoner(
            REACH_PROGRAM,
            database={
                "Edge": [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")]
            },
        )
        resident.retract({"Edge": [("b", "c")]})
        reach = resident.query().ground_tuples("Reach")
        assert ("a", "c") in reach
        assert ("b", "c") not in reach

    def test_existential_witness_disappears_with_last_justification(self):
        # Audit(Y, Z) invents Z for every node reached from a source;
        # retracting the only source must delete the null witness.
        resident = ResidentReasoner(
            AUDIT_PROGRAM,
            database={"Edge": [("a", "b")], "Source": [("a",)]},
        )
        assert len(resident.query().facts("Audit")) > 0
        resident.retract({"Source": [("a",)]})
        assert resident.query().facts("Audit") == ()

    def test_existential_witness_survives_alternative_justification(self):
        # Two sources reach "b"; dropping one must keep the Audit witness
        # for "b" (pattern-identical, possibly a different null label).
        resident = ResidentReasoner(
            AUDIT_PROGRAM,
            database={
                "Edge": [("a", "b"), ("c", "b")],
                "Source": [("a",), ("c",)],
            },
        )
        before = {f.values()[0] for f in resident.query().facts("Audit")}
        resident.retract({"Source": [("a",)]})
        after = {f.values()[0] for f in resident.query().facts("Audit")}
        assert "b" in after
        assert after <= before

    def test_retract_then_reinsert_restores_existential_pattern(self):
        database = {"Edge": [("a", "b"), ("b", "c")], "Source": [("a",)]}
        resident = ResidentReasoner(AUDIT_PROGRAM, database=database)
        _, _, patterns_before = _profile_facts(resident.query().facts("Audit"))
        resident.retract({"Source": [("a",)]})
        resident.upsert({"Source": [("a",)]})
        _, _, patterns_after = _profile_facts(resident.query().facts("Audit"))
        # The relabelled nulls must present the same witness patterns.
        assert patterns_after == patterns_before

    def test_retracting_derived_fact_raises(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b"), ("b", "c")]}
        )
        with pytest.raises(ValueError, match="derived, not extensional"):
            resident.retract({"Reach": [("a", "c")]})

    def test_retracting_program_fact_raises(self):
        resident = ResidentReasoner(
            REACH_PROGRAM + '\nEdge("p", "q").\n',
            database={"Edge": [("a", "b")]},
        )
        with pytest.raises(ValueError, match="program text"):
            resident.retract({"Edge": [("p", "q")]})

    def test_rejected_retract_batch_leaves_state_untouched(self):
        # The batch is validated before anything is applied: a derived fact
        # late in the batch must not leave earlier facts half-retracted
        # (discarded from the extensional set but still materialised).
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b"), ("b", "c")]}
        )
        epoch_before = resident.epoch
        with pytest.raises(ValueError, match="derived, not extensional"):
            resident.retract({"Edge": [("a", "b")], "Reach": [("a", "c")]})
        assert resident.epoch == epoch_before
        assert resident.query().ground_tuples("Reach") == {
            ("a", "b"),
            ("b", "c"),
            ("a", "c"),
        }
        # The untouched extensional set still accepts the valid retraction.
        assert resident.retract({"Edge": [("a", "b")]}) == 1
        assert resident.query().ground_tuples("Reach") == {("b", "c")}

    def test_duplicate_facts_in_a_retract_batch_count_once(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b"), ("b", "c")]}
        )
        removed = resident.retract(
            {"Edge": [("b", "c"), ("b", "c")]}
        )
        assert removed == 1
        assert resident.query().ground_tuples("Reach") == {("a", "b")}

    def test_retracting_absent_fact_is_ignored(self):
        resident = ResidentReasoner(
            REACH_PROGRAM, database={"Edge": [("a", "b")]}
        )
        assert resident.retract({"Edge": [("x", "y")]}) == 0
        assert resident.query().ground_tuples("Reach") == {("a", "b")}

    def test_aggregate_retraction_falls_back_to_rebuild(self):
        resident = ResidentReasoner(
            COUNT_PROGRAM, database={"Edge": [("a", "b"), ("a", "c")]}
        )
        resident.retract({"Edge": [("a", "c")]})
        assert resident.needs_settle
        # Writes on a dirty reasoner are staged, not chased.
        resident.upsert({"Edge": [("d", "e")]})
        assert resident.query().ground_tuples("Degree") == {("a", 1), ("d", 1)}
        assert resident.stats()["full_rebuilds"] == 1
        assert not resident.needs_settle


class TestSeededRederivation:
    """Rederivation seeds a rule from the facts that can join a deleted head
    only while the store is closed under the rules; after a vertical prune
    of the warded strategy every rule seeds from its whole extent."""

    CHAIN = """
    @output("P").
    P(X, Y) :- Q(X).
    P(Y, Z) :- P(X, Y).
    """

    @pytest.mark.parametrize(
        "strategy, pruned", [("trivial-isomorphism", False), ("warded", True)]
    )
    def test_restricted_seeds_only_on_a_closed_store(self, strategy, pruned):
        scenario, _facts, initial, late = _scenario_split("iwarded-synthB")
        resident = ResidentReasoner(
            scenario.program.copy(), database=scenario.database, strategy=strategy
        )
        assert bool(resident.result.strategy.stats.vertical_prunes) == pruned
        resident.retract(late)
        stats = resident.stats()
        assert stats["full_seeds"] > 0
        if pruned:
            assert stats["restricted_seeds"] == 0
        else:
            # Only rules whose deleted heads hold a null where the body
            # joins them keep their whole extent.
            assert stats["restricted_seeds"] > 5 * stats["full_seeds"]
        assert_profiles_match(
            "iwarded-synthB",
            _scratch_profile("iwarded-synthB", initial),
            _resident_profile(resident, scenario.outputs),
            check_iso=False,
            label=f"retract ({strategy})",
        )

    def test_a_prune_during_an_upsert_closes_the_gate(self):
        resident = ResidentReasoner(self.CHAIN, database={"Q": [("a",)]})
        # One tree: the chain stops on an isomorphism check, prunes nothing.
        assert resident.result.strategy.stats.vertical_prunes == 0
        resident.upsert({"Q": [("b",)]})
        # The second tree stops beyond the stop-provenance the first learned.
        assert resident.result.strategy.stats.vertical_prunes > 0
        resident.retract({"Q": [("b",)]})
        stats = resident.stats()
        assert (stats["restricted_seeds"], stats["full_seeds"]) == (0, 2)
        assert resident.query().ground_tuples("P") == set()
        assert len(resident.query().facts("P")) == 2


class TestMemoPatching:
    """A write patches the null-free memo entries with its delta."""

    PROGRAM = """
    @output("Reach").
    @output("Pair").
    Reach(X, Y) :- Edge(X, Y).
    Reach(X, Z) :- Reach(X, Y), Edge(Y, Z).
    Pair(X, Y) :- Source(X), Reach(X, Y).
    """

    @staticmethod
    def fresh_index(answers, index):
        """The point-query index ``_filter_answers`` would build for ``answers``."""
        fresh = {}
        for predicate, position in index:
            buckets = fresh[(predicate, position)] = {}
            for fact in answers.facts(predicate):
                buckets.setdefault(fact.terms[position], []).append(fact)
        return fresh

    @pytest.mark.parametrize("seed", range(3))
    def test_patched_entries_equal_a_fresh_extraction(self, seed):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(7)]
        edges = set()
        while len(edges) < 12:
            edges.add((rng.choice(nodes), rng.choice(nodes)))
        resident = ResidentReasoner(
            self.PROGRAM, database={"Edge": sorted(edges), "Source": [("n0",), ("n1",)]}
        )
        writes = 0
        for step in range(16):
            # Warm every entry shape: both outputs, each output, certain or
            # not, and a point-query index at each position.
            for certain in (False, True):
                resident.answers(certain=certain)
                resident.query(outputs=["Reach"], certain=certain)
            for node in nodes[:3]:
                resident.query(f'Reach("{node}", Y)')
                resident.query(f'Pair(X, "{node}")')
            if step % 2 and edges:
                edge = rng.choice(sorted(edges))
                edges.discard(edge)
                writes += resident.retract({"Edge": [edge]})
            else:
                edge = (rng.choice(nodes), rng.choice(nodes))
                edges.add(edge)
                writes += resident.upsert({"Edge": [edge]})
            assert len(resident._memo) == 5
            for (predicates, certain), (answers, index, _) in resident._memo.items():
                fresh = _answer_step(resident.result, predicates, certain, ())
                assert answers.facts_by_predicate == fresh.facts_by_predicate
                assert index == self.fresh_index(fresh, index)
        stats = resident.stats()
        assert stats["invalidations"] == 0
        assert writes > 10 and stats["patches"] == 5 * writes
        assert stats["overdeleted"] > 0 and stats["rederived"] > 0

    def test_entries_with_nulls_are_dropped(self):
        resident = ResidentReasoner(
            AUDIT_PROGRAM,
            database={"Edge": [("a", "b"), ("b", "c")], "Source": [("a",)]},
        )
        before = resident.answers()
        resident.query(outputs=["Reach"])
        resident.upsert({"Edge": [("c", "d")]})
        stats = resident.stats()
        assert (stats["invalidations"], stats["patches"]) == (1, 1)
        # The caller's answers are never patched in place.
        assert ("d",) not in {row[:1] for row in before.tuples("Audit")}
        assert ("c", "d") in resident.query(outputs=["Reach"]).ground_tuples("Reach")


class TestPointQueries:
    """Point queries probe an index over the memoised extraction.

    Whatever the shape of the query atom, the answer is what a full scan
    of the extraction with ``Atom.match`` returns — same facts, same order
    — and what a one-shot ``reason(query=...)`` on the current database
    returns; after every write the index is patched with the extraction,
    or dropped and rebuilt with it.
    """

    PROGRAM = """
    @output("Reach").
    @output("Audit").
    Reach(X, Y) :- Edge(X, Y).
    Reach(X, Z) :- Reach(X, Y), Edge(Y, Z).
    Audit(Y, Z) :- Source(X), Reach(X, Y).
    """
    EDGES = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("e", "a"), ("d", "f")]
    QUERIES = [
        'Reach("a", Y)',  # constant at position 0
        'Reach(X, "d")',  # constant at position 1
        'Reach("e", "f")',  # both
        "Reach(X, Y)",  # none
        "Reach(X, X)",  # repeated variable
        'Reach("a", "a")',
        'Reach("nowhere", Y)',  # unknown constant
        'Reach(X, "nowhere")',
        'Reach("a")',  # wrong arity
        'Reach("a", Y, Z)',
        'Audit("b", Z)',  # null-bearing answers
        "Audit(Y, Z)",
        'Audit(Y, "b")',
    ]

    def check_all(self, resident, edges):
        database = {"Edge": sorted(edges), "Source": [("a",), ("e",)]}
        reasoner = VadalogReasoner(self.PROGRAM)
        everything = resident.query(None)
        sizes = {}
        for text in self.QUERIES:
            atom = parse_atom(text)
            predicate = atom.predicate
            answers = resident.query(text)
            assert list(answers.facts_by_predicate) == [predicate], text
            assert answers.facts(predicate) == tuple(
                f for f in everything.facts(predicate) if atom.match(f) is not None
            ), text
            one_shot = reasoner.reason(database=database, query=text)
            ground, _, patterns = _profile_facts(answers.facts(predicate))
            expected_ground, _, expected_patterns = _profile_facts(
                one_shot.answers.facts(predicate)
            )
            assert ground == expected_ground, text
            assert patterns == expected_patterns, text
            sizes[text] = len(answers)
        return sizes

    @pytest.mark.parametrize("executor", ["compiled", "naive"])
    def test_every_query_shape_before_and_after_writes(self, executor):
        edges = set(self.EDGES)
        resident = ResidentReasoner(
            self.PROGRAM,
            database={"Edge": sorted(edges), "Source": [("a",), ("e",)]},
            executor=executor,
        )
        sizes = self.check_all(resident, edges)
        assert sizes["Reach(X, X)"] == 3 and sizes['Reach("a")'] == 0
        assert sizes['Reach("nowhere", Y)'] == 0 and sizes['Audit("b", Z)'] == 1

        # The index built above must answer for the new extraction.
        edges.add(("f", "g"))
        resident.upsert({"Edge": [("f", "g")]})
        assert ("a", "g") in resident.query('Reach("a", Y)').ground_tuples("Reach")
        after_upsert = self.check_all(resident, edges)
        assert after_upsert['Reach("a", Y)'] == sizes['Reach("a", Y)'] + 1

        edges.discard(("c", "d"))
        resident.retract({"Edge": [("c", "d")]})
        assert resident.query('Reach(X, "d")').count() == 0
        after_retract = self.check_all(resident, edges)
        assert after_retract['Reach("a", Y)'] == 3
        assert after_retract["Reach(X, X)"] == 3

    def test_second_point_query_matches_only_its_bucket(self, monkeypatch):
        edges = [(f"n{i}", f"n{(i + 1) % 40}") for i in range(40)]
        resident = ResidentReasoner(REACH_PROGRAM, database={"Edge": edges})
        assert resident.query('Reach("n0", Y)').count() == 40
        calls = 0
        original = Atom.match

        def counting_match(self, fact):
            nonlocal calls
            calls += 1
            return original(self, fact)

        monkeypatch.setattr(Atom, "match", counting_match)
        assert resident.query('Reach("n7", Y)').count() == 40
        assert calls == 40  # not the 1 600 facts of the extent
        assert resident.query('Reach("n7", "n9")').count() == 1
        assert calls == 80


class TestConstruction:
    def test_rejects_streaming_executor(self):
        with pytest.raises(ValueError, match="resident executor"):
            ResidentReasoner(REACH_PROGRAM, executor="streaming")

    def test_rejects_strategy_instance(self):
        from repro.core.termination import WardedTerminationStrategy

        with pytest.raises(ValueError, match="named termination strategy"):
            ResidentReasoner(
                REACH_PROGRAM, strategy=WardedTerminationStrategy()
            )
        reasoner = VadalogReasoner(REACH_PROGRAM, strategy=WardedTerminationStrategy())
        with pytest.raises(ValueError, match="named termination strategy"):
            reasoner.resident()

    def test_reasoner_resident_entry_point(self):
        reasoner = VadalogReasoner(REACH_PROGRAM)
        resident = reasoner.resident(database={"Edge": [("a", "b")]})
        assert resident.query().ground_tuples("Reach") == {("a", "b")}

    def test_snapshot_query_on_unsettled_reasoner_raises(self):
        resident = ResidentReasoner(
            COUNT_PROGRAM, database={"Edge": [("a", "b"), ("a", "c")]}
        )
        resident.retract({"Edge": [("a", "c")]})
        assert resident.needs_settle
        with pytest.raises(ResidentError, match="unsettled"):
            resident.query(snapshot=resident.snapshot())
