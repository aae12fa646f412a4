"""Unit tests for the term and atom layer (repro.core.terms / repro.core.atoms)."""

import copy
import hashlib
import os
import pickle
import sqlite3
import subprocess
import sys
import threading

import pytest
from differential_harness import SCENARIOS

import repro.core.terms as terms
from repro.core.atoms import Atom, Fact, Position, Predicate, atom, fact, group_by_predicate
from repro.core.isomorphism import isomorphism_key, pattern_key
from repro.core.parser import parse_program
from repro.core.terms import (
    Constant,
    Null,
    NullFactory,
    Variable,
    VariableFactory,
    apply_substitution,
    constants_of,
    make_term,
    merge_substitutions,
    nulls_of,
    variables_of,
)
from repro.core.transform import remove_duplicate_rules
from repro.engine.reasoner import VadalogReasoner


class TestTerms:
    def test_constant_equality_and_hash(self):
        assert Constant(1) == Constant(1)
        assert Constant(1) != Constant(2)
        assert hash(Constant("a")) == hash(Constant("a"))

    def test_term_kind_predicates(self):
        assert Constant(1).is_constant and Constant(1).is_ground
        assert Variable("X").is_variable and not Variable("X").is_ground
        assert Null(0).is_null and Null(0).is_ground

    def test_null_identity_by_ident(self):
        assert Null(3) == Null(3)
        assert Null(3) != Null(4)

    def test_null_factory_produces_distinct_nulls(self):
        factory = NullFactory()
        nulls = factory.fresh_many(50)
        assert len(set(nulls)) == 50

    def test_null_factory_start_offset(self):
        factory = NullFactory(start=100)
        assert factory.fresh() == Null(100)

    def test_variable_factory_reserved_prefix(self):
        factory = VariableFactory()
        first, second = factory.fresh_many(2)
        assert first != second
        assert first.name.startswith("_V")

    def test_make_term_passthrough_and_wrap(self):
        assert make_term(Variable("X")) == Variable("X")
        assert make_term(42) == Constant(42)

    def test_term_collectors(self):
        terms = (Constant(1), Variable("X"), Null(0), Constant(2))
        assert constants_of(terms) == (Constant(1), Constant(2))
        assert nulls_of(terms) == (Null(0),)
        assert variables_of(terms) == (Variable("X"),)

    def test_apply_substitution(self):
        sub = {Variable("X"): Constant(1)}
        assert apply_substitution(Variable("X"), sub) == Constant(1)
        assert apply_substitution(Variable("Y"), sub) == Variable("Y")
        assert apply_substitution(Constant(9), sub) == Constant(9)

    def test_merge_substitutions_conflict(self):
        first = {Variable("X"): Constant(1)}
        second = {Variable("X"): Constant(2)}
        assert merge_substitutions(first, second) is None
        compatible = {Variable("Y"): Constant(3)}
        merged = merge_substitutions(first, compatible)
        assert merged == {Variable("X"): Constant(1), Variable("Y"): Constant(3)}


class TestAtoms:
    def test_atom_wraps_raw_values_as_constants(self):
        a = atom("Own", "acme", 0.6)
        assert a.terms == (Constant("acme"), Constant(0.6))

    def test_atom_equality_and_hash(self):
        assert atom("P", 1, 2) == atom("P", 1, 2)
        assert atom("P", 1, 2) != atom("P", 2, 1)
        assert hash(atom("P", 1)) == hash(atom("P", 1))
        assert fact("P", 1) == ("P", (Constant(1),))
        assert hash(fact("P", 1)) == hash(("P", (Constant(1),)))

    def test_atom_variables_deduplicated_in_order(self):
        a = Atom("P", (Variable("X"), Variable("Y"), Variable("X")))
        assert a.variables() == (Variable("X"), Variable("Y"))

    def test_positions(self):
        a = atom("P", 1, 2, 3)
        assert a.positions() == (Position("P", 0), Position("P", 1), Position("P", 2))

    def test_positions_of_variable(self):
        a = Atom("P", (Variable("X"), Constant(1), Variable("X")))
        assert a.positions_of(Variable("X")) == (Position("P", 0), Position("P", 2))

    def test_signature(self):
        assert atom("P", 1, 2).signature == Predicate("P", 2)

    def test_substitute(self):
        a = Atom("P", (Variable("X"), Constant(1)))
        b = a.substitute({Variable("X"): Constant(7)})
        assert b == atom("P", 7, 1)

    def test_match_success_and_bindings(self):
        pattern = Atom("P", (Variable("X"), Variable("Y"), Variable("X")))
        f = fact("P", 1, 2, 1)
        assert pattern.match(f) == {Variable("X"): Constant(1), Variable("Y"): Constant(2)}

    def test_match_failure_on_conflicting_repeated_variable(self):
        pattern = Atom("P", (Variable("X"), Variable("X")))
        assert pattern.match(fact("P", 1, 2)) is None

    def test_match_failure_on_predicate_or_arity(self):
        pattern = Atom("P", (Variable("X"),))
        assert pattern.match(fact("Q", 1)) is None
        assert pattern.match(fact("P", 1, 2)) is None

    def test_fact_rejects_variables(self):
        with pytest.raises(ValueError):
            Fact("P", (Variable("X"),))

    def test_fact_has_nulls_and_values(self):
        f = Fact("P", (Constant(1), Null(0)))
        assert f.has_nulls
        assert f.values() == (1, Null(0))
        assert not fact("P", 1, 2).has_nulls

    def test_group_by_predicate(self):
        facts = [fact("P", 1), fact("Q", 2), fact("P", 3)]
        grouped = group_by_predicate(facts)
        assert [f.values() for f in grouped["P"]] == [(1,), (3,)]
        assert len(grouped["Q"]) == 1

    def test_is_ground(self):
        assert atom("P", 1).is_ground()
        assert not Atom("P", (Variable("X"),)).is_ground()


class TestTypedConstants:
    """One constant per type and value: ``1``, ``1.0`` and ``True`` are three."""

    def test_int_float_and_bool_are_three_objects(self):
        one, real, true = Constant(1), Constant(1.0), Constant(True)
        assert len({id(one), id(real), id(true)}) == 3
        assert one != real and one != true and real != true
        assert [type(c.value) for c in (one, real, true)] == [int, float, bool]
        assert Constant(1) is one and Constant(1.0) is real and Constant(True) is true

    def test_equal_values_share_one_object(self):
        assert Constant("acme") is Constant("ac" + "me")
        assert Variable("X") is Variable("X")
        assert Null(3) is Null(3)
        assert hash(Constant(7)) == object.__hash__(Constant(7))
        assert hash(Null(3)) == object.__hash__(Null(3))

    @pytest.mark.parametrize("first, second", [((1,), (1.0,)), ((1.0,), (1,))])
    def test_composite_keeps_element_types_whatever_the_order(self, first, second):
        made = Constant(first), Constant(second)
        assert made[0] is not made[1]
        assert [type(c.value[0]) for c in made] == [type(first[0]), type(second[0])]
        nested = Constant(((first,),)), Constant(((second,),))
        assert nested[0] is not nested[1]
        assert type(nested[1].value[0][0][0]) is type(second[0])

    def test_frozenset_keeps_element_types(self):
        ints, reals = Constant(frozenset({1, 2})), Constant(frozenset({1.0, 2.0}))
        assert ints is not reals
        assert {type(v) for v in reals.value} == {float}
        assert Constant(frozenset({2, 1})) is ints

    def test_constants_are_immutable(self):
        with pytest.raises(AttributeError):
            Constant(1).value = 2
        with pytest.raises(AttributeError):
            Variable("X").name = "Y"
        with pytest.raises(AttributeError):
            Null(0).ident = 1

    def test_parser_numerals_match_their_own_type(self):
        program = """
        @output("Int"). @output("Real").
        Int(X) :- P(X, 1).
        Real(X) :- P(X, 1.0).
        """
        result = VadalogReasoner(program).reason(
            database={"P": [("a", 1), ("b", 1.0), ("c", True)]}
        )
        assert result.ground_tuples("Int") == {("a",)}
        assert result.ground_tuples("Real") == {("b",)}

    def test_duplicate_rule_key_keeps_numerals_of_different_types(self):
        program = parse_program("Q(X) :- P(X, 1).\nQ(Y) :- P(Y, 1.0).\nQ(Z) :- P(Z, 1).")
        assert [str(r) for r in remove_duplicate_rules(program).rules] == [
            str(r) for r in program.rules[:2]
        ]

    def test_sqlite_integer_and_real_columns_through_bind_and_output(self, tmp_path):
        with sqlite3.connect(tmp_path / "in.db") as connection:
            connection.execute("CREATE TABLE T (k TEXT, i INTEGER, r REAL)")
            connection.executemany("INSERT INTO T VALUES (?, ?, ?)", [("a", 1, 1.0), ("b", 2, 2.5)])
        program = """
        @bind("T", "sqlite", "in.db").
        @bind("Out", "sqlite", "out.db").
        @output("Out"). @output("Same").
        Out(K, I, R) :- T(K, I, R).
        Same(K) :- T(K, V, V).
        """
        result = VadalogReasoner(program, base_path=str(tmp_path)).reason()
        assert not result.ground_tuples("Same")
        with sqlite3.connect(tmp_path / "out.db") as connection:
            rows = sorted(connection.execute('SELECT * FROM "Out"'))
        assert rows == [("a", 1, 1.0), ("b", 2, 2.5)]
        assert [(type(i), type(r)) for _, i, r in rows] == [(int, float)] * 2

    def test_csv_coercion_gives_typed_constants(self, tmp_path):
        (tmp_path / "p.csv").write_text("a,1\nb,1.0\nc,true\n")
        program = """
        @bind("P", "csv", "p.csv").
        @output("Int").
        Int(X) :- P(X, 1).
        """
        result = VadalogReasoner(program, base_path=str(tmp_path)).reason()
        assert result.ground_tuples("Int") == {("a",)}
        values = {f.values()[0]: f.terms[1] for f in result.chase.store.by_predicate("P")}
        assert [type(values[k].value) for k in "abc"] == [int, float, bool]
        assert len({id(t) for t in values.values()}) == 3

    def test_msum_and_mcount_value_types(self):
        program = """
        @output("Sum"). @output("Count").
        Sum(G, S) :- V(G, C, W), S = msum(W, <C>).
        Count(G, N) :- V(G, C, W), N = mcount(C).
        """
        result = VadalogReasoner(program).reason(
            database={"V": [("i", "x", 2), ("i", "y", 3), ("f", "x", 0.5), ("f", "y", 1.5)]}
        )
        sums = {g: s for g, s in result.ground_tuples("Sum")}
        assert sums == {"i": 5, "f": 2.0}
        assert (type(sums["i"]), type(sums["f"])) == (int, float)
        assert {type(n) for _, n in result.ground_tuples("Count")} == {int}


class TestInternTables:
    """The intern tables stay bounded, thread-safe and copy-stable."""

    def test_tables_stay_bounded_and_keep_what_is_held(self):
        held = [Constant(f"held-{i}") for i in range(100)]
        held_nulls = [Null(-1 - i) for i in range(100)]
        for i in range(6 * terms._SWEEP_FLOOR):
            Constant(f"unheld-{i}")
            Null(-1000 - i)
        left = sum(1 for value in terms._constants[str] if value.startswith("unheld-"))
        assert left <= 2 * terms._SWEEP_FLOOR
        assert sum(1 for ident in terms._nulls if ident <= -1000) <= 2 * terms._SWEEP_FLOOR
        assert all(Constant(f"held-{i}") is c for i, c in enumerate(held))
        assert all(Null(-1 - i) is n for i, n in enumerate(held_nulls))

    def test_threads_get_one_object_per_value(self):
        # More threads than cores, a short switch interval, and enough
        # throwaway misses that sweeps run while the threads intern.
        values = [f"threaded-{i}" for i in range(3000)] + list(range(10**9, 10**9 + 3000))
        barrier = threading.Barrier(8)
        results = [None] * 8

        def work(index):
            barrier.wait()
            made = {}
            for v in values if index % 2 else values[::-1]:
                made[v] = Constant(v)
                Constant((index, v))
            results[index] = [made[v] for v in values]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(
            all(a is b for a, b in zip(results[0], other)) for other in results[1:]
        )
        assert all(Constant(v) is c for v, c in zip(values, results[0]))

    @pytest.mark.parametrize(
        "term", [Constant(3), Constant("a"), Constant((1.0, "b")), Variable("X"), Null(5)]
    )
    def test_pickle_and_copy_return_the_same_object(self, term):
        assert pickle.loads(pickle.dumps(term)) is term
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term

    def test_a_fact_pickled_by_another_process_hashes_as_here(self):
        script = (
            "import pickle, sys\n"
            "from repro.core.atoms import Fact, fact\n"
            "from repro.core.terms import Null\n"
            "held = fact('P', 3, 'a', (1.0,)), Fact('Q', (Null(7), 'b'))\n"
            "sys.stdout.buffer.write(pickle.dumps(held))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="1")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        child = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, check=True, timeout=60
        )
        restored, with_null = pickle.loads(child.stdout)
        assert restored.terms[0] is Constant(3) and restored.terms[2] is Constant((1.0,))
        assert restored in {fact("P", 3, "a", (1.0,))}
        assert with_null.terms[0] is Null(7)
        assert with_null in {Fact("Q", (Null(7), "b"))}


#: Registry scenarios whose runs must not depend on where terms live in
#: memory: labelled nulls and the termination strategy, monotonic
#: aggregation, EGDs with aggregation.
ORDER_SCENARIOS = ("iwarded-synthG", "company-control", "ds-er-fusion")


def run_profile_lines(padding: int) -> list:
    """One line per scenario and executor: its chase counters, a digest of
    the store's facts in order (labelled nulls by identifier) and a digest
    of the answers in order.  ``padding`` throwaway constants and as many
    throwaway nulls are made and held first, so every later term sits at
    another address."""
    held = [Constant(f"padding-{i}") for i in range(padding)]
    held += [Null(-1 - i) for i in range(padding)]

    def digest(facts) -> str:
        text = "\n".join(f"{f.predicate}{tuple(map(repr, f.terms))}" for f in facts)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    lines = []
    for name in ORDER_SCENARIOS:
        for executor in ("compiled", "naive", "streaming"):
            scenario = SCENARIOS[name]()
            reasoner = VadalogReasoner(scenario.program.copy(), executor=executor)
            result = reasoner.reason(database=scenario.database, outputs=scenario.outputs)
            stats = result.chase.strategy.stats
            counters = (
                result.chase.chase_steps, stats.rejected, stats.vertical_prunes,
                stats.horizontal_skips, stats.stop_provenances_learned,
            )
            lines.append(
                f"{name} {executor} {counters} "
                f"{digest(result.chase.store.facts())} {digest(result.answers.facts())}"
            )
    assert len(held) == 2 * padding
    return lines


def test_runs_do_not_depend_on_term_addresses():
    # Terms hash by identity, so a set of terms or facts iterates in
    # address order.  Two fresh processes, the second with its terms at
    # shifted addresses, must agree on every counter and order.
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [tests_dir, os.path.join(tests_dir, os.pardir, "src"), env.get("PYTHONPATH", "")]
    )
    outputs = []
    for padding in (0, 997):
        script = (
            "import test_terms_atoms as t\n"
            f"print('\\n'.join(t.run_profile_lines({padding})))\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        outputs.append(child.stdout.splitlines())
    assert len(outputs[0]) == 3 * len(ORDER_SCENARIOS)
    assert outputs[0] == outputs[1]


def test_isomorphism_and_pattern_keys_keep_constant_types():
    one, real = Fact("P", (Constant(1), Null(0))), Fact("P", (Constant(1.0), Null(0)))
    assert isomorphism_key(one) != isomorphism_key(real)
    assert isomorphism_key(one) == isomorphism_key(Fact("P", (Constant(1), Null(7))))
    shared = pattern_key(Fact("P", (Constant(1), Constant(1), Null(0))))
    mixed = pattern_key(Fact("P", (Constant(1), Constant(1.0), Null(0))))
    assert shared != mixed
    assert mixed == pattern_key(Fact("P", (Constant(5), Constant(6), Null(3))))
