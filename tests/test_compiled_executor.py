"""Differential tests: the compiled executor vs the naive (interpreted) path.

The compiled slot-machine executor is the default chase evaluation path; the
interpreted matcher is kept behind ``executor="naive"`` exactly so the two
can be compared fact-for-fact.  For every workload family in the shared
registry (``tests/differential_harness.py``) both executors must derive the
same fact set — ground facts compared exactly, null-carrying facts up to
labelled-null isomorphism (the chase only defines nulls up to bijective
renaming, and the two executors may create them in a different
interleaving).
"""

import linecache
import traceback

import pytest

from differential_harness import (
    SCENARIOS,
    _profile_facts,
    run_in_threads,
    scenario_names,
    store_profile,
)
from repro.core.atoms import fact
from repro.core.chase import run_chase
from repro.core.parser import escape_string_literal, parse_program
from repro.engine import joins
from repro.engine.incremental import ResidentReasoner
from repro.engine.joins import CompiledRuleExecutor, render_kernel
from repro.engine.plan import CompiledCondition, compile_rule_join_plan
from repro.engine.reasoner import VadalogReasoner


class TestCompiledMatchesNaive:
    @pytest.mark.parametrize("name", scenario_names())
    def test_same_fact_set(self, name):
        ground_naive, nulls_naive, _ = store_profile(name, "naive")
        ground_compiled, nulls_compiled, _ = store_profile(name, "compiled")
        assert ground_compiled == ground_naive, f"{name}: ground facts differ"
        assert nulls_compiled == nulls_naive, (
            f"{name}: null-fact isomorphism profiles differ"
        )


class TestExecutorFlag:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            VadalogReasoner("A(X) :- B(X).", executor="jit")

    def test_compiled_is_default(self):
        reasoner = VadalogReasoner("A(X) :- B(X).")
        assert reasoner.executor == "compiled"
        assert reasoner.join_plans  # plans compiled at construction

    def test_naive_compiles_no_plans(self):
        reasoner = VadalogReasoner("A(X) :- B(X).", executor="naive")
        assert reasoner.join_plans == {}


class TestJoinPlanShape:
    def test_selectivity_orders_bound_atom_first(self):
        reasoner = VadalogReasoner(
            "Out(X, Z) :- Big(Y, W), Edge(X, Y), Start(X), Other(Z)."
        )
        rule = next(r for r in reasoner.program.rules if r.label)
        plan = compile_rule_join_plan(rule)
        assert len(plan.seed_plans) == len(rule.relational_body)
        # Seeding from Big(Y, W): Edge shares Y, so it must be probed before
        # the unconnected Other/Start atoms would force a cross product.
        big_index = next(
            i for i, a in enumerate(rule.relational_body) if a.predicate == "Big"
        )
        seed_plan = plan.seed_plans[big_index]
        first_probe = seed_plan.probes[0]
        assert first_probe.predicate in ("Edge",)
        assert first_probe.bound_checks  # joins on the already-bound Y slot

    def test_repeated_variable_becomes_same_check(self):
        reasoner = VadalogReasoner("Out(X) :- Pair(X, X).")
        rule = next(r for r in reasoner.program.rules if r.label)
        plan = compile_rule_join_plan(rule)
        seed = plan.seed_plans[0].seed
        assert seed.same_checks == ((1, 0),)

    def test_aggregate_rule_keeps_textual_order_and_dict_path(self):
        reasoner = VadalogReasoner(
            """
            Control(X, Y) :- Own(X, Y, W), W > 0.5.
            Control(X, Z) :- Control(X, Y), Own(Y, Z, W), V = msum(W, <Y>), V > 0.5.
            """
        )
        rule = next(r for r in reasoner.program.rules if r.aggregate is not None)
        plan = compile_rule_join_plan(rule)
        assert not plan.simple_fire
        for seed_plan in plan.seed_plans:
            indexes = [seed_plan.seed.atom_index] + [
                s.atom_index for s in seed_plan.probes
            ]
            assert sorted(indexes[1:]) == indexes[1:]  # probes in textual order


# ---------------------------------------------------------------------------
# Generated join kernels: one per plan shape
# ---------------------------------------------------------------------------


def _run_profile(program, database, executor):
    """Run ``program`` and profile its store: ground facts + null iso keys."""
    result = VadalogReasoner(program, executor=executor).reason(database=database)
    ground, iso, _ = _profile_facts(result.chase.store)
    return ground, iso, result


def assert_matches_naive(program, database):
    """Compiled and naive derive the same store (nulls up to isomorphism)."""
    ground_naive, iso_naive, naive = _run_profile(program, database, "naive")
    ground, iso, compiled = _run_profile(program, database, "compiled")
    assert ground == ground_naive
    assert iso == iso_naive
    return compiled, naive


def _plans(program):
    reasoner = VadalogReasoner(program)
    return [reasoner.join_plans[id(rule)] for rule in reasoner.program.rules]


class TestKernelShapes:
    def test_condition_over_slots_bound_at_different_steps(self):
        program = """
        @output("Out"). @output("Tag").
        Out(X, Z) :- A(X, Y), B(Y, Z), C(Z, W), X < W.
        Tag(X, N) :- A(X, Y), C(Y, W), W > X.
        """
        database = {
            "A": [(i, i % 4) for i in range(10)],
            "B": [(j, j + 10) for j in range(4)],
            "C": [(0, 4), (1, 0), (2, 9), (3, 2), (10, 3), (11, 9), (12, 1), (13, 5)],
        }
        # Non-vacuous: some pushed condition reads a slot an earlier step wrote.
        spread = False
        for plan in _plans(program):
            for seed_plan in plan.seed_plans:
                written = set()
                for step in (seed_plan.seed,) + seed_plan.probes:
                    for condition in step.conditions:
                        slots = {slot for _, slot in condition.var_slots}
                        spread |= bool(slots & written)
                    written |= {slot for _, slot in step.writes}
        assert spread
        compiled, _ = assert_matches_naive(program, database)
        expected = {(x, x % 4 + 10) for x in range(10) if x < (3, 9, 1, 5)[x % 4]}
        assert compiled.ground_tuples("Out") == expected
        assert {row[0] for row in compiled.tuples("Tag")} == {0, 2, 6}

    def test_repeated_variables(self):
        program = """
        @output("Out"). @output("Loop").
        Out(X, Y) :- P(X, X, Y), Q(Y, Y, X).
        Loop(X) :- Q(X, Y, X), P(Y, Y, Z).
        """
        database = {
            "P": [(1, 1, 2), (1, 2, 2), (3, 3, 3), (2, 2, 1)],
            "Q": [(2, 2, 1), (2, 1, 1), (3, 3, 3), (1, 2, 1)],
        }
        assert any(
            step.same_checks
            for plan in _plans(program)
            for seed_plan in plan.seed_plans
            for step in seed_plan.probes
        )
        compiled, _ = assert_matches_naive(program, database)
        assert compiled.ground_tuples("Out") == {(1, 2), (3, 3)}
        assert compiled.ground_tuples("Loop") == {(1,), (3,)}

    def test_constants_on_probe_atoms(self):
        program = """
        @output("Out").
        Out(X, Z) :- S(X), R(X, "k", Z, 1).
        Out(X, Z) :- S(X), R(X, "absent", Z, 1).
        """
        database = {
            "S": [(i,) for i in range(6)],
            "R": [
                (i % 3, tag, z, one)
                for i in range(12)
                for tag in ("k", "j")
                for z, one in ((i, 1), (i + 100, 2))
            ],
        }
        probes = [
            step
            for plan in _plans(program)
            for seed_plan in plan.seed_plans
            for step in seed_plan.probes
            if step.predicate == "R"
        ]
        assert probes and all(len(step.const_checks) == 2 for step in probes)
        compiled, _ = assert_matches_naive(program, database)
        assert compiled.ground_tuples("Out") == {(i % 3, i) for i in range(12)}

    def test_two_head_rule_with_one_head_present(self):
        # Parsed, not normalized: the reasoner would split the two heads.
        program = parse_program("H1(X), H2(X, Y) :- A(X, Y).")
        (plan,) = (compile_rule_join_plan(rule) for rule in program.rules)
        assert len(plan.head_templates) == 2
        database = [fact("A", 1, 2), fact("A", 1, 3), fact("A", 2, 4), fact("H1", 1)]
        naive, compiled = (
            run_chase(program, database, executor=executor)
            for executor in ("naive", "compiled")
        )
        assert set(compiled.store) == set(naive.store)
        assert {f.values() for f in compiled.facts("H1")} == {(1,), (2,)}
        assert {f.values() for f in compiled.facts("H2")} == {(1, 2), (1, 3), (2, 4)}
        for counter in ("chase_steps", "candidate_facts"):
            assert getattr(compiled, counter) == getattr(naive, counter)

    def test_wrong_arity_facts_in_a_bucket(self):
        program = """
        @output("Two"). @output("Three"). @output("Const").
        Two(X, Y) :- S(X), R(X, Y).
        Three(X, Z) :- S(X), R(X, Y, Z).
        Const(X) :- S(X), R(X, Y, 3).
        Never(X) :- S(X), T(X, Y, 3).
        """
        database = {
            "S": [(1,), (2,)],
            "R": [(1, 2), (1, 2, 3), (1, 5), (2, 7, 9)],
            "T": [(1, 3), (2, 3)],
        }
        compiled, _ = assert_matches_naive(program, database)
        assert compiled.ground_tuples("Two") == {(1, 2), (1, 5)}
        assert compiled.ground_tuples("Three") == {(1, 3), (2, 9)}
        assert compiled.ground_tuples("Const") == {(1,)}
        assert not compiled.tuples("Never")

    def test_zero_probe_rules(self):
        program = """
        @output("Copy"). @output("Picked"). @output("Fresh").
        Copy(X, Y) :- A(X, Y).
        Picked(X) :- A(X, "c").
        Fresh(X, N) :- A(X, Y).
        """
        assert all(
            not seed_plan.probes
            for plan in _plans(program)
            for seed_plan in plan.seed_plans
        )
        database = {"A": [(1, "c"), (2, "d"), (3, "c"), (1, "e")]}
        compiled, _ = assert_matches_naive(program, database)
        assert compiled.ground_tuples("Picked") == {(1,), (3,)}
        assert len(compiled.tuples("Fresh")) == 3

    def test_dred_full_join_seed_lists(self, monkeypatch):
        program = """
        @output("Reach").
        Reach(X, Y) :- Edge(X, Y).
        Reach(X, Z) :- Reach(X, Y), Edge(Y, Z).
        """
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e")]
        seeded = []
        matches = CompiledRuleExecutor.matches

        def recording(self, store, round_index, *, result, tick=None, seed_lists=None):
            seeded.append(seed_lists is not None)
            return matches(
                self, store, round_index, result=result, tick=tick, seed_lists=seed_lists
            )

        monkeypatch.setattr(CompiledRuleExecutor, "matches", recording)
        resident = ResidentReasoner(program, database={"Edge": edges})
        resident.retract({"Edge": [("a", "c"), ("d", "e")]})
        assert any(seeded)
        remaining = [e for e in edges if e not in (("a", "c"), ("d", "e"))]
        _, _, naive = _run_profile(program, {"Edge": remaining}, "naive")
        assert resident.query().ground_tuples("Reach") == naive.ground_tuples("Reach")
        assert ("a", "c") in naive.ground_tuples("Reach")


    def test_body_longer_than_the_nesting_limit(self):
        # 25 relational atoms: more nested ``for`` loops than one Python
        # function may hold, so the kernel carries on in further functions.
        # The pushed condition reads slots bound on both sides of the split.
        length = 25
        chain = ", ".join(f"E{i}(X{i}, X{i + 1})" for i in range(length))
        program = f"""
        @output("Path"). @output("Gap").
        Path(X0, X{length}) :- {chain}.
        Gap(X0, X{length}) :- {chain}, X0 < X{length}.
        """
        database = {f"E{i}": [(j, j + 1) for j in range(30)] for i in range(length)}
        database["E0"].append((100, 1))
        (plan,) = _plans(f"Path(X0, X{length}) :- {chain}.")
        assert len(plan.seed_plans) == length > joins.MAX_NESTING
        source = CompiledRuleExecutor(plan).source
        assert source.count("\ndef ") == length * ((length - 1) // joins.MAX_NESTING)
        compiled, _ = assert_matches_naive(program, database)
        gap = {(j, j + length) for j in range(6)}
        assert compiled.ground_tuples("Gap") == gap
        assert compiled.ground_tuples("Path") == gap | {(100, length)}

    def test_atom_wider_than_the_indent_limit(self):
        # 120 join positions on one probe: the bucket choice is flat, not
        # one indentation level per key (the tokenizer stops at 100).
        width = 120
        terms = ", ".join(f"X{i}" for i in range(width))
        program = f"""
        @output("Out").
        Out(X0, X{width - 1}) :- S({terms}), T({terms}).
        """
        row = tuple(range(width))
        database = {"S": [row, row[::-1]], "T": [row, row[:-1] + (-1,)]}
        compiled, _ = assert_matches_naive(program, database)
        assert compiled.ground_tuples("Out") == {(0, width - 1)}


class TestKernelSource:
    def test_program_text_never_reaches_the_source(self):
        hostile = ['a"b\'c', "line1\nline2", "__import__('os')"]
        q, n, imp = (escape_string_literal(value) for value in hostile)
        program = f"""
        @output("Out"). @output("Flag").
        Out(X, {imp}) :- A(X, {q}), B(X, {n}).
        Flag(X) :- A(X, Y), Y != {imp}.
        """
        database = {
            "A": [(1, hostile[0]), (2, hostile[2]), (3, "plain")],
            "B": [(1, hostile[1]), (2, hostile[1])],
        }
        compiled, _ = assert_matches_naive(program, database)
        assert compiled.ground_tuples("Out") == {(1, hostile[2])}
        assert compiled.ground_tuples("Flag") == {(1,), (3,)}
        for plan in _plans(program):
            source = CompiledRuleExecutor(plan).source
            for text in hostile + ["__import__", "line1", 'a"b', "Out", "Flag"]:
                assert text not in source

    def test_equal_shape_keys_give_identical_source(self):
        by_shape = {}
        rules = 0
        for name in scenario_names():
            scenario = SCENARIOS[name]()
            reasoner = VadalogReasoner(scenario.program.copy())
            for plan in reasoner.join_plans.values():
                source = render_kernel(plan)
                assert by_shape.setdefault(plan.shape, source) == source
                rules += 1
        assert len(by_shape) < rules

    def test_equal_sources_share_one_kernel(self, monkeypatch):
        # A fresh table, so no shape is evicted while the registry fills it.
        monkeypatch.setattr(joins, "_kernels", {})
        shapes, kernels, sources = set(), set(), set()
        for name in scenario_names():
            reasoner = VadalogReasoner(SCENARIOS[name]().program.copy())
            for plan in reasoner.join_plans.values():
                executor = CompiledRuleExecutor(plan)
                shapes.add(plan.shape)
                kernels.add(executor._kernel)
                sources.add(executor.source)
        assert len(kernels) == len(sources) < len(shapes) <= joins.MAX_KERNELS

    def test_rules_of_one_shape_share_one_kernel(self):
        plans = _plans(
            """
            Out(X, Z) :- A(X, Y), B(Y, Z).
            Other(U, W) :- C(U, V), D(V, W).
            Self(X, Z) :- E(X, Y), E(Y, Z).
            """
        )
        first, second, self_join = (CompiledRuleExecutor(plan) for plan in plans)
        assert first._kernel is second._kernel
        assert first.source == self_join.source
        assert first._values != second._values

    def test_bounded_shape_cache_under_threads(self, monkeypatch):
        monkeypatch.setattr(joins, "MAX_KERNELS", 3)
        monkeypatch.setattr(joins, "_kernels", {})
        # Eight shapes: bodies of one to eight atoms.
        programs = [
            '@output("Out"). Out(X) :- '
            + ", ".join(f"A{i}(X)" for i in range(n))
            + "."
            for n in range(1, 9)
        ]
        database = {f"A{i}": [(1,), (2,)] for i in range(8)}

        def work():
            return [
                VadalogReasoner(program).reason(database=database).ground_tuples("Out")
                for program in programs
            ]

        for answers in run_in_threads(work, threads=4):
            assert answers == [{(1,), (2,)}] * len(programs)
        assert len(joins._kernels) <= 3
        for kernel, source in joins._kernels.values():
            filename = kernel.__code__.co_filename
            assert "".join(linecache.getlines(filename)) == source

    def test_traceback_shows_the_kernel_line(self, monkeypatch):
        def failing(self, slots):
            raise ZeroDivisionError("condition failed")

        monkeypatch.setattr(CompiledCondition, "holds", failing)
        reasoner = VadalogReasoner("@output(\"Out\"). Out(X) :- A(X, Y), B(Y), X > 1.")
        with pytest.raises(ZeroDivisionError) as error:
            reasoner.reason(database={"A": [(2, 3)], "B": [(3,)]})
        frames = [
            frame
            for frame in traceback.extract_tb(error.value.__traceback__)
            if frame.filename.startswith("<kernel:")
        ]
        assert frames
        assert ".holds(slots)" in frames[-1].line
