"""Tests for the pipeline-architecture components: plan, scheduler, joins, wrappers."""

import hashlib
import os
import subprocess
import sys

import pytest

from differential_harness import SCENARIOS
from repro import VadalogReasoner
from repro.core.atoms import fact
from repro.core.forests import input_node
from repro.core.parser import parse_program
from repro.core.terms import Constant, Null
from repro.core.termination import TrivialIsomorphismStrategy
from repro.engine.plan import compile_plan
from repro.engine.scheduler import RoundRobinScheduler
from repro.engine.wrappers import TerminationWrapper, WrapperRegistry

RECURSIVE_PROGRAM = parse_program(
    """
    @output("T").
    T(X, Y) :- E(X, Y).
    T(X, Z) :- T(X, Y), E(Y, Z).
    """
)


class TestPlan:
    def test_nodes_and_edges(self):
        plan = compile_plan(RECURSIVE_PROGRAM)
        kinds = {n.kind for n in plan.nodes}
        assert kinds == {"source", "rule", "sink"}
        assert plan.sources()[0].predicate == "E"
        assert plan.sinks()[0].predicate == "T"
        assert len(plan.rule_nodes()) == 2

    def test_recursion_detected(self):
        plan = compile_plan(RECURSIVE_PROGRAM)
        assert plan.has_cycles()
        assert len(plan.recursive_components()) == 1

    def test_acyclic_plan(self):
        plan = compile_plan(parse_program("B(X) :- A(X).\nC(X) :- B(X)."))
        assert not plan.has_cycles()

    def test_topological_rule_order_producers_first(self):
        program = parse_program(
            """
            C(X) :- B(X).
            B(X) :- A(X).
            """
        )
        plan = compile_plan(program)
        order = plan.topological_rule_order(program)
        labels = [r.head_predicate_names()[0] for r in order]
        assert labels.index("B") < labels.index("C")

    def test_describe_mentions_nodes(self):
        plan = compile_plan(RECURSIVE_PROGRAM)
        text = plan.describe()
        assert "source:" in text and "sink:" in text


def scheduled_order_digest(name):
    """sha256 of the rule labels in the order the scheduler fixed."""
    reasoner = VadalogReasoner(SCENARIOS[name]().program.copy())
    labels = "\n".join(rule.label for rule in reasoner.program.rules)
    return hashlib.sha256(labels.encode()).hexdigest()


class TestScheduler:
    def test_round_robin_schedule(self):
        plan = compile_plan(RECURSIVE_PROGRAM)
        report = RoundRobinScheduler(plan, RECURSIVE_PROGRAM).schedule()
        assert report.recursive_components == 1
        # The non-recursive producer precedes the recursive rule it feeds.
        assert [rule.label for rule in report.rule_order] == ["r1", "r2"]

    def test_non_recursive_program_is_topologically_ordered(self):
        program = parse_program(
            """
            @output("D").
            D(X) :- C(X).
            C(X) :- B(X).
            B(X) :- A(X).
            """
        )
        report = RoundRobinScheduler(compile_plan(program), program).schedule()
        assert report.recursive_components == 0
        assert [rule.label for rule in report.rule_order] == ["r3", "r2", "r1"]

    def test_recursive_group_keeps_program_order(self):
        program = parse_program(
            """
            @output("Out").
            Out(X) :- Q(X).
            Q(X) :- P(X).
            P(X) :- Q(X), E(X).
            P(X) :- E(X).
            """
        )
        report = RoundRobinScheduler(compile_plan(program), program).schedule()
        assert report.recursive_components == 1
        # r4 feeds the {r2, r3} cycle, which stays in textual order; the
        # consumer r1 comes last.
        assert [rule.label for rule in report.rule_order] == ["r4", "r2", "r3", "r1"]

    def test_scheduled_order_is_pinned(self):
        # Digests captured at the commit that still scanned the edge list
        # per node (PR 11): the adjacency dicts must visit neighbours — and
        # so emit rules — in exactly that order.  Harmful-join elimination
        # iterates sets, so the optimized programs are only reproducible
        # under a fixed hash seed: run in a PYTHONHASHSEED=0 child, the
        # benchmark's own environment.
        pinned = {
            "iwarded-synthA": "96955230d337fb1dfce0c72558bb59dfd2043338efa6fc511c10b837511dc5b5",
            "iwarded-synthB": "0230275b3290a7225bc9a170b8752f3b95b2123b980a8f9a293dc34349ee0040",
            "lubm": "716e7952043fdd81fef6d0033f303d7c225200b1a01229d261a2ea766ac5da01",
            "iwarded-parametric": "945006ad67903c56a0ce214e0f7ce8b44bf44dc7a492a61677eac8536fab04f6",
            "ibench-ont": "fa2ff44acc34a55ada382030329de01f6db2f74026686dd62715e744a73a1fff",
        }
        script = (
            "import test_engine_components as t\n"
            f"for name in {sorted(pinned)!r}:\n"
            "    print(name, t.scheduled_order_digest(name))\n"
        )
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [tests_dir, os.path.join(tests_dir, os.pardir, "src"), env.get("PYTHONPATH", "")]
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert dict(line.split() for line in child.stdout.splitlines()) == pinned

    @pytest.mark.parametrize("executor", ["compiled", "streaming"])
    def test_thousand_rule_chain_constructs_and_answers(self, executor):
        # Regression: recursive Tarjan died with RecursionError on a linear
        # chain longer than the interpreter's recursion limit.
        depth = 1200
        text = f'@output("P{depth}").\n' + "\n".join(
            f"P{i + 1}(X, Y) :- P{i}(X, Y)." for i in range(depth)
        )
        reasoner = VadalogReasoner(text, executor=executor)
        assert reasoner.scheduler_report.recursive_components == 0
        assert [rule.head[0].predicate for rule in reasoner.program.rules] == [
            f"P{i + 1}" for i in range(depth)
        ]
        result = reasoner.reason(database={"P0": [(1, 2)]})
        assert result.status == "complete"
        assert result.ground_tuples(f"P{depth}") == {(1, 2)}


class TestFireSlotsKernel:
    """Every executor fires through ``ChaseEngine.fire_slots``, from a plan's
    slot array or from a binding ``fire_binding`` completed."""

    PROGRAM = """
    @output("Gen"). @output("Scaled"). @output("Blocked"). @output("Never").
    @output("Sum"). @output("W").
    Gen(X, Z) :- Src(X, N).
    Scaled(X, V) :- Src(X, N), Dom(X), N > 1, V = N * 10.
    Blocked(X, Z) :- Gen(X, Z), Dom(Z).
    Never(X, V) :- Src(X, N), Dom(Y), Y > 0, V = N * 10.
    Sum(S) :- Src(X, N), S = msum(N, <X>).
    W(X, V, Z) :- Src(X, N), V = N * 10.
    """
    DATABASE = {"Src": [("a", 1), ("b", 2), ("c", 3)]}
    OUTPUTS = ("Gen", "Scaled", "Blocked", "Never", "Sum", "W")
    EXECUTORS = ("compiled", "naive", "streaming")

    @staticmethod
    def patterns(result, predicate):
        return sorted(
            tuple(t.value if isinstance(t, Constant) else "_" for t in f.terms)
            for f in result.facts(predicate)
        )

    def test_both_branches_agree_across_drivers(self):
        reference = VadalogReasoner(self.PROGRAM, executor="compiled")
        plans = {
            rule.head[0].predicate: reference.join_plans[id(rule)]
            for rule in reference.program.rules
        }
        # The simple existential rule takes the head-template branch; the
        # others build a binding: assignment + Dom guard, a Dom guard alone,
        # a residual condition (over the Dom-only variable Y, which no match
        # binds, so the rule can never fire), an aggregate, and an
        # assignment next to an existential.  So the binding's templates
        # hold every entry kind: variable, null, ground and computed.
        assert plans["Gen"].simple_fire
        for predicate in ("Scaled", "Blocked", "Sum", "W"):
            assert not plans[predicate].simple_fire, predicate
        assert plans["Never"].residual_conditions

        expected = {
            "Gen": [("a", "_"), ("b", "_"), ("c", "_")],
            "Scaled": [("b", 20), ("c", 30)],
            "Blocked": [],  # Dom rejects the labelled null
            "Never": [],
            "Sum": [(6,)],
            "W": [("a", 10, "_"), ("b", 20, "_"), ("c", 30, "_")],
        }
        for executor in self.EXECUTORS:
            result = VadalogReasoner(self.PROGRAM, executor=executor).reason(
                database=self.DATABASE
            )
            got = {p: self.patterns(result, p) for p in self.OUTPUTS}
            assert got == expected, executor

    @pytest.mark.parametrize(
        "rule",
        ["P(X, Y) :- Q(X), Dom(Y).", "P(X, Y) :- Q(X), Y > 3."],
        ids=["dom-guard", "condition"],
    )
    def test_unsafe_heads_derive_nothing(self, rule):
        # Y is bound by no body atom: a Dom guard on it never holds, and a
        # condition on it (Y is then existential) rejects every match.
        for executor in self.EXECUTORS:
            reasoner = VadalogReasoner(f'@output("P"). {rule}', executor=executor)
            result = reasoner.reason(database={"Q": [(1,), (5,)]})
            assert result.status == "complete", executor
            assert result.chase.facts("P") == (), executor


class TestTerminationWrappers:
    def test_wrapper_counts_and_delegates(self):
        strategy = TrivialIsomorphismStrategy()
        wrapper = TerminationWrapper("rule:r1", strategy)
        # Null-bearing: a ground fact is decided by the store, never here.
        node = input_node(fact("P", Null(1)))
        assert wrapper.check_termination(node) is True
        assert wrapper.check_termination(node) is False  # isomorphic duplicate
        assert wrapper.stats.checks == 2
        assert wrapper.stats.accepted == 1 and wrapper.stats.discarded == 1

    def test_registry_shares_strategy(self):
        registry = WrapperRegistry(TrivialIsomorphismStrategy())
        first = registry.wrapper_for("rule:a")
        second = registry.wrapper_for("rule:b")
        assert first.strategy is second.strategy
        assert registry.wrapper_for("rule:a") is first
        node = input_node(fact("P", Null(2)))
        first.check_termination(node)
        assert second.check_termination(node) is False
        assert "rule:a" in registry.stats()
