"""Tests for monotonic aggregation (Section 5) — operators and end-to-end rules."""

import pytest
from hypothesis import given, strategies as st

from repro.core.aggregates import (
    AggregateError,
    AggregateRegistry,
    MonotonicAggregate,
    is_increasing,
)
from repro.core.conditions import AggregateSpec
from repro.core.expressions import var
from repro.core.terms import Variable
from repro.engine.reasoner import reason


def spec(function, contributors=()):
    return AggregateSpec(
        Variable("Z"), function, var("W"), tuple(Variable(c) for c in contributors)
    )


class TestOperators:
    def test_msum_with_contributors_example_10(self):
        # Example 10 of the paper: msum over w with contributor y, group x.
        evaluator = MonotonicAggregate(spec("msum", ("Y",)))
        assert evaluator.update(("g1",), ("c2",), 5) == 5
        assert evaluator.update(("g1",), ("c2",), 3) == 5  # same contributor: max
        assert evaluator.update(("g1",), ("c3",), 7) == 12  # new contributor: sum
        assert evaluator.update(("g2",), ("c4",), 2) == 2
        assert evaluator.update(("g2",), ("c4",), 3) == 3
        assert evaluator.update(("g2",), ("c5",), 1) == 4
        finals = evaluator.final_values()
        assert finals[("g1",)] == 12 and finals[("g2",)] == 4

    def test_mcount_counts_distinct_contributions(self):
        evaluator = MonotonicAggregate(spec("mcount"))
        assert evaluator.update(("g",), ("a",), 1) == 1
        assert evaluator.update(("g",), ("a",), 1) == 1
        assert evaluator.update(("g",), ("b",), 1) == 2

    def test_mmax_and_mmin(self):
        mmax = MonotonicAggregate(spec("mmax"))
        assert mmax.update(("g",), ("a",), 5) == 5
        assert mmax.update(("g",), ("b",), 3) == 5
        assert mmax.update(("g",), ("c",), 9) == 9
        mmin = MonotonicAggregate(spec("mmin"))
        assert mmin.update(("g",), ("a",), 5) == 5
        assert mmin.update(("g",), ("b",), 3) == 3

    def test_munion_accumulates_sets(self):
        evaluator = MonotonicAggregate(spec("munion"))
        assert evaluator.update(("g",), ("a",), "p1") == frozenset({"p1"})
        assert evaluator.update(("g",), ("b",), "p2") == frozenset({"p1", "p2"})

    def test_mprod(self):
        evaluator = MonotonicAggregate(spec("mprod"))
        assert evaluator.update(("g",), ("a",), 2) == 2
        assert evaluator.update(("g",), ("b",), 3) == 6

    def test_current_of_unknown_group_is_none(self):
        assert MonotonicAggregate(spec("msum")).current(("missing",)) is None

    def test_is_increasing(self):
        assert is_increasing("msum") and is_increasing("mcount")
        assert not is_increasing("mmin")
        with pytest.raises(ValueError):
            is_increasing("sum")

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=30))
    def test_msum_monotonically_non_decreasing(self, values):
        evaluator = MonotonicAggregate(spec("msum", ("Y",)))
        previous = 0
        for index, value in enumerate(values):
            current = evaluator.update(("g",), (f"c{index % 5}",), value)
            assert current >= previous
            previous = current

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=30))
    def test_final_msum_independent_of_order(self, values):
        forward = MonotonicAggregate(spec("msum", ("Y",)))
        backward = MonotonicAggregate(spec("msum", ("Y",)))
        for index, value in enumerate(values):
            forward.update(("g",), (f"c{index}",), value)
        for index, value in reversed(list(enumerate(values))):
            backward.update(("g",), (f"c{index}",), value)
        assert forward.final_values() == backward.final_values()


#: (group, contributor, value) updates: group "one" has one contributor,
#: group "many" three, each seen more than once.
UPDATES = [
    ("one", "a", 2), ("many", "a", 4), ("many", "b", 3), ("one", "a", 5),
    ("many", "c", 1.5), ("many", "a", 1), ("many", "b", 6), ("one", "a", 3),
]

#: The final value per group of each function over :data:`UPDATES`: per
#: contributor the largest value (the smallest for ``mmin``), combined.
FINAL_VALUES = {
    "msum": {("one",): 5, ("many",): 11.5},
    "mprod": {("one",): 5, ("many",): 36.0},
    "mmax": {("one",): 5, ("many",): 6},
    "mmin": {("one",): 2, ("many",): 1},
    "mcount": {("one",): 1, ("many",): 3},
    "munion": {("one",): frozenset({2, 3, 5}), ("many",): frozenset({1, 1.5, 3, 4, 6})},
}


class TestFinalValues:
    """``final_values()`` of every function, over a group with one
    contributor and a group with several."""

    @pytest.mark.parametrize("function", sorted(FINAL_VALUES))
    def test_final_values(self, function):
        evaluator = MonotonicAggregate(spec(function, ("Y",)))
        for group, contributor, value in UPDATES:
            evaluator.update((group,), (contributor,), value)
        assert evaluator.final_values() == FINAL_VALUES[function]
        assert evaluator.groups() == (("one",), ("many",)) and len(evaluator) == 2
        for group, value in FINAL_VALUES[function].items():
            assert evaluator.current(group) == value


class TestRegistry:
    def test_position_consistency_enforced(self):
        registry = AggregateRegistry()
        registry.register_position("Q", 1, "msum")
        registry.register_position("Q", 1, "msum")
        with pytest.raises(AggregateError):
            registry.register_position("Q", 1, "mcount")

    def test_evaluator_reuse_per_rule(self):
        registry = AggregateRegistry()
        s = spec("msum")
        assert registry.evaluator_for("r1", s) is registry.evaluator_for("r1", s)
        assert registry.evaluator_for("r1", s) is not registry.evaluator_for("r2", s)


class TestEndToEnd:
    def test_example_10_through_the_reasoner(self):
        program = """
        @output("Q").
        Q(X, J) :- P(X, Y, W), J = msum(W, <Y>).
        """
        database = {
            "P": [(1, 2, 5), (1, 2, 3), (1, 3, 7), (2, 4, 2), (2, 4, 3), (2, 5, 1)]
        }
        result = reason(program, database=database)
        finals = {row[0]: row[1] for row in result.ground_tuples("Q")}
        assert finals == {1: 12, 2: 4}

    def test_company_control_example_2(self):
        program = """
        @output("Control").
        Control(X, Y) :- Own(X, Y, W), W > 0.5.
        Control(X, Z) :- Control(X, Y), Own(Y, Z, W), V = msum(W, <Y>), V > 0.5.
        """
        database = {
            "Own": [
                ("a", "b", 0.6),
                ("a", "c", 0.6),
                ("b", "d", 0.3),
                ("c", "d", 0.3),
                ("c", "e", 0.2),
            ]
        }
        result = reason(program, database=database)
        control = result.ground_tuples("Control")
        assert ("a", "b") in control and ("a", "c") in control
        # a controls d only jointly through b and c (0.3 + 0.3 > 0.5).
        assert ("a", "d") in control
        assert ("a", "e") not in control

    def test_mcount_with_threshold(self):
        program = """
        @output("Popular").
        Popular(X, N) :- Likes(P, X), N = mcount(P), N >= 2.
        """
        database = {"Likes": [("p1", "a"), ("p2", "a"), ("p1", "b")]}
        result = reason(program, database=database)
        finals = result.ground_tuples("Popular")
        assert ("a", 2) in finals
        assert all(row[0] != "b" for row in finals)

    def test_final_aggregate_reduction_keeps_maximum(self):
        program = """
        @output("Total").
        Total(X, S) :- Sale(X, Y, W), S = msum(W, <Y>).
        """
        database = {"Sale": [("shop", "m", 10), ("shop", "t", 20), ("shop", "w", 5)]}
        result = reason(program, database=database)
        assert result.ground_tuples("Total") == {("shop", 35)}
