"""Body conditions and head assignments of Vadalog rules.

A rule body may contain, besides relational atoms:

* **comparisons** between expressions (``w > 0.5``, ``x != y`` …);
* **assignments** that compute a value for a head variable from body
  variables (``v = w * 2``);
* **monotonic aggregations** (``v = msum(w, <y>)``), which are a special
  kind of assignment evaluated statefully by the engine
  (:mod:`repro.core.aggregates`).

Comparisons involving labelled nulls follow the system semantics: equality
and inequality are decided by null identity, every ordering comparison with
a null evaluates to false (a null has no value to compare).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from .expressions import Binding, Expression, ExpressionError
from .terms import Constant, Null, Term, Variable

_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "=": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}

_EQUALITY_OPS = {"==", "=", "!=", "<>"}


class ConditionError(Exception):
    """Raised when a condition is malformed (unknown operator, etc.)."""


@dataclass(frozen=True, slots=True)
class Comparison:
    """A comparison condition ``left <op> right`` between two expressions."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ConditionError(f"unknown comparison operator {self.op!r}")

    def variables(self) -> Tuple[Variable, ...]:
        seen: Dict[Variable, None] = {}
        for variable in self.left.variables() + self.right.variables():
            seen.setdefault(variable, None)
        return tuple(seen)

    def holds(self, binding: Binding) -> bool:
        """Evaluate the comparison under ``binding``.

        Ordering comparisons on labelled nulls (or on unbound/failed
        expressions) evaluate to ``False`` rather than raising, so that the
        chase simply does not fire the rule for that match.
        """
        try:
            left = self.left.evaluate(binding)
            right = self.right.evaluate(binding)
        except ExpressionError:
            return False
        involves_null = isinstance(left, Null) or isinstance(right, Null)
        if involves_null and self.op not in _EQUALITY_OPS:
            return False
        try:
            return bool(_COMPARATORS[self.op](left, right))
        except TypeError:
            return False

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True)
class Assignment:
    """An assignment ``variable = expression`` computed from body bindings.

    The assigned variable behaves like an existentially quantified head
    variable whose value is fully determined by the expression (Section 5).
    """

    variable: Variable
    expression: Expression

    def variables(self) -> Tuple[Variable, ...]:
        return self.expression.variables()

    def compute(self, binding: Binding) -> Term:
        """Compute the assigned term (a constant) for a body binding."""
        value = self.expression.evaluate(binding)
        if isinstance(value, Null):
            return value
        return Constant(value)

    def __str__(self) -> str:
        return f"{self.variable.name} = {self.expression}"


@dataclass(frozen=True, slots=True)
class AggregateSpec:
    """A monotonic-aggregation assignment ``z = maggr(x, <contributors>)``.

    ``function`` is one of ``msum``, ``mprod``, ``mcount``, ``mmin``,
    ``mmax``, ``munion``.  ``argument`` is the aggregated expression, and
    ``contributors`` is the (possibly empty) tuple of contributor variables
    that define the sub-grouping/windowing described in Section 5.  The
    group-by arguments are not stored here: they are derived by the rule as
    the head variables shared with the body.
    """

    variable: Variable
    function: str
    argument: Expression
    contributors: Tuple[Variable, ...] = ()

    SUPPORTED = ("msum", "mprod", "mcount", "mmin", "mmax", "munion")

    def __post_init__(self) -> None:
        if self.function not in self.SUPPORTED:
            raise ConditionError(
                f"unknown monotonic aggregation {self.function!r}; "
                f"supported: {', '.join(self.SUPPORTED)}"
            )

    def variables(self) -> Tuple[Variable, ...]:
        seen: Dict[Variable, None] = {}
        for variable in self.argument.variables():
            seen.setdefault(variable, None)
        for variable in self.contributors:
            seen.setdefault(variable, None)
        return tuple(seen)

    def __str__(self) -> str:
        contributors = ", ".join(v.name for v in self.contributors)
        inner = f"{self.argument}"
        if contributors:
            inner += f", <{contributors}>"
        return f"{self.variable.name} = {self.function}({inner})"


def comparison_between_terms(op: str, left: Term, right: Term) -> Comparison:
    """Build a comparison condition from two raw terms (used by the parser)."""
    from .expressions import term_expression

    return Comparison(op, term_expression(left), term_expression(right))
