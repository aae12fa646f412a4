"""Typed expression language for rule bodies (Section 5, "Expressions").

Vadalog supports expressions in rule bodies with two purposes:

1. as the left-hand side of a *condition* — a comparison
   (``>``, ``<``, ``>=``, ``<=``, ``==``, ``!=``) between an expression and a
   body variable or another expression;
2. as the left-hand side of an *assignment*, which defines the value of an
   (existentially quantified) head variable.

Expressions are built from terms and combined with type-related operators:
algebraic (``+ - * / %`` and exponentiation), string operators
(``startswith``, ``substring``, ``indexof``, ``concat``, ``lower``,
``upper``), boolean connectives and type-conversion functions.

Evaluation happens against a *binding*, a mapping from variables to ground
terms (constants or nulls).  Operations on labelled nulls raise
:class:`ExpressionError` except for (in)equality comparisons, mirroring the
system's behaviour that nulls carry no value semantics.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple

from .terms import Constant, Null, Term, Variable


class ExpressionError(Exception):
    """Raised when an expression cannot be evaluated for a given binding."""


Binding = Mapping[Variable, Term]


class Expression:
    """Abstract base class for expressions."""

    __slots__ = ()

    def evaluate(self, binding: Binding) -> Any:
        """Evaluate to a plain Python value under ``binding``."""
        raise NotImplementedError

    def variables(self) -> Tuple[Variable, ...]:
        """Variables referenced by the expression, without duplicates."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Literal(Expression):
    """A literal constant value."""

    value: Any

    def evaluate(self, binding: Binding) -> Any:
        return self.value

    def variables(self) -> Tuple[Variable, ...]:
        return ()

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, str) else str(self.value)


@dataclass(frozen=True, slots=True)
class VariableRef(Expression):
    """A reference to a body variable."""

    variable: Variable

    def evaluate(self, binding: Binding) -> Any:
        term = binding.get(self.variable)
        if term is None:
            raise ExpressionError(f"unbound variable {self.variable.name}")
        if isinstance(term, Constant):
            return term.value
        if isinstance(term, Null):
            return term
        raise ExpressionError(
            f"variable {self.variable.name} bound to non-ground term {term}"
        )

    def variables(self) -> Tuple[Variable, ...]:
        return (self.variable,)

    def __str__(self) -> str:
        return self.variable.name


def _require_value(value: Any, context: str) -> Any:
    if isinstance(value, Null):
        raise ExpressionError(f"labelled null used in {context}")
    return value


def _checked_div(left: Any, right: Any) -> Any:
    if right == 0:
        raise ExpressionError("division by zero")
    return left / right


_BINARY_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _checked_div,
    "%": operator.mod,
    "**": operator.pow,
    "&": lambda a, b: bool(a) and bool(b),
    "|": lambda a, b: bool(a) or bool(b),
    "concat": lambda a, b: str(a) + str(b),
    "startswith": lambda a, b: str(a).startswith(str(b)),
    "endswith": lambda a, b: str(a).endswith(str(b)),
    "contains": lambda a, b: str(b) in str(a),
    "indexof": lambda a, b: str(a).find(str(b)),
    "min": min,
    "max": max,
}

_UNARY_OPS: Dict[str, Callable[[Any], Any]] = {
    "-": operator.neg,
    "not": lambda a: not bool(a),
    "abs": abs,
    "sqrt": math.sqrt,
    "floor": math.floor,
    "ceil": math.ceil,
    "lower": lambda a: str(a).lower(),
    "upper": lambda a: str(a).upper(),
    "length": lambda a: len(str(a)),
    "toString": str,
    "toInt": int,
    "toFloat": float,
    "toBoolean": bool,
}


@dataclass(frozen=True, slots=True)
class UnaryOp(Expression):
    """Application of a unary operator to a sub-expression."""

    op: str
    operand: Expression

    def evaluate(self, binding: Binding) -> Any:
        func = _UNARY_OPS.get(self.op)
        if func is None:
            raise ExpressionError(f"unknown unary operator {self.op!r}")
        value = _require_value(self.operand.evaluate(binding), f"operator {self.op}")
        try:
            return func(value)
        except ExpressionError:
            raise
        except Exception as exc:  # noqa: BLE001 - surface as typed error
            raise ExpressionError(f"cannot apply {self.op} to {value!r}: {exc}") from exc

    def variables(self) -> Tuple[Variable, ...]:
        return self.operand.variables()

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True, slots=True)
class BinaryOp(Expression):
    """Application of a binary operator to two sub-expressions."""

    op: str
    left: Expression
    right: Expression

    def evaluate(self, binding: Binding) -> Any:
        func = _BINARY_OPS.get(self.op)
        if func is None:
            raise ExpressionError(f"unknown binary operator {self.op!r}")
        left = _require_value(self.left.evaluate(binding), f"operator {self.op}")
        right = _require_value(self.right.evaluate(binding), f"operator {self.op}")
        try:
            return func(left, right)
        except ExpressionError:
            raise
        except Exception as exc:  # noqa: BLE001 - surface as typed error
            raise ExpressionError(
                f"cannot apply {self.op} to {left!r}, {right!r}: {exc}"
            ) from exc

    def variables(self) -> Tuple[Variable, ...]:
        seen: Dict[Variable, None] = {}
        for variable in self.left.variables() + self.right.variables():
            seen.setdefault(variable, None)
        return tuple(seen)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class FunctionCall(Expression):
    """A call to a named n-ary function (e.g. a type conversion or Skolem)."""

    name: str
    arguments: Tuple[Expression, ...]

    def evaluate(self, binding: Binding) -> Any:
        values = [arg.evaluate(binding) for arg in self.arguments]
        if self.name in _UNARY_OPS and len(values) == 1:
            return _UNARY_OPS[self.name](_require_value(values[0], self.name))
        if self.name in _BINARY_OPS and len(values) == 2:
            return _BINARY_OPS[self.name](
                _require_value(values[0], self.name),
                _require_value(values[1], self.name),
            )
        raise ExpressionError(f"unknown function {self.name}/{len(values)}")

    def variables(self) -> Tuple[Variable, ...]:
        seen: Dict[Variable, None] = {}
        for arg in self.arguments:
            for variable in arg.variables():
                seen.setdefault(variable, None)
        return tuple(seen)

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.arguments)
        return f"{self.name}({inner})"


def literal(value: Any) -> Literal:
    """Shorthand constructor for a literal expression."""
    return Literal(value)


def var(name: str) -> VariableRef:
    """Shorthand constructor for a variable reference expression."""
    return VariableRef(Variable(name))


def term_expression(term: Term) -> Expression:
    """Wrap a term as an expression (constants → literals, variables → refs)."""
    if isinstance(term, Variable):
        return VariableRef(term)
    if isinstance(term, Constant):
        return Literal(term.value)
    raise ExpressionError("labelled nulls cannot appear in source expressions")
