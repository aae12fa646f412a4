"""Parser for the Vadalog surface syntax.

The textual syntax accepted here follows the paper's examples with the usual
Datalog conventions:

* a **rule** is written ``Head1(...), Head2(...) :- Body1(...), W > 0.5.``;
  identifiers starting with an upper-case letter are variables, everything
  else (lower-case identifiers, numbers, quoted strings) is a constant;
* head variables that do not occur in the body are **existentially
  quantified** (``Owns(P, S, X) :- Company(X).``);
* a **fact** is a rule without body: ``Company("HSBC").``;
* a **negative constraint** has an empty head: ``:- Own(X, X, W).``;
* an **EGD** equates two variables in the head: ``X1 = X2 :- Own(X1,Y,W), Own(X2,Y,W).``;
* **conditions** (``W > 0.5``), **assignments** (``V = W * 2``) and
  **monotonic aggregations** (``V = msum(W, <Y>)``) appear in the body;
* **annotations** are ``@input("Own").``, ``@output("Control").``,
  ``@bind("Own", "csv", "own.csv").`` and friends.
* comments run from ``%`` or ``#`` to the end of the line.

The parser is a hand-written recursive-descent parser over a small tokenizer;
it reports errors with line/column information.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .atoms import Atom, Fact
from .conditions import AggregateSpec, Assignment, Comparison
from .expressions import BinaryOp, Expression, Literal, UnaryOp, VariableRef
from .rules import Annotation, EqualityConstraint, NegativeConstraint, Program, Rule
from .terms import Constant, Term, Variable


class VadalogSyntaxError(Exception):
    """Raised on malformed program text, with position information."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    column: int


_TOKEN_SPEC = [
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"(%|#)[^\n]*"),
    ("IMPLIES", r":-"),
    ("NUMBER", r"-?\d+\.\d+|-?\d+"),
    ("STRING", r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\''),
    ("ANNOT", r"@[A-Za-z_][A-Za-z0-9_]*"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("OP", r"\*\*|<=|>=|==|!=|<>|=|<|>|\+|-|\*|/|%"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LANGLE", r"⟨"),
    ("RANGLE", r"⟩"),
    ("COMMA", r","),
    ("DOT", r"\."),
]

_MASTER_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))

_ESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "t": "\t", "r": "\r"}
_UNESCAPE_RE = re.compile(r"\\(.)")


def _unescape_string(token_value: str) -> str:
    """Decode a STRING token (quotes included) into its value.

    ``\\\\``, ``\\"``, ``\\'``, ``\\n``, ``\\t`` and ``\\r`` are decoded;
    any other escaped character stands for itself (``\\x`` → ``x``).
    """
    body = token_value[1:-1]
    return _UNESCAPE_RE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)), body)


def escape_string_literal(value: str) -> str:
    """Render a string as a double-quoted literal that re-parses to ``value``."""
    escaped = (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
        .replace("\r", "\\r")
    )
    return f'"{escaped}"'


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line = 1
    line_start = 0
    position = 0
    while position < len(text):
        match = _MASTER_RE.match(text, position)
        if match is None:
            column = position - line_start + 1
            raise VadalogSyntaxError(f"unexpected character {text[position]!r}", line, column)
        kind = match.lastgroup or ""
        value = match.group()
        column = position - line_start + 1
        if kind == "WS":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = position + value.rfind("\n") + 1
        elif kind != "COMMENT":
            tokens.append(_Token(kind, value, line, column))
        position = match.end()
    tokens.append(_Token("EOF", "", line, position - line_start + 1))
    return tokens


_AGGREGATE_FUNCTIONS = set(AggregateSpec.SUPPORTED)
_COMPARISON_OPS = {"<", ">", "<=", ">=", "==", "!=", "<>"}


class _Parser:
    def __init__(self, text: str) -> None:
        self._tokens = _tokenize(text)
        self._index = 0

    # -- token helpers -------------------------------------------------------
    def _peek(self, offset: int = 0) -> _Token:
        return self._tokens[min(self._index + offset, len(self._tokens) - 1)]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        if token.kind != "EOF":
            self._index += 1
        return token

    def _expect(self, kind: str, value: Optional[str] = None) -> _Token:
        token = self._peek()
        if token.kind != kind or (value is not None and token.value != value):
            expected = value or kind
            raise VadalogSyntaxError(
                f"expected {expected!r}, found {token.value!r}", token.line, token.column
            )
        return self._advance()

    def _error(self, message: str) -> VadalogSyntaxError:
        token = self._peek()
        return VadalogSyntaxError(message, token.line, token.column)

    # -- grammar ---------------------------------------------------------------
    def parse_program(self) -> Program:
        program = Program()
        while self._peek().kind != "EOF":
            self._parse_statement(program)
        return program

    def _parse_statement(self, program: Program) -> None:
        token = self._peek()
        if token.kind == "ANNOT":
            program.annotations.append(self._parse_annotation(program))
            return
        head_items, is_constraint, egd_pair = self._parse_head()
        if self._peek().kind == "IMPLIES":
            self._advance()
            body_atoms, conditions, assignments, aggregate = self._parse_body()
            self._expect("DOT")
            if is_constraint:
                program.constraints.append(
                    NegativeConstraint(body=tuple(body_atoms), conditions=tuple(conditions))
                )
            elif egd_pair is not None:
                left, right = egd_pair
                program.egds.append(
                    EqualityConstraint(
                        body=tuple(body_atoms),
                        left=left,
                        right=right,
                        conditions=tuple(conditions),
                    )
                )
            else:
                program.add_rule(
                    Rule(
                        body=tuple(body_atoms),
                        head=tuple(head_items),
                        conditions=tuple(conditions),
                        assignments=tuple(assignments),
                        aggregate=aggregate,
                    )
                )
            return
        # No ":-": the statement is a fact (or a list of facts).
        self._expect("DOT")
        if is_constraint or egd_pair is not None:
            raise self._error("constraints and EGDs require a body")
        for atom in head_items:
            if not atom.is_ground():
                raise self._error(f"fact {atom!r} contains variables")
            program.add_fact(Fact(atom.predicate, atom.terms))

    def _parse_annotation(self, program: Program) -> Annotation:
        token = self._expect("ANNOT")
        name = token.value[1:]
        arguments: List[object] = []
        if self._peek().kind == "LPAREN":
            self._advance()
            while self._peek().kind != "RPAREN":
                arguments.append(self._parse_literal_value())
                if self._peek().kind == "COMMA":
                    self._advance()
            self._expect("RPAREN")
        self._expect("DOT")
        annotation = Annotation(name=name, arguments=tuple(arguments))
        if name == "input" and arguments:
            program.inputs.add(str(arguments[0]))
        if name == "output" and arguments:
            program.outputs.add(str(arguments[0]))
        return annotation

    def _parse_literal_value(self) -> object:
        token = self._peek()
        if token.kind == "STRING":
            self._advance()
            return _unescape_string(token.value)
        if token.kind == "NUMBER":
            self._advance()
            return float(token.value) if "." in token.value else int(token.value)
        if token.kind == "IDENT":
            self._advance()
            return token.value
        raise self._error(f"invalid annotation argument {token.value!r}")

    def _parse_head(self) -> Tuple[List[Atom], bool, Optional[Tuple[Variable, Variable]]]:
        """Parse the head: atoms, an empty head (constraint) or an equality (EGD)."""
        if self._peek().kind == "IMPLIES":
            return [], True, None
        # EGD heads look like ``X = Y :- ...``.
        if (
            self._peek().kind == "IDENT"
            and self._is_variable_name(self._peek().value)
            and self._peek(1).kind == "OP"
            and self._peek(1).value == "="
            and self._peek(2).kind == "IDENT"
            and self._is_variable_name(self._peek(2).value)
            and self._peek(3).kind == "IMPLIES"
        ):
            left = Variable(self._advance().value)
            self._advance()  # '='
            right = Variable(self._advance().value)
            return [], False, (left, right)
        atoms = [self._parse_atom()]
        while self._peek().kind == "COMMA":
            self._advance()
            atoms.append(self._parse_atom())
        return atoms, False, None

    def _parse_body(
        self,
    ) -> Tuple[List[Atom], List[Comparison], List[Assignment], Optional[AggregateSpec]]:
        atoms: List[Atom] = []
        conditions: List[Comparison] = []
        assignments: List[Assignment] = []
        aggregate: Optional[AggregateSpec] = None
        while True:
            item = self._parse_body_item()
            if isinstance(item, Atom):
                atoms.append(item)
            elif isinstance(item, Comparison):
                conditions.append(item)
            elif isinstance(item, AggregateSpec):
                if aggregate is not None:
                    raise self._error("at most one aggregation per rule is supported")
                aggregate = item
            elif isinstance(item, Assignment):
                assignments.append(item)
            if self._peek().kind == "COMMA":
                self._advance()
                continue
            break
        return atoms, conditions, assignments, aggregate

    def _parse_body_item(self):
        token = self._peek()
        if token.kind == "IDENT" and self._peek(1).kind == "LPAREN":
            return self._parse_atom()
        # Assignment or aggregation: ``Var = ...``
        if (
            token.kind == "IDENT"
            and self._is_variable_name(token.value)
            and self._peek(1).kind == "OP"
            and self._peek(1).value == "="
        ):
            variable = Variable(self._advance().value)
            self._advance()  # '='
            if (
                self._peek().kind == "IDENT"
                and self._peek().value in _AGGREGATE_FUNCTIONS
                and self._peek(1).kind == "LPAREN"
            ):
                return self._parse_aggregate(variable)
            expression = self._parse_expression()
            return Assignment(variable, expression)
        # Otherwise it must be a comparison between expressions.
        left = self._parse_expression()
        op_token = self._peek()
        if op_token.kind != "OP" or op_token.value not in _COMPARISON_OPS | {"="}:
            raise self._error(f"expected a comparison operator, found {op_token.value!r}")
        self._advance()
        op = "==" if op_token.value == "=" else op_token.value
        right = self._parse_expression()
        return Comparison(op, left, right)

    def _parse_aggregate(self, variable: Variable) -> AggregateSpec:
        function = self._advance().value
        self._expect("LPAREN")
        argument = self._parse_expression()
        contributors: List[Variable] = []
        if self._peek().kind == "COMMA":
            self._advance()
            if self._peek().kind == "OP" and self._peek().value == "<":
                self._advance()
                close = ">"
            elif self._peek().kind == "LANGLE":
                self._advance()
                close = "⟩"
            else:
                raise self._error("expected '<' opening the contributor list")
            while True:
                name_token = self._expect("IDENT")
                if not self._is_variable_name(name_token.value):
                    raise self._error("contributors must be variables")
                contributors.append(Variable(name_token.value))
                if self._peek().kind == "COMMA":
                    self._advance()
                    continue
                break
            if close == ">":
                token = self._peek()
                if token.kind != "OP" or token.value != ">":
                    raise self._error("expected '>' closing the contributor list")
                self._advance()
            else:
                self._expect("RANGLE")
        self._expect("RPAREN")
        return AggregateSpec(
            variable=variable,
            function=function,
            argument=argument,
            contributors=tuple(contributors),
        )

    def _parse_atom(self) -> Atom:
        name_token = self._expect("IDENT")
        self._expect("LPAREN")
        terms: List[Term] = []
        if self._peek().kind != "RPAREN":
            while True:
                terms.append(self._parse_term())
                if self._peek().kind == "COMMA":
                    self._advance()
                    continue
                break
        self._expect("RPAREN")
        return Atom(name_token.value, terms)

    def _parse_term(self) -> Term:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return Constant(value)
        if token.kind == "STRING":
            self._advance()
            return Constant(_unescape_string(token.value))
        if token.kind == "OP" and token.value == "*":
            self._advance()
            return Variable("_STAR")
        if token.kind == "IDENT":
            self._advance()
            if self._is_variable_name(token.value):
                return Variable(token.value)
            return Constant(token.value)
        raise self._error(f"invalid term {token.value!r}")

    @staticmethod
    def _is_variable_name(name: str) -> bool:
        return bool(name) and (name[0].isupper() or name[0] == "_") and not name.startswith("_STAR")

    # -- expressions (precedence climbing) -------------------------------------
    def _parse_expression(self) -> Expression:
        return self._parse_additive()

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self._peek().kind == "OP" and self._peek().value in {"+", "-"}:
            op = self._advance().value
            right = self._parse_multiplicative()
            left = BinaryOp(op, left, right)
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self._peek().kind == "OP" and self._peek().value in {"*", "/", "%", "**"}:
            op = self._advance().value
            right = self._parse_unary()
            left = BinaryOp(op, left, right)
        return left

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token.kind == "OP" and token.value == "-":
            self._advance()
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return Literal(value)
        if token.kind == "STRING":
            self._advance()
            return Literal(_unescape_string(token.value))
        if token.kind == "LPAREN":
            self._advance()
            inner = self._parse_expression()
            self._expect("RPAREN")
            return inner
        if token.kind == "IDENT":
            # Function call or variable/constant reference.
            if self._peek(1).kind == "LPAREN":
                name = self._advance().value
                self._advance()
                arguments: List[Expression] = []
                if self._peek().kind != "RPAREN":
                    while True:
                        arguments.append(self._parse_expression())
                        if self._peek().kind == "COMMA":
                            self._advance()
                            continue
                        break
                self._expect("RPAREN")
                if len(arguments) == 1:
                    return UnaryOp(name, arguments[0])
                if len(arguments) == 2:
                    return BinaryOp(name, arguments[0], arguments[1])
                raise self._error(f"unsupported function arity for {name}")
            self._advance()
            if self._is_variable_name(token.value):
                return VariableRef(Variable(token.value))
            return Literal(token.value)
        raise self._error(f"invalid expression near {token.value!r}")


def parse_program(text: str) -> Program:
    """Parse a Vadalog program from text."""
    return _Parser(text).parse_program()


def parse_atom(text: str) -> Atom:
    """Parse a single, possibly non-ground atom, e.g. ``Control("f0", Y)``.

    Used for query atoms (``VadalogReasoner.reason(query=...)``): constant
    arguments are the bound positions of the query, variables the free
    ones.  A trailing dot is accepted.
    """
    parser = _Parser(text)
    atom = parser._parse_atom()
    if parser._peek().kind == "DOT":
        parser._advance()
    if parser._peek().kind != "EOF":
        raise parser._error("unexpected input after the atom")
    return atom


# ---------------------------------------------------------------------------
# Unparsing (program -> surface syntax).  ``unparse_program(parse_program(t))``
# re-parses to an equivalent program; the fuzz suite pins the round-trip.
# ---------------------------------------------------------------------------


def unparse_term(term: Term) -> str:
    """Render a term in the surface syntax (inverse of ``_parse_term``)."""
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Constant):
        value = term.value
        if isinstance(value, bool):
            raise ValueError("booleans have no literal form in the surface syntax")
        if isinstance(value, str):
            return escape_string_literal(value)
        if isinstance(value, (int, float)):
            rendered = repr(value)
            if "e" in rendered or "E" in rendered:
                raise ValueError(f"exponent floats are not parseable: {value!r}")
            return rendered
        raise ValueError(f"constant {value!r} has no literal form")
    raise ValueError("labelled nulls cannot appear in program text")


def unparse_atom(atom: Atom) -> str:
    """Render an atom (or fact) in the surface syntax."""
    inner = ", ".join(unparse_term(t) for t in atom.terms)
    return f"{atom.predicate}({inner})"


def unparse_expression(expression: Expression) -> str:
    """Render an expression so that re-parsing yields an equal expression.

    Unlike ``str(expression)`` (which leans on Python's ``repr`` for string
    literals), quoted strings go through :func:`escape_string_literal`, so
    embedded quotes and backslashes survive the round-trip.
    """
    if isinstance(expression, Literal):
        value = expression.value
        if isinstance(value, str):
            return escape_string_literal(value)
        return str(expression)
    if isinstance(expression, VariableRef):
        return expression.variable.name
    if isinstance(expression, UnaryOp):
        return f"{expression.op}({unparse_expression(expression.operand)})"
    if isinstance(expression, BinaryOp):
        left = unparse_expression(expression.left)
        right = unparse_expression(expression.right)
        return f"({left} {expression.op} {right})"
    return str(expression)


def _unparse_condition(condition: Comparison) -> str:
    left = unparse_expression(condition.left)
    right = unparse_expression(condition.right)
    return f"{left} {condition.op} {right}"


def _unparse_assignment(assignment: Assignment) -> str:
    return f"{assignment.variable.name} = {unparse_expression(assignment.expression)}"


def _unparse_aggregate(aggregate: AggregateSpec) -> str:
    inner = unparse_expression(aggregate.argument)
    if aggregate.contributors:
        contributors = ", ".join(v.name for v in aggregate.contributors)
        inner += f", <{contributors}>"
    return f"{aggregate.variable.name} = {aggregate.function}({inner})"


def _unparse_annotation_argument(argument: object) -> str:
    if isinstance(argument, str):
        return escape_string_literal(argument)
    return repr(argument)


def unparse_rule(rule: Rule) -> str:
    """Render a rule in the surface syntax (labels are not part of it)."""
    parts = [unparse_atom(a) for a in rule.body]
    parts.extend(_unparse_condition(c) for c in rule.conditions)
    parts.extend(_unparse_assignment(a) for a in rule.assignments)
    if rule.aggregate is not None:
        parts.append(_unparse_aggregate(rule.aggregate))
    head = ", ".join(unparse_atom(a) for a in rule.head)
    return f"{head} :- {', '.join(parts)}."


def unparse_program(program: Program) -> str:
    """Render a whole program: annotations, facts, rules, constraints, EGDs."""
    lines: List[str] = []
    for name in sorted(program.inputs):
        lines.append(f'@input("{name}").')
    for name in sorted(program.outputs):
        lines.append(f'@output("{name}").')
    for annotation in program.annotations:
        if annotation.name in ("input", "output"):
            continue  # already rendered from the input/output sets
        inner = ", ".join(_unparse_annotation_argument(a) for a in annotation.arguments)
        lines.append(f"@{annotation.name}({inner}).")
    for fact in program.facts:
        lines.append(f"{unparse_atom(fact)}.")
    for rule in program.rules:
        lines.append(unparse_rule(rule))
    for constraint in program.constraints:
        parts = [unparse_atom(a) for a in constraint.body]
        parts.extend(_unparse_condition(c) for c in constraint.conditions)
        lines.append(f":- {', '.join(parts)}.")
    for egd in program.egds:
        parts = [unparse_atom(a) for a in egd.body]
        parts.extend(_unparse_condition(c) for c in egd.conditions)
        lines.append(f"{egd.left.name} = {egd.right.name} :- {', '.join(parts)}.")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_rule(text: str) -> Rule:
    """Parse a single rule (must end with a dot)."""
    program = parse_program(text)
    if len(program.rules) != 1:
        raise ValueError("expected exactly one rule")
    return program.rules[0]


def parse_fact(text: str) -> Fact:
    """Parse a single fact (must end with a dot)."""
    program = parse_program(text)
    if len(program.facts) != 1:
        raise ValueError("expected exactly one fact")
    return program.facts[0]
