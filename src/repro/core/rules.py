"""Rules (existential rules / TGDs), constraints and programs.

A Vadalog rule is a first-order sentence
``∀x̄∀ȳ (φ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄))`` where the body ``φ`` and the head ``ψ``
are conjunctions of atoms (Section 2.1).  In the surface syntax the
existential quantification is implicit: every head variable that does not
occur in the body is existentially quantified.

Besides plain existential rules, a program may contain:

* **negative constraints** ``φ(x̄) → ⊥`` (disjointness / non-membership),
* **equality-generating dependencies** ``φ(x̄) → xi = xj``,
* body **conditions**, **assignments** and **monotonic aggregations**
  (:mod:`repro.core.conditions`),
* **annotations** (``@input``, ``@output``, ``@bind``, ``@post`` …) handled
  by :mod:`repro.engine.annotations`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .atoms import Atom, Fact, Predicate
from .conditions import AggregateSpec, Assignment, Comparison
from .terms import Variable

DOM_PREDICATE = "Dom"
"""Name of the active-domain guard predicate ``Dom`` (Section 2, Example 6)."""


class RuleError(Exception):
    """Raised when a rule is structurally invalid."""


@dataclass(frozen=True)
class Rule:
    """An existential rule (tuple-generating dependency).

    Parameters
    ----------
    body:
        The relational atoms of the body (conjunction).  ``Dom`` atoms are
        allowed and treated as active-domain guards.
    head:
        The head atoms (conjunction).  Head variables absent from the body
        and not defined by an assignment/aggregation are existential.
    conditions:
        Comparison conditions that must hold for the rule to fire.
    assignments:
        Computed values for head variables.
    aggregate:
        At most one monotonic aggregation per rule (as in the system).
    label:
        Optional identifier used in provenance, plans and error messages.
    """

    body: Tuple[Atom, ...]
    head: Tuple[Atom, ...]
    conditions: Tuple[Comparison, ...] = ()
    assignments: Tuple[Assignment, ...] = ()
    aggregate: Optional[AggregateSpec] = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.head:
            raise RuleError("a rule must have at least one head atom")
        if not self.body:
            raise RuleError(
                "a rule must have at least one body atom (facts are added to the database)"
            )
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "conditions", tuple(self.conditions))
        object.__setattr__(self, "assignments", tuple(self.assignments))
        defined = set(self.body_variables())
        for assignment in self.assignments:
            missing = [v for v in assignment.variables() if v not in defined]
            if missing:
                raise RuleError(
                    f"assignment {assignment} uses variables not bound in the body: "
                    f"{', '.join(v.name for v in missing)}"
                )
            defined.add(assignment.variable)
        if self.aggregate is not None:
            missing = [v for v in self.aggregate.variables() if v not in defined]
            if missing:
                raise RuleError(
                    f"aggregation {self.aggregate} uses variables not bound in the body: "
                    f"{', '.join(v.name for v in missing)}"
                )

    # -- structural views ----------------------------------------------------
    @property
    def relational_body(self) -> Tuple[Atom, ...]:
        """Body atoms excluding the ``Dom`` active-domain guards."""
        return tuple(a for a in self.body if a.predicate != DOM_PREDICATE)

    @property
    def dom_guards(self) -> Tuple[Atom, ...]:
        """The ``Dom`` guard atoms of the body."""
        return tuple(a for a in self.body if a.predicate == DOM_PREDICATE)

    def is_linear(self) -> bool:
        """A rule is linear when its body consists of a single relational atom."""
        return len(self.relational_body) == 1

    def body_variables(self) -> Tuple[Variable, ...]:
        seen: Dict[Variable, None] = {}
        for atom in self.body:
            for variable in atom.variables():
                seen.setdefault(variable, None)
        return tuple(seen)

    def head_variables(self) -> Tuple[Variable, ...]:
        seen: Dict[Variable, None] = {}
        for atom in self.head:
            for variable in atom.variables():
                seen.setdefault(variable, None)
        return tuple(seen)

    def computed_variables(self) -> Tuple[Variable, ...]:
        """Head variables whose value is produced by an assignment/aggregation."""
        computed = [a.variable for a in self.assignments]
        if self.aggregate is not None:
            computed.append(self.aggregate.variable)
        return tuple(computed)

    def existential_variables(self) -> Tuple[Variable, ...]:
        """Head variables that are existentially quantified.

        These are head variables neither bound in the body nor computed by an
        assignment or aggregation.
        """
        bound = set(self.body_variables()) | set(self.computed_variables())
        seen: Dict[Variable, None] = {}
        for variable in self.head_variables():
            if variable not in bound:
                seen.setdefault(variable, None)
        return tuple(seen)

    def frontier_variables(self) -> Tuple[Variable, ...]:
        """Variables shared between body and head (the rule frontier)."""
        head_vars = set(self.head_variables())
        return tuple(v for v in self.body_variables() if v in head_vars)

    def has_existentials(self) -> bool:
        return bool(self.existential_variables())

    def predicates(self) -> Tuple[Predicate, ...]:
        seen: Dict[Predicate, None] = {}
        for atom in itertools.chain(self.body, self.head):
            seen.setdefault(atom.signature, None)
        return tuple(seen)

    def body_predicate_names(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for atom in self.relational_body:
            seen.setdefault(atom.predicate, None)
        return tuple(seen)

    def head_predicate_names(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for atom in self.head:
            seen.setdefault(atom.predicate, None)
        return tuple(seen)

    # -- presentation ----------------------------------------------------------
    def __str__(self) -> str:
        body_parts: List[str] = [repr(a) for a in self.body]
        body_parts.extend(str(c) for c in self.conditions)
        body_parts.extend(str(a) for a in self.assignments)
        if self.aggregate is not None:
            body_parts.append(str(self.aggregate))
        head_part = ", ".join(repr(a) for a in self.head)
        text = f"{head_part} :- {', '.join(body_parts)}."
        return f"[{self.label}] {text}" if self.label else text

    def with_label(self, label: str) -> "Rule":
        return Rule(
            body=self.body,
            head=self.head,
            conditions=self.conditions,
            assignments=self.assignments,
            aggregate=self.aggregate,
            label=label,
        )


def rule_shape(rule: Rule) -> Tuple[tuple, List[Variable], List[Tuple[Variable, ...]]]:
    """A rule's structure up to renaming of predicates, variables and constants.

    Returns the key, the rule's variables by canonical number and each
    condition's variables.  Variables are numbered across the whole rule by
    first occurrence (body, head, conditions, computed variables); the key
    holds each body atom's ``Dom`` flag and variable/constant pattern
    (``None`` for a constant, the length being the arity), the head
    patterns, each condition's variable numbers, the computed variables'
    numbers and whether the rule has assignments or an aggregate.  Every
    structural grouping of rules reads this key: duplicate-rule removal adds
    the values to it, and a rule's join plan and join kernel are functions
    of it alone.
    """
    numbering: Dict[Variable, int] = {}

    def pattern(atom: Atom) -> Tuple[Optional[int], ...]:
        return tuple(
            [
                numbering.setdefault(term, len(numbering)) if isinstance(term, Variable) else None
                for term in atom.terms
            ]
        )

    body = tuple([(atom.predicate == DOM_PREDICATE, pattern(atom)) for atom in rule.body])
    head = tuple([pattern(atom) for atom in rule.head])
    condition_variables = [condition.variables() for condition in rule.conditions]
    conditions = tuple(
        tuple(numbering.setdefault(v, len(numbering)) for v in variables)
        for variables in condition_variables
    )
    computed = tuple(
        numbering.setdefault(v, len(numbering)) for v in rule.computed_variables()
    )
    key = (body, head, conditions, computed, bool(rule.assignments), rule.aggregate is not None)
    return key, list(numbering), condition_variables


@dataclass(frozen=True)
class NegativeConstraint:
    """A negative constraint ``φ(x̄) → ⊥`` (Section 2, "Modeling Features")."""

    body: Tuple[Atom, ...]
    conditions: Tuple[Comparison, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if not self.body:
            raise RuleError("a negative constraint needs at least one body atom")
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "conditions", tuple(self.conditions))

    def __str__(self) -> str:
        parts = [repr(a) for a in self.body] + [str(c) for c in self.conditions]
        return f"⊥ :- {', '.join(parts)}."


@dataclass(frozen=True)
class EqualityConstraint:
    """An equality-generating dependency ``φ(x̄) → xi = xj``.

    As in the paper we assume EGDs do not interact with the existential rules
    (they are checked over ground values, typically guarded by ``Dom``), which
    preserves decidability of the reasoning task.
    """

    body: Tuple[Atom, ...]
    left: Variable
    right: Variable
    conditions: Tuple[Comparison, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if not self.body:
            raise RuleError("an EGD needs at least one body atom")
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "conditions", tuple(self.conditions))
        body_vars = {v for atom in self.body for v in atom.variables()}
        for side in (self.left, self.right):
            if side not in body_vars:
                raise RuleError(f"EGD equates variable {side.name} not bound in the body")

    def __str__(self) -> str:
        parts = [repr(a) for a in self.body] + [str(c) for c in self.conditions]
        return f"{self.left.name} = {self.right.name} :- {', '.join(parts)}."


@dataclass
class Program:
    """A Vadalog program: rules, constraints, facts and annotations.

    The program is the unit handed to the reasoner.  ``facts`` are inline
    facts written in the program text; the extensional database proper is
    provided separately (see :class:`repro.storage.database.Database`).
    """

    rules: List[Rule] = field(default_factory=list)
    constraints: List[NegativeConstraint] = field(default_factory=list)
    egds: List[EqualityConstraint] = field(default_factory=list)
    facts: List[Fact] = field(default_factory=list)
    inputs: Set[str] = field(default_factory=set)
    outputs: Set[str] = field(default_factory=set)
    annotations: List["Annotation"] = field(default_factory=list)

    def add_rule(self, rule: Rule) -> None:
        if not rule.label:
            rule = rule.with_label(f"r{len(self.rules) + 1}")
        self.rules.append(rule)

    def add_fact(self, fact: Fact) -> None:
        self.facts.append(fact)

    def predicates(self) -> Tuple[Predicate, ...]:
        seen: Dict[Predicate, None] = {}
        for rule in self.rules:
            for predicate in rule.predicates():
                seen.setdefault(predicate, None)
        for fact in self.facts:
            seen.setdefault(fact.signature, None)
        return tuple(seen)

    def edb_predicates(self) -> Set[str]:
        """Predicates that never occur in a rule head (extensional predicates)."""
        names = {atom.predicate for rule in self.rules for atom in rule.body}
        names.update(fact.predicate for fact in self.facts)
        return names - self.idb_predicates() - {DOM_PREDICATE}

    def idb_predicates(self) -> Set[str]:
        """Predicates defined by at least one rule head (intensional predicates)."""
        return {name for rule in self.rules for name in rule.head_predicate_names()}

    def output_predicates(self) -> Set[str]:
        """The ``Ans`` predicates: explicit outputs, else every IDB predicate."""
        if self.outputs:
            return set(self.outputs)
        return self.idb_predicates()

    def constraint_predicates(self) -> Set[str]:
        """The predicates the deferred EGD and negative-constraint checks
        scan (``Dom`` guards are not stored)."""
        return {
            atom.predicate
            for check in (*self.constraints, *self.egds)
            for atom in check.body
            if atom.predicate != DOM_PREDICATE
        }

    def rules_defining(self, predicate: str) -> List[Rule]:
        return [r for r in self.rules if predicate in r.head_predicate_names()]

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __str__(self) -> str:
        lines = [str(r) for r in self.rules]
        lines.extend(str(c) for c in self.constraints)
        lines.extend(str(e) for e in self.egds)
        return "\n".join(lines)

    def copy(self) -> "Program":
        clone = Program(
            rules=list(self.rules),
            constraints=list(self.constraints),
            egds=list(self.egds),
            facts=list(self.facts),
            inputs=set(self.inputs),
            outputs=set(self.outputs),
            annotations=list(self.annotations),
        )
        return clone


@dataclass(frozen=True)
class Annotation:
    """A ``@name("arg", ...)`` behaviour-injection fact (Section 5)."""

    name: str
    arguments: Tuple[object, ...] = ()

    def __str__(self) -> str:
        inner = ", ".join(repr(a) for a in self.arguments)
        return f"@{self.name}({inner})."


def make_rule(
    body: Sequence[Atom],
    head: Sequence[Atom],
    conditions: Sequence[Comparison] = (),
    assignments: Sequence[Assignment] = (),
    aggregate: Optional[AggregateSpec] = None,
    label: str = "",
) -> Rule:
    """Convenience constructor mirroring the dataclass with sequence inputs."""
    return Rule(
        body=tuple(body),
        head=tuple(head),
        conditions=tuple(conditions),
        assignments=tuple(assignments),
        aggregate=aggregate,
        label=label,
    )


def program_from_rules(rules: Iterable[Rule], outputs: Iterable[str] = ()) -> Program:
    """Build a program from rules, labelling them ``r1 .. rn`` in order."""
    program = Program()
    for rule in rules:
        program.add_rule(rule)
    program.outputs = set(outputs)
    return program
