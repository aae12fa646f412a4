"""Wardedness analysis (Section 2.1 of the paper).

The analysis computes, for a program Σ:

* the set of **affected positions** ``affected(Σ)`` — positions that may
  host labelled nulls during the chase;
* the per-rule classification of variables into **harmless**, **harmful**
  and **dangerous**;
* the **ward** of each rule (the unique body atom containing all dangerous
  variables), when it exists;
* whether the program is **warded**, **harmless warded** (warded and free of
  harmful joins), plain **Datalog**, **linear** or **guarded**;
* the list of **harmful joins**, needed by the harmful-join elimination
  algorithm of Section 3.2.

The affected-position computation is the standard inductive definition:
a position is affected if some rule has an existentially quantified variable
there, or if a rule propagates a variable that occurs *only* in affected
body positions into that head position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .atoms import Atom, Position
from .rules import DOM_PREDICATE, Program, Rule
from .terms import Variable


class VariableRole(Enum):
    """Classification of a body variable within one rule."""

    HARMLESS = "harmless"
    HARMFUL = "harmful"
    DANGEROUS = "dangerous"


class RuleKind(Enum):
    """Rule classification used by the termination strategy (Section 3.4)."""

    LINEAR = "linear"
    WARDED = "warded"
    NON_LINEAR = "non-linear"


@dataclass(frozen=True)
class RuleAnalysis:
    """Per-rule result of the wardedness analysis."""

    rule: Rule
    roles: Dict[Variable, VariableRole]
    dangerous: Tuple[Variable, ...]
    harmful: Tuple[Variable, ...]
    harmless: Tuple[Variable, ...]
    ward: Optional[Atom]
    kind: RuleKind
    is_warded: bool
    harmful_join_variables: Tuple[Variable, ...]

    @property
    def has_harmful_join(self) -> bool:
        return bool(self.harmful_join_variables)


@dataclass
class ProgramAnalysis:
    """Whole-program result of the wardedness analysis."""

    program: Program
    affected: FrozenSet[Position]
    rule_analyses: List[RuleAnalysis] = field(default_factory=list)

    @property
    def is_warded(self) -> bool:
        return all(a.is_warded for a in self.rule_analyses)

    @property
    def has_harmful_joins(self) -> bool:
        return any(a.has_harmful_join for a in self.rule_analyses)

    @property
    def is_harmless_warded(self) -> bool:
        return self.is_warded and not self.has_harmful_joins

    @property
    def is_datalog(self) -> bool:
        """True when no rule has existential quantification (plain Datalog)."""
        return not any(r.has_existentials() for r in self.program.rules)

    @property
    def is_linear(self) -> bool:
        """True when every rule has a single body atom (Linear Datalog±)."""
        return all(r.is_linear() for r in self.program.rules)

    @property
    def is_guarded(self) -> bool:
        """True when every rule has a body atom containing all body variables."""
        return all(_has_guard(r) for r in self.program.rules)

    def analysis_for(self, rule: Rule) -> RuleAnalysis:
        # Identity lookup first: the chase engine asks once per rule at
        # construction, and a linear scan with structural rule equality made
        # engine setup quadratic in the number of rules.
        by_identity = getattr(self, "_analysis_by_identity", None)
        if by_identity is None:
            by_identity = {id(a.rule): a for a in self.rule_analyses}
            self._analysis_by_identity = by_identity
        found = by_identity.get(id(rule))
        if found is not None:
            return found
        for analysis in self.rule_analyses:
            if analysis.rule == rule:
                return analysis
        raise KeyError(f"rule {rule.label or rule} not part of the analysed program")

    def fragment(self) -> str:
        """Name of the most specific Datalog± fragment the program falls in."""
        if self.is_datalog:
            return "datalog"
        if self.is_linear:
            return "linear"
        if self.is_harmless_warded:
            return "harmless-warded"
        if self.is_warded:
            return "warded"
        if self.is_guarded:
            return "guarded"
        return "unrestricted"

    def harmful_rules(self) -> List[RuleAnalysis]:
        return [a for a in self.rule_analyses if a.has_harmful_join]

    def summary(self) -> Dict[str, object]:
        """Aggregate statistics, handy for experiment reporting (Figure 6)."""
        linear = sum(1 for r in self.program.rules if r.is_linear())
        return {
            "rules": len(self.program.rules),
            "linear_rules": linear,
            "join_rules": len(self.program.rules) - linear,
            "existential_rules": sum(
                1 for r in self.program.rules if r.has_existentials()
            ),
            "harmful_joins": sum(
                1 for a in self.rule_analyses if a.has_harmful_join
            ),
            "warded": self.is_warded,
            "harmless_warded": self.is_harmless_warded,
            "fragment": self.fragment(),
        }


def _has_guard(rule: Rule) -> bool:
    body_vars = set(rule.body_variables())
    for atom in rule.relational_body:
        if set(atom.variables()) >= body_vars:
            return True
    return False


def affected_positions(program: Program) -> FrozenSet[Position]:
    """Compute ``affected(Σ)`` by the standard least-fixpoint construction.

    ``Dom`` guard positions are never affected: the active-domain relation
    contains ground constants only (Section 2, "Modeling Features").
    """
    return _affected_fixpoint(
        program.rules, [_body_positions_by_variable(rule) for rule in program.rules]
    )


def _affected_fixpoint(
    rules: Sequence[Rule], body_positions: Sequence[Dict[Variable, List[Position]]]
) -> FrozenSet[Position]:
    """:func:`affected_positions` over each rule's precomputed body positions.

    Base case: positions of existentially quantified head variables.
    Inductive case: a variable whose body positions are all affected makes
    its head positions affected.  Each rule's (body positions, head
    positions) flows are collected once; a worklist then visits each newly
    affected position once and counts down, per flow reading it, the body
    occurrences not yet affected.
    """
    affected: Set[Position] = set()
    flows: List[Tuple[List[Position], List[Position]]] = []
    for rule, positions in zip(rules, body_positions):
        # A head variable is existential when neither a body variable (a
        # key of ``positions``) nor computed.
        computed = rule.computed_variables()
        head_positions: Dict[Variable, List[Position]] = {}
        for atom in rule.head:
            for index, term in enumerate(atom.terms):
                if isinstance(term, Variable):
                    position = Position(atom.predicate, index)
                    if term not in positions and term not in computed:
                        affected.add(position)
                    head_positions.setdefault(term, []).append(position)
        for variable, body in positions.items():
            if body and variable in head_positions:
                flows.append((body, head_positions[variable]))

    missing = [len(body) for body, _ in flows]
    readers: Dict[Position, List[int]] = {}
    for flow, (body, _) in enumerate(flows):
        for position in body:
            readers.setdefault(position, []).append(flow)
    pending = list(affected)
    while pending:
        for flow in readers.get(pending.pop(), ()):
            missing[flow] -= 1
            if not missing[flow]:
                for position in flows[flow][1]:
                    if position not in affected:
                        affected.add(position)
                        pending.append(position)
    return frozenset(affected)


def _body_positions_by_variable(rule: Rule) -> Dict[Variable, List[Position]]:
    """Positions at which each body variable occurs, ignoring ``Dom`` guards."""
    positions: Dict[Variable, List[Position]] = {}
    for atom in rule.body:
        if atom.predicate == DOM_PREDICATE:
            continue
        for index, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                positions.setdefault(term, []).append(Position(atom.predicate, index))
    # Variables occurring only in Dom guards are trivially harmless: record
    # them with an empty position list so classification treats them as bound
    # to ground values.
    for atom in rule.dom_guards:
        for term in atom.terms:
            if isinstance(term, Variable):
                positions.setdefault(term, [])
    return positions


def classify_variables(
    rule: Rule,
    affected: FrozenSet[Position],
    body_positions: Optional[Dict[Variable, List[Position]]] = None,
) -> Dict[Variable, VariableRole]:
    """Classify each body variable of ``rule`` as harmless/harmful/dangerous.

    ``body_positions`` is ``_body_positions_by_variable(rule)``, when the
    caller already has it.
    """
    if body_positions is None:
        body_positions = _body_positions_by_variable(rule)
    roles: Dict[Variable, VariableRole] = {}
    head_vars = set(rule.head_variables())
    dom_vars = {v for atom in rule.dom_guards for v in atom.variables()}
    for variable, positions in body_positions.items():
        occurs_non_affected = (
            not positions  # Dom-only variables bind to constants
            or not affected.issuperset(positions)
            or variable in dom_vars
        )
        if occurs_non_affected:
            roles[variable] = VariableRole.HARMLESS
        elif variable in head_vars:
            roles[variable] = VariableRole.DANGEROUS
        else:
            roles[variable] = VariableRole.HARMFUL
    return roles


def find_ward(rule: Rule, roles: Dict[Variable, VariableRole]) -> Optional[Atom]:
    """Return the ward of ``rule`` if the rule satisfies the warded conditions.

    The ward is a body atom that (1) contains *all* dangerous variables of the
    rule and (2) shares only harmless variables with the other body atoms.
    Rules without dangerous variables are trivially warded (``None`` ward).
    """
    dangerous = {v for v, role in roles.items() if role is VariableRole.DANGEROUS}
    if not dangerous:
        return None
    for candidate in rule.relational_body:
        candidate_vars = set(candidate.variables())
        if not dangerous <= candidate_vars:
            continue
        shares_only_harmless = True
        for other in rule.relational_body:
            if other is candidate:
                continue
            shared = candidate_vars & set(other.variables())
            if any(roles.get(v) is not VariableRole.HARMLESS for v in shared):
                shares_only_harmless = False
                break
        if shares_only_harmless:
            return candidate
    return None


def harmful_join_variables(
    rule: Rule, roles: Dict[Variable, VariableRole]
) -> Tuple[Variable, ...]:
    """Variables involved in a *harmful join*: harmful/dangerous and shared by ≥2 body atoms."""
    joined: List[Variable] = []
    for variable, role in roles.items():
        if role is VariableRole.HARMLESS:
            continue
        occurrences = sum(
            1 for atom in rule.relational_body if variable in atom.variables()
        )
        if occurrences >= 2:
            joined.append(variable)
    return tuple(joined)


def analyse_rule(
    rule: Rule,
    affected: FrozenSet[Position],
    body_positions: Optional[Dict[Variable, List[Position]]] = None,
) -> RuleAnalysis:
    """Run the per-rule part of the wardedness analysis."""
    roles = classify_variables(rule, affected, body_positions)
    dangerous = tuple(v for v, r in roles.items() if r is VariableRole.DANGEROUS)
    harmful = tuple(v for v, r in roles.items() if r is VariableRole.HARMFUL)
    harmless = tuple(v for v, r in roles.items() if r is VariableRole.HARMLESS)
    ward = find_ward(rule, roles)
    joins = harmful_join_variables(rule, roles)
    if dangerous:
        is_warded = ward is not None
    else:
        is_warded = True
    if rule.is_linear():
        kind = RuleKind.LINEAR
    elif dangerous and ward is not None:
        # A "warded" rule in the sense of Algorithm 1: a join rule where a
        # dangerous variable is propagated to the head through the ward.
        kind = RuleKind.WARDED
    else:
        kind = RuleKind.NON_LINEAR
    return RuleAnalysis(
        rule=rule,
        roles=roles,
        dangerous=dangerous,
        harmful=harmful,
        harmless=harmless,
        ward=ward,
        kind=kind,
        is_warded=is_warded,
        harmful_join_variables=joins,
    )


def analyse_program(
    program: Program, reuse: Optional[ProgramAnalysis] = None
) -> ProgramAnalysis:
    """Run the full wardedness analysis over a program.

    ``reuse`` is the analysis of a program this one was rewritten from (the
    logic optimizer's input).  The affected positions are always computed
    afresh for ``program``; the per-rule part is taken over for every rule
    *object* of ``reuse`` whose relational body positions are affected in
    both programs alike, and computed only for the other rules.  This is
    sound because a rule's analysis is a function of the rule and of the
    affected status of its own body positions alone:
    :func:`classify_variables` reads nothing else of the program, and the
    ward (:func:`find_ward`), the harmful-join variables
    (:func:`harmful_join_variables`), ``is_warded`` and the kind read only
    the rule and those roles.
    """
    positions = [_body_positions_by_variable(rule) for rule in program.rules]
    affected = _affected_fixpoint(program.rules, positions)
    analysis = ProgramAnalysis(program=program, affected=affected)
    previous = {id(a.rule): a for a in reuse.rule_analyses} if reuse else {}
    for rule, body_positions in zip(program.rules, positions):
        kept = previous.get(id(rule))
        if kept is None or any(
            (p in affected) != (p in reuse.affected)
            for rule_positions in body_positions.values()
            for p in rule_positions
        ):
            kept = analyse_rule(rule, affected, body_positions)
        analysis.rule_analyses.append(kept)
    return analysis


def is_warded(program: Program) -> bool:
    """Convenience wrapper: is the program in Warded Datalog±?"""
    return analyse_program(program).is_warded


def is_harmless_warded(program: Program) -> bool:
    """Convenience wrapper: is the program in Harmless Warded Datalog±?"""
    return analyse_program(program).is_harmless_warded
