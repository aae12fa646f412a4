"""Harmful-Join Elimination (Section 3.2 of the paper).

A *harmful join* is a join on a harmful variable — a variable that can only
bind to labelled nulls.  The termination results of Section 3 (Theorem 2)
require the program to be *harmless* warded, so warded programs containing
harmful joins are rewritten first.

The paper's algorithm proceeds by **cause elimination**: for a harmful rule

    α :  A(x̄1, ȳ1, ĥ), B(x̄2, ȳ2, ĥ)  →  ∃z̄ C(x̄, z̄)

it (1) adds a *grounded* copy guarded by ``Dom`` that covers the case where
``h`` binds to a database constant, and (2) replaces the null case by
reasoning over the *causes* of the null: the rules that create it (direct
causes, with existential quantification) and the rules that propagate it
(indirect causes).  Skolem functions introduced in the rewriting are then
simplified away (they are injective and range-disjoint), which in recursive
cases folds the propagation into a transitive closure (Example 9).

This implementation realises the same cause analysis in an explicitly
terminating form which we call **origin tracking**: because Skolem functions
are injective and range-disjoint, two body atoms share the same labelled
null exactly when the null was created by the *same direct cause* (same rule
and same frontier values) and then propagated to both atoms.  We therefore

1. build the *null flow graph* of the program: which rules create nulls at
   which positions and which rules propagate them between positions;
2. introduce, for each direct cause β and each reachable position ``P[i]``,
   a tracking predicate ``_track_β_P_i(frontier(β), other-args-of-P)`` whose
   facts are ground, together with rules mirroring the creation and every
   propagation step;
3. replace the harmful rule α by (a) the ``Dom``-guarded grounded copy and
   (b) one rule per direct cause β joining the two tracking atoms on the
   *origin* (the frontier of β) instead of on the null itself.

Each tracking rule is built, and rendered, once: one creation rule per
direct cause and one mirrored rule per (cause, propagation step), however
many harmful joins reach that cause.  The rewritten program keeps the rules
in first-emission order, deduplicated by their text.

The result contains no harmful joins, uses only ground auxiliary facts and
computes the same answers for the original predicates — the transitive
closure of Example 9 is exactly what the tracking predicates unfold to for
the PSC scenario.  Programs outside the supported shape (an aggregation over
the harmful variable, a direct cause whose frontier itself carries nulls, or
a propagation rule where the null occurs in more than one body atom) raise
:class:`UnsupportedHarmfulJoin`; the reasoner then falls back to running the
original program and flags the answer as potentially incomplete on nulls.

The literal Skolem-simplification steps of the paper (virtual joins and
linearization) are exposed as :func:`simplify_skolem_equalities` for
completeness and for the unit tests that mirror the paper's discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .atoms import Atom, Position
from .rules import DOM_PREDICATE, Program, Rule
from .skolem import SkolemTerm
from .terms import Variable
from .wardedness import ProgramAnalysis, VariableRole, analyse_program

TRACK_PREFIX = "_track_"
"""Prefix of the ground tracking predicates introduced by the rewriting."""


class UnsupportedHarmfulJoin(Exception):
    """Raised when a harmful join falls outside the supported rewriting shape."""


@dataclass(frozen=True)
class DirectCause:
    """A rule creating a labelled null at a head position (existential cause)."""

    rule: Rule
    position: Position
    existential: Variable
    frontier: Tuple[Variable, ...]


@dataclass(frozen=True)
class PropagationStep:
    """A rule propagating a null from a body position to a head position."""

    rule: Rule
    source: Position
    target: Position
    variable: Variable


@dataclass
class NullFlowGraph:
    """Creation and propagation of labelled nulls across predicate positions."""

    creators: Dict[Position, List[DirectCause]] = field(default_factory=dict)
    propagations: Dict[Position, List[PropagationStep]] = field(default_factory=dict)

    def positions_flowing_into(self, targets: Set[Position]) -> Set[Position]:
        """Backward-reachable positions from ``targets`` along propagation edges."""
        reached = set(targets)
        frontier = list(targets)
        while frontier:
            position = frontier.pop()
            for step in self.propagations.get(position, []):
                if step.source not in reached:
                    reached.add(step.source)
                    frontier.append(step.source)
        return reached

    def causes_for(self, positions: Set[Position]) -> List[DirectCause]:
        causes: List[DirectCause] = []
        seen: Set[Tuple[str, str]] = set()
        for position in positions:
            for cause in self.creators.get(position, []):
                key = (cause.rule.label, cause.existential.name)
                if key not in seen:
                    seen.add(key)
                    causes.append(cause)
        return causes


def build_null_flow_graph(program: Program, analysis: Optional[ProgramAnalysis] = None) -> NullFlowGraph:
    """Build the null flow graph of a program.

    * A rule with existential variable ``z`` occurring at head position
      ``P[i]`` is a *direct cause* for ``P[i]``.
    * A rule in which a harmful (or dangerous) variable occurs at body
      position ``Q[j]`` and at head position ``P[i]`` is a *propagation step*
      from ``Q[j]`` to ``P[i]``.
    """
    analysis = analysis or analyse_program(program)
    graph = NullFlowGraph()
    for rule_analysis in analysis.rule_analyses:
        rule = rule_analysis.rule
        existentials = set(rule.existential_variables())
        for atom in rule.head:
            for index, term in enumerate(atom.terms):
                if isinstance(term, Variable) and term in existentials:
                    position = Position(atom.predicate, index)
                    frontier = tuple(
                        v for v in rule.head_variables() if v not in existentials
                    )
                    graph.creators.setdefault(position, []).append(
                        DirectCause(rule, position, term, frontier)
                    )
        for variable, role in rule_analysis.roles.items():
            if role is VariableRole.HARMLESS:
                continue
            body_positions = [
                Position(atom.predicate, index)
                for atom in rule.relational_body
                for index, term in enumerate(atom.terms)
                if term == variable
            ]
            head_positions = [
                Position(atom.predicate, index)
                for atom in rule.head
                for index, term in enumerate(atom.terms)
                if term == variable
            ]
            for target in head_positions:
                for source in body_positions:
                    graph.propagations.setdefault(target, []).append(
                        PropagationStep(rule, source, target, variable)
                    )
    return graph


def _track_predicate_name(cause: DirectCause, position: Position) -> str:
    return (
        f"{TRACK_PREFIX}{cause.rule.label or 'rule'}_{cause.existential.name}"
        f"_{position.predicate}_{position.index}"
    )


@dataclass
class HarmfulJoinEliminationResult:
    """Outcome of the rewriting: the new program plus bookkeeping."""

    program: Program
    eliminated_rules: List[Rule] = field(default_factory=list)
    tracking_predicates: List[str] = field(default_factory=list)
    grounded_rules: List[Rule] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.eliminated_rules)


class HarmfulJoinEliminator:
    """Rewrites a warded program into an equivalent harmless warded program."""

    def __init__(self, program: Program, analysis: Optional[ProgramAnalysis] = None) -> None:
        self.program = program
        self.analysis = analysis or analyse_program(program)
        #: Tracking rules as ``(text, rule)``, built and rendered once per
        #: direct cause (its creation rule) and per (cause, propagation step)
        #: of one run: keyed by the identity of that run's flow-graph
        #: objects, which every harmful join reaching a cause walks.
        self._built: Dict[object, Optional[Tuple[str, Rule]]] = {}

    def eliminate(self) -> HarmfulJoinEliminationResult:
        """Run the rewriting; raises :class:`UnsupportedHarmfulJoin` if needed."""
        harmful = self.analysis.harmful_rules()
        if not harmful:
            return HarmfulJoinEliminationResult(program=self.program.copy())
        if not self.analysis.is_warded:
            raise UnsupportedHarmfulJoin(
                "harmful-join elimination requires a warded program"
            )
        flow = build_null_flow_graph(self.program, self.analysis)
        self._built = {}  # a new graph: earlier ids may be reused
        rewritten = self.program.copy()
        result = HarmfulJoinEliminationResult(program=rewritten)

        # Keyed by text, in first-emission order: the causes of several
        # harmful joins share their tracking rules.
        track_rules: Dict[str, Rule] = {}
        replacement_rules: List[Rule] = []

        for rule_analysis in harmful:
            rule = rule_analysis.rule
            if rule.aggregate is not None and any(
                v in rule_analysis.harmful_join_variables
                for v in rule.aggregate.variables()
            ):
                raise UnsupportedHarmfulJoin(
                    f"rule {rule.label}: aggregation over a harmfully joined variable"
                )
            for variable in rule_analysis.harmful_join_variables:
                grounded, replacements = self._eliminate_one(
                    rule, variable, flow, track_rules
                )
                result.grounded_rules.append(grounded)
                replacement_rules.append(grounded)
                replacement_rules.extend(replacements)
            result.eliminated_rules.append(rule)

        eliminated = {id(r) for r in result.eliminated_rules}
        rewritten.rules = [r for r in rewritten.rules if id(r) not in eliminated]
        for new_rule in [*track_rules.values(), *replacement_rules]:
            rewritten.add_rule(new_rule)
        result.tracking_predicates = sorted(
            {track_rule.head[0].predicate for track_rule in track_rules.values()}
        )
        return result

    # ------------------------------------------------------------------ steps
    def _eliminate_one(
        self,
        rule: Rule,
        variable: Variable,
        flow: NullFlowGraph,
        track_rules: Dict[str, Rule],
    ) -> Tuple[Rule, List[Rule]]:
        """The grounded copy and the replacements of one harmful join; the
        tracking rules its causes need are added to ``track_rules``."""
        join_atoms = [
            (index, atom)
            for index, atom in enumerate(rule.relational_body)
            if variable in atom.variables()
        ]
        if len(join_atoms) < 2:
            raise UnsupportedHarmfulJoin(
                f"rule {rule.label}: variable {variable.name} does not form a binary join"
            )
        if len(join_atoms) > 2:
            raise UnsupportedHarmfulJoin(
                f"rule {rule.label}: harmful joins across more than two atoms are not supported"
            )
        join_positions: Set[Position] = set()
        for _, atom in join_atoms:
            for index, term in enumerate(atom.terms):
                if term == variable:
                    join_positions.add(Position(atom.predicate, index))

        # Step 1 (grounding): the Dom-guarded copy covering ground values of h.
        grounded = Rule(
            body=rule.body + (Atom(DOM_PREDICATE, (variable,)),),
            head=rule.head,
            conditions=rule.conditions,
            assignments=rule.assignments,
            aggregate=rule.aggregate,
            label=f"{rule.label or 'rule'}_ground",
        )

        # Steps 2-3 (direct and indirect causes) via origin tracking.  With no
        # cause the harmful variable can never bind to a null: the grounded
        # copy is already equivalent and nothing else is needed.
        reachable = flow.positions_flowing_into(join_positions)
        replacements: List[Rule] = []
        for cause in flow.causes_for(reachable):
            if not cause.frontier:
                raise UnsupportedHarmfulJoin(
                    f"rule {cause.rule.label}: a direct cause without frontier variables "
                    "cannot be origin-tracked"
                )
            if any(
                self.analysis.analysis_for(cause.rule).roles.get(v)
                in (VariableRole.HARMFUL, VariableRole.DANGEROUS)
                for v in cause.frontier
            ):
                raise UnsupportedHarmfulJoin(
                    f"rule {cause.rule.label}: the frontier of a direct cause carries nulls"
                )
            for text, track_rule in self._tracking_rules_for(cause, reachable, flow):
                track_rules.setdefault(text, track_rule)
            replacements.extend(
                self._replacement_rules_for(rule, variable, join_atoms, cause)
            )
        return grounded, replacements

    @staticmethod
    def _origin_variables(cause: DirectCause) -> Tuple[Variable, ...]:
        """Fresh variables standing for the origin key in mirrored rules.

        The origin of a null is the frontier of its direct cause; inside the
        mirrored propagation rules and the replacement rules these values are
        carried by reserved ``_ORG`` variables so they can never be captured
        by the local variables of the mirrored rule.
        """
        return tuple(Variable(f"_ORG{i}") for i in range(len(cause.frontier)))

    def _tracking_rules_for(
        self, cause: DirectCause, reachable: Set[Position], flow: NullFlowGraph
    ) -> Iterator[Tuple[str, Rule]]:
        """Creation and propagation rules for the tracking predicate of ``cause``."""
        built = self._built
        # Creation: the body of the cause produces the initial tracking fact,
        # whose origin key is the cause's own frontier.
        if id(cause) not in built:
            built[id(cause)] = _rendered(self._creation_rule(cause))
        yield built[id(cause)]

        # Propagation: mirror every propagation step between reachable positions.
        for target in reachable:
            for step in flow.propagations.get(target, ()):
                if step.source not in reachable:
                    continue
                key = (id(cause), id(step))
                if key not in built:
                    built[key] = _rendered(self._mirror_propagation(cause, step))
                if built[key] is not None:
                    yield built[key]

    def _creation_rule(self, cause: DirectCause) -> Rule:
        creation_atom = self._track_atom(
            cause, cause.position, self._cause_head_atom(cause), cause.frontier
        )
        return Rule(
            body=cause.rule.body,
            head=(creation_atom,),
            conditions=cause.rule.conditions,
            assignments=cause.rule.assignments,
            aggregate=None,
            label=f"{cause.rule.label or 'rule'}_track_{cause.position.predicate}",
        )

    def _cause_head_atom(self, cause: DirectCause) -> Atom:
        for atom in cause.rule.head:
            if atom.predicate == cause.position.predicate and (
                len(atom.terms) > cause.position.index
                and atom.terms[cause.position.index] == cause.existential
            ):
                return atom
        raise UnsupportedHarmfulJoin(
            f"rule {cause.rule.label}: cannot locate the existential head atom"
        )

    def _track_atom(
        self,
        cause: DirectCause,
        position: Position,
        source_atom: Atom,
        origin_terms: Sequence[Variable],
    ) -> Atom:
        """Tracking atom for ``source_atom``: origin key + non-null arguments."""
        kept_terms = tuple(
            term for index, term in enumerate(source_atom.terms) if index != position.index
        )
        name = _track_predicate_name(cause, position)
        return Atom(name, tuple(origin_terms) + kept_terms)

    def _mirror_propagation(self, cause: DirectCause, step: PropagationStep) -> Optional[Rule]:
        """Mirror a propagation rule onto the tracking predicates of ``cause``."""
        rule = step.rule
        carrying_atoms = [
            atom
            for atom in rule.relational_body
            if atom.predicate == step.source.predicate
            and len(atom.terms) > step.source.index
            and atom.terms[step.source.index] == step.variable
        ]
        if not carrying_atoms:
            return None
        if len([a for a in rule.relational_body if step.variable in a.variables()]) > 1:
            raise UnsupportedHarmfulJoin(
                f"rule {rule.label}: the propagated null occurs in several body atoms"
            )
        carrier = carrying_atoms[0]
        head_atom = None
        for atom in rule.head:
            if atom.predicate == step.target.predicate and (
                len(atom.terms) > step.target.index
                and atom.terms[step.target.index] == step.variable
            ):
                head_atom = atom
                break
        if head_atom is None:
            return None
        origin = self._origin_variables(cause)
        body_track = self._track_atom(cause, step.source, carrier, origin)
        head_track = self._track_atom(cause, step.target, head_atom, origin)
        other_body = tuple(a for a in rule.body if a is not carrier)
        return Rule(
            body=(body_track,) + other_body,
            head=(head_track,),
            conditions=rule.conditions,
            assignments=rule.assignments,
            aggregate=None,
            label=f"{rule.label or 'rule'}_track_{cause.rule.label}_{step.target.predicate}",
        )

    def _replacement_rules_for(
        self,
        rule: Rule,
        variable: Variable,
        join_atoms: Sequence[Tuple[int, Atom]],
        cause: DirectCause,
    ) -> List[Rule]:
        """The harmless replacement of the harmful rule for one direct cause."""
        (first_index, first_atom), (second_index, second_atom) = join_atoms
        first_position = next(
            Position(first_atom.predicate, i)
            for i, t in enumerate(first_atom.terms)
            if t == variable
        )
        second_position = next(
            Position(second_atom.predicate, i)
            for i, t in enumerate(second_atom.terms)
            if t == variable
        )
        origin = self._origin_variables(cause)
        first_track = self._track_atom(cause, first_position, first_atom, origin)
        second_track = self._track_atom(cause, second_position, second_atom, origin)
        other_atoms = tuple(
            atom
            for index, atom in enumerate(rule.relational_body)
            if index not in {first_index, second_index}
        )
        # Keep the Dom guards, except those mentioning the eliminated variable.
        other_atoms = other_atoms + tuple(
            a for a in rule.dom_guards if variable not in a.variables()
        )
        conditions = tuple(c for c in rule.conditions if variable not in c.variables())
        return [
            Rule(
                body=(first_track, second_track) + other_atoms,
                head=rule.head,
                conditions=conditions,
                assignments=rule.assignments,
                aggregate=rule.aggregate,
                label=f"{rule.label or 'rule'}_via_{cause.rule.label or 'cause'}",
            )
        ]


def _rendered(rule: Optional[Rule]) -> Optional[Tuple[str, Rule]]:
    return None if rule is None else (str(rule), rule)


def eliminate_harmful_joins(
    program: Program, analysis: Optional[ProgramAnalysis] = None
) -> HarmfulJoinEliminationResult:
    """Convenience wrapper around :class:`HarmfulJoinEliminator`;
    ``analysis`` is the program's, when the caller already has it."""
    return HarmfulJoinEliminator(program, analysis).eliminate()


# ---------------------------------------------------------------------------
# The paper's Skolem-simplification cases (used by unit tests and documentation)
# ---------------------------------------------------------------------------

def is_virtual_join(left: object, right: object) -> bool:
    """Decide whether equating ``left`` and ``right`` is unsatisfiable.

    Mirrors the three "virtual join" cases of the Skolem simplification:

    1a. a ground (harmless) value equated to a Skolem term — impossible since
        labelled nulls differ from all constants;
    1b. two Skolem terms with *different* function names — impossible since
        ranges are disjoint;
    1c. a Skolem term equated to a term that contains it (recursive
        application) — impossible since Skolem functions are injective.
    """
    left_is_skolem = isinstance(left, SkolemTerm)
    right_is_skolem = isinstance(right, SkolemTerm)
    if left_is_skolem != right_is_skolem:
        return True
    if not left_is_skolem:
        return False
    assert isinstance(left, SkolemTerm) and isinstance(right, SkolemTerm)
    if left.function != right.function:
        return True
    if left != right and (left.uses_function(right.function) and (
        left.depth() != right.depth()
    )):
        return True
    return False


def can_linearize(left: SkolemTerm, right: SkolemTerm) -> bool:
    """Two atoms carrying the *same* Skolem function can be unified (case 2)."""
    return left.function == right.function and left.depth() == right.depth()


def simplify_skolem_equalities(pairs: Sequence[Tuple[object, object]]) -> Dict[str, int]:
    """Classify a set of Skolem equalities as the simplification step would.

    Returns counters of how many pairs are dropped as virtual joins and how
    many are linearizable, which is what the rewriting statistics report.
    """
    dropped = 0
    linearized = 0
    kept = 0
    for left, right in pairs:
        if is_virtual_join(left, right):
            dropped += 1
        elif isinstance(left, SkolemTerm) and isinstance(right, SkolemTerm) and can_linearize(left, right):
            linearized += 1
        else:
            kept += 1
    return {"virtual": dropped, "linearized": linearized, "kept": kept}
