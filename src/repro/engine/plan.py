"""Reasoning access plans (Section 4, "Pipeline architecture").

The logic compiler turns a program into a *reasoning access plan*: a logic
pipeline where every rule corresponds to a filter (node) and there is a pipe
(edge) from filter ``a`` to filter ``b`` when a body atom of ``b`` unifies
with the head of ``a``.  Source filters feed extensional predicates into the
pipeline and sink filters collect the output predicates.

The plan is used by the reasoner to

* order rule applications (a topological order of the condensation of the
  plan graph, so producers run before consumers and mutually recursive rules
  stay grouped — the round-robin execution of the scheduler then alternates
  within each group);
* detect the *runtime cycles* that the execution model has to manage
  (Section 4, "Cycle management");
* power ``explain()``-style introspection in the public API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.conditions import Comparison
from ..core.rules import Program, Rule, rule_shape
from ..core.terms import Term, Variable


@dataclass(frozen=True)
class PlanNode:
    """A filter of the reasoning access plan."""

    name: str
    kind: str  # "source", "rule" or "sink"
    rule_label: str = ""
    predicate: str = ""

    def __str__(self) -> str:
        detail = self.rule_label or self.predicate
        return f"{self.kind}:{detail or self.name}"


def tarjan_components(
    roots: Iterable[str], successors: Mapping[str, Iterable[str]]
) -> List[List[str]]:
    """Tarjan's algorithm over a successor mapping.

    Components are returned in reverse topological order: a component closes
    only after every component it can reach has.  Nodes that appear only as
    successors are visited too.  Iterative (an explicit frame stack replaces
    the call stack, so a thousand-rule chain cannot hit the recursion limit)
    with the same visiting order as the textbook recursion.
    """
    index: Dict[str, int] = {}
    lowlinks: Dict[str, int] = {}
    stack: List[str] = []
    on_stack: Set[str] = set()
    components: List[List[str]] = []
    frames: List[Tuple[str, Iterator[str]]] = []  # the explicit call stack

    def enter(node: str) -> None:
        index[node] = lowlinks[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        frames.append((node, iter(successors.get(node, ()))))

    for root in roots:
        if root in index:
            continue
        enter(root)
        while frames:
            node, pending = frames[-1]
            for successor in pending:
                if successor not in index:
                    enter(successor)
                    break
                if successor in on_stack:
                    lowlinks[node] = min(lowlinks[node], index[successor])
            else:  # every successor visited: "return" from node
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
                if lowlinks[node] == index[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


@dataclass
class ReasoningAccessPlan:
    """The compiled pipeline: nodes, pipes and derived structural information."""

    nodes: List[PlanNode] = field(default_factory=list)
    edges: List[Tuple[str, str]] = field(default_factory=list)
    node_by_name: Dict[str, PlanNode] = field(default_factory=dict)
    # Adjacency in edge-insertion order (dicts double as ordered sets), so
    # every traversal visits neighbours exactly as a scan of ``edges`` would.
    _successors: Dict[str, Dict[str, None]] = field(default_factory=dict, repr=False)
    _predecessors: Dict[str, List[str]] = field(default_factory=dict, repr=False)
    # Memoized SCCs; any structural change resets them.
    _components: Optional[List[List[str]]] = field(default=None, repr=False)

    def add_node(self, node: PlanNode) -> None:
        if node.name in self.node_by_name:
            return
        self.nodes.append(node)
        self.node_by_name[node.name] = node
        self._components = None

    def add_edge(self, source: str, target: str) -> None:
        targets = self._successors.setdefault(source, {})
        if target in targets:
            return
        targets[target] = None
        self._predecessors.setdefault(target, []).append(source)
        self.edges.append((source, target))
        self._components = None

    # -- structure ---------------------------------------------------------------
    def successors(self, name: str) -> List[str]:
        return list(self._successors.get(name, ()))

    def predecessors(self, name: str) -> List[str]:
        return list(self._predecessors.get(name, ()))

    def sources(self) -> List[PlanNode]:
        return [n for n in self.nodes if n.kind == "source"]

    def sinks(self) -> List[PlanNode]:
        return [n for n in self.nodes if n.kind == "sink"]

    def rule_nodes(self) -> List[PlanNode]:
        return [n for n in self.nodes if n.kind == "rule"]

    def strongly_connected_components(self) -> List[List[str]]:
        """The plan's SCCs, in reverse topological order.

        Computed once per plan shape and shared by every caller: treat the
        result as read-only.
        """
        if self._components is None:
            self._components = tarjan_components(self.node_by_name, self._successors)
        return self._components

    def recursive_components(self) -> List[List[str]]:
        """Components containing a cycle (≥ 2 nodes, or a self-loop)."""
        return [
            component
            for component in self.strongly_connected_components()
            if len(component) > 1
            or component[0] in self._successors.get(component[0], ())
        ]

    def has_cycles(self) -> bool:
        return bool(self.recursive_components())

    def topological_rule_order(self, program: Program) -> List[Rule]:
        """Rules ordered so producers come before consumers where possible.

        The condensation of the plan graph is acyclic; rules are emitted
        component by component in topological order, preserving the original
        program order inside each (possibly recursive) component.
        """
        component_of: Dict[str, int] = {}
        for position, component in enumerate(self.strongly_connected_components()):
            for name in component:  # components come in reverse topological order
                component_of[name] = position
        rules_by_label = {rule.label: rule for rule in program.rules}
        position_of = {rule.label: position for position, rule in enumerate(program.rules)}
        ordered_nodes = sorted(
            (n for n in self.nodes if n.kind == "rule" and n.rule_label in rules_by_label),
            key=lambda n: (-component_of.get(n.name, 0), position_of[n.rule_label]),
        )
        return [rules_by_label[n.rule_label] for n in ordered_nodes]

    def describe(self) -> str:
        """Human-readable description used by ``VadalogReasoner.explain``."""
        lines = ["Reasoning access plan:"]
        for node in self.nodes:
            successors = ", ".join(self.successors(node.name)) or "-"
            lines.append(f"  {node} -> {successors}")
        recursive = self.recursive_components()
        if recursive:
            lines.append(f"  recursive components: {len(recursive)}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Per-rule join plans (the compiled reasoning access path of Section 4)
# --------------------------------------------------------------------------
#
# A rule is compiled once, at reasoner construction, into a
# :class:`RuleJoinPlan`: body variables are numbered into *slots* and every
# body atom becomes an :class:`AtomStep` — a purely positional recipe saying,
# for each candidate fact, which positions must equal a constant, which must
# equal an already-filled slot (the join key), which must repeat a position of
# the same fact, and which positions fill new slots.  The executor
# (:mod:`repro.engine.joins`) renders the steps into a generated join kernel
# whose slots are local variables: no ``dict`` copies, no
# ``atom.substitute``/``atom.match`` object churn per candidate fact.
#
# Semi-naive evaluation needs one decomposition per *seed* atom (the atom
# matched against the previous round's delta), so a plan holds one
# :class:`SeedJoinPlan` per body atom; within each, the remaining atoms are
# greedily selectivity-ordered (most bound positions first) unless the rule
# carries a stateful monotonic aggregation, whose value stream is
# enumeration-order sensitive — those keep the textual body order so the
# compiled and interpreted paths remain fact-for-fact comparable.


@dataclass(frozen=True)
class CompiledCondition:
    """A body comparison plus the slots feeding its variables."""

    comparison: Comparison
    var_slots: Tuple[Tuple[Variable, int], ...]

    def holds(self, slots: List[Optional[Term]]) -> bool:
        return self.comparison.holds({v: slots[i] for v, i in self.var_slots})


@dataclass(frozen=True)
class AtomStep:
    """One probe step of a compiled join: positional checks and slot writes."""

    atom_index: int  # index in ``rule.relational_body`` (textual order)
    predicate: str
    arity: int
    const_checks: Tuple[Tuple[int, Term], ...]  # fact[pos] == ground term
    bound_checks: Tuple[Tuple[int, int], ...]  # fact[pos] == slots[slot] (join key)
    same_checks: Tuple[Tuple[int, int], ...]  # fact[pos] == fact[pos0] (repeated var)
    writes: Tuple[Tuple[int, int], ...]  # slots[slot] = fact[pos]
    conditions: Tuple[CompiledCondition, ...]  # comparisons decidable after this step


@dataclass(frozen=True)
class SeedJoinPlan:
    """One semi-naive decomposition: a delta-seeded step plus ordered probes."""

    seed: AtomStep
    probes: Tuple[AtomStep, ...]


# Head-template entry kinds: how each head position is filled at fire time.
HEAD_GROUND = 0  # payload: the ground term itself
HEAD_SLOT = 1  # payload: body slot index
HEAD_NULL = 2  # payload: index into the per-firing fresh-null tuple


@dataclass(frozen=True)
class RuleJoinPlan:
    """Everything the executor needs to evaluate one rule's body."""

    rule: Rule
    variables: Tuple[Variable, ...]  # slot order: slot i holds variables[i]
    slot_of: Mapping[Variable, int]
    seed_plans: Tuple[SeedJoinPlan, ...]
    residual_conditions: Tuple[Comparison, ...]  # not decidable from slots alone
    body_length: int
    existentials: Tuple[Variable, ...]  # precomputed rule.existential_variables()
    # One (predicate, entries) template per head atom; None when the rule
    # needs the generic dict-binding fire path (assignments, aggregation,
    # post conditions, Dom guards or residual conditions).
    head_templates: Optional[Tuple[Tuple[str, Tuple[Tuple[int, object], ...]], ...]]
    # The rule's :func:`~repro.core.rules.rule_shape` key: every field above
    # apart from the values bound in is a function of it.
    shape: tuple

    @property
    def simple_fire(self) -> bool:
        """True when heads can be instantiated straight from the slot array."""
        return self.head_templates is not None


def _compile_step(
    atom,
    atom_index: int,
    slot_of: Mapping[Variable, int],
    bound_slots: Set[int],
) -> Tuple[AtomStep, Set[int]]:
    """Compile one atom given the slots already bound; returns the new bound set."""
    const_checks: List[Tuple[int, Term]] = []
    bound_checks: List[Tuple[int, int]] = []
    same_checks: List[Tuple[int, int]] = []
    writes: List[Tuple[int, int]] = []
    first_occurrence: Dict[Variable, int] = {}
    for pos, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            slot = slot_of[term]
            if slot in bound_slots:
                bound_checks.append((pos, slot))
            elif term in first_occurrence:
                same_checks.append((pos, first_occurrence[term]))
            else:
                first_occurrence[term] = pos
                writes.append((pos, slot))
        else:
            const_checks.append((pos, term))
    step = AtomStep(
        atom_index=atom_index,
        predicate=atom.predicate,
        arity=atom.arity,
        const_checks=tuple(const_checks),
        bound_checks=tuple(bound_checks),
        same_checks=tuple(same_checks),
        writes=tuple(writes),
        conditions=(),
    )
    return step, bound_slots | {slot for _, slot in writes}


def _selectivity_order(
    atoms: List[Tuple[int, object]],
    slot_of: Mapping[Variable, int],
    bound_slots: Set[int],
) -> List[Tuple[int, object]]:
    """Greedy join order: prefer atoms with the most bound positions.

    Ties break towards fewer fresh variables (smaller intermediate results)
    and then textual order, keeping the order deterministic.
    """
    remaining = list(atoms)
    ordered: List[Tuple[int, object]] = []
    bound = set(bound_slots)
    while remaining:

        def score(entry: Tuple[int, object]) -> Tuple[int, int, int]:
            index, atom = entry
            bound_positions = 0
            fresh = set()
            for term in atom.terms:
                if isinstance(term, Variable):
                    slot = slot_of[term]
                    if slot in bound:
                        bound_positions += 1
                    else:
                        fresh.add(slot)
                else:
                    bound_positions += 1
            return (-bound_positions, len(fresh), index)

        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        for term in best[1].terms:
            if isinstance(term, Variable):
                bound.add(slot_of[term])
    return ordered


def _attach_conditions(
    steps: List[AtomStep],
    conditions: Sequence[Comparison],
    slot_of: Mapping[Variable, int],
) -> List[AtomStep]:
    """Push each comparison down to the earliest step that binds its variables."""
    from dataclasses import replace

    pending = list(conditions)
    bound: Set[int] = set()
    attached: List[AtomStep] = []
    for step in steps:
        bound |= {slot for _, slot in step.writes}
        ready: List[CompiledCondition] = []
        for condition in list(pending):
            needed = condition.variables()
            if all(v in slot_of and slot_of[v] in bound for v in needed):
                pending.remove(condition)
                ready.append(
                    CompiledCondition(condition, tuple((v, slot_of[v]) for v in needed))
                )
        attached.append(replace(step, conditions=tuple(ready)) if ready else step)
    return attached


def compile_rule_join_plan(rule: Rule) -> RuleJoinPlan:
    """Compile a rule into its slot-machine join plan (done once per rule)."""
    body = rule.relational_body
    slot_of: Dict[Variable, int] = {}
    for atom in body:
        for variable in atom.variables():
            slot_of.setdefault(variable, len(slot_of))
    variables = tuple(sorted(slot_of, key=slot_of.get))

    # Conditions mentioning assignment/aggregate variables are evaluated by
    # the chase after those values are computed; conditions over slots are
    # pushed into the join; the rest (e.g. over Dom-guard-only variables)
    # stay residual and are checked on the final binding, like the
    # interpreted path does.
    body_vars = set(rule.body_variables())
    pre_conditions = [
        c for c in rule.conditions if all(v in body_vars for v in c.variables())
    ]
    pushable = [c for c in pre_conditions if all(v in slot_of for v in c.variables())]
    residual = tuple(c for c in pre_conditions if c not in pushable)

    # Monotonic aggregations are stateful: the order in which matches are
    # enumerated determines the intermediate aggregate values, so reordering
    # the body would change the derived fact stream.  Keep textual order.
    reorder = rule.aggregate is None

    seed_plans: List[SeedJoinPlan] = []
    for seed_index in range(len(body)):
        seed_step, bound = _compile_step(body[seed_index], seed_index, slot_of, set())
        others = [(i, a) for i, a in enumerate(body) if i != seed_index]
        if reorder:
            others = _selectivity_order(others, slot_of, bound)
        probe_steps: List[AtomStep] = []
        for atom_index, atom in others:
            step, bound = _compile_step(atom, atom_index, slot_of, bound)
            probe_steps.append(step)
        steps = _attach_conditions([seed_step] + probe_steps, pushable, slot_of)
        seed_plans.append(SeedJoinPlan(seed=steps[0], probes=tuple(steps[1:])))

    existentials = rule.existential_variables()

    # Rules whose firing needs no computed values and no final guard checks
    # get positional head templates so the executor can instantiate head
    # facts straight from the slot array, without a dict binding.
    head_templates = None
    post_conditions = [c for c in rule.conditions if c not in pre_conditions]
    if (
        not rule.assignments
        and rule.aggregate is None
        and not post_conditions
        and not residual
        and not rule.dom_guards
    ):
        null_index = {v: i for i, v in enumerate(existentials)}
        templates = []
        for head_atom in rule.head:
            entries: List[Tuple[int, object]] = []
            for term in head_atom.terms:
                if isinstance(term, Variable):
                    if term in slot_of:
                        entries.append((HEAD_SLOT, slot_of[term]))
                    elif term in null_index:
                        entries.append((HEAD_NULL, null_index[term]))
                    else:
                        # A head variable that is neither bound nor
                        # existential would make the rule unsafe; let the
                        # generic path raise the usual error.
                        templates = None
                        break
                else:
                    entries.append((HEAD_GROUND, term))
            if templates is None:
                break
            templates.append((head_atom.predicate, tuple(entries)))
        if templates is not None:
            head_templates = tuple(templates)

    return RuleJoinPlan(
        rule=rule,
        variables=variables,
        slot_of=slot_of,
        seed_plans=tuple(seed_plans),
        residual_conditions=residual,
        body_length=len(body),
        existentials=existentials,
        head_templates=head_templates,
        shape=rule_shape(rule)[0],
    )


class _PlanShape:
    """One compiled plan, and where another rule of its shape binds into it.

    The plan's slots, existentials, condition indexes, constant positions
    and head-template ground positions are recorded once; :meth:`bind` reads
    the other rule's variables, predicates, constants and conditions at
    those places and shares every purely positional tuple of the plan.
    """

    def __init__(self, plan: RuleJoinPlan, numbering: List[Variable]) -> None:
        number = {variable: index for index, variable in enumerate(numbering)}
        condition_index = {id(c): index for index, c in enumerate(plan.rule.conditions)}
        self.plan = plan
        self.slots = tuple(number[v] for v in plan.variables)
        self.existentials = tuple(number[v] for v in plan.existentials)
        self.residual = tuple(condition_index[id(c)] for c in plan.residual_conditions)
        #: Per seed plan, per step: the step, its constant positions and its
        #: (condition index, slots) pairs.
        self.seeds = tuple(
            tuple(
                (
                    step,
                    tuple(pos for pos, _ in step.const_checks),
                    tuple(
                        (condition_index[id(c.comparison)], tuple(s for _, s in c.var_slots))
                        for c in step.conditions
                    ),
                )
                for step in (seed_plan.seed, *seed_plan.probes)
            )
            for seed_plan in plan.seed_plans
        )
        #: Per head atom: its template entries and their ground positions.
        self.heads = None
        if plan.head_templates is not None:
            self.heads = tuple(
                (entries, tuple(i for i, (kind, _) in enumerate(entries) if kind == HEAD_GROUND))
                for _, entries in plan.head_templates
            )

    def bind(
        self,
        rule: Rule,
        numbering: List[Variable],
        condition_variables: List[Tuple[Variable, ...]],
    ) -> RuleJoinPlan:
        """The plan :func:`compile_rule_join_plan` gives for ``rule``."""
        body = rule.relational_body
        conditions = rule.conditions
        seed_plans = []
        for steps in self.seeds:
            bound = []
            for step, const_positions, compiled in steps:
                atom = body[step.atom_index]
                terms = atom.terms
                bound.append(
                    AtomStep(
                        step.atom_index,
                        atom.predicate,
                        step.arity,
                        tuple([(pos, terms[pos]) for pos in const_positions]),
                        step.bound_checks,
                        step.same_checks,
                        step.writes,
                        tuple(
                            [
                                CompiledCondition(
                                    conditions[index], tuple(zip(condition_variables[index], slots))
                                )
                                for index, slots in compiled
                            ]
                        )
                        if compiled
                        else (),
                    )
                )
            seed_plans.append(SeedJoinPlan(bound[0], tuple(bound[1:])))

        head_templates = None
        if self.heads is not None:
            templates = []
            for atom, (entries, ground) in zip(rule.head, self.heads):
                if ground:
                    entries = list(entries)
                    for position in ground:
                        entries[position] = (HEAD_GROUND, atom.terms[position])
                    entries = tuple(entries)
                templates.append((atom.predicate, entries))
            head_templates = tuple(templates)

        variables = tuple([numbering[n] for n in self.slots])
        return RuleJoinPlan(
            rule=rule,
            variables=variables,
            slot_of=dict(zip(variables, range(len(variables)))),
            seed_plans=tuple(seed_plans),
            residual_conditions=tuple([conditions[i] for i in self.residual]),
            body_length=self.plan.body_length,
            existentials=tuple([numbering[n] for n in self.existentials]),
            head_templates=head_templates,
            shape=self.plan.shape,
        )


def compile_join_plans(program: Program) -> Dict[int, RuleJoinPlan]:
    """Compile every rule of a program, keyed by rule identity.

    One plan is compiled per rule shape
    (:func:`~repro.core.rules.rule_shape`); every other rule of the shape is
    bound into it.
    """
    shapes: Dict[tuple, _PlanShape] = {}
    plans: Dict[int, RuleJoinPlan] = {}
    for rule in program.rules:
        key, numbering, condition_variables = rule_shape(rule)
        shape = shapes.get(key)
        if shape is None:
            plan = compile_rule_join_plan(rule)
            shapes[key] = _PlanShape(plan, numbering)
        else:
            plan = shape.bind(rule, numbering, condition_variables)
        plans[id(rule)] = plan
    return plans


# --------------------------------------------------------------------------
# Source pushdown compilation (selection pushed into ``@bind`` datasources)
# --------------------------------------------------------------------------


def _occurrence_constraints(rule: Rule, atom) -> FrozenSet[Tuple[int, str, object]]:
    """Constraints every source row must satisfy to be usable at ``atom``.

    Two constraint shapes are extracted, matching what the join plan checks
    positionally anyway: a ground term at position ``p`` (``fact[p] ==
    constant``) and a body comparison between a variable bound at ``p`` and
    a literal.  A row failing either can never contribute a match *at this
    occurrence* — the rule's join would reject it.
    """
    from ..core.expressions import Literal, VariableRef
    from ..core.terms import Constant, Variable

    constraints: Set[Tuple[int, str, object]] = set()
    var_position: Dict[Variable, int] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            # With a repeated variable any single position is sound: equal
            # positions carry the same value, unequal ones fail the join.
            var_position.setdefault(term, position)
        elif isinstance(term, Constant):
            constraints.add((position, "==", term.value))
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
    for condition in rule.conditions:
        left, right = condition.left, condition.right
        if isinstance(left, VariableRef) and isinstance(right, Literal):
            variable, op, value = left.variable, condition.op, right.value
        elif isinstance(left, Literal) and isinstance(right, VariableRef):
            variable, value = right.variable, left.value
            op = flipped.get(condition.op, condition.op)
        else:
            continue
        op = {"=": "==", "<>": "!="}.get(op, op)
        if variable in var_position and isinstance(value, (bool, int, float, str)):
            constraints.add((var_position[variable], op, value))
    return frozenset(constraints)


def compile_source_pushdowns(
    program: Program,
    predicates: Sequence[str],
    requested_outputs: Sequence[str] = (),
):
    """Selections safe to evaluate inside the ``@bind`` sources of a program.

    For each candidate predicate the compiler intersects the constraint sets
    of **every** occurrence of that predicate — body atoms of rules plus the
    bodies of negative constraints and EGDs (which contribute empty sets and
    therefore veto pushdown).  A row filtered out by the intersection is
    unusable at every occurrence, so skipping it at the source cannot change
    any answer.  Predicates that are also rule heads or answer predicates
    get no pushdown (their source rows are answers or mix with derived
    facts) — ``requested_outputs`` carries the per-run ``reason(outputs=…)``
    selection, which may name predicates beyond the program's declared
    ``@output`` set — and programs using ``Dom`` active-domain guards
    disable pushdown entirely, since removing a row would shrink the active
    domain itself.

    Returns a mapping predicate → :class:`~repro.storage.datasources.Pushdown`
    containing only predicates with a non-empty pushdown.
    """
    from ..storage.datasources import Pushdown

    if any(rule.dom_guards for rule in program.rules):
        return {}
    idb = program.idb_predicates()
    outputs = program.output_predicates() | set(requested_outputs)
    pushdowns: Dict[str, Pushdown] = {}
    for predicate in predicates:
        if predicate in idb or predicate in outputs:
            continue
        occurrences: List[FrozenSet[Tuple[int, str, object]]] = []
        for rule in program.rules:
            for atom in rule.relational_body:
                if atom.predicate == predicate:
                    occurrences.append(_occurrence_constraints(rule, atom))
        for checked in list(program.constraints) + list(program.egds):
            if any(atom.predicate == predicate for atom in checked.body):
                occurrences.append(frozenset())
        if not occurrences:
            continue
        common = frozenset.intersection(*occurrences)
        if common:
            pushdowns[predicate] = Pushdown(tuple(sorted(common, key=repr)))
    return pushdowns


def pushdown_constraint_spec(
    program: Program,
    predicates: Sequence[str],
    requested_outputs: Sequence[str] = (),
) -> Dict[str, Tuple[Tuple[int, str, object], ...]]:
    """Serialisable view of :func:`compile_source_pushdowns`.

    Returns predicate → sorted ``(position, op, value)`` triples — the raw
    constraint form a :class:`~repro.storage.datasources.Pushdown` wraps.
    The translation-validation encoder (:mod:`repro.verify.encode`) uses
    this plain-data shape to filter the symbolic instance exactly the way
    the sources would filter concrete rows, without holding a live
    ``Pushdown`` inside the formula system.
    """
    return {
        predicate: pushdown.constraints
        for predicate, pushdown in compile_source_pushdowns(
            program, predicates, requested_outputs
        ).items()
    }


def backward_slice(program: Program, targets: Sequence[str]) -> Tuple[Set[str], List[Rule]]:
    """Query-driven relevance pruning: the rules that can reach ``targets``.

    Returns the backward closure over the head→body dependency relation: a
    rule is *relevant* when one of its head predicates is a target or feeds
    (transitively) the body of a relevant rule; every body predicate of a
    relevant rule becomes relevant in turn.  The streaming pipeline only
    instantiates filters for relevant rules and sources for relevant
    extensional predicates, so reasoning work is bounded by what the
    requested output predicates can actually observe.

    The returned rule list preserves the program (round-robin) order.
    """
    relevant: Set[str] = set(targets)
    included: Set[int] = set()
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            if id(rule) in included:
                continue
            if any(head in relevant for head in rule.head_predicate_names()):
                included.add(id(rule))
                changed = True
                for atom in rule.relational_body:
                    if atom.predicate not in relevant:
                        relevant.add(atom.predicate)
    rules = [rule for rule in program.rules if id(rule) in included]
    return relevant, rules


def compile_plan(program: Program) -> ReasoningAccessPlan:
    """Compile a program into a reasoning access plan (the logic compiler)."""
    plan = ReasoningAccessPlan()
    edb = program.edb_predicates() | set(program.inputs)
    outputs = program.output_predicates()

    for predicate in sorted(edb):
        plan.add_node(PlanNode(name=f"source:{predicate}", kind="source", predicate=predicate))
    for rule in program.rules:
        plan.add_node(PlanNode(name=f"rule:{rule.label}", kind="rule", rule_label=rule.label))
    for predicate in sorted(outputs):
        plan.add_node(PlanNode(name=f"sink:{predicate}", kind="sink", predicate=predicate))

    producers: Dict[str, List[str]] = {}
    for predicate in edb:
        producers.setdefault(predicate, []).append(f"source:{predicate}")
    for rule in program.rules:
        for predicate in rule.head_predicate_names():
            producers.setdefault(predicate, []).append(f"rule:{rule.label}")

    for rule in program.rules:
        consumer = f"rule:{rule.label}"
        for predicate in rule.body_predicate_names():
            for producer in producers.get(predicate, []):
                plan.add_edge(producer, consumer)
    for predicate in outputs:
        sink = f"sink:{predicate}"
        for producer in producers.get(predicate, []):
            plan.add_edge(producer, sink)
    return plan
