"""The chase engine (Section 3.4, Algorithm 2) with pluggable termination.

The engine materialises ``Σ(D)`` for a program Σ and database D by applying
rules until no termination-strategy-admitted fact can be added.  Rules are
applied in **round-robin** order (the breadth-first policy of Section 4's
execution model): in every round each rule is given the chance to fire on
the facts derived in the previous round (semi-naive evaluation), which keeps
the fact propagation uniform across rules and makes the derivation order
deterministic for a fixed program and database.

A derived fact whose predicate can reach a labelled null is wrapped in a
:class:`~repro.core.forests.ChaseNode` carrying the linear-forest /
warded-forest metadata needed by Algorithm 1 (:mod:`repro.core.termination`).
Chase metadata is kept only where a later step reads it, the space argument
of the space-efficient warded chase (arXiv:1809.05951):

* the termination strategy sees only heads whose predicate a labelled null
  can reach (``F``, :func:`~repro.core.termination.null_reach`); every
  other new head is admitted without asking;
* a derived fact gets a node only when its predicate is in ``N``, the
  predicates that can reach ``F`` (:func:`~repro.core.termination.reaching`):
  no node of ``N`` has a parent outside ``N``, so no step reads the node
  of such a fact.  The resident reasoner's engines keep a node for every
  fact, for the derivations delete-and-rederive follows;
* an extensional fact gets its node only when a derivation first takes it
  as a parent, or at load when it holds a labelled null (the termination
  strategy registers it).

The engine is the one owner of its run's state: its :class:`ChaseResult`,
built once, holds the store, the one fact → node map and the round count.
The map holds the node of every derived fact that carries one and the
extensional nodes made so far; ``result.nodes`` is the complete view, one
node per stored fact that carries one, in store order, and makes the
missing extensional nodes as it is read.  It appends any node whose fact
is no longer stored and checks its input nodes against the extensional
facts that carry a node, so a stale node or a derived fact stored without
one still shows.
There is one round loop,
:meth:`ChaseEngine.continue_rounds`, fed by one input-load step,
:meth:`ChaseEngine.load_inputs`; both read and write that result, so a
driver hands them only facts or a delta: ``run()`` feeds the whole
database, the resident reasoner an upsert, the streaming driver a lazily
read batch.  :meth:`ChaseEngine.start_run` and :meth:`ChaseEngine.finish_run`
open and close a run — the chase span, the clock and the budget governor —
for ``run()`` and the streaming driver alike.  There is one admission
loop, :meth:`ChaseEngine.fire_slots`: it turns a full match's head rows
into stored facts, reading them from a compiled plan's slot array (the
compiled round evaluator) or from a dict binding, which
:meth:`ChaseEngine.fire_binding` completes first (the naive executor and
the compiled plans without head templates).  There is one interpreted body
matcher, :meth:`ChaseEngine.match_body`, with three callers: the naive
executor (seeded from the round's delta), the EGD and negative-constraint
checks (:meth:`ChaseEngine.check_violations`) and the chase baselines of
:mod:`repro.baselines`, which also share ``fire_binding``'s prelude
(:meth:`ChaseEngine.computed_binding`) and instantiate heads with
:meth:`ChaseEngine.instantiate_head`.  There is
one limit mechanism: the run's :class:`~repro.core.limits.ExecutionBudget`
/ :class:`~repro.core.limits.CancellationToken`, which end a run with a
structured status and a sound partial result — the engine never raises on
a ceiling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .aggregates import AggregateRegistry
from .atoms import Atom, Fact
from .conditions import AggregateSpec
from .expressions import ExpressionError
from .fact_store import FactStore
from .forests import ChaseNode, derived_node, input_node
from .limits import (
    STATUS_COMPLETE,
    CancellationToken,
    ExecutionBudget,
    ExecutionGovernor,
    ExecutionStopped,
)
from .rules import DOM_PREDICATE, Program, Rule
from .terms import Constant, Null, NullFactory, Term, Variable
from .termination import (
    TerminationStrategy,
    WardedTerminationStrategy,
    null_reach,
    reaching,
)
from .wardedness import ProgramAnalysis, RuleAnalysis, RuleKind, analyse_program
from ..testing.faults import fault_point

#: One rule of a seeded round (:meth:`ChaseEngine.continue_rounds`): the
#: rule, the index of its seed atom in ``rule.relational_body`` and the
#: facts that atom is seeded from.
RuleSeed = Tuple[Rule, int, Sequence[Fact]]


class _RuleConstants(NamedTuple):
    """What the firing path reads of a rule on every chase step, computed
    once per engine; each derived fact's chase node holds its rule's."""

    kind: RuleKind
    #: ``rule.label or "rule"``: the label provenances record.
    label: str
    #: Conditions over assignment/aggregate variables, checked after those
    #: values are computed; the others are checked while matching the body.
    post_conditions: Tuple
    existentials: Tuple[Variable, ...]
    #: ``plan.head_templates`` over a binding (:meth:`ChaseEngine.fire_slots`):
    #: entries ``(1, variable)``, ``(2, null index)`` or ``(0, ground term)``.
    #: ``None`` when the rule's compiled plan has its own: it never fires
    #: from a binding.
    head_templates: Optional[Tuple[Tuple[str, Tuple[Tuple[int, object], ...]], ...]]
    dom_guards: Tuple[Atom, ...]
    #: Index in ``rule.relational_body`` of the atom bound to the ward
    #: (warded rules), ``None`` otherwise.
    ward_index: Optional[int]
    #: Binding → the aggregate's group key: the values of the head
    #: variables bound by the body or an assignment, but the aggregate's
    #: own.  ``None`` without an aggregate.
    group_key: Optional[Callable[[Dict[Variable, Term]], Tuple[Term, ...]]]
    #: Binding → the values of the aggregate's contributors, ``None``
    #: without contributors.
    contributor_key: Optional[Callable[[Dict[Variable, Term]], Tuple[Term, ...]]]


def _key_getter(
    variables: Sequence[Variable],
) -> Callable[[Dict[Variable, Term]], Tuple[Term, ...]]:
    """Binding → the tuple of its values of ``variables``: one C call for
    two or more (``itemgetter`` returns a scalar for one)."""
    if len(variables) > 1:
        return itemgetter(*variables)
    if variables:
        one = itemgetter(variables[0])
        return lambda binding: (one(binding),)
    return lambda binding: ()


def _rule_constants(rule: Rule, analysis: RuleAnalysis, from_binding: bool) -> _RuleConstants:
    body_vars = set(rule.body_variables())
    head_vars = rule.head_variables()
    computed = rule.computed_variables()
    # ``rule.existential_variables()``, from the variable lists read once.
    existentials = tuple(v for v in head_vars if v not in body_vars and v not in computed)
    ward_index = None
    if analysis.kind is RuleKind.WARDED and analysis.ward is not None:
        body = rule.relational_body
        # The ward atom itself, else the first atom equal to it.
        at = [i for i, atom in enumerate(body) if atom is analysis.ward]
        at = at or [i for i, atom in enumerate(body) if atom == analysis.ward]
        ward_index = at[0] if at else None
    group_key = contributor_key = None
    if rule.aggregate is not None:
        aggregated = rule.aggregate.variable
        group_key = _key_getter(
            [v for v in head_vars if v != aggregated and v not in existentials]
        )
        if rule.aggregate.contributors:
            contributor_key = _key_getter(rule.aggregate.contributors)
    head_templates = None
    if from_binding:
        nulls = {v: (2, i) for i, v in enumerate(existentials)}
        head_templates = tuple(
            (atom.predicate, tuple([
                nulls.get(t) or ((1, t) if isinstance(t, Variable) else (0, t)) for t in atom.terms
            ]))
            for atom in rule.head
        )
    return _RuleConstants(
        kind=analysis.kind,
        label=rule.label or "rule",
        post_conditions=tuple(
            c for c in rule.conditions if any(v not in body_vars for v in c.variables())
        ),
        existentials=existentials,
        head_templates=head_templates,
        dom_guards=rule.dom_guards,
        ward_index=ward_index,
        group_key=group_key,
        contributor_key=contributor_key,
    )


class _RuleTable(dict):
    """``id(rule)`` → the rule's :class:`_RuleConstants`, computed on its
    first lookup (a construction-heavy program fires few of its rules);
    ``None`` for an owner that is no rule of the program, such as an EGD
    or a negative constraint."""

    def __init__(self, rules: Sequence[Rule], analysis: ProgramAnalysis, compiled: Dict) -> None:
        super().__init__()
        self._rule_of = {id(rule): rule for rule in rules}
        self._analysis = analysis
        #: The engine's compiled executors by ``id(rule)``.
        self._compiled = compiled

    def __missing__(self, key: int) -> Optional[_RuleConstants]:
        rule = self._rule_of.get(key)
        if rule is None:
            return None
        executor = self._compiled.get(key)
        from_binding = executor is None or executor.plan.head_templates is None
        analysis = self._analysis.analysis_for(rule)
        constants = self[key] = _rule_constants(rule, analysis, from_binding)
        return constants


class InconsistencyError(Exception):
    """Raised when a negative constraint or EGD is violated (fail-fast mode)."""


@dataclass(frozen=True)
class Violation:
    """A violated constraint together with the facts witnessing the violation."""

    kind: str
    label: str
    witnesses: Tuple[Fact, ...]
    detail: str = ""

    def __str__(self) -> str:
        facts = ", ".join(repr(f) for f in self.witnesses)
        return f"{self.kind} {self.label or ''} violated by {facts} {self.detail}".strip()


@dataclass
class ChaseConfig:
    """Behaviour switches and resource bounds of a chase run."""

    fail_on_violation: bool = False
    #: Resource budget for the run — the one limit mechanism: exhausting it
    #: ends the run gracefully with a structured non-``complete`` status and
    #: the sound partial materialisation derived so far (never an exception).
    budget: Optional[ExecutionBudget] = None
    #: Cooperative cancellation token checked at governed checkpoints.
    cancel: Optional[CancellationToken] = None


@dataclass
class ChaseResult:
    """Outcome of a chase run — and, while it runs, the run's state.

    The :class:`ChaseEngine` that builds it is its one writer.
    """

    store: FactStore
    program: Program
    strategy: TerminationStrategy
    aggregates: AggregateRegistry
    #: The one fact → chase node map: the node of every derived fact that
    #: carries one (:attr:`node_reach`) and the extensional nodes made so far
    #: (:meth:`input_node_of`); every node's fact is stored.  :attr:`nodes`
    #: is the complete view.
    node_of: Dict[Fact, ChaseNode] = field(default_factory=dict)
    #: ``N``, the predicates whose facts carry a chase node: those that can
    #: reach a labelled null (:func:`~repro.core.termination.reaching`).
    #: ``None`` when every fact carries one (the resident reasoner's
    #: engines and a lazily driven stream, :meth:`ChaseEngine.keep_every_node`).
    node_reach: Optional[Set[str]] = None
    #: How many stored facts entered through :meth:`ChaseEngine.load_inputs`
    #: (the extensional ones).
    extensional_facts: int = 0
    #: The store slots those facts took, as ``[start, stop)`` ranges, one
    #: per load (a load appends its facts to the store in one run of
    #: slots); every other slot holds a derived fact or a tombstone.
    input_slots: List[Tuple[int, int]] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    rounds: int = 0
    chase_steps: int = 0
    candidate_facts: int = 0
    elapsed_seconds: float = 0.0
    #: Which evaluation path produced the result ("compiled", "naive" or
    #: "streaming"); benchmark rows and diagnostics report it.
    executor: str = ""
    #: Wall-clock seconds from the first pull until the streaming driver
    #: first saw an answer fact in the store (streaming runs only; the
    #: materializing chase has no earlier answer than its completion).
    first_answer_seconds: Optional[float] = None
    #: Extra counters attached by the drivers (the streaming driver's
    #: slice statistics), merged into :meth:`stats`.
    extra_stats: Dict[str, object] = field(default_factory=dict)
    #: Structured run outcome: ``"complete"``, ``"deadline_exceeded"``,
    #: ``"budget_exceeded"`` or ``"cancelled"``.  Non-complete runs carry the
    #: sound partial materialisation derived before the stop.
    status: str = STATUS_COMPLETE
    #: Human-readable explanation of a non-complete status.
    stop_reason: Optional[str] = None
    #: High-water mark of resident facts (extensional + derived) in the store.
    peak_resident_facts: int = 0
    #: Early-stop notices (budget stops, cancellation).
    warnings: List[str] = field(default_factory=list)

    @property
    def nodes(self) -> Tuple[ChaseNode, ...]:
        """One chase node per stored fact that carries one (its predicate is
        in :attr:`node_reach`), in store order, then the node of every fact
        the map holds that is no longer stored (none, in a sound run).

        Makes the node of every such extensional fact no derivation has read
        yet and keeps it in :attr:`node_of`, so reading the view gives up the
        memory the lazy input nodes saved.  Raises ``RuntimeError`` when the
        input nodes do not match the extensional facts that carry a node: a
        derived fact stored without its node would otherwise read as an
        input root.
        """
        node_of = self.node_of
        store = self.store
        carried = self._carry_nodes(store.facts())
        view = [node_of.get(f) or self.input_node_of(f) for f in carried]
        if len(node_of) > len(view):
            view.extend(n for n in node_of.values() if n.fact not in store)
        inputs = sum(1 for n in view if n.is_input)
        extensional = len(self._carry_nodes(self._split_by_origin()[0]))
        if inputs != extensional:
            raise RuntimeError(
                f"{inputs} input nodes for {extensional} extensional facts "
                "that carry a node: a derived fact was stored without its "
                "chase node, or a node outlived its fact"
            )
        return tuple(view)

    def _carry_nodes(self, facts: Sequence[Fact]) -> Sequence[Fact]:
        """The ``facts`` that carry a chase node."""
        reach = self.node_reach
        if reach is None:
            return facts
        return [f for f in facts if f.predicate in reach]

    def _split_by_origin(self) -> Tuple[List[Fact], List[Fact]]:
        """The stored facts inside :attr:`input_slots` (the extensional
        ones) and outside them (the derived ones), each in store order."""
        store = self.store
        extensional: List[Fact] = []
        derived: List[Fact] = []
        start = 0
        for low, high in self.input_slots:
            derived += store.facts_in(start, low)
            extensional += store.facts_in(low, high)
            start = high
        derived += store.facts_in(start, store.next_slot)
        return extensional, derived

    def input_node_of(self, fact: Fact) -> ChaseNode:
        """The node of a stored extensional ``fact`` that has none yet.

        A derived fact that carries a node gets it when it is stored;
        :attr:`nodes` catches one that did not, which this would have
        labelled an input.
        """
        node = self.node_of[fact] = input_node(fact)
        return node

    def facts(self, predicate: Optional[str] = None) -> Tuple[Fact, ...]:
        """All facts of the result, optionally restricted to one predicate."""
        if predicate is None:
            return self.store.facts()
        return tuple(self.store.by_predicate(predicate))

    def derived_facts(self) -> Tuple[Fact, ...]:
        """Facts produced by rules (excluding the extensional input), in
        store order."""
        return tuple(self._split_by_origin()[1])

    def stats(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "facts": len(self.store),
            "derived_facts": len(self.store) - self.extensional_facts,
            "rounds": self.rounds,
            "chase_steps": self.chase_steps,
            "candidate_facts": self.candidate_facts,
            "elapsed_seconds": self.elapsed_seconds,
            "violations": len(self.violations),
            "strategy": self.strategy.name,
            "status": self.status,
            "peak_resident_facts": self.peak_resident_facts,
        }
        if self.stop_reason is not None:
            data["stop_reason"] = self.stop_reason
        if self.executor:
            data["executor"] = self.executor
        if self.first_answer_seconds is not None:
            data["first_answer_seconds"] = self.first_answer_seconds
        data.update(self.extra_stats)
        data.update({f"strategy_{k}": v for k, v in self.strategy.stats.as_dict().items()})
        return data


class ChaseEngine:
    """Materialisation engine guided by a termination strategy.

    Rule bodies are evaluated by one of two executors:

    ``"compiled"`` (the default)
        Each rule is compiled once into a slot-machine join plan
        (:func:`repro.engine.plan.compile_rule_join_plan`) and evaluated by
        tuple position through the store's dynamic indexes, by a generated
        join kernel shared by every rule of the plan's shape
        (:class:`repro.engine.joins.CompiledRuleExecutor`, built here).
    ``"naive"``
        The interpreted backtracking matcher (:meth:`match_body`) building
        a binding ``dict`` per candidate fact.  Kept as the reference
        implementation for differential testing and as an escape hatch.

    A derived fact gets a chase node when its predicate is in ``N``
    (``result.node_reach``, the module docstring has the argument), or
    always after :meth:`keep_every_node`.
    """

    def __init__(
        self,
        program: Program,
        database: Iterable[Fact] = (),
        strategy: Optional[TerminationStrategy] = None,
        analysis: Optional[ProgramAnalysis] = None,
        config: Optional[ChaseConfig] = None,
        executor: str = "compiled",
        join_plans: Optional[Dict[int, object]] = None,
        tracer=None,
    ) -> None:
        if executor not in ("compiled", "naive"):
            raise ValueError(f"unknown executor {executor!r}; use 'compiled' or 'naive'")
        #: Optional :class:`repro.obs.Tracer`.  ``None`` (the default) keeps
        #: every instrumentation block behind an ``is not None`` guard so the
        #: untraced path runs no telemetry code at all.
        self.tracer = tracer
        self.program = program
        self.analysis = analysis or analyse_program(program)
        self.strategy = strategy if strategy is not None else WardedTerminationStrategy()
        self.null_factory = NullFactory()
        self.config = config or ChaseConfig()
        self.executor = executor
        #: Per-run budget/cancellation monitor, live from :meth:`start_run`
        #: to :meth:`finish_run`; ``None`` for ungoverned runs and between
        #: runs (the resident reasoner's later rounds), which then pay
        #: nothing per match.
        self._governor: Optional[ExecutionGovernor] = None
        #: The run's open chase span on a traced engine (:meth:`start_run`).
        self._chase_span = None
        #: When :meth:`start_run` started the run clock; ``None`` before.
        self.started_at: Optional[float] = None
        self.aggregates = AggregateRegistry()
        self._database = database
        #: ``F``, the predicates a labelled null can reach
        #: (:func:`~repro.core.termination.null_reach`): a head outside it
        #: asks the strategy nothing.  Widened by :meth:`load_inputs` when a
        #: loaded fact brings a null outside it.
        self._null_reach = null_reach(
            program.rules, {position.predicate for position in self.analysis.affected}
        )
        self._compiled: Dict[int, object] = {}
        if executor == "compiled":
            # Imported lazily: the engine package imports this module.
            from ..engine.joins import CompiledRuleExecutor
            from ..engine.plan import compile_rule_join_plan

            for rule in program.rules:
                plan = join_plans.get(id(rule)) if join_plans else None
                if plan is None:
                    plan = compile_rule_join_plan(rule)
                self._compiled[id(rule)] = CompiledRuleExecutor(plan)
        self._rules = _RuleTable(program.rules, self.analysis, self._compiled)
        self._register_aggregated_positions()
        #: The run's state, built once: store, node map and round count.
        self.result = ChaseResult(
            store=FactStore(),
            program=program,
            strategy=self.strategy,
            aggregates=self.aggregates,
            executor=executor,
            node_reach=reaching(program.rules, self._null_reach),
        )

    # ------------------------------------------------------------------ setup
    def _register_aggregated_positions(self) -> None:
        for rule in self.program.rules:
            if rule.aggregate is None:
                continue
            for atom in rule.head:
                for index, term in enumerate(atom.terms):
                    if term == rule.aggregate.variable:
                        self.aggregates.register_position(
                            atom.predicate, index, rule.aggregate.function
                        )

    def keep_every_node(self) -> None:
        """Give every fact derived from now on a chase node.

        For the resident reasoner, whose retractions follow the recorded
        derivation of every fact, and for a driver that loads facts after
        the first round (the streaming driver's partial batches): a
        labelled null among them could widen ``F`` over facts already
        derived without a node.  Called before the first round.
        """
        self.result.node_reach = None

    # -------------------------------------------------------------------- run
    def run(self) -> ChaseResult:
        """Run the chase to completion (or until the budget/cancel stops it).

        :meth:`start_run`, the input load, :meth:`continue_rounds` — the one
        round loop — and :meth:`finish_run`: the streaming driver takes the
        same steps over lazily read batches, and the resident reasoner
        feeds later deltas to the same engine.  Runs once per engine.
        """
        chase_span = self.start_run()
        delta = self.load_inputs(self._database)
        delta += self.load_inputs(self.program.facts)
        self._database = ()
        if chase_span is not None:
            chase_span.counters["input_facts"] = len(self.result.store)
        self.continue_rounds(delta)
        self.finish_run()
        return self.result

    def load_inputs(self, facts: Iterable[Fact]) -> List[Fact]:
        """Add extensional ``facts`` to the store; returns the ones it added.

        The one input-load step: :meth:`run` (the whole database), the
        resident reasoner's upsert and the streaming driver's batches all
        enter facts here, stamped with the last completed round so the
        store's round stamps stay monotone.  A fact already in the store
        is skipped.  A ground fact gets its chase node only when a
        derivation takes it as a parent (:meth:`ChaseResult.input_node_of`);
        one holding a labelled null gets it here, for the termination
        strategy to register, and puts its predicate in ``F`` (the
        predicates a null can reach) if it was not there, and what reaches
        ``F`` then in ``N`` (a driver that loads after the first round
        keeps every node, :meth:`keep_every_node`).  The returned facts are
        the delta to hand to :meth:`continue_rounds`.
        """
        result = self.result
        store = result.store
        node_of = result.node_of
        store.current_round = result.rounds
        register = self.strategy.register_input
        add = store.add
        start = store.next_slot
        loaded: List[Fact] = []
        for fact in facts:
            if not add(fact):
                continue
            if fact.has_nulls:
                node = node_of[fact] = input_node(fact)
                register(node)
                if fact.predicate not in self._null_reach:
                    rules = self.program.rules
                    self._null_reach = null_reach(rules, {*self._null_reach, fact.predicate})
                    if result.node_reach is not None:
                        result.node_reach |= reaching(rules, self._null_reach)
            loaded.append(fact)
        if loaded:
            # The added facts took one run of slots; it extends the last
            # load's when nothing was derived in between.
            slots = result.input_slots
            if slots and slots[-1][1] == start:
                start = slots.pop()[0]
            slots.append((start, store.next_slot))
        result.extensional_facts += len(loaded)
        if len(store) > result.peak_resident_facts:
            result.peak_resident_facts = len(store)
        return loaded

    def start_run(self, **span_attrs: object):
        """Open a run: its chase span, its clock and its budget governor.

        :meth:`run` and the streaming driver (at its first pull) both start
        here; :meth:`continue_rounds` and the per-match ticks consult the
        governor from now on and the deadline counts from this call.
        ``span_attrs`` go on the chase span.  Returns the open span on a
        traced engine, ``None`` otherwise.
        """
        tracer = self.tracer
        if tracer is None:
            self.started_at = time.perf_counter()
        else:
            executor = self.result.executor
            span = self._chase_span = tracer.begin(
                "chase", f"chase:{executor}", executor=executor, **span_attrs
            )
            # One measurement: the span's bounds are the run's clock.
            self.started_at = span.t_start
        governor = self._governor = ExecutionGovernor.for_config(self.config)
        if governor is not None and tracer is not None:
            governor.tracer = tracer
        return self._chase_span

    def finish_run(self) -> None:
        """Close a run: deferred checks or the early-stop warning, then the
        governor, the clock and the chase span :meth:`start_run` opened."""
        result = self.result
        self._governor = None
        if result.status == STATUS_COMPLETE:
            self.check_violations()
        else:
            result.warnings.append(
                f"chase stopped early ({result.status}): {result.stop_reason}; "
                "the materialisation is a sound subset of the complete result"
            )
        tracer = self.tracer
        if tracer is None:
            result.elapsed_seconds = time.perf_counter() - self.started_at
            return
        chase_span, self._chase_span = self._chase_span, None
        # An ExecutionStopped may have unwound the loop with spans open.
        tracer.unwind(chase_span)
        chase_span.counters["facts"] = len(result.store)
        chase_span.counters["derived"] = result.chase_steps
        chase_span.counters["rounds"] = result.rounds
        chase_span.counters["candidates"] = result.candidate_facts
        chase_span.counters["peak_resident_facts"] = result.peak_resident_facts
        chase_span.attrs["status"] = result.status
        if result.stop_reason:
            chase_span.attrs["stop_reason"] = result.stop_reason
        tracer.end(chase_span)
        result.elapsed_seconds = chase_span.duration
        tracer.metrics.gauge("chase.peak_resident_facts").set_max(
            result.peak_resident_facts
        )

    def continue_rounds(
        self, delta: Sequence[Fact], seeds: Optional[List[RuleSeed]] = None
    ) -> None:
        """Run semi-naive rounds seeded with ``delta`` until fixpoint.

        The one round loop.  ``delta`` are facts that just entered the
        store through :meth:`load_inputs` — the whole database
        (:meth:`run`), upserted inputs or the rederivation front of a
        retraction (:mod:`repro.engine.incremental`), a lazily read batch
        (:mod:`repro.engine.pipeline`).  Rounds are numbered on from
        ``result.rounds``, so the store's round stamps driving the
        before-seed probe restriction stay monotone across calls.

        A governed run (:meth:`start_run`) checks every budget axis before
        each round and ends the loop with ``result.status`` /
        ``stop_reason`` set — also when a per-match tick unwinds a round
        (everything admitted so far is committed and sound); a traced
        engine wraps each round in a span.  The resident reasoner's rounds
        after its first run are neither.

        ``seeds`` replaces the *first* round's delta with explicit seeds,
        one ``(rule, atom index, facts)`` per rule to fire: the round fires
        only those rules, each from the one body atom given, over the given
        facts (a list the round may not grow), and every other atom probes
        the store as usual.  The DRed rederivation round of
        :mod:`repro.engine.incremental` is such a round; the before-seed
        restriction passes every resident fact (each is stamped with an
        earlier round), so one seed atom covers the join.  Later rounds
        run the full program from the derived delta.
        """
        result = self.result
        store = result.store
        governor = self._governor
        tracer = self.tracer
        round_index = result.rounds
        try:
            while delta or seeds:
                if governor is not None:
                    stop = governor.round_status(
                        round_index, len(store), result.chase_steps
                    )
                    if stop is not None:
                        result.status, result.stop_reason = stop
                        break
                round_index += 1
                round_span = None
                if tracer is not None:
                    round_span = tracer.begin(
                        "round", f"round:{round_index}", round=round_index
                    )
                    round_span.counters["delta_in"] = len(delta)
                delta = self._evaluate_round(delta, round_index, seeds)
                seeds = None
                if round_span is not None:
                    round_span.counters["derived"] = len(delta)
                    round_span.counters["resident_facts"] = len(store)
                    tracer.end(round_span)
                    tracer.metrics.histogram("chase.round_seconds").observe(
                        round_span.duration
                    )
        except ExecutionStopped as stop:
            result.status, result.stop_reason = stop.status, stop.detail
        result.rounds = round_index
        if len(store) > result.peak_resident_facts:
            result.peak_resident_facts = len(store)

    def _evaluate_round(
        self,
        delta: Sequence[Fact],
        round_index: int,
        seeds: Optional[List[RuleSeed]] = None,
    ) -> List[Fact]:
        """Evaluate one semi-naive round; returns the facts it derived.

        The one round evaluator: the rules are applied in round-robin order
        against the live store, so a fact admitted earlier in the round is
        already probed by the rules that follow it.  ``seeds`` (see
        :meth:`continue_rounds`) picks the rules and their seed facts.
        """
        result = self.result
        # Stamp the round and index the delta the executors seed from.
        result.store.begin_round(round_index, delta)
        derived: List[Fact] = []
        tracer = self.tracer
        if seeds is None:
            work = [(rule, None) for rule in self.program.rules]
        else:
            work = [(rule, (index, facts)) for rule, index, facts in seeds]
        for rule, seed in work:
            if tracer is None:
                derived.extend(self._apply_rule(rule, round_index, seed))
                continue
            # One span per (round, rule).  Counters are set in bulk once the
            # rule has finished, never per fire: ``candidates`` is every head
            # instantiation attempted, ``fires`` the admitted subset,
            # ``deduped`` the rest (already present or termination-rejected).
            label = rule.label or "rule"
            span = tracer.begin("rule", f"rule:{label}", rule=label, round=round_index)
            candidates_before = result.candidate_facts
            try:
                produced = self._apply_rule(rule, round_index, seed)
            except BaseException as exc:
                tracer.end(span, status="error", error=repr(exc))
                raise
            candidates = result.candidate_facts - candidates_before
            span.counters["fires"] = len(produced)
            span.counters["candidates"] = candidates
            span.counters["deduped"] = candidates - len(produced)
            tracer.end(span)
            derived.extend(produced)
        return derived

    # ---------------------------------------------------------- rule matching
    def _apply_rule(
        self,
        rule: Rule,
        round_index: int,
        seed: Optional[Tuple[int, Sequence[Fact]]] = None,
    ) -> List[Fact]:
        """Fire ``rule`` on its matches seeded from the round's delta, or
        from ``seed`` — one body atom index and its facts — when given."""
        fault_point("chase.rule", rule=rule.label or "rule", round=round_index)
        executor = self._compiled.get(id(rule))
        if executor is not None:
            return self._apply_rule_compiled(rule, executor, round_index, seed)
        result = self.result
        store = result.store
        node_of = result.node_of
        produced: List[Fact] = []
        governor = self._governor
        tick = governor.tick if governor is not None else None
        if seed is None:
            seeds = [
                (index, store.delta_facts(atom.predicate))
                for index, atom in enumerate(rule.relational_body)
            ]
        else:
            seeds = [seed]
        for seed in seeds:
            for binding, used_facts in self.match_body(rule, store, seed, round_index):
                if tick is not None:
                    tick()
                self.fire_binding(rule, binding, used_facts, store, node_of, result, produced)
        return produced

    def _apply_rule_compiled(
        self, rule: Rule, executor, round_index: int, seed=None
    ) -> List[Fact]:
        """Hot path: evaluate the rule body through its compiled join plan.

        The executor already evaluated every comparison that only needs body
        slots, ticked the governor once per full match and dropped the
        matches whose head rows are all stored.  Once per rule: a plan with
        head templates hands each remaining match's slots to
        :meth:`fire_slots`; any other checks its residual conditions and
        ``Dom`` guards on the match's binding and calls :meth:`fire_binding`.
        """
        result = self.result
        store = result.store
        node_of = result.node_of
        plan = executor.plan
        produced: List[Fact] = []
        governor = self._governor
        tick = governor.tick if governor is not None else None
        seed_lists = None
        if seed is not None and plan.seed_plans:
            # Seed plan i seeds from body atom i: only the given one runs.
            seed_lists = [()] * len(plan.seed_plans)
            seed_lists[seed[0]] = seed[1]
        matches = executor.matches(
            store, round_index, result=result, tick=tick, seed_lists=seed_lists
        )
        templates = plan.head_templates
        if templates is not None:
            existentials = plan.existentials
            fire = self.fire_slots
            for slots, used_facts in matches:
                fire(rule, templates, existentials, slots, used_facts, store, node_of, result,
                     produced)
            return produced
        variables = plan.variables
        residual = plan.residual_conditions
        rules = self._rules
        dom_guards_hold = self._dom_guards_hold
        fire = self.fire_binding
        for slots, used_facts in matches:
            binding = dict(zip(variables, slots))
            if residual and not all(c.holds(binding) for c in residual):
                continue
            if dom_guards_hold(rules[id(rule)].dom_guards, binding, store):
                fire(rule, binding, used_facts, store, node_of, result, produced)
        return produced

    def fire_slots(
        self,
        rule: Rule,
        templates,
        existentials: Sequence[Variable],
        values,
        used_facts: List[Fact],
        store: FactStore,
        node_of: Dict[Fact, ChaseNode],
        result: ChaseResult,
        produced: List[Fact],
    ) -> None:
        """Fire ``rule`` on one full body match; admitted facts are appended
        to ``produced``.

        The one admission loop of every executor.  ``templates`` holds one
        ``(predicate, entries)`` per head atom: kind 1 reads
        ``values[payload]`` (a plan's slot array and slot indices, or a full
        binding and variables), kind 2 takes fresh null ``payload`` (one
        drawn per existential first) and kind 0 is the ground ``payload``.
        A stored row is skipped; only a head in ``N`` gets a chase node and
        only one in ``F`` asks the strategy (module docstring).
        ``values``/``used_facts`` are only read before this call returns.
        """
        nulls = tuple([self.null_factory.fresh() for _ in existentials]) if existentials else ()
        strategy = self.strategy
        reach = self._null_reach
        node_reach = result.node_reach
        constants = parents = None
        contains_row = store.contains_row
        for predicate, entries in templates:
            result.candidate_facts += 1
            terms = tuple([
                values[payload] if kind == 1 else (nulls[payload] if kind == 2 else payload)
                for kind, payload in entries
            ])
            if contains_row(predicate, terms):
                continue
            head_fact = Fact.from_ground(predicate, terms)
            if node_reach is None or predicate in node_reach:
                if parents is None:
                    constants = self._rules[id(rule)]
                    parents = self._parents(used_facts, result)
                node = derived_node(head_fact, constants, parents)
                if predicate in reach:
                    if not strategy.admit(node):
                        continue
                else:
                    strategy.stats.admitted += 1
                node_of[head_fact] = node
            else:
                strategy.stats.admitted += 1
            store.add(head_fact)
            result.chase_steps += 1
            produced.append(head_fact)

    @staticmethod
    def _parents(used_facts: List[Fact], result: ChaseResult) -> Tuple[ChaseNode, ...]:
        """The chase nodes of a step's body facts, an extensional fact's made
        on this first read."""
        node_of = result.node_of
        return tuple([node_of.get(f) or result.input_node_of(f) for f in used_facts])

    def match_body(
        self,
        owner,
        store: FactStore,
        seed: Optional[Tuple[int, Sequence[Fact]]] = None,
        round_index: int = 0,
    ) -> Iterator[Tuple[Dict[Variable, Term], List[Fact]]]:
        """Every full match of the body of ``owner`` — a rule, an EGD or a
        negative constraint — in ``store``: ``(binding, used facts)`` pairs.

        The one interpreted body matcher (the naive executor, the EGD and
        constraint checks and the chase baselines call it): a backtracking
        join over the relational atoms in body order, candidates from
        :meth:`FactStore.candidates`; each full match must pass the ``Dom``
        guards (:meth:`_dom_guards_hold`) and the conditions that need no
        computed value.  With ``seed`` — a body atom index and its facts —
        that atom is matched first, against those facts only, and the atoms
        before it only against facts of rounds before ``round_index``, so a
        semi-naive round enumerates each join once over all seed choices.
        """
        body = [atom for atom in owner.body if atom.predicate != DOM_PREDICATE]
        guards = [atom for atom in owner.body if atom.predicate == DOM_PREDICATE]
        constants = self._rules[id(owner)]
        post = constants.post_conditions if constants is not None else ()
        conditions = [c for c in owner.conditions if c not in post]
        atoms = [(index, atom, None) for index, atom in enumerate(body)]
        seed_index = -1
        if seed is not None:
            seed_index = seed[0]
            del atoms[seed_index]
            atoms.insert(0, (seed_index, body[seed_index], seed[1]))
        used: List[Optional[Fact]] = [None] * len(body)

        # ``extend`` recurses through its own argument, not through the
        # enclosing scope: a function held by its own closure cell would
        # keep the engine, and so the chase graph, alive until the cyclic
        # collector runs.
        def extend(position: int, binding: Dict[Variable, Term], extend):
            if position == len(atoms):
                if self._dom_guards_hold(guards, binding, store) and all(
                    c.holds(binding) for c in conditions
                ):
                    yield dict(binding), [f for f in used if f is not None]
                return
            index, atom, facts = atoms[position]
            atom = atom.substitute(binding)
            for fact in store.candidates(atom, binding) if facts is None else facts:
                if index < seed_index and store.round_of(fact) >= round_index:
                    continue
                extension = atom.match(fact)
                if extension is None:
                    continue
                extended = dict(binding)
                extended.update(extension)
                used[index] = fact
                yield from extend(position + 1, extended, extend)
                used[index] = None

        return extend(0, {}, extend)

    def _dom_guards_hold(
        self, guards: Sequence[Atom], binding: Dict[Variable, Term], store: FactStore
    ) -> bool:
        """Check the ``Dom`` active-domain guards for a full body match."""
        for guard in guards:
            for term in guard.terms:
                if isinstance(term, Variable):
                    if term.name == "_STAR":
                        # ``Dom(*)``: every bound body variable must be a ground
                        # constant of the active domain (Section 2, Example 6).
                        if any(not isinstance(v, Constant) for v in binding.values()):
                            return False
                        continue
                    bound = binding.get(term)
                    if bound is None or not isinstance(bound, Constant):
                        return False
                    if not store.in_active_domain(bound.value):
                        return False
                elif isinstance(term, Null):
                    return False
        return True

    # ----------------------------------------------------------------- firing
    def fire_binding(
        self,
        rule: Rule,
        binding: Dict[Variable, Term],
        used_facts: List[Fact],
        store: FactStore,
        node_of: Dict[Fact, ChaseNode],
        result: ChaseResult,
        produced: List[Fact],
    ) -> None:
        """Fire ``rule`` on a full body ``binding``; admitted facts are
        appended to ``produced``.

        The prelude of the dict-binding path — the naive executor and the
        compiled plans without head templates: the computed values
        (:meth:`computed_binding`), then :meth:`fire_slots` over the full
        binding with the rule's own head templates.
        """
        full_binding = self.computed_binding(rule, binding)
        if full_binding is not None:
            constants = self._rules[id(rule)]
            self.fire_slots(
                rule, constants.head_templates, constants.existentials, full_binding,
                used_facts, store, node_of, result, produced,
            )

    def computed_binding(
        self, rule: Rule, binding: Dict[Variable, Term]
    ) -> Optional[Dict[Variable, Term]]:
        """``binding`` plus the rule's assignments and aggregate, or ``None``
        when a computation fails or a post condition rejects the result.

        :meth:`fire_binding` and the chase baselines of
        :mod:`repro.baselines` share it.
        """
        full_binding = dict(binding)
        try:
            for assignment in rule.assignments:
                full_binding[assignment.variable] = assignment.compute(full_binding)
            if rule.aggregate is not None:
                aggregate_value = self._aggregate_value(rule, rule.aggregate, full_binding)
                if aggregate_value is None:
                    return None
                full_binding[rule.aggregate.variable] = aggregate_value
        except ExpressionError:
            return None
        for condition in self._rules[id(rule)].post_conditions:
            if not condition.holds(full_binding):
                return None
        return full_binding

    def instantiate_head(self, atom: Atom, binding: Dict[Variable, Term]) -> Fact:
        """The fact a head ``atom`` becomes under a full ``binding`` (the
        chase baselines of :mod:`repro.baselines`; the chase itself fills
        heads in :meth:`fire_slots`)."""
        terms: List[Term] = []
        for term in atom.terms:
            if isinstance(term, Variable):
                value = binding.get(term)
                if value is None:
                    raise InconsistencyError(
                        f"head variable {term.name} of {atom!r} is unbound; "
                        "the rule is unsafe"
                    )
                terms.append(value)
            else:
                terms.append(term)
        return Fact(atom.predicate, terms)

    def _aggregate_value(
        self, rule: Rule, spec: AggregateSpec, binding: Dict[Variable, Term]
    ) -> Optional[Term]:
        evaluator = self.aggregates.evaluator_for(rule.label or str(id(rule)), spec)
        constants = self._rules[id(rule)]
        # Groups and contributors are keyed by the terms themselves: a
        # constant by identity (one object per type and value), a null by ident.
        group_key = constants.group_key(binding)
        if Null in map(type, group_key):
            # Group-by arguments must be non-null (Section 5 constraint 1).
            return None
        if constants.contributor_key is not None:
            # Bound: a rule's aggregate reads only body or assigned variables.
            contributor_key: Hashable = constants.contributor_key(binding)
            if Null in map(type, contributor_key):
                # Contributors must be non-null values (Section 5, constraint 1).
                return None
        else:
            contributor_key = frozenset(binding.items())
        value = spec.argument.evaluate(binding)
        if isinstance(value, Null):
            # Counting/collecting aggregations treat labelled nulls by identity;
            # numeric aggregations cannot use them as values.
            if spec.function not in ("mcount", "munion"):
                return None
            value = ("null", value.ident)
        return Constant(evaluator.update(group_key, contributor_key, value))

    # ------------------------------------------------------------ constraints
    def check_violations(self) -> None:
        """Run the deferred EGD and negative-constraint checks on the result.

        Their bodies go through :meth:`match_body`, so ``Dom`` guards —
        ``Dom(*)`` included — mean what they mean in a rule body.
        """
        store = self.result.store
        for egd in self.program.egds:
            for binding, used in self.match_body(egd, store):
                left = binding.get(egd.left)
                right = binding.get(egd.right)
                if left is None or right is None or left == right:
                    continue
                if isinstance(left, Constant) and isinstance(right, Constant):
                    self._record(
                        Violation("egd", egd.label, tuple(used), f"({left} != {right})")
                    )
        for constraint in self.program.constraints:
            for _binding, used in self.match_body(constraint, store):
                self._record(Violation("negative-constraint", constraint.label, tuple(used)))

    def _record(self, violation: Violation) -> None:
        self.result.violations.append(violation)
        if self.config.fail_on_violation:
            raise InconsistencyError(str(violation))


def run_chase(
    program: Program,
    database: Iterable[Fact] = (),
    strategy: Optional[TerminationStrategy] = None,
    config: Optional[ChaseConfig] = None,
    executor: str = "compiled",
    tracer=None,
) -> ChaseResult:
    """One-call helper: build a :class:`ChaseEngine` and run it.

    ``tracer`` is an optional :class:`repro.obs.Tracer`; callers owning the
    tracer must call ``tracer.finish()`` themselves (the reasoner does this
    for ``reason()``).
    """
    engine = ChaseEngine(
        program, database, strategy=strategy, config=config, executor=executor,
        tracer=tracer,
    )
    return engine.run()
