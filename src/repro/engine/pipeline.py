"""Pull-based streaming pipeline executor (Section 4, "Execution model").

This module is the paper's pipes-and-filters runtime made real: a reasoning
task is compiled into a DAG of *filter nodes* — record-manager **sources**
feeding extensional facts, **rule filters** evaluating one rule each, and
output **sinks** collecting the answer predicates — connected by buffered
pipes.  Execution is *pull-based*: sinks issue ``open()/next()/close()``
calls that propagate backwards through the pipeline; a node with several
predecessors pulls from them in **round-robin** order, which sustains the
breadth-first application of the rules, and the live
:class:`~repro.engine.scheduler.PullScheduler` classifies every pull as a
hit, a *cyclic miss* (``notifyCycle`` — the callee is already serving a
``next()`` further up the invocation chain) or a *real miss*.

Compared to the materializing chase (:mod:`repro.core.chase`) the pipeline

* is **query-driven**: only rules in the backward slice of the requested
  output predicates (:func:`repro.engine.plan.backward_slice`) are
  instantiated, everything else is pruned;
* returns **first answers early**: an answer fact reaches its sink as soon
  as one derivation chain completes, long before the full model is
  materialized — :meth:`PipelineExecutor.first_answer` stops pulling at that
  point;
* keeps intermediates in **buffer segments**
  (:class:`~repro.engine.buffer.BufferSegment`): every filter appends its
  emitted facts to a paginated per-filter buffer whose pages are evicted to
  swap beyond a residency budget, and consumers read them back through
  per-edge cursors;
* wires the **termination wrappers in-line**: every candidate fact a rule
  filter derives passes its :class:`~repro.engine.wrappers.TerminationWrapper`
  (``checkTermination``) before it is emitted downstream.

Rule filters execute the compiled slot-machine join plans of PR 1
(:class:`~repro.engine.plan.RuleJoinPlan`) *incrementally*: each newly
pulled fact is used as the semi-naive seed of every body atom with its
predicate, probing the shared store's dynamic per-position indexes for the
remaining atoms.  Duplicate derivations across pulls are avoided with a
**per-fact arrival sequence**: a probe atom may only match facts that
arrived strictly before the seed fact (or the seed fact itself at a later
body position), so every body combination is enumerated exactly once — when
its newest member is pulled.  Firing itself is delegated to the chase
kernel (:meth:`repro.core.chase.ChaseEngine.fire_slots`, the same entry the
compiled and parallel drivers call), so head templates, assignments,
aggregations, ``Dom`` guards, fresh nulls and forest metadata behave
identically across executors.
"""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.atoms import Fact
from ..core.chase import ChaseConfig, ChaseEngine, ChaseResult
from ..core.fact_store import FactStore
from ..core.forests import ChaseNode, input_node
from ..core.limits import (
    STATUS_COMPLETE,
    ExecutionGovernor,
    ExecutionStopped,
)
from ..obs.trace import activate
from ..testing.faults import fault_point
from ..core.rules import DOM_PREDICATE, Program, Rule
from ..core.termination import TerminationStrategy
from ..core.wardedness import ProgramAnalysis
from .buffer import BufferCache
from .joins import CompiledRuleExecutor
from .plan import RuleJoinPlan, backward_slice, compile_rule_join_plan
from .record_managers import RecordManager
from .scheduler import PullScheduler
from .wrappers import WrapperRegistry

_UNTRACED = nullcontext()


@dataclass
class PipelineStats:
    """Counters of one streaming run (reported via ``ChaseResult.extra_stats``)."""

    sweeps: int = 0
    facts_pulled: int = 0
    facts_emitted: int = 0
    answers_produced: int = 0
    relevant_rules: int = 0
    pruned_rules: int = 0
    pruned_sources: int = 0
    facts_at_first_answer: Optional[int] = None
    peak_resident_buffer_items: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "pipeline_sweeps": self.sweeps,
            "pipeline_facts_pulled": self.facts_pulled,
            "pipeline_facts_emitted": self.facts_emitted,
            "pipeline_answers_produced": self.answers_produced,
            "pipeline_relevant_rules": self.relevant_rules,
            "pipeline_pruned_rules": self.pruned_rules,
            "pipeline_pruned_sources": self.pruned_sources,
            "pipeline_facts_at_first_answer": self.facts_at_first_answer,
            "pipeline_peak_resident_buffer_items": self.peak_resident_buffer_items,
        }


@dataclass
class _Cursor:
    """A consumer's read position into one producer's buffer segment.

    ``wanted`` restricts the edge to the predicates the consumer actually
    needs from this producer (a multi-head rule emits facts of several
    predicates into one buffer; unwanted ones are skipped).
    """

    producer: "PipelineNode"
    wanted: FrozenSet[str]
    position: int = 0


class _Context:
    """Shared runtime state of one pipeline run."""

    def __init__(
        self,
        engine: ChaseEngine,
        result: ChaseResult,
        buffers: BufferCache,
        stats: PipelineStats,
        tracer=None,
    ) -> None:
        self.tracer = tracer
        self.engine = engine
        self.result = result
        self.store: FactStore = result.store
        self.node_of: Dict[Fact, ChaseNode] = {}
        self.seq_of: Dict[Fact, int] = {}
        self.buffers = buffers
        self.stats = stats
        #: Monotone counter of *any* observable work (cursor advances, fact
        #: admissions).  A full driver sweep that leaves it unchanged proves
        #: the fixpoint: no unread buffer items, no producible facts.
        self.progress = 0
        self.sweep = 0
        self.started_at: Optional[float] = None
        self.first_answer_fact: Optional[Fact] = None
        #: Per-run budget/cancellation monitor (set once driving starts).
        self.governor: Optional[ExecutionGovernor] = None

    # -- fact admission --------------------------------------------------------
    def register(self, fact: Fact) -> None:
        self.seq_of[fact] = len(self.seq_of)
        self.progress += 1
        governor = self.governor
        if governor is not None:
            governor.tick()
            if governor.has_fact_limits:
                # A streaming sweep can admit many facts before the next
                # boundary, so the fact-count axes are enforced here too.
                stop = governor.admission_status(
                    len(self.store), self.result.chase_steps
                )
                if stop is not None:
                    raise ExecutionStopped(*stop)
        resident = self.buffers.resident_items()
        if resident > self.stats.peak_resident_buffer_items:
            self.stats.peak_resident_buffer_items = resident

    def note_answer(self, fact: Fact) -> None:
        self.stats.answers_produced += 1
        if self.first_answer_fact is None:
            self.first_answer_fact = fact
            self.stats.facts_at_first_answer = len(self.store)
            if self.started_at is not None:
                self.result.first_answer_seconds = time.perf_counter() - self.started_at

    # -- the pull protocol -----------------------------------------------------
    def pull_one(
        self, consumer: "PipelineNode", cursor: _Cursor, sched: PullScheduler
    ) -> Optional[Fact]:
        """One ``next()`` call from ``consumer`` to ``cursor.producer``.

        Unread buffered items are served without re-entering the producer —
        this is what lets a recursive filter consume its *own* earlier output
        without a runtime cycle.  Only when the buffer is drained does the
        pull recurse into ``produce()``, answering a cyclic miss instead if
        the producer is already on the invocation stack.
        """
        producer = cursor.producer
        sched.record_next(consumer.name, producer.name)
        while True:
            buffer = producer.buffer
            while cursor.position < len(buffer):
                item = buffer.item(cursor.position)
                cursor.position += 1
                self.progress += 1
                if item.predicate in cursor.wanted:
                    sched.record_hit(consumer.name, producer.name)
                    self.stats.facts_pulled += 1
                    return item
                # Fact of a predicate this edge does not carry: skip it.
            if sched.on_stack(producer.name):
                sched.record_cyclic_miss(consumer.name, producer.name)
                return None
            if producer.barren_at == self.progress:
                # The producer already proved (this exact progress level) that
                # its whole upstream cone is dry; re-entering it would repeat
                # an identical traversal.  Without this memo the retry traffic
                # grows multiplicatively with pipeline depth.
                sched.record_barren_skip(consumer.name, producer.name)
                sched.record_real_miss(consumer.name, producer.name)
                return None
            if not producer.produce(sched):
                sched.record_real_miss(consumer.name, producer.name)
                return None
            # The producer emitted something new: loop back to read it.


class PipelineNode:
    """Common shape of pipeline nodes: a name plus a buffered output pipe."""

    kind = "node"

    def __init__(self, name: str, ctx: _Context) -> None:
        self.name = name
        self.ctx = ctx
        self.buffer = ctx.buffers.segment(name)
        #: Progress level at which a ``produce()`` attempt failed without any
        #: global progress; until the level changes the node is provably dry
        #: and pulls skip it (its buffer stays readable regardless).
        self.barren_at = -1

    def produce(self, sched: PullScheduler) -> bool:
        """Try to emit at least one new fact into the buffer; True on success."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, buffered={len(self.buffer)})"


class SourceNode(PipelineNode):
    """A record-manager source: streams one extensional fact per ``next()``."""

    kind = "source"

    def __init__(self, name: str, predicate: str, manager: RecordManager, ctx: _Context) -> None:
        super().__init__(name, ctx)
        self.predicate = predicate
        self.manager = manager
        self.wrapper = None  # set by the executor (termination input routing)
        self._iterator: Optional[Iterator[Fact]] = None
        self.exhausted = False

    def produce(self, sched: PullScheduler) -> bool:
        if self.exhausted:
            return False
        if self._iterator is None:  # open(): the stream starts on first pull
            self._iterator = self.manager.stream()
        ctx = self.ctx
        for fact in self._iterator:
            if not ctx.store.add(fact):
                continue  # duplicate input row
            node = input_node(fact, step=0)
            ctx.node_of[fact] = node
            ctx.result.nodes.append(node)
            if self.wrapper is not None:
                self.wrapper.register_input(node)
            ctx.register(fact)
            self.buffer.append(fact)
            return True
        self.exhausted = True
        self.barren_at = ctx.progress
        return False


class RuleFilterNode(PipelineNode):
    """One rule of the program, evaluated incrementally against pulled facts."""

    kind = "rule"

    def __init__(
        self,
        name: str,
        rule: Rule,
        plan: RuleJoinPlan,
        wrapper,
        ctx: _Context,
    ) -> None:
        super().__init__(name, ctx)
        self.rule = rule
        self.plan = plan
        self.wrapper = wrapper
        self.cursors: List[_Cursor] = []
        self._rr = 0
        # Tracing accumulators (only written on the traced path): per-sweep
        # spans would be far too many, so the filter accumulates its busy
        # time and counters here and ``PipelineExecutor._finish`` emits one
        # summary "rule" span per filter spanning [t_first, t_last].
        self.busy_seconds = 0.0
        self.consumed = 0
        self.fires = 0
        self.candidates = 0
        self.t_first: Optional[float] = None
        self.t_last: Optional[float] = None
        # The compiled executor contributes its positional admission checks
        # and most-selective-bucket probe over the store's dynamic indexes.
        self._executor = CompiledRuleExecutor(plan)
        self._seeds_by_predicate: Dict[str, List] = {}
        for seed_plan in plan.seed_plans:
            self._seeds_by_predicate.setdefault(seed_plan.seed.predicate, []).append(
                seed_plan
            )

    # -- the pull loop ---------------------------------------------------------
    def produce(self, sched: PullScheduler) -> bool:
        """Pull predecessors round-robin until ≥ 1 fact is emitted.

        Consuming a fact that fires nothing is still progress (the cursor
        advanced), so the loop keeps rotating; it gives up only after a full
        round in which every predecessor missed.
        """
        fault_point("pipeline.rule", rule=self.rule.label or "rule")
        ctx = self.ctx
        emitted_mark = len(self.buffer)
        attempt_start = ctx.progress
        sched.enter(self.name)
        try:
            n = len(self.cursors)
            if n == 0:
                self.barren_at = ctx.progress
                return False
            while True:
                pulled_any = False
                for _ in range(n):
                    cursor = self.cursors[self._rr]
                    self._rr = (self._rr + 1) % n
                    fact = ctx.pull_one(self, cursor, sched)
                    if fact is None:
                        continue
                    pulled_any = True
                    self._consume(fact)
                    if len(self.buffer) > emitted_mark:
                        return True
                if not pulled_any:
                    if ctx.progress == attempt_start:
                        # Nothing moved anywhere during this attempt: the node
                        # is dry until upstream progress invalidates the memo.
                        self.barren_at = ctx.progress
                    return False
        finally:
            sched.leave(self.name)

    # -- incremental evaluation ------------------------------------------------
    def _consume(self, fact: Fact) -> None:
        """Use ``fact`` as the semi-naive seed of every matching body atom.

        Traced, it also accumulates the filter's busy time and its
        candidate/fire deltas (in bulk, never per match) for the summary span.
        """
        traced = self.ctx.tracer is not None
        if traced:
            result = self.ctx.result
            candidates_before = result.candidate_facts
            steps_before = result.chase_steps
            t0 = time.perf_counter()
        try:
            seed_plans = self._seeds_by_predicate.get(fact.predicate)
            if not seed_plans:
                return
            seq_fact = self.ctx.seq_of[fact]
            n_slots = len(self.plan.variables)
            for seed_plan in seed_plans:
                slots: List[Optional[object]] = [None] * n_slots
                seed = seed_plan.seed
                if not CompiledRuleExecutor._admit(seed, fact, slots):
                    continue
                used: List[Optional[Fact]] = [None] * self.plan.body_length
                used[seed.atom_index] = fact
                self._walk(seed_plan.probes, 0, slots, used, seq_fact, seed.atom_index)
        finally:
            if traced:
                t1 = time.perf_counter()
                self.busy_seconds += t1 - t0
                self.consumed += 1
                self.candidates += result.candidate_facts - candidates_before
                self.fires += result.chase_steps - steps_before
                if self.t_first is None:
                    self.t_first = t0
                self.t_last = t1

    def _walk(
        self,
        probes: Tuple,
        depth: int,
        slots: List,
        used: List,
        seq_fact: int,
        seed_index: int,
    ) -> None:
        """Backtracking probe walk restricted by the arrival sequence.

        A candidate with a later sequence number than the seed is left for
        the pull that will deliver *it* as the seed; the seed fact itself may
        re-match only at a strictly later body position.  Together this
        enumerates every body combination exactly once across all pulls.
        """
        if depth == len(probes):
            self._fire(slots, used)
            return
        step = probes[depth]
        seq_of = self.ctx.seq_of
        admit = CompiledRuleExecutor._admit
        for candidate in self._executor._probe_candidates(step, slots, self.ctx.store):
            seq_candidate = seq_of[candidate]
            if seq_candidate > seq_fact:
                continue
            if seq_candidate == seq_fact and step.atom_index <= seed_index:
                continue
            if not admit(step, candidate, slots):
                continue
            used[step.atom_index] = candidate
            self._walk(probes, depth + 1, slots, used, seq_fact, seed_index)
            used[step.atom_index] = None
            for _pos, slot in step.writes:
                slots[slot] = None

    def _fire(self, slots: List, used: List) -> None:
        """Fire the rule on a full match, emitting wrapper-admitted facts."""
        ctx = self.ctx
        produced: List[ChaseNode] = []
        ctx.engine.fire_slots(
            self.rule,
            self.plan,
            slots,
            used,
            ctx.store,
            ctx.node_of,
            ctx.sweep,
            ctx.result,
            produced,
            admit=self.wrapper.check_termination,
        )
        for node in produced:
            ctx.register(node.fact)
            self.buffer.append(node.fact)
            ctx.stats.facts_emitted += 1


class SinkNode(PipelineNode):
    """Collects the facts of one output predicate as they become derivable."""

    kind = "sink"

    def __init__(self, name: str, predicate: str, ctx: _Context, hidden: bool = False) -> None:
        super().__init__(name, ctx)
        self.predicate = predicate
        #: Hidden sinks drain predicates needed only by constraint/EGD checks;
        #: they never surface answers through the public iterator.
        self.hidden = hidden
        self.cursors: List[_Cursor] = []
        self._rr = 0
        self._read = 0

    def produce(self, sched: PullScheduler) -> bool:
        ctx = self.ctx
        attempt_start = ctx.progress
        sched.enter(self.name)
        try:
            n = len(self.cursors)
            for _ in range(n):
                cursor = self.cursors[self._rr]
                self._rr = (self._rr + 1) % n
                fact = ctx.pull_one(self, cursor, sched)
                if fact is None:
                    continue
                self.buffer.append(fact)
                if not self.hidden:
                    ctx.note_answer(fact)
                return True
            if ctx.progress == attempt_start:
                self.barren_at = ctx.progress
            return False
        finally:
            sched.leave(self.name)

    def pop_unread(self) -> Optional[Fact]:
        """The next buffered answer not yet handed to the caller, if any."""
        if self._read < len(self.buffer):
            fact = self.buffer.item(self._read)
            self._read += 1
            return fact
        return None


class PipelineExecutor:
    """Compiles a program into a pull pipeline and drives it on demand.

    The executor exposes three granularities:

    * :meth:`first_answer` — pull only until one answer fact reaches a sink;
    * :meth:`next_answer` / :meth:`answers` — a lazy answer stream, pulling
      exactly as much of the pipeline as each answer requires;
    * :meth:`run_to_completion` — drain everything to the fixpoint (then EGD
      and constraint checks run, like the chase's post-pass) and return the
      :class:`~repro.core.chase.ChaseResult`.

    All three share state: answers already produced are never re-derived.
    """

    def __init__(
        self,
        program: Program,
        outputs: Sequence[str],
        input_managers: Mapping[str, RecordManager],
        strategy: TerminationStrategy,
        analysis: Optional[ProgramAnalysis] = None,
        config: Optional[ChaseConfig] = None,
        join_plans: Optional[Dict[int, RuleJoinPlan]] = None,
        page_size: int = 256,
        max_pages_per_segment: int = 64,
        eviction_policy: str = "lru",
        record_events: bool = True,
        tracer=None,
    ) -> None:
        self.program = program
        self.outputs = list(outputs)
        self.config = config or ChaseConfig()
        self.stats = PipelineStats()
        self.sched = PullScheduler(record_events=record_events)
        self.finished = False
        self.tracer = tracer
        #: Construction time, stamped as the ``t_create`` attribute of the
        #: streaming "chase" span; the span itself (and ``timings["chase"]``)
        #: starts at the *first pull* (``t_first_pull``) — streaming runs are
        #: lazy by design.
        self.created_at = time.perf_counter()
        self._chase_span = None

        # The chase kernel supplies firing semantics (assignments, nulls,
        # aggregates, Dom guards) plus the deferred EGD/constraint checks;
        # executor="naive" skips its own plan compilation — the pipeline
        # reuses the reasoner's compiled plans directly.
        engine = ChaseEngine(
            program,
            (),
            strategy=strategy,
            analysis=analysis,
            config=self.config,
            executor="naive",
        )
        self.result = ChaseResult(
            store=FactStore(),
            nodes=[],
            program=program,
            strategy=strategy,
            aggregates=engine.aggregates,
            executor="streaming",
        )
        buffers = BufferCache(
            page_size=page_size,
            max_pages_per_segment=max_pages_per_segment,
            policy=eviction_policy,
        )
        self.buffers = buffers
        self.ctx = _Context(engine, self.result, buffers, self.stats, tracer=tracer)
        self.registry = WrapperRegistry(strategy)

        # ---- query-driven relevance pruning --------------------------------
        hidden_targets = self._constraint_predicates(program)
        targets = list(self.outputs) + sorted(hidden_targets - set(self.outputs))
        relevant_predicates, relevant_rules = backward_slice(program, targets)
        self.stats.relevant_rules = len(relevant_rules)
        self.stats.pruned_rules = len(program.rules) - len(relevant_rules)

        # ---- nodes ----------------------------------------------------------
        self.sources: List[SourceNode] = []
        self.filters: List[RuleFilterNode] = []
        producers: Dict[str, List[PipelineNode]] = {}
        for predicate in sorted(input_managers):
            if predicate not in relevant_predicates:
                self.stats.pruned_sources += 1
                continue
            source = SourceNode(
                f"source:{predicate}", predicate, input_managers[predicate], self.ctx
            )
            source.wrapper = self.registry.wrapper_for(source.name)
            self.sources.append(source)
            producers.setdefault(predicate, []).append(source)
        for rule in relevant_rules:
            plan = (join_plans or {}).get(id(rule)) or compile_rule_join_plan(rule)
            name = f"rule:{rule.label}"
            node = RuleFilterNode(
                name, rule, plan, self.registry.wrapper_for(name), self.ctx
            )
            self.filters.append(node)
            for predicate in rule.head_predicate_names():
                producers.setdefault(predicate, []).append(node)

        # ---- pipes (cursors) ------------------------------------------------
        for node in self.filters:
            cursor_of: Dict[str, _Cursor] = {}
            for atom in node.rule.relational_body:
                for producer in producers.get(atom.predicate, []):
                    existing = cursor_of.get(producer.name)
                    if existing is None:
                        cursor_of[producer.name] = _Cursor(
                            producer, frozenset({atom.predicate})
                        )
                    else:
                        existing.wanted = existing.wanted | {atom.predicate}
            node.cursors = list(cursor_of.values())

        self.sinks: List[SinkNode] = []
        hidden_sinks: List[SinkNode] = []
        for predicate in self.outputs:
            sink = self._make_sink(predicate, producers, hidden=False)
            self.sinks.append(sink)
        for predicate in sorted(hidden_targets - set(self.outputs)):
            hidden_sinks.append(self._make_sink(predicate, producers, hidden=True))
        self.all_sinks: List[SinkNode] = self.sinks + hidden_sinks
        self._sink_rr = 0

    def _make_sink(
        self, predicate: str, producers: Dict[str, List[PipelineNode]], hidden: bool
    ) -> SinkNode:
        prefix = "drain" if hidden else "sink"
        sink = SinkNode(f"{prefix}:{predicate}", predicate, self.ctx, hidden=hidden)
        sink.cursors = [
            _Cursor(producer, frozenset({predicate}))
            for producer in producers.get(predicate, [])
        ]
        return sink

    @staticmethod
    def _constraint_predicates(program: Program) -> Set[str]:
        """Predicates the deferred EGD/constraint checks will scan."""
        needed: Set[str] = set()
        for constraint in program.constraints:
            for atom in constraint.body:
                if atom.predicate != DOM_PREDICATE:
                    needed.add(atom.predicate)
        for egd in program.egds:
            for atom in egd.body:
                if atom.predicate != DOM_PREDICATE:
                    needed.add(atom.predicate)
        return needed

    # ------------------------------------------------------------------ driving
    def _ensure_started(self) -> None:
        if self.ctx.started_at is None:
            tracer = self.tracer
            if tracer is None:
                self.ctx.started_at = time.perf_counter()
            else:
                # The chase span's start *is* the first-pull clock, so
                # ``elapsed_seconds`` and the span are one measurement.
                span = self._chase_span = tracer.begin(
                    "chase",
                    "chase:streaming",
                    executor="streaming",
                    t_create=self.created_at,
                )
                self.ctx.started_at = span.attrs["t_first_pull"] = span.t_start
            # ``next()`` propagates backwards by recursion (produce →
            # pull_one → produce), two frames per pipeline level.  A node on
            # the invocation stack answers a cyclic miss instead of being
            # re-entered, so the node count bounds the depth: give a deep
            # chain of filters the frames it needs (raise-only; the default
            # limit stays available to the caller and the firing kernel).
            needed = 1000 + 3 * (len(self.filters) + 2)
            if sys.getrecursionlimit() < needed:
                sys.setrecursionlimit(needed)
            # The deadline clock starts at the first pull, not at pipeline
            # construction — streaming runs are lazy by design.
            governor = ExecutionGovernor.for_config(self.config)
            self.ctx.governor = governor
            self.sched.governor = governor
            if tracer is not None and governor is not None:
                governor.tracer = tracer

    def _check_budget(self) -> bool:
        """Sweep-boundary budget check; True when the run must stop."""
        governor = self.ctx.governor
        if governor is None or self.finished:
            return False
        stop = governor.round_status(
            self.ctx.sweep, len(self.ctx.store), self.result.chase_steps
        )
        if stop is None:
            return False
        self._stop(*stop)
        return True

    def _stop(self, status: str, detail: str) -> None:
        """End the run early with a structured status and partial results."""
        self.result.status = status
        self.result.stop_reason = detail
        self.result.warnings.append(
            f"streaming run stopped early ({status}): {detail}; "
            "the answers produced so far are a sound subset of the complete result"
        )
        self._finish()

    def _drive_once(self, drain: bool = False) -> bool:
        """One driver sweep; False once the run has finished.

        Every sink gets a pull and the sweep returns at the first one that
        produces; ``drain`` pulls each sink dry instead.  A sweep in which
        nothing moved proves the fixpoint.
        """
        tracer = self.tracer
        # Traced sweeps run with the tracer active: lazily evaluated
        # datasource scan generators outlive any phase span and look the
        # tracer up when they are iterated.
        with activate(tracer) if tracer is not None else _UNTRACED:
            self._ensure_started()
            if self._check_budget():
                return False
            self.ctx.sweep += 1
            self.stats.sweeps += 1
            self.ctx.store.current_round = self.ctx.sweep
            before = self.ctx.progress
            try:
                for sink in self.all_sinks:
                    if drain:
                        while sink.produce(self.sched):
                            pass
                    elif sink.produce(self.sched):
                        return True
            except ExecutionStopped as stop:
                self._stop(stop.status, stop.detail)
                return False
            if self.ctx.progress == before:
                self._finish()
                return False
            return True

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        if self.result.status == STATUS_COMPLETE:
            self.ctx.engine.check_violations(self.result)
        self.result.rounds = self.stats.sweeps
        extra = self.stats.as_dict()
        extra["pull_protocol"] = self.sched.stats()
        extra["buffer_evictions"] = self.buffers.total_evictions()
        self.result.extra_stats.update(extra)
        if len(self.ctx.store) > self.result.peak_resident_facts:
            self.result.peak_resident_facts = len(self.ctx.store)
        tracer = self.tracer
        if tracer is None:
            self.result.elapsed_seconds = time.perf_counter() - self.ctx.started_at
        else:
            chase_span = self._chase_span
            # One summary "rule" span per active filter, spanning its
            # [first, last] activity window; the accumulated busy time rides
            # along as a counter (the report prefers it over the window).
            for node in self.filters:
                if node.consumed == 0 and node.fires == 0:
                    continue
                label = node.rule.label or "rule"
                t0 = node.t_first if node.t_first is not None else chase_span.t_start
                t1 = node.t_last if node.t_last is not None else t0
                tracer.emit(
                    "rule",
                    f"rule:{label}",
                    t0,
                    t1,
                    parent=chase_span,
                    attrs={"rule": label, "node": node.name},
                    counters={
                        "fires": node.fires,
                        "candidates": node.candidates,
                        "deduped": node.candidates - node.fires,
                        "consumed": node.consumed,
                        "busy_seconds": node.busy_seconds,
                    },
                )
            metrics = tracer.metrics
            for key, value in self.sched.stats().items():
                metrics.counter(f"pull.{key}").inc(value)
                chase_span.counters[f"pull.{key}"] = value
            metrics.counter("buffer.evictions").inc(self.buffers.total_evictions())
            metrics.gauge("chase.peak_resident_facts").set_max(
                self.result.peak_resident_facts
            )
            chase_span.counters["facts"] = len(self.ctx.store)
            chase_span.counters["derived"] = self.result.chase_steps
            chase_span.counters["candidates"] = self.result.candidate_facts
            chase_span.counters["rounds"] = self.stats.sweeps
            chase_span.counters["peak_resident_facts"] = self.result.peak_resident_facts
            chase_span.attrs["status"] = self.result.status
            if self.result.stop_reason:
                chase_span.attrs["stop_reason"] = self.result.stop_reason
            tracer.unwind(chase_span)
            tracer.end(chase_span)
            self.result.elapsed_seconds = chase_span.duration

    # ------------------------------------------------------------------ answers
    def first_answer(self) -> Optional[Fact]:
        """Pull only until the first answer fact reaches a sink (early stop)."""
        while self.ctx.first_answer_fact is None and not self.finished:
            self._drive_once()
        return self.ctx.first_answer_fact

    def next_answer(self) -> Optional[Fact]:
        """The next not-yet-returned answer fact, pulling on demand."""
        while True:
            for _ in range(len(self.sinks) or 1):
                if not self.sinks:
                    break
                sink = self.sinks[self._sink_rr]
                self._sink_rr = (self._sink_rr + 1) % len(self.sinks)
                fact = sink.pop_unread()
                if fact is not None:
                    return fact
            if self.finished:
                return None
            self._drive_once()

    def answers(self) -> Iterator[Fact]:
        """Lazy stream of answer facts, in production order per sink rotation."""
        while True:
            fact = self.next_answer()
            if fact is None:
                return
            yield fact

    def run_to_completion(self) -> ChaseResult:
        """Drain the pipeline to the fixpoint and return the chase result."""
        while not self.finished:
            self._drive_once(drain=True)
        return self.result

    # -------------------------------------------------------------- diagnostics
    def describe(self) -> str:
        """Human-readable pipeline topology (mirrors ``ReasoningAccessPlan.describe``)."""
        lines = ["Streaming pipeline:"]
        for source in self.sources:
            lines.append(
                f"  source:{source.predicate} [{type(source.manager).__name__}]"
            )
        for node in self.filters:
            feeds = ", ".join(c.producer.name for c in node.cursors) or "-"
            lines.append(f"  {node.name} <- {feeds}")
        for sink in self.all_sinks:
            feeds = ", ".join(c.producer.name for c in sink.cursors) or "-"
            lines.append(f"  {sink.name} <- {feeds}")
        return "\n".join(lines)
