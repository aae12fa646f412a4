"""The Vadalog reasoner facade — the main public entry point of the library.

The reasoner ties the pieces of Section 3 and Section 4 together, following
the four compilation steps of the pipeline architecture:

1. the **logic optimizer** rewrites the rules: duplicate removal, multiple-
   head elimination, isolation of existentials into linear rules and, when
   needed, harmful-join elimination (Section 3.2);
2. the **logic compiler** produces the reasoning access plan
   (:mod:`repro.engine.plan`);
3. the **execution optimizer** orders the rule filters (round-robin order
   from the scheduler, producers before consumers);
4. the **query compiler / executor** compiles every rule body into a
   slot-machine join plan (:func:`repro.engine.plan.compile_join_plans` —
   selectivity-ordered atoms, variable→slot maps, join-key positions), runs
   the chase through the compiled executors with the warded termination
   strategy (Algorithm 1) and extracts the answers, applying the
   post-processing annotations.  Pass ``executor="naive"`` to fall back to
   the interpreted matcher (the reference path for differential testing),
   ``executor="streaming"`` for the lazily fed round loop
   (:mod:`repro.engine.pipeline`): query-driven, reading its sources in
   growing batches and able to return first answers before the model is
   fully materialized — :meth:`VadalogReasoner.stream` exposes the lazy
   variant.

Typical usage::

    from repro import VadalogReasoner

    reasoner = VadalogReasoner('''
        @output("Control").
        Control(X, Y) :- Own(X, Y, W), W > 0.5.
        Control(X, Z) :- Control(X, Y), Own(Y, Z, W), V = msum(W, <Y>), V > 0.5.
    ''')
    result = reasoner.reason(database={"Own": [("a", "b", 0.6), ("b", "c", 0.6)]})
    result.answers.ground_tuples("Control")
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.chase import ChaseConfig, ChaseEngine, ChaseResult
from ..core.limits import STATUS_COMPLETE, CancellationToken, ExecutionBudget
from ..core.harmful_joins import (
    HarmfulJoinEliminationResult,
    UnsupportedHarmfulJoin,
    eliminate_harmful_joins,
)
from ..core.atoms import Atom, Fact
from ..core.magic import (
    REWRITES,
    MagicRewriteError,
    MagicRewriteResult,
    rewrite_with_magic,
)
from ..core.parser import parse_atom, parse_program
from ..core.query import AnswerSet, Query, extract_answers
from ..core.rules import Program
from ..core.terms import Constant, Term, Variable
from ..core.termination import TerminationStrategy, strategy_by_name
from ..core.transform import is_auxiliary_predicate, normalize_for_chase
from ..core.wardedness import ProgramAnalysis, analyse_program
from ..obs.report import render_report
from ..obs.trace import Tracer, activate, as_tracer
from ..storage.database import Database
from .annotations import (
    BindingSet,
    apply_post_directives,
    collect_bindings,
    load_bound_facts,
    write_output_bindings,
)
from .pipeline import PipelineExecutor
from .plan import (
    ReasoningAccessPlan,
    RuleJoinPlan,
    compile_join_plans,
    compile_plan,
    compile_source_pushdowns,
)
from .record_managers import (
    DataSourceRecordManager,
    chain_managers,
    managers_for_database,
    managers_for_facts,
)
from .scheduler import RoundRobinScheduler, SchedulerReport

EXECUTORS = ("compiled", "naive", "streaming")

DatabaseLike = Union[Database, Mapping[str, Iterable[Sequence[object]]], Iterable[Fact], None]


@dataclass
class ReasoningResult:
    """Everything produced by one reasoning run.

    Every run goes through one lifecycle — start, drive, finish (see
    ARCHITECTURE.md, "Run lifecycle").  ``reason()`` returns after the
    finish step, with :attr:`answers` populated.  A lazy result from
    :meth:`VadalogReasoner.stream` has only been started: it carries a live
    :attr:`pipeline`, :meth:`first_answer` and :meth:`iter_answers` feed it
    on demand, and :meth:`complete` (or a drained :meth:`iter_answers`)
    runs the same finish step ``reason()`` does, once.
    """

    answers: AnswerSet
    chase: ChaseResult
    analysis: ProgramAnalysis
    plan: ReasoningAccessPlan
    scheduler: SchedulerReport
    harmful_join_rewriting: Optional[HarmfulJoinEliminationResult]
    warnings: List[str] = field(default_factory=list)
    #: Wall-clock seconds per lifecycle phase — ``rewrite``, ``load``,
    #: ``chase``, ``answers`` — and ``total``, plus ``first_answer`` on
    #: pipeline runs: the same keys from ``reason()`` and from a drained
    #: ``stream()``.  Each phase is its own duration (``load`` covers the
    #: bindings, the input facts and building the driver, not the rewrite
    #: before it), taken once: on a traced run ``timings[p]`` is the
    #: duration of the ``p`` span on :attr:`trace` and ``total`` that of the
    #: run span.  Pipeline runs measure ``chase`` and ``first_answer`` from
    #: the *first pull* (nothing runs at build time; the chase span keeps
    #: the build clock as its ``t_create`` attr), and a lazy run's ``total``
    #: includes the time the caller held the result between pulls.
    timings: Dict[str, float] = field(default_factory=dict)
    #: The streaming driver (lazy runs and eager streaming runs).
    pipeline: Optional[PipelineExecutor] = None
    #: Per-predicate datasource counters (``@bind`` traffic: rows scanned,
    #: pushdown applied, cache hits, rows written back).  Empty when the run
    #: used no external bindings.  Thin legacy view: traced runs record each
    #: completed scan as a ``source-scan`` span with the same counters.
    source_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: The run's telemetry (:class:`repro.obs.Tracer`) when the run was
    #: started with ``trace=``; ``None`` otherwise.  Spans are in
    #: ``trace.spans()``, aggregated counters in ``trace.metrics``.
    trace: Optional[Tracer] = None
    #: The magic-set rewriting applied to this run (``reason(query=...,
    #: rewrite="magic")``), including guard/fallback/seed counters; ``None``
    #: on runs without a query or with ``rewrite="none"``.
    magic_rewriting: Optional[MagicRewriteResult] = None
    #: The started run still to be finished; ``None`` once it has been.
    _run: Optional["_Run"] = field(default=None, repr=False, compare=False)

    @property
    def status(self) -> str:
        """Structured run outcome: ``"complete"``, ``"deadline_exceeded"``,
        ``"budget_exceeded"`` or ``"cancelled"`` (see :mod:`repro.core.limits`).

        Non-complete runs carry the sound partial materialisation derived
        before the stop — the chase is monotone, so every answer present is
        an answer of the complete run too.
        """
        return self.chase.status

    @property
    def stop_reason(self) -> Optional[str]:
        """Why a non-complete run stopped (``None`` for complete runs)."""
        return self.chase.stop_reason

    def is_complete(self) -> bool:
        return self.chase.status == STATUS_COMPLETE

    def facts(self, predicate: str) -> Tuple[Fact, ...]:
        return self.answers.facts(predicate)

    def tuples(self, predicate: str):
        return self.answers.tuples(predicate)

    def ground_tuples(self, predicate: str):
        return self.answers.ground_tuples(predicate)

    # ------------------------------------------------------- streaming access
    def first_answer(self) -> Optional[Fact]:
        """The first answer fact, reading the input only as far as needed.

        On a lazy streaming result this *stops* as soon as an output
        predicate holds a fact — the rest of the input is not read, the rest
        of the model not materialized.  On an eager result it simply
        returns the first extracted answer.
        """
        if self.pipeline is not None:
            return self.pipeline.first_answer()
        for facts in self.answers.facts_by_predicate.values():
            if facts:
                return facts[0]
        return None

    def iter_answers(self):
        """Lazily iterate answer facts; finishes the run when drained.

        Streamed facts are the raw output facts in store order (universal
        answers, before isomorphic deduplication and monotonic-aggregate
        reduction); the post-processed view is in :attr:`answers` after the
        finish step.  Cancellation, the deadline or an exhausted budget end
        the iteration, answers derived but not yet handed out included.
        """
        if self.pipeline is None:
            yield from self.answers.facts()
            return
        yield from self.pipeline.answers()
        self.complete()

    def complete(self) -> "ReasoningResult":
        """Drive what is left of the run and finish it (a no-op once finished)."""
        if self._run is not None:
            self._finish()
        return self

    def _finish(self) -> None:
        """The drive and finish steps of the run lifecycle; runs once per run.

        Drive the driver to its end (nothing is left after a drained
        ``iter_answers()``), then finish: extract → post directives → query
        filter, or ``@output`` writeback on a run without a query →
        warnings, ``source_stats`` → close the run span.
        """
        run = self._run
        with run.guard():
            chase = self.chase = run.drive()
            spec, bindings = run.spec, run.bindings
            run.timings["chase"] = chase.elapsed_seconds
            mark = run.begin("answers")
            self.answers = _answer_step(
                chase, spec.outputs, run.certain, bindings.post_directives, spec.query_atom
            )
            if spec.query_atom is None:
                write_output_bindings(bindings, self.answers, spec.outputs)
            if run.tracer is not None:
                mark.counters["answers"] = sum(
                    len(facts) for facts in self.answers.facts_by_predicate.values()
                )
            run.end("answers", mark)
            if chase.first_answer_seconds is not None:
                run.timings["first_answer"] = chase.first_answer_seconds
            self.warnings.extend(chase.warnings)
            self.source_stats = bindings.source_stats()
            if run.tracer is not None:
                run.mark.counters.update(
                    facts=len(chase.store),
                    derived=chase.chase_steps,
                    rounds=chase.rounds,
                    peak_resident_facts=chase.peak_resident_facts,
                )
                run.mark.attrs["status"] = chase.status
                if chase.stop_reason is not None:
                    run.mark.attrs["stop_reason"] = chase.stop_reason
            run.end("total", run.mark)
            if run.tracer is not None:
                run.tracer.finish()
        self._run = None

    def stats(self) -> Dict[str, object]:
        data = dict(self.chase.stats())
        data.update({f"time_{k}": v for k, v in self.timings.items()})
        data["warnings"] = list(self.warnings)
        if self.source_stats:
            data["datasources"] = dict(self.source_stats)
        if self.magic_rewriting is not None:
            data.update(self.magic_rewriting.stats())
        return data

    def run_report(self, limit: int = 5) -> str:
        """Human-readable run summary (phases, top rules, rounds, sources).

        Traced runs (``reason(trace=...)``) render the full span tree
        aggregates; untraced runs fall back to a coarse summary built from
        :meth:`stats` and :attr:`timings`.
        """
        return render_report(self, limit=limit)


@dataclass
class _RunSpec:
    """Everything one reasoning run needs: program, plans and seed facts.

    Runs without a query reuse the reasoner's compiled state; query runs
    with ``rewrite="magic"`` carry the magic-rewritten program with its own
    analysis/plans plus the ``_aux_magic_*`` seed facts.
    """

    program: Program
    analysis: ProgramAnalysis
    join_plans: Dict[int, RuleJoinPlan]
    outputs: List[str]
    seeds: List[Fact] = field(default_factory=list)
    query_atom: Optional[Atom] = None
    rewriting: Optional[MagicRewriteResult] = None


@dataclass
class _Run:
    """A started run: what the finish step needs, and the run's one clock.

    :meth:`begin`/:meth:`end` take each phase boundary once and feed
    ``timings`` and — on a traced run — the phase span from that one
    reading.  An untraced run has ``tracer=None`` and allocates no span.
    """

    tracer: Optional[Tracer]
    certain: bool
    timings: Dict[str, float] = field(default_factory=dict)
    #: The open ``run`` phase (closed by the finish step as ``total``).
    mark: object = None
    spec: Optional[_RunSpec] = None
    bindings: Optional[BindingSet] = None
    #: Runs the driver to its end: ``ChaseEngine.run`` or
    #: ``PipelineExecutor.run_to_completion`` — each of them
    #: input load + ``ChaseEngine.continue_rounds``.
    drive: Optional[Callable[[], ChaseResult]] = None

    def begin(self, kind: str, name: Optional[str] = None, **attrs: object):
        """Open a phase: its span when traced, a clock reading otherwise."""
        if self.tracer is None:
            return time.perf_counter()
        return self.tracer.begin(kind, name or kind, **attrs)

    def end(self, key: str, mark) -> None:
        """Close a phase; ``timings[key]`` is the span's own duration."""
        if self.tracer is None:
            self.timings[key] = time.perf_counter() - mark
        else:
            self.tracer.end(mark)
            self.timings[key] = mark.duration

    @contextmanager
    def guard(self):
        """Make the tracer active for the block (datasource scans look it
        up); an exception closes the run span as an error and re-raises."""
        if self.tracer is None:
            yield
            return
        try:
            with activate(self.tracer):
                yield
        except BaseException as exc:
            self.tracer.end(self.mark, status="error", error=repr(exc))
            self.tracer.finish()
            raise


class VadalogReasoner:
    """High-level reasoner over Vadalog programs (Warded Datalog± core)."""

    def __init__(
        self,
        program: Union[Program, str],
        strategy: Union[str, TerminationStrategy, None] = "warded",
        chase_config: Optional[ChaseConfig] = None,
        base_path: Optional[str] = None,
        executor: str = "compiled",
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; use one of {', '.join(EXECUTORS)}"
            )
        self.original_program = parse_program(program) if isinstance(program, str) else program
        self._strategy_spec = strategy
        self.chase_config = chase_config or ChaseConfig()
        self.base_path = base_path
        self.executor = executor
        self.warnings: List[str] = []
        #: ``@bind`` resolution is memoized across runs so the per-source
        #: page caches persist — a second ``reason()`` on the same reasoner
        #: reads sources from memory, not the backend.
        self._bindings: Optional[BindingSet] = None
        #: Magic-rewritten run specs, memoized per query atom (a production
        #: reasoner answers the same point query many times; the rewriting,
        #: analysis and join plans are reused, only the chase re-runs).
        self._magic_cache: Dict[Tuple[str, Tuple], _RunSpec] = {}

        self.program, self.analysis, self.harmful_join_rewriting, warnings = (
            optimize_program(self.original_program)
        )
        self.warnings.extend(warnings)
        self.plan, self.scheduler_report = _plan_and_order(self.program)
        # Step 4a (query compiler): compile every rule body into its
        # slot-machine join plan once; reasoning runs reuse the plans (the
        # streaming driver's engine too).
        self.join_plans: Dict[int, RuleJoinPlan] = (
            compile_join_plans(self.program) if executor != "naive" else {}
        )

    def _make_strategy(self) -> TerminationStrategy:
        if isinstance(self._strategy_spec, TerminationStrategy):
            return self._strategy_spec
        if self._strategy_spec is None:
            return strategy_by_name("warded")
        return strategy_by_name(self._strategy_spec)

    # ----------------------------------------------------------------- running
    def reason(
        self,
        database: DatabaseLike = None,
        outputs: Optional[Iterable[str]] = None,
        certain: bool = False,
        strategy: Union[str, TerminationStrategy, None] = None,
        query: Union[str, Atom, None] = None,
        rewrite: Optional[str] = None,
        deadline: Optional[float] = None,
        budget: Optional[ExecutionBudget] = None,
        cancel: Optional[CancellationToken] = None,
        trace: object = None,
    ) -> ReasoningResult:
        """Run the reasoning task and return answers plus diagnostics.

        ``query`` asks for a single predicate with some arguments bound to
        constants (``query='Control("f0", Y)'`` — a string or an
        :class:`~repro.core.atoms.Atom`); answers are the matching facts of
        that predicate and ``outputs`` is ignored.  ``rewrite`` selects the
        query-driven logic optimization: ``"magic"`` (the default with a
        query) applies the existential-safe magic-set rewriting of
        :mod:`repro.core.magic` so every executor only derives facts the
        query can observe; ``"none"`` evaluates the full program and
        filters.  Both return identical answers — the rewriting only prunes
        derivations no answer depends on.  Query runs do not write back to
        ``@output`` bindings (their answer set is intentionally partial).

        ``deadline`` (wall-clock seconds), ``budget`` (an
        :class:`~repro.core.limits.ExecutionBudget`) and ``cancel`` (a
        :class:`~repro.core.limits.CancellationToken`) bound the run: when
        any of them triggers, the run ends gracefully with
        ``result.status != "complete"`` and the sound partial answers
        derived so far, instead of raising.  ``deadline`` is shorthand for
        ``budget=ExecutionBudget(deadline_seconds=...)`` and overrides the
        budget's own deadline when both are given.

        ``trace`` opts the run into the telemetry layer of :mod:`repro.obs`:
        ``True`` records spans in memory (inspect via ``result.trace`` /
        ``result.run_report()``), a path string writes a JSONL trace file, a
        ready-made :class:`repro.obs.Tracer` is used as-is.  The default
        ``None`` is the zero-overhead null tracer — the run is bit-identical
        to an untraced one.
        """
        return self._start(
            "reason", self.executor, database, outputs, certain, strategy,
            query, rewrite, deadline, budget, cancel, trace,
        ).complete()

    def stream(
        self,
        database: DatabaseLike = None,
        outputs: Optional[Iterable[str]] = None,
        certain: bool = False,
        strategy: Union[str, TerminationStrategy, None] = None,
        query: Union[str, Atom, None] = None,
        rewrite: Optional[str] = None,
        deadline: Optional[float] = None,
        budget: Optional[ExecutionBudget] = None,
        cancel: Optional[CancellationToken] = None,
        trace: object = None,
    ) -> ReasoningResult:
        """Start a lazy streaming run: nothing is evaluated, no source opened.

        The returned result exposes ``first_answer()`` (read the sources in
        growing batches — 1, 2, 4, … rows each — chasing every batch to
        fixpoint, until one answer fact exists, then stop),
        ``iter_answers()`` (a lazy answer iterator that reads a further
        batch whenever it runs dry) and ``complete()`` (load what is left
        as one batch, chase to the fixpoint, then the finish step
        ``reason()`` runs: ``answers``, writeback, ``warnings``,
        ``source_stats`` and ``timings``).  Every batch goes through the one
        compiled round loop, restricted to the rules that can reach the
        outputs; sources outside that slice are never opened.  A run that
        goes straight to ``complete()`` derives exactly what
        ``executor="compiled"`` derives on the slice; one completed after
        partial pulls agrees on ground answers and null patterns (the
        multiset of isomorphic null witnesses may differ, as after a
        resident upsert).  Available on every reasoner regardless of its
        default ``executor``.  ``query``/``rewrite`` behave as in
        :meth:`reason`; with ``rewrite="magic"`` the driver chases the
        rewritten program, so a bound first answer touches only the
        demanded slice of the data.  ``deadline``/``budget``/
        ``cancel`` bound the run as in :meth:`reason`; the deadline clock
        starts at the first pull, not at this call.  ``trace`` behaves as in
        :meth:`reason`; the trace is finalized when the run is drained
        (``complete()`` or an exhausted ``iter_answers()``), and the chase
        span records both the build and the first-pull clock (``t_create``
        and ``t_first_pull`` attrs).
        """
        return self._start(
            "stream", "streaming", database, outputs, certain, strategy,
            query, rewrite, deadline, budget, cancel, trace,
        )

    def _start(
        self,
        entry: str,
        executor: str,
        database: DatabaseLike,
        outputs: Optional[Iterable[str]],
        certain: bool,
        strategy: Union[str, TerminationStrategy, None],
        query: Union[str, Atom, None],
        rewrite: Optional[str],
        deadline: Optional[float],
        budget: Optional[ExecutionBudget],
        cancel: Optional[CancellationToken],
        trace: object,
    ) -> ReasoningResult:
        """The start step of the run lifecycle: everything before the chase.

        Resolves strategy and config, the run spec (``rewrite`` phase), then
        the bindings, the input facts and the driver (``load`` phase), and
        returns the result with the run pending on it: nothing is derived
        until ``complete()`` (which ``reason()`` calls at once) or a pull.
        """
        run = _Run(as_tracer(trace), certain)
        tracer = run.tracer
        run.mark = run.begin(
            "run",
            f"{entry}:{executor}",
            executor=executor,
            query=str(query) if query is not None else None,
        )
        with run.guard():
            chosen = self._resolve_strategy(strategy)
            config = self._effective_config(deadline, budget, cancel)
            mark = run.begin("rewrite")
            spec = run.spec = self._prepare_run(outputs, query, rewrite)
            if tracer is not None:
                mark.attrs["magic"] = bool(
                    spec.rewriting is not None and spec.rewriting.changed
                )
            run.end("rewrite", mark)

            mark = run.begin("load")
            bindings = run.bindings = self._collect_bindings(spec.outputs)
            pipeline = None
            if executor == "streaming":
                pipeline = self._build_pipeline(
                    database, bindings, chosen, spec, config, tracer
                )
                run.drive = pipeline.run_to_completion
            else:
                facts = list(self._database_facts(database))
                facts.extend(load_bound_facts(bindings))
                facts.extend(spec.seeds)
                if tracer is not None:
                    mark.counters["facts"] = len(facts)
                engine = ChaseEngine(
                    spec.program,
                    facts,
                    strategy=chosen,
                    analysis=spec.analysis,
                    config=config,
                    executor=executor,
                    join_plans=spec.join_plans,
                    tracer=tracer,
                )
                run.drive = engine.run
            run.end("load", mark)
        return ReasoningResult(
            answers=AnswerSet(),
            # The chase engine has no result before it runs; ``reason()``
            # completes the run before returning it.
            chase=pipeline.result if pipeline is not None else None,
            analysis=spec.analysis,
            plan=self.plan,
            scheduler=self.scheduler_report,
            harmful_join_rewriting=self.harmful_join_rewriting,
            warnings=list(self.warnings),
            timings=run.timings,
            pipeline=pipeline,
            trace=tracer,
            magic_rewriting=spec.rewriting,
            _run=run,
        )

    def _effective_config(
        self,
        deadline: Optional[float],
        budget: Optional[ExecutionBudget],
        cancel: Optional[CancellationToken],
    ) -> ChaseConfig:
        """The run's chase config with the call's budget/cancel merged in."""
        if deadline is None and budget is None and cancel is None:
            return self.chase_config
        merged = budget or self.chase_config.budget or ExecutionBudget()
        if deadline is not None:
            merged = replace(merged, deadline_seconds=deadline)
        return replace(
            self.chase_config,
            budget=merged,
            cancel=cancel if cancel is not None else self.chase_config.cancel,
        )

    # ----------------------------------------------------------------- helpers
    def _prepare_run(
        self,
        outputs: Optional[Iterable[str]],
        query: Union[str, Atom, None],
        rewrite: Optional[str],
    ) -> _RunSpec:
        """Resolve the program/plans/outputs/seeds of one run.

        Without a query this is the reasoner's own compiled state.  With a
        query the output is the query's predicate and ``rewrite="magic"``
        (the default) swaps in the magic-rewritten program: its own
        wardedness analysis, join plans, round-robin rule order and
        ``_aux_magic_*`` seed facts.  If the rewriting declines or fails
        its internal invariants the run falls back to the unrewritten
        program — answers are identical either way, only the pruning is
        lost (a warning records the fallback).
        """
        if query is None:
            if rewrite is not None:
                raise ValueError("rewrite= requires a query= atom")
            return _RunSpec(
                program=self.program,
                analysis=self.analysis,
                join_plans=self.join_plans,
                outputs=self._output_predicates(outputs),
            )
        query_atom = parse_atom(query) if isinstance(query, str) else query
        chosen_rewrite = rewrite if rewrite is not None else "magic"
        if chosen_rewrite not in REWRITES:
            raise ValueError(
                f"unknown rewrite {chosen_rewrite!r}; use one of {', '.join(REWRITES)}"
            )
        base = _RunSpec(
            program=self.program,
            analysis=self.analysis,
            join_plans=self.join_plans,
            outputs=[query_atom.predicate],
            query_atom=query_atom,
        )
        if chosen_rewrite == "none":
            return base
        cache_key = (query_atom.predicate, query_atom.terms)
        cached = self._magic_cache.pop(cache_key, None)
        if cached is not None:
            self._magic_cache[cache_key] = cached  # refresh LRU recency
            return cached
        try:
            rewriting = rewrite_with_magic(self.program, query_atom, self.analysis)
        except MagicRewriteError as exc:
            self.warnings.append(
                f"magic rewriting failed ({exc}); falling back to the full program"
            )
            base.rewriting = None
            return base
        base.rewriting = rewriting
        if rewriting.changed:
            program = rewriting.program
            _plan_and_order(program)
            base = _RunSpec(
                program=program,
                analysis=analyse_program(program),
                join_plans=(
                    compile_join_plans(program) if self.executor != "naive" else {}
                ),
                outputs=[query_atom.predicate],
                seeds=list(rewriting.seeds),
                query_atom=query_atom,
                rewriting=rewriting,
            )
        if len(self._magic_cache) >= 32:
            self._magic_cache.pop(next(iter(self._magic_cache)))
        self._magic_cache[cache_key] = base
        return base

    def _collect_bindings(self, output_predicates: Sequence[str]) -> BindingSet:
        """Resolve ``@bind``/``@mapping`` and attach compiled pushdowns.

        Resolution happens once per reasoner (sources — and their page
        caches — are shared by subsequent runs; external files modified
        behind a live reasoner's back are re-read only by a new reasoner).
        The selection pushdowns of :func:`compile_source_pushdowns` are
        recomputed per run and attached to the input record managers, so
        both the materializing load (:func:`load_bound_facts`) and the
        streaming driver's lazy source cursors scan with the same
        restriction.  ``output_predicates`` is this run's answer selection:
        a bound predicate the caller asks for directly must be served in
        full, so it is excluded from pushdown.
        """
        if self._bindings is None:
            self._bindings = collect_bindings(self.program, self.base_path)
        bindings = self._bindings
        if bindings.sources:
            bindings.pushdowns = compile_source_pushdowns(
                self.program, tuple(bindings.sources), output_predicates
            )
            for predicate, manager in bindings.record_managers.items():
                if isinstance(manager, DataSourceRecordManager):
                    manager.pushdown = bindings.pushdowns.get(predicate)
        return bindings

    def _resolve_strategy(
        self, strategy: Union[str, TerminationStrategy, None]
    ) -> TerminationStrategy:
        if strategy is None:
            return self._make_strategy()
        if isinstance(strategy, TerminationStrategy):
            return strategy
        return strategy_by_name(strategy)

    def _build_pipeline(
        self,
        database: DatabaseLike,
        bindings: BindingSet,
        strategy: TerminationStrategy,
        spec: _RunSpec,
        config: ChaseConfig,
        tracer: Optional[Tracer],
    ) -> PipelineExecutor:
        """Assemble the streaming driver for one run; reads no source.

        :class:`Database` inputs and external ``@bind`` sources keep lazy
        record managers (their relations are only read when the backward
        slice actually pulls them); loose fact lists/mappings, magic seed
        facts and program facts are wrapped in :class:`FactsRecordManager`
        sources.  A predicate fed from several of these streams them in the
        order the materializing executors load them (database, bindings,
        seeds, program facts), each opened when the one before runs dry.
        """
        program = spec.program
        if isinstance(database, Database):
            from_database = managers_for_database(database)
        else:
            from_database = managers_for_facts(self._database_facts(database))
        join_plans = spec.join_plans
        if not join_plans and program is self.program:
            # A reasoner built with executor="naive" has no plans yet; the
            # driver's engine needs them, so compile (and cache) on first use.
            self.join_plans = join_plans = compile_join_plans(self.program)
        return PipelineExecutor(
            program,
            outputs=list(spec.outputs),
            input_managers=chain_managers(
                from_database,
                bindings.record_managers,
                managers_for_facts([*spec.seeds, *program.facts]),
            ),
            strategy=strategy,
            analysis=spec.analysis,
            config=config,
            join_plans=join_plans,
            tracer=tracer,
        )

    # ----------------------------------------------------------------- helpers
    def _output_predicates(self, outputs: Optional[Iterable[str]]) -> List[str]:
        if outputs is not None:
            return list(outputs)
        declared = self.original_program.output_predicates()
        return sorted(p for p in declared if not is_auxiliary_predicate(p))

    @staticmethod
    def _database_facts(database: DatabaseLike) -> List[Fact]:
        if database is None:
            return []
        if isinstance(database, Database):
            return database.facts()
        if isinstance(database, Mapping):
            facts: List[Fact] = []
            for predicate, rows in database.items():
                for row in rows:
                    facts.append(Fact(predicate, [Constant(v) for v in row]))
            return facts
        return [f for f in database]  # already facts

    def resident(self, database: DatabaseLike = None) -> "ResidentReasoner":
        """Materialise ``database`` once and keep it warm under updates.

        Returns a :class:`~repro.engine.incremental.ResidentReasoner` bound
        to this reasoner's compiled state (optimized program, analysis,
        join plans): ``upsert``/``retract`` maintain the materialisation
        incrementally and ``query`` answers without re-running the chase.
        Requires the ``compiled`` or ``naive`` executor and a *named*
        termination strategy (retraction replays a fresh instance).
        """
        from .incremental import ResidentReasoner

        return ResidentReasoner(self, database=database)

    def explain(self) -> str:
        """Human-readable description of the compiled program and plan."""
        lines = [
            f"Program: {len(self.program.rules)} rules "
            f"({self.analysis.fragment()} fragment)",
        ]
        summary = self.analysis.summary()
        lines.append(
            "  linear rules: {linear_rules}, join rules: {join_rules}, "
            "existential rules: {existential_rules}, harmful joins: {harmful_joins}".format(**summary)
        )
        if self.harmful_join_rewriting and self.harmful_join_rewriting.changed:
            lines.append(
                f"  harmful-join elimination introduced "
                f"{len(self.harmful_join_rewriting.tracking_predicates)} tracking predicates"
            )
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        lines.append(self.plan.describe())
        return "\n".join(lines)


def optimize_program(
    program: Program,
) -> Tuple[Program, ProgramAnalysis, Optional[HarmfulJoinEliminationResult], List[str]]:
    """Step 1: the logic optimizer (elementary + complex rewritings).

    Returns the program the chase runs, its analysis, the harmful-join
    rewriting applied (``None`` when there was none) and the optimizer's
    warnings.  The one analysis of the input program serves the wardedness
    check and the harmful-join elimination, and lends its per-rule results
    to the optimized program's analysis for every rule the rewritings
    passed through unchanged.
    """
    warnings: List[str] = []
    rewriting = None
    analysis = analyse_program(program)
    if not analysis.is_warded:
        warnings.append(
            "the program is not warded: termination of the chase is not guaranteed "
            "by the warded strategy"
        )
    if analysis.has_harmful_joins:
        try:
            rewriting = eliminate_harmful_joins(program, analysis)
            program = rewriting.program
        except UnsupportedHarmfulJoin as exc:
            warnings.append(
                f"harmful-join elimination skipped ({exc}); answers involving "
                "labelled nulls joined harmfully may be incomplete"
            )
    optimized = normalize_for_chase(program)
    return optimized, analyse_program(optimized, analysis), rewriting, warnings


def _plan_and_order(program: Program) -> Tuple[ReasoningAccessPlan, SchedulerReport]:
    """Steps 2 and 3: compile the access plan, then fix the rule order.

    The execution optimizer's round-robin order replaces ``program.rules``
    in place when it covers every rule (duplicate labels collapse plan
    nodes; such a program keeps its textual order).
    """
    plan = compile_plan(program)
    report = RoundRobinScheduler(plan, program).schedule()
    if len(report.rule_order) == len(program.rules):
        program.rules = list(report.rule_order)
    return plan, report


def _answer_step(
    view,
    predicates: Sequence[str],
    certain: bool,
    post_directives: Sequence,
    query_atom: Optional[Atom] = None,
) -> AnswerSet:
    """The one answer step: extract → post directives → query-atom filter.

    ``view`` is a chase result, or anything else with its ``store`` and
    ``aggregates`` (the resident reasoner's snapshot view).  The resident
    reasoner memoises the unfiltered set and filters it per point query.
    """
    answers = apply_post_directives(
        extract_answers(view, Query(tuple(predicates), certain=certain)), post_directives
    )
    if query_atom is not None:
        answers = _filter_answers(answers, query_atom, {})
    return answers


def _filter_answers(
    answers: AnswerSet,
    query_atom: Atom,
    index: Dict[Tuple[str, int], Dict[Term, List[Fact]]],
) -> AnswerSet:
    """Restrict an answer set to the facts matching a query atom.

    Constants of the query must coincide positionally; repeated query
    variables must bind consistently (``Atom.match`` semantics).  The match
    runs over the smallest bucket the query's constants select from
    ``index`` — per (predicate, position), ``{term: [facts]}`` in answer
    order, built the first time a query has a constant there — so a
    point query costs what it returns, not the predicate's extent, and the
    surviving facts and their order are those of a full scan.  ``index``
    belongs to ``answers`` (start it as ``{}``): whoever keeps the answers
    — the resident reasoner's memo — keeps the two together.
    """
    filtered = AnswerSet()
    for predicate, facts in answers.facts_by_predicate.items():
        if predicate != query_atom.predicate:
            filtered.facts_by_predicate[predicate] = list(facts)
            continue
        candidates = facts
        for position, term in enumerate(query_atom.terms):
            if isinstance(term, Variable):
                continue
            buckets = index.get((predicate, position))
            if buckets is None:
                # Built locally and published whole: concurrent readers of
                # one memo entry may build it twice, never see it half done.
                buckets = {}
                for fact in facts:
                    if position < len(fact.terms):
                        buckets.setdefault(fact.terms[position], []).append(fact)
                index[(predicate, position)] = buckets
            bucket = buckets.get(term, ())
            if len(bucket) < len(candidates):
                candidates = bucket
        match = query_atom.match
        filtered.facts_by_predicate[predicate] = [
            fact for fact in candidates if match(fact) is not None
        ]
    return filtered


def reason(
    program: Union[Program, str],
    database: DatabaseLike = None,
    outputs: Optional[Iterable[str]] = None,
    certain: bool = False,
    strategy: Union[str, TerminationStrategy, None] = "warded",
    executor: str = "compiled",
    query: Union[str, Atom, None] = None,
    rewrite: Optional[str] = None,
    deadline: Optional[float] = None,
    budget: Optional[ExecutionBudget] = None,
    cancel: Optional[CancellationToken] = None,
    trace: object = None,
) -> ReasoningResult:
    """One-call helper: build a :class:`VadalogReasoner` and run it."""
    reasoner = VadalogReasoner(program, strategy=strategy, executor=executor)
    return reasoner.reason(
        database=database,
        outputs=outputs,
        certain=certain,
        query=query,
        rewrite=rewrite,
        deadline=deadline,
        budget=budget,
        cancel=cancel,
        trace=trace,
    )
