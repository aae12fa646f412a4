"""Streaming driver: the compiled round loop, fed lazily (Section 4).

What the paper's Section 4 promises from streaming is *early answers over
lazily read sources*.  That needs no second way to reach fixpoint:
:class:`PipelineExecutor` drives the one round loop
(:meth:`repro.core.chase.ChaseEngine.continue_rounds` — the seam the
resident reasoner's upserts use) and only decides *how much input it has
seen so far*.  The run's state — store, node map, round count — is its
engine's :class:`~repro.core.chase.ChaseResult`; the driver keeps only its
source cursors, the loaded-but-unchased delta and its answer cursors.

* **Query-driven.**  Only the rules in the backward slice of the requested
  output predicates (:func:`repro.engine.plan.backward_slice`) are chased,
  and only the record managers of predicates in the slice are ever opened.
* **Lazy sources.**  Building the driver reads nothing.  The first pull
  opens one :meth:`~repro.engine.record_managers.RecordManager.stream`
  cursor per relevant source and reads a *batch*: ``FIRST_BATCH`` row from
  each, twice as many on every further demand (1, 2, 4, … — a constant
  schedule, not an option).  A batch enters the store through
  :meth:`~repro.core.chase.ChaseEngine.load_inputs` and is chased to
  fixpoint as the delta of continuation rounds.
* **Early answers.**  :meth:`PipelineExecutor.first_answer` stops as soon
  as an output predicate's bucket in the store is non-empty — looked at
  right after a batch is loaded (an input row of an output predicate is an
  answer before any rule fires) and again after its rounds.
  :meth:`PipelineExecutor.next_answer` / :meth:`~PipelineExecutor.answers`
  are read cursors into those buckets (append-only, so a position is a
  stable cursor) that demand the next batch when dry.
  :meth:`PipelineExecutor.run_to_completion` feeds everything that is left
  as one batch.

Budgets, cancellation and round/rule spans are the round loop's own: the
first pull calls :meth:`~repro.core.chase.ChaseEngine.start_run` (the
deadline clock, the governor and the chase span start there, not at
construction), the end calls
:meth:`~repro.core.chase.ChaseEngine.finish_run`, and the driver reads the
status ``continue_rounds`` leaves on the result.

**Null-witness contract.**  A cold run to completion is one batch: the
compiled chase on the sliced program, iso-identical to
``executor="compiled"``.  A run completed after partial pulls agrees with
it on ground answers and null patterns; the multiset of isomorphic null
witnesses may differ, exactly as after a resident upsert (it is the same
mechanism: the termination check keeps whichever witness it meets first,
and batches change the order).
"""

from __future__ import annotations

import time
from dataclasses import replace
from itertools import islice
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from ..core.atoms import Fact
from ..core.chase import ChaseConfig, ChaseEngine, ChaseResult
from ..core.limits import STATUS_COMPLETE
from ..core.rules import Program
from ..core.termination import TerminationStrategy
from ..core.wardedness import ProgramAnalysis
from ..obs.trace import activate
from .plan import RuleJoinPlan, backward_slice
from .record_managers import RecordManager

#: Rows read from each open source by the first batch; doubles per demand.
FIRST_BATCH = 1


class PipelineExecutor:
    """Feeds the compiled round loop lazily and hands out answers early.

    Three granularities share one store, so nothing is derived twice:

    * :meth:`first_answer` — read and chase batches until an answer exists;
    * :meth:`next_answer` / :meth:`answers` — a lazy stream of the raw
      output facts, reading a further batch whenever it runs dry;
    * :meth:`run_to_completion` — load the rest of the input as one batch,
      chase it to the fixpoint (then the EGD and constraint checks run) and
      return the :class:`~repro.core.chase.ChaseResult`.
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
        tracer=None,
    ) -> None:
        self.outputs = list(outputs)
        self.tracer = tracer
        self.finished = False
        #: Construction time, stamped as the ``t_create`` attribute of the
        #: "chase" span; the span itself (and ``timings["chase"]``) starts
        #: at the *first pull* (``t_first_pull``) — streaming runs are lazy.
        self.created_at = time.perf_counter()

        # ---- query-driven slice: outputs plus what the deferred EGD and
        # constraint checks will scan ------------------------------------
        self.drains = sorted(program.constraint_predicates() - set(self.outputs))
        relevant, rules = backward_slice(program, self.outputs + self.drains)
        #: Predicate → record manager, for the predicates in the slice.
        self.sources: Dict[str, RecordManager] = {
            predicate: input_managers[predicate]
            for predicate in sorted(input_managers)
            if predicate in relevant
        }
        self.engine = ChaseEngine(
            replace(program, rules=rules),
            strategy=strategy,
            analysis=analysis,
            config=config,
            join_plans=join_plans,
            tracer=tracer,
        )
        # The engine chases the slice; the run reports as the streaming
        # executor over the whole program.
        result = self.engine.result
        result.program = program
        result.executor = "streaming"
        result.extra_stats.update(
            pipeline_relevant_rules=len(rules),
            pipeline_pruned_rules=len(program.rules) - len(rules),
            pipeline_pruned_sources=len(input_managers) - len(self.sources),
            pipeline_facts_at_first_answer=None,
        )

        # ---- driving state ---------------------------------------------
        #: Open source cursors (``None`` until the first batch opens them);
        #: an exhausted source leaves the dict.
        self._cursors: Optional[Dict[str, Iterator[Fact]]] = None
        self._batch = FIRST_BATCH
        #: Loaded input facts not chased yet: the next rounds' delta.
        self._pending: List[Fact] = []
        self._first: Optional[Fact] = None
        #: Per output predicate, how many facts of its bucket were handed out.
        self._read = [0] * len(self.outputs)
        self._next_output = 0

    @property
    def result(self) -> ChaseResult:
        """The run's result: the engine's own."""
        return self.engine.result

    # ------------------------------------------------------------------ driving
    def _ensure_started(self) -> None:
        """The first pull starts the run: chase span, deadline, ``elapsed``."""
        if self.engine.started_at is not None:
            return
        span = self.engine.start_run(t_create=self.created_at)
        if span is not None:
            span.attrs["t_first_pull"] = span.t_start

    def _feed(self, size: Optional[int]) -> None:
        """Load up to ``size`` rows (all of them for ``None``) per open source."""
        if self._cursors is None:  # open(): sources start at the first pull
            self._cursors = {
                predicate: manager.stream()
                for predicate, manager in self.sources.items()
            }
            if size is not None:
                # Later batches load after rounds have run.
                self.engine.keep_every_node()
        self._pending.extend(self.engine.load_inputs(self._rows(size)))
        self._note_first_answer()

    def _rows(self, size: Optional[int]) -> Iterator[Fact]:
        for predicate, cursor in list(self._cursors.items()):
            count = 0
            for fact in islice(cursor, size):
                count += 1
                yield fact
            if size is None or count < size:
                del self._cursors[predicate]

    def _chase(self) -> None:
        """Chase the pending delta to fixpoint in the one round loop."""
        delta, self._pending = self._pending, []
        self.engine.continue_rounds(delta)
        self._note_first_answer()
        if self.result.status != STATUS_COMPLETE:
            self._finish()

    def _step(self) -> None:
        """One unit of demand: chase what is loaded, else load the next
        batch, else — nothing loaded and every source dry — finish."""
        # Pulls run with the tracer active: lazily evaluated datasource
        # scans outlive any phase span and look the tracer up when iterated.
        with activate(self.tracer):
            self._ensure_started()
            if self._pending:
                self._chase()
            elif self._cursors is None or self._cursors:
                self._feed(self._batch)
                self._batch *= 2
            else:
                self._finish()

    def _interrupted(self) -> bool:
        """True once the run was stopped.  Cancellation and the deadline are
        noticed here too, so they end an answer stream before it hands out
        answers derived earlier."""
        governor = self.engine._governor
        if governor is not None and not self.finished:
            stop = governor.interrupt_status()
            if stop is not None:
                self.result.status, self.result.stop_reason = stop
                self._finish()
        return self.result.status != STATUS_COMPLETE

    def _note_first_answer(self) -> None:
        if self._first is not None:
            return
        store = self.result.store
        for predicate in self.outputs:
            bucket = store.by_predicate(predicate)
            if bucket:
                self._first = bucket[0]
                self.result.extra_stats["pipeline_facts_at_first_answer"] = len(store)
                self.result.first_answer_seconds = (
                    time.perf_counter() - self.engine.started_at
                )
                return

    def _finish(self) -> None:
        if not self.finished:
            self.finished = True
            self.engine.finish_run()

    # ------------------------------------------------------------------ answers
    def first_answer(self) -> Optional[Fact]:
        """Read and chase batches only until an answer fact exists."""
        while self._first is None and not self.finished:
            self._step()
        return self._first

    def next_answer(self) -> Optional[Fact]:
        """The next not-yet-returned answer fact, reading input on demand."""
        store = self.result.store
        while not self._interrupted():
            for _ in self.outputs:
                index = self._next_output
                self._next_output = (index + 1) % len(self.outputs)
                bucket = store.by_predicate(self.outputs[index])
                if self._read[index] < len(bucket):
                    self._read[index] += 1
                    return bucket[self._read[index] - 1]
            if self.finished:
                return None
            self._step()
        return None

    def answers(self) -> Iterator[Fact]:
        """Lazy stream of answer facts: store order per output, outputs in rotation."""
        while True:
            fact = self.next_answer()
            if fact is None:
                return
            yield fact

    def run_to_completion(self) -> ChaseResult:
        """Load what is left of the input as one batch and chase it to fixpoint."""
        if not self.finished:
            with activate(self.tracer):
                self._ensure_started()
                self._feed(None)
                self._chase()
                self._finish()
        return self.result

    # -------------------------------------------------------------- diagnostics
    def describe(self) -> str:
        """Human-readable topology (mirrors ``ReasoningAccessPlan.describe``)."""
        lines = ["Streaming pipeline:"]
        for predicate, manager in self.sources.items():
            lines.append(f"  source:{predicate} [{type(manager).__name__}]")
        for rule in self.engine.program.rules:
            feeds = ", ".join(dict.fromkeys(a.predicate for a in rule.relational_body))
            lines.append(f"  rule:{rule.label} <- {feeds or '-'}")
        lines.extend(f"  sink:{predicate}" for predicate in self.outputs)
        lines.extend(f"  drain:{predicate}" for predicate in self.drains)
        return "\n".join(lines)
