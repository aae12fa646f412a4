"""Round-robin pull scheduling and runtime cycle management (Section 4).

The execution model of the Vadalog system is pull-based: sinks issue
``open()/next()/close()`` messages that propagate backwards through the
pipeline; when a filter has several predecessors it pulls from them in
**round-robin** order, which sustains a breadth-first application of the
rules.  Recursion induces two kinds of cycles:

* *runtime invocation cycles* — a ``next()`` call re-entering a filter that
  is already serving a ``next()``; the callee answers ``notifyCycle`` and the
  caller tries its other predecessors before giving up (``cyclic miss`` vs
  ``real miss``);
* *non-terminating sequences* — handled by the termination wrappers.

One compile-time pass and one runtime driver live here:

* :class:`RoundRobinScheduler` — the execution optimizer's ordering pass:
  fixes, once per compiled program, the round-robin rule order every
  executor applies (producers before consumers, recursive groups kept
  together) and counts the plan's recursive components;
* :class:`PullScheduler` — the runtime driver of the streaming pipeline
  executor (:mod:`repro.engine.pipeline`): it owns the live invocation
  stack, classifies every pull as a hit, a cyclic miss (``notifyCycle``) or
  a real miss, and keeps the protocol counters the pipeline reports — the
  only source of pull-protocol numbers in the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..core.rules import Program, Rule
from .plan import ReasoningAccessPlan


@dataclass
class PullEvent:
    """One recorded event of the pull protocol (for tracing and tests)."""

    caller: str
    callee: str
    kind: str  # "next", "hit", "cyclic-miss" or "real-miss"


@dataclass
class SchedulerReport:
    """Outcome of the compile-time ordering pass over the plan."""

    rule_order: List[Rule] = field(default_factory=list)
    recursive_components: int = 0


class RoundRobinScheduler:
    """Derives the round-robin rule application order from the plan."""

    def __init__(self, plan: ReasoningAccessPlan, program: Program) -> None:
        self.plan = plan
        self.program = program

    def schedule(self) -> SchedulerReport:
        """Order the rules and count the recursive components.

        Both read the plan's strongly connected components, which the plan
        computes once.
        """
        return SchedulerReport(
            rule_order=self.plan.topological_rule_order(self.program),
            recursive_components=len(self.plan.recursive_components()),
        )


class PullScheduler:
    """Runtime state of the pull protocol: invocation stack, events, counters.

    The streaming pipeline's nodes delegate all protocol bookkeeping here:
    before recursing into a predecessor's ``produce()`` a node asks
    :meth:`on_stack`; a positive answer is the paper's ``notifyCycle`` — the
    callee is already serving a ``next()`` further up the invocation chain,
    so the caller records a **cyclic miss** and tries its other predecessors
    before giving up with a **real miss**.  The event log is capped (the
    counters stay exact) so long runs keep a bounded trace prefix — enough
    for the protocol tests and ``explain``-style inspection without holding
    an unbounded event history in memory.
    """

    def __init__(self, record_events: bool = True, max_events: int = 10_000) -> None:
        self.record_events = record_events
        self.max_events = max_events
        #: Optional per-run :class:`~repro.core.limits.ExecutionGovernor`;
        #: when set, every ``next()`` is a (strided) deadline/cancellation
        #: checkpoint — the streaming equivalent of "inside long joins".
        self.governor = None
        self.events: List[PullEvent] = []
        self.next_calls = 0
        self.hits = 0
        self.cyclic_misses = 0
        self.real_misses = 0
        #: Real misses answered from the barren-node memo (the producer had
        #: already proved its upstream cone dry at the current progress
        #: level) — a sub-count of ``real_misses``.
        self.barren_skips = 0
        self._stack: List[str] = []
        self._on_stack: Set[str] = set()

    # -- invocation stack ------------------------------------------------------
    def on_stack(self, name: str) -> bool:
        return name in self._on_stack

    def enter(self, name: str) -> None:
        """Push a node serving a ``next()`` onto the invocation stack."""
        self._stack.append(name)
        self._on_stack.add(name)

    def leave(self, name: str) -> None:
        popped = self._stack.pop()
        assert popped == name, f"unbalanced pull stack: popped {popped}, expected {name}"
        if name not in self._stack:
            self._on_stack.discard(name)

    def depth(self) -> int:
        return len(self._stack)

    # -- event recording -------------------------------------------------------
    def _record(self, caller: str, callee: str, kind: str) -> None:
        if self.record_events and len(self.events) < self.max_events:
            self.events.append(PullEvent(caller, callee, kind))

    def record_next(self, caller: str, callee: str) -> None:
        governor = self.governor
        if governor is not None:
            governor.tick()
        self.next_calls += 1
        self._record(caller, callee, "next")

    def record_hit(self, caller: str, callee: str) -> None:
        self.hits += 1
        self._record(caller, callee, "hit")

    def record_cyclic_miss(self, caller: str, callee: str) -> None:
        self.cyclic_misses += 1
        self._record(caller, callee, "cyclic-miss")

    def record_real_miss(self, caller: str, callee: str) -> None:
        self.real_misses += 1
        self._record(caller, callee, "real-miss")

    def record_barren_skip(self, caller: str, callee: str) -> None:
        """Count a real miss served by the barren memo (no event: the
        follow-up :meth:`record_real_miss` records the classification)."""
        self.barren_skips += 1

    def stats(self) -> Dict[str, int]:
        return {
            "next_calls": self.next_calls,
            "hits": self.hits,
            "cyclic_misses": self.cyclic_misses,
            "real_misses": self.real_misses,
            "barren_skips": self.barren_skips,
        }
