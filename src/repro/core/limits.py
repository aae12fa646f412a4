"""Execution budgets, cooperative cancellation and the run governor.

Vadalog is deployed as a long-lived reasoning service (Section 5 of the
paper); in that setting a pathological program must *end* — with whatever
sound partial materialisation exists — rather than take the process down.
This module defines the resource-governance vocabulary shared by every
executor:

* :class:`ExecutionBudget` — declarative per-run ceilings: a wall-clock
  deadline, a cap on derived (intensional) facts, a cap on chase rounds and
  a peak-resident-facts ceiling;
* :class:`CancellationToken` — a thread-safe cooperative cancellation
  handle the caller can trip from another thread;
* :class:`ExecutionGovernor` — the per-run object the round loop (on every
  executor) and the parallel admit phase consult.  Round boundaries call
  :meth:`ExecutionGovernor.round_status` (all budget axes);
  hot inner loops call the strided :meth:`ExecutionGovernor.tick`, which
  only pays for a clock read every ``TICK_STRIDE`` calls and raises
  :class:`ExecutionStopped` when the deadline has passed or the token was
  cancelled.

Because the chase is monotone, stopping early is always *sound*: the facts
admitted so far are a subset of the full materialisation, so partial
results can be surfaced with a structured status instead of an exception.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional, Tuple

# Structured run statuses surfaced on ChaseResult / ReasoningResult.
STATUS_COMPLETE = "complete"
STATUS_DEADLINE = "deadline_exceeded"
STATUS_BUDGET = "budget_exceeded"
STATUS_CANCELLED = "cancelled"

RUN_STATUSES = (STATUS_COMPLETE, STATUS_DEADLINE, STATUS_BUDGET, STATUS_CANCELLED)


@dataclass(frozen=True)
class ExecutionBudget:
    """Per-run resource ceilings; ``None`` on an axis means unlimited.

    ``max_derived_facts`` counts intensional derivations (chase steps), so a
    large extensional database does not consume the budget just by loading.
    ``max_resident_facts`` bounds the total store size (extensional +
    intensional) — groundwork for bounded-memory execution.
    """

    deadline_seconds: Optional[float] = None
    max_derived_facts: Optional[int] = None
    max_rounds: Optional[int] = None
    max_resident_facts: Optional[int] = None

    def is_unlimited(self) -> bool:
        return (
            self.deadline_seconds is None
            and self.max_derived_facts is None
            and self.max_rounds is None
            and self.max_resident_facts is None
        )


class CancellationToken:
    """Thread-safe cooperative cancellation handle.

    The caller keeps a reference and calls :meth:`cancel` (typically from
    another thread, a signal handler or a service control plane); the run
    observes it at the next governed checkpoint and ends with status
    ``"cancelled"`` and the partial results admitted so far.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        if reason is not None and self._reason is None:
            self._reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> Optional[str]:
        return self._reason


class ExecutionStopped(Exception):
    """Internal control-flow signal: the governor ended the run early.

    Raised from inner-loop ticks, caught at the executor's run boundary and
    converted into a structured status + partial result.  It must never
    escape the public API.
    """

    def __init__(self, status: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


class ExecutionGovernor:
    """Per-run budget/cancellation monitor shared by all executors.

    One governor is created per ``run()`` (never reused), so the deadline
    clock starts when execution actually starts.  ``tick()`` is designed
    for hot loops: it increments a counter and only consults the clock and
    the token every :data:`TICK_STRIDE` calls.
    """

    TICK_STRIDE = 1024

    def __init__(
        self,
        budget: Optional[ExecutionBudget] = None,
        cancel: Optional[CancellationToken] = None,
    ) -> None:
        self.budget = budget if budget is not None else ExecutionBudget()
        self.cancel = cancel
        self.started_at = time.perf_counter()
        self._deadline_at: Optional[float] = None
        if self.budget.deadline_seconds is not None:
            self._deadline_at = self.started_at + self.budget.deadline_seconds
        self._ticks = 0
        #: Optional :class:`repro.obs.Tracer` (duck-typed, set by the owning
        #: executor after construction): every stop decision is recorded as
        #: an instant ``governor-stop`` span plus a ``governor.stops`` counter.
        self.tracer = None

    def _stopped(self, status: Tuple[str, str]) -> Tuple[str, str]:
        """Record a stop decision on the active tracer (if any) and pass it on."""
        tracer = self.tracer
        if tracer is not None:
            now = time.perf_counter()
            tracer.emit(
                "governor-stop",
                f"stop:{status[0]}",
                now,
                now,
                attrs={"status": status[0], "detail": status[1]},
            )
            tracer.metrics.counter("governor.stops").inc()
        return status

    @classmethod
    def for_config(cls, config: object) -> Optional["ExecutionGovernor"]:
        """Build a governor from a chase config, or ``None`` if ungoverned.

        Returning ``None`` keeps the default (no budget, no token) path
        completely free of per-match overhead.
        """
        budget: Optional[ExecutionBudget] = getattr(config, "budget", None)
        cancel: Optional[CancellationToken] = getattr(config, "cancel", None)
        if cancel is None and (budget is None or budget.is_unlimited()):
            return None
        return cls(budget, cancel)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started_at

    # ------------------------------------------------------------------ checks
    def interrupt_status(self) -> Optional[Tuple[str, str]]:
        """Cheap checks that are valid at any point: cancellation + deadline."""
        token = self.cancel
        if token is not None and token.cancelled:
            reason = token.reason or "cancelled by caller"
            return self._stopped((STATUS_CANCELLED, reason))
        if self._deadline_at is not None and time.perf_counter() >= self._deadline_at:
            return self._stopped(
                (
                    STATUS_DEADLINE,
                    f"deadline of {self.budget.deadline_seconds:.3f}s exceeded "
                    f"after {self.elapsed():.3f}s",
                )
            )
        return None

    def round_status(
        self, rounds: int, resident_facts: int, derived_facts: int
    ) -> Optional[Tuple[str, str]]:
        """Full budget check at a round boundary.

        ``rounds`` is the number of *completed* rounds; the caller asks
        before starting the next one.
        """
        status = self.interrupt_status()
        if status is not None:
            return status
        budget = self.budget
        if budget.max_rounds is not None and rounds >= budget.max_rounds:
            return self._stopped(
                (
                    STATUS_BUDGET,
                    f"round budget of {budget.max_rounds} chase rounds exhausted",
                )
            )
        if (
            budget.max_derived_facts is not None
            and derived_facts >= budget.max_derived_facts
        ):
            return self._stopped(
                (
                    STATUS_BUDGET,
                    f"derived-fact budget of {budget.max_derived_facts} exhausted "
                    f"({derived_facts} facts derived)",
                )
            )
        if (
            budget.max_resident_facts is not None
            and resident_facts > budget.max_resident_facts
        ):
            return self._stopped(
                (
                    STATUS_BUDGET,
                    f"resident-fact ceiling of {budget.max_resident_facts} exceeded "
                    f"({resident_facts} facts resident)",
                )
            )
        return None

    def tick(self) -> None:
        """Strided inner-loop checkpoint; raises :class:`ExecutionStopped`.

        Safe to call once per join match: only every
        ``TICK_STRIDE``-th call consults the clock and the token.
        """
        self._ticks += 1
        if self._ticks % self.TICK_STRIDE:
            return
        status = self.interrupt_status()
        if status is not None:
            raise ExecutionStopped(*status)

    def check_now(self) -> None:
        """Unstrided checkpoint; raises :class:`ExecutionStopped`."""
        status = self.interrupt_status()
        if status is not None:
            raise ExecutionStopped(*status)
