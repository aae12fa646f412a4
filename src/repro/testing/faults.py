"""Deterministic fault injection for the chaos test suite.

Production code is instrumented with named *fault points* — cheap no-op
hooks (one module-global read when nothing is installed) placed at the
seams the robustness layer must survive: datasource scans and rule
application in the round loop (every executor).  Tests
install a :class:`FaultPlan` that decides, deterministically (seeded
counters, optional seeded probability), which hits of which point raise an
injected exception or sleep to simulate a slow rule.

Registered fault points:

* ``datasource.scan``  — start of each scan attempt in ``DataSource``
  (context: ``predicate``, ``attempt``);
* ``chase.rule``       — per rule application in the round loop, on every
  executor (context: ``rule``, ``round``).

The harness is intentionally dependency-free so any module may import
:func:`fault_point` without cycles.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class WorkerCrash(RuntimeError):
    """Marker exception a :class:`FaultSpec` can raise to simulate a crash."""


@dataclass
class FaultSpec:
    """One injection rule: where, what, and how often.

    ``times=None`` fires on every matching hit; ``after=n`` skips the first
    ``n`` matching hits.  ``probability`` (with the plan's seeded RNG) makes
    firing stochastic but reproducible.  ``delay`` sleeps before raising —
    with ``exception=None`` it is a pure slow-down (slow-rule simulation).
    ``match`` further filters on the fault point's keyword context.
    """

    point: str
    exception: Optional[Callable[[str], BaseException]] = None
    times: Optional[int] = 1
    after: int = 0
    delay: float = 0.0
    probability: Optional[float] = None
    match: Optional[Callable[[Dict[str, Any]], bool]] = None


class FaultPlan:
    """A seeded, thread-safe set of :class:`FaultSpec` rules.

    Exposes per-point ``hits`` and ``fired`` counters so tests can assert
    that an injection actually exercised the intended path.
    """

    def __init__(self, *specs: FaultSpec, seed: int = 0) -> None:
        # Accept plain dicts as shorthand for FaultSpec(**dict).
        self.specs: List[FaultSpec] = [
            spec if isinstance(spec, FaultSpec) else FaultSpec(**spec)
            for spec in specs
        ]
        self.rng = random.Random(seed)
        # Per-spec hit/fired counters; the lock makes each decision atomic
        # across threads.
        self._lock = threading.RLock()
        self._spec_hits: List[int] = [0] * len(self.specs)
        self._spec_fired: List[int] = [0] * len(self.specs)

    # -- counters (test assertions) ---------------------------------------
    def spec_hits(self, index: int = 0) -> int:
        return self._spec_hits[index]

    def spec_fired(self, index: int = 0) -> int:
        return self._spec_fired[index]

    @property
    def hits(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for spec, count in zip(self.specs, self._spec_hits):
            totals[spec.point] = totals.get(spec.point, 0) + count
        return totals

    @property
    def fired(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for spec, count in zip(self.specs, self._spec_fired):
            totals[spec.point] = totals.get(spec.point, 0) + count
        return totals

    def visit(self, point: str, context: Dict[str, Any]) -> None:
        actions: List[Tuple[float, Optional[Callable[[str], BaseException]]]] = []
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.point != point:
                    continue
                if spec.match is not None and not spec.match(context):
                    continue
                hit_no = self._spec_hits[index]
                self._spec_hits[index] = hit_no + 1
                if hit_no < spec.after:
                    continue
                if spec.times is not None and self._spec_fired[index] >= spec.times:
                    continue
                if spec.probability is not None and self.rng.random() >= spec.probability:
                    continue
                self._spec_fired[index] += 1
                actions.append((spec.delay, spec.exception))
        for delay, exception in actions:
            if delay:
                time.sleep(delay)
            if exception is not None:
                raise exception(f"injected fault at {point!r} ({context})")


_ACTIVE: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> None:
    """Install ``plan`` globally."""
    global _ACTIVE
    _ACTIVE = plan


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def inject(*specs: FaultSpec, seed: int = 0) -> Iterator[FaultPlan]:
    """Install a fresh plan for the duration of the ``with`` block."""
    plan = FaultPlan(*specs, seed=seed)
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def fault_point(name: str, **context: Any) -> None:
    """Hook called from production code; no-op unless a plan is installed."""
    plan = _ACTIVE
    if plan is not None:
        plan.visit(name, context)
