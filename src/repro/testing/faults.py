"""Deterministic fault injection for the chaos test suite.

Production code is instrumented with named *fault points* — cheap no-op
hooks (one module-global read when nothing is installed) placed at the
seams the robustness layer must survive: datasource scans, parallel match
workers, rule application in the round loop (every executor).  Tests
install a :class:`FaultPlan` that decides, deterministically (seeded
counters, optional seeded probability), which hits of which point raise an
injected exception or sleep to simulate a slow rule.

Registered fault points:

* ``datasource.scan``  — start of each scan attempt in ``DataSource``
  (context: ``predicate``, ``attempt``);
* ``parallel.worker``  — entry of the per-shard match body in
  ``engine.partition`` (context: ``shard``, ``round``); fires in thread
  workers, forked children (the plan is inherited copy-on-write) and in
  driver-side degraded execution alike;
* ``chase.rule``       — per rule application in the round loop, on every
  executor (context: ``rule``, ``round``).

The harness is intentionally dependency-free so any module may import
:func:`fault_point` without cycles.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class WorkerCrash(RuntimeError):
    """Marker exception used to simulate a crashed parallel worker."""


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
        # Per-spec hit/fired counters live in shared memory so ``times``/
        # ``after`` hold *globally* across fork-backend worker processes
        # (which inherit the plan copy-on-write — plain ints would reset in
        # every child).  The shared lock makes the whole decision atomic
        # across processes and threads alike.
        self._lock = multiprocessing.RLock()
        self._spec_hits: List[Any] = [
            multiprocessing.Value("i", 0, lock=False) for _ in self.specs
        ]
        self._spec_fired: List[Any] = [
            multiprocessing.Value("i", 0, lock=False) for _ in self.specs
        ]

    # -- counters (test assertions) ---------------------------------------
    def spec_hits(self, index: int = 0) -> int:
        return self._spec_hits[index].value

    def spec_fired(self, index: int = 0) -> int:
        return self._spec_fired[index].value

    @property
    def hits(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for spec, counter in zip(self.specs, self._spec_hits):
            totals[spec.point] = totals.get(spec.point, 0) + counter.value
        return totals

    @property
    def fired(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for spec, counter in zip(self.specs, self._spec_fired):
            totals[spec.point] = totals.get(spec.point, 0) + counter.value
        return totals

    def visit(self, point: str, context: Dict[str, Any]) -> None:
        actions: List[Tuple[float, Optional[Callable[[str], BaseException]]]] = []
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.point != point:
                    continue
                if spec.match is not None and not spec.match(context):
                    continue
                hit_no = self._spec_hits[index].value
                self._spec_hits[index].value = hit_no + 1
                if hit_no < spec.after:
                    continue
                if spec.times is not None and self._spec_fired[index].value >= spec.times:
                    continue
                if spec.probability is not None and self.rng.random() >= spec.probability:
                    continue
                self._spec_fired[index].value += 1
                actions.append((spec.delay, spec.exception))
        for delay, exception in actions:
            if delay:
                time.sleep(delay)
            if exception is not None:
                raise exception(f"injected fault at {point!r} ({context})")


_ACTIVE: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> None:
    """Install ``plan`` globally (also inherited by forked workers)."""
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
