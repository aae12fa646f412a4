"""A mixed update/query front-end over the resident reasoner.

:class:`ReasoningService` turns a :class:`~repro.engine.incremental
.ResidentReasoner` into a concurrency-safe service loop: many point
queries are admitted concurrently against epoch-guarded
:class:`~repro.core.fact_store.StoreSnapshot` views (the storage layer's
read snapshot is the isolation primitive) while upserts and retractions
serialise through a writer lock.

The service keeps no answers of its own: queries read through the
resident reasoner's memo (:meth:`~repro.engine.incremental.ResidentReasoner
.query`), one entry per answer-predicate key, each with its *footprint* —
the backward slice of its predicates over the optimized program.  A write
drops exactly the entries whose footprint meets the predicates of the facts
it changed.  Entries are filled under the reader lock and dropped under the
writer lock, so answers computed before a write are never served after it.

All blocking entry points have ``*_async`` twins that run them in a
worker thread via :func:`asyncio.to_thread`, so an event loop can admit
many concurrent point queries without stalling on the writer lock.  They
import :mod:`asyncio` when called: a caller of theirs already runs an event
loop, and every other process is spared its import (with ``ssl``,
``socket`` and ``subprocess``, 3 to 4 MB of resident memory).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, Optional, Union

from ..core.atoms import Atom
from ..core.query import AnswerSet
from .incremental import ResidentReasoner
from .plan import backward_slice
from .reasoner import DatabaseLike


class _ReadWriteLock:
    """A writer-preferring readers/writer lock (stdlib primitives only).

    Readers share the lock; a writer excludes everyone.  Arriving writers
    block *new* readers, so a steady query stream cannot starve updates —
    the property the mixed update/query loop needs.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            except BaseException:
                # A raising wait() (e.g. KeyboardInterrupt) must not leave
                # the waiting count elevated — readers block while it is
                # non-zero — and blocked peers need a wake-up to re-check.
                self._writers_waiting -= 1
                self._cond.notify_all()
                raise
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class ReasoningService:
    """Concurrent point queries and serialized updates over a warm store.

    Typical usage::

        from repro import ReasoningService

        service = ReasoningService(PROGRAM, database=INITIAL)
        service.upsert({"Edge": [("b", "c")]})
        service.query('Reach("a", Y)').tuples("Reach")
        service.stats()["cache_hits"]

    Or from an event loop::

        answers = await service.query_async('Reach("a", Y)')
    """

    def __init__(
        self,
        program,
        database: DatabaseLike = None,
        strategy: str = "warded",
        executor: str = "compiled",
        chase_config=None,
        base_path: Optional[str] = None,
    ) -> None:
        self._resident = (
            program
            if isinstance(program, ResidentReasoner)
            else ResidentReasoner(
                program,
                database=database,
                strategy=strategy,
                executor=executor,
                chase_config=chase_config,
                base_path=base_path,
            )
        )
        self._lock = _ReadWriteLock()
        self._counters = {"queries": 0, "upserts": 0, "retractions": 0}

    # ------------------------------------------------------------------ updates
    def upsert(self, facts: DatabaseLike) -> int:
        """Serialized extensional upsert; drops dependent memo entries."""
        with self._lock.write():
            added = self._resident.upsert(facts)
            self._counters["upserts"] += 1
        return added

    def retract(self, facts: DatabaseLike) -> int:
        """Serialized extensional retraction (DRed); drops dependent entries."""
        with self._lock.write():
            removed = self._resident.retract(facts)
            self._counters["retractions"] += 1
        return removed

    # ------------------------------------------------------------------ queries
    def query(
        self,
        query: Union[str, Atom, None] = None,
        outputs: Optional[Iterable[str]] = None,
        certain: bool = False,
    ) -> AnswerSet:
        """Answer a point query against a snapshot of the warm store.

        Deferred maintenance is settled under the writer lock first; the
        query then runs under the reader lock against an epoch-guarded
        snapshot, served from (or filling) the resident reasoner's memo.
        """
        self._counters["queries"] += 1
        while True:
            if self._resident.needs_settle:
                with self._lock.write():
                    self._resident.ensure_settled()
            with self._lock.read():
                if self._resident.needs_settle:
                    continue  # a writer slipped in between the two locks
                return self._resident.query(
                    query, outputs, certain, snapshot=self._resident.snapshot()
                )

    # ------------------------------------------------------------------- async
    async def query_async(
        self,
        query: Union[str, Atom, None] = None,
        outputs: Optional[Iterable[str]] = None,
        certain: bool = False,
    ) -> AnswerSet:
        import asyncio

        return await asyncio.to_thread(self.query, query, outputs, certain)

    async def upsert_async(self, facts: DatabaseLike) -> int:
        import asyncio

        return await asyncio.to_thread(self.upsert, facts)

    async def retract_async(self, facts: DatabaseLike) -> int:
        import asyncio

        return await asyncio.to_thread(self.retract, facts)

    # -------------------------------------------------------------- inspection
    @property
    def resident(self) -> ResidentReasoner:
        return self._resident

    def footprint(self, predicate: str) -> FrozenSet[str]:
        """The invalidation footprint of a query on ``predicate``."""
        return frozenset(backward_slice(self._resident.program, [predicate])[0])

    def stats(self) -> Dict[str, object]:
        resident = self._resident.stats()
        data: Dict[str, object] = dict(self._counters)
        for key in ("cache_hits", "cache_misses", "invalidations", "patches", "cached_answers"):
            data[key] = resident[key]
        data["resident"] = resident
        return data


__all__ = ["ReasoningService"]
