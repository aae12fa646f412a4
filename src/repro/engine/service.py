"""A mixed update/query front-end over the resident reasoner.

:class:`ReasoningService` turns a :class:`~repro.engine.incremental
.ResidentReasoner` into a concurrency-safe service loop: many point
queries are admitted concurrently against epoch-guarded
:class:`~repro.core.fact_store.StoreSnapshot` views (the snapshot/
write-batch protocol of the storage layer is the isolation primitive)
while upserts and retractions serialise through a writer lock.

On top of the lock the service keeps a shared, invalidation-aware answer
cache — the generalisation of the per-reasoner magic-spec LRU: each cache
entry stores the parsed **run spec** of a query (query atom, answer
predicates and its *predicate footprint*) together with the answers
computed against the current materialisation.  The footprint of a query
is the transitive body-predicate dependency closure of its answer
predicates over the optimized program; a write to predicate ``p``
invalidates exactly the entries whose footprint contains ``p`` (the spec
itself survives invalidation — re-asking the same query re-uses the
parsed atom and the precomputed footprint and only recomputes answers).

All blocking entry points have ``*_async`` twins that run them in a
worker thread via :func:`asyncio.to_thread`, so an event loop can admit
many concurrent point queries without stalling on the writer lock.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple, Union

from ..core.atoms import Atom
from ..core.parser import parse_atom
from ..core.query import AnswerSet
from ..core.rules import Program
from .incremental import ResidentReasoner
from .plan import tarjan_components
from .reasoner import DatabaseLike, VadalogReasoner


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


def predicate_dependencies(program: Program) -> Dict[str, FrozenSet[str]]:
    """Transitive body-predicate dependency closure per head predicate.

    ``deps[p]`` contains ``p`` itself plus every predicate whose facts can
    (transitively) feed a rule deriving ``p`` — the invalidation footprint
    of a query on ``p``.  Predicates never derived map to ``{p}``.
    """
    direct: Dict[str, Set[str]] = {}
    for rule in program.rules:
        body_predicates = {atom.predicate for atom in rule.body}
        for head in rule.head:
            direct.setdefault(head.predicate, set()).update(body_predicates)
    # Closures are computed per strongly-connected component: every member
    # of an SCC shares one closure — the component itself plus the closures
    # of its successor components.  Components arrive in reverse-topological
    # order, so by the time one closes, every cross-edge successor already
    # has its full closure; same-component successors fall back to
    # ``{succ}``, already covered by the component set.  (A per-predicate
    # memo cannot do this: inside a cycle it caches whichever partial set
    # the traversal order happened to produce.)
    closure: Dict[str, FrozenSet[str]] = {}
    for component in tarjan_components(direct, direct):
        deps: Set[str] = set(component)
        for member in component:
            for succ in direct.get(member, ()):
                deps.update(closure.get(succ, (succ,)))
        shared = frozenset(deps)
        for member in component:
            closure[member] = shared
    return closure


class _CacheEntry:
    """One cached query: its parsed run spec plus (maybe stale) answers."""

    __slots__ = ("query_atom", "predicates", "footprint", "answers")

    def __init__(
        self,
        query_atom: Optional[Atom],
        predicates: Tuple[str, ...],
        footprint: FrozenSet[str],
    ) -> None:
        self.query_atom = query_atom
        self.predicates = predicates
        self.footprint = footprint
        self.answers: Optional[AnswerSet] = None


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
        cache_size: int = 128,
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
        self._cache_lock = threading.Lock()
        self._cache: "OrderedDict[Tuple, _CacheEntry]" = OrderedDict()
        self._cache_size = max(0, cache_size)
        self._deps = predicate_dependencies(self._resident.program)
        self._counters = {
            "queries": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "invalidations": 0,
            "upserts": 0,
            "retractions": 0,
        }

    # ------------------------------------------------------------------ updates
    def upsert(self, facts: DatabaseLike) -> int:
        """Serialized extensional upsert; invalidates dependent cached answers."""
        coerced = VadalogReasoner._database_facts(facts)
        with self._lock.write():
            added = self._resident.upsert(coerced)
            self._counters["upserts"] += 1
            self._invalidate({fact.predicate for fact in coerced})
        return added

    def retract(self, facts: DatabaseLike) -> int:
        """Serialized extensional retraction (DRed); invalidates dependents."""
        coerced = VadalogReasoner._database_facts(facts)
        with self._lock.write():
            removed = self._resident.retract(coerced)
            self._counters["retractions"] += 1
            self._invalidate({fact.predicate for fact in coerced})
        return removed

    def _invalidate(self, written_predicates: Set[str]) -> None:
        """Drop cached answers whose footprint intersects the written set."""
        if not written_predicates:
            return
        with self._cache_lock:
            for entry in self._cache.values():
                if entry.answers is not None and not written_predicates.isdisjoint(
                    entry.footprint
                ):
                    entry.answers = None
                    self._counters["invalidations"] += 1

    # ------------------------------------------------------------------ queries
    def query(
        self,
        query: Union[str, Atom, None] = None,
        outputs: Optional[Iterable[str]] = None,
        certain: bool = False,
    ) -> AnswerSet:
        """Answer a point query against a snapshot of the warm store.

        Cached answers are served without touching the store; otherwise the
        query runs under the reader lock against an epoch-guarded snapshot
        (settling any deferred maintenance under the writer lock first) and
        the result is cached against its predicate footprint.
        """
        self._counters["queries"] += 1
        key = self._cache_key(query, outputs, certain)
        entry = self._lookup(key)
        if entry is not None and entry.answers is not None:
            self._counters["cache_hits"] += 1
            return entry.answers
        self._counters["cache_misses"] += 1
        if entry is None:
            entry = self._build_entry(query, outputs)
        while True:
            if self._resident.needs_settle:
                with self._lock.write():
                    self._resident.ensure_settled()
            with self._lock.read():
                if self._resident.needs_settle:
                    continue  # a writer slipped in between the two locks
                epoch = self._resident.epoch
                answers = self._resident.query(
                    entry.query_atom,
                    outputs=entry.predicates,
                    certain=certain,
                    snapshot=self._resident.snapshot(),
                )
                break
        self._store_entry(key, entry, answers, epoch)
        return answers

    def _cache_key(self, query, outputs, certain) -> Tuple:
        query_text = str(query) if query is not None else None
        output_key = tuple(outputs) if outputs is not None else None
        return (query_text, output_key, certain)

    def _lookup(self, key: Tuple) -> Optional[_CacheEntry]:
        with self._cache_lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
            return entry

    def _build_entry(self, query, outputs) -> _CacheEntry:
        if query is not None:
            query_atom = parse_atom(query) if isinstance(query, str) else query
            predicates: Tuple[str, ...] = (query_atom.predicate,)
        else:
            query_atom = None
            predicates = tuple(
                outputs
                if outputs is not None
                else self._resident._reasoner._output_predicates(None)
            )
        footprint: Set[str] = set()
        for predicate in predicates:
            footprint.update(self._deps.get(predicate, frozenset((predicate,))))
        return _CacheEntry(query_atom, predicates, frozenset(footprint))

    def _store_entry(
        self,
        key: Tuple,
        entry: _CacheEntry,
        answers: AnswerSet,
        epoch: Tuple[int, int],
    ) -> None:
        """Cache ``answers`` unless a writer ran since they were computed.

        ``epoch`` was captured under the read lock; a writer bumps the
        resident epoch *before* invalidating the cache, so checking it
        under the cache lock closes the window where pre-write answers
        could be inserted after the writer's invalidation pass.
        """
        with self._cache_lock:
            if self._resident.epoch != epoch:
                return  # answers predate a write: serve them, never cache them
            entry.answers = answers
            if self._cache_size == 0:
                return
            self._cache[key] = entry
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    # ------------------------------------------------------------------- async
    async def query_async(
        self,
        query: Union[str, Atom, None] = None,
        outputs: Optional[Iterable[str]] = None,
        certain: bool = False,
    ) -> AnswerSet:
        return await asyncio.to_thread(self.query, query, outputs, certain)

    async def upsert_async(self, facts: DatabaseLike) -> int:
        return await asyncio.to_thread(self.upsert, facts)

    async def retract_async(self, facts: DatabaseLike) -> int:
        return await asyncio.to_thread(self.retract, facts)

    # -------------------------------------------------------------- inspection
    @property
    def resident(self) -> ResidentReasoner:
        return self._resident

    def footprint(self, predicate: str) -> FrozenSet[str]:
        """The invalidation footprint of a query on ``predicate``."""
        return self._deps.get(predicate, frozenset((predicate,)))

    def stats(self) -> Dict[str, object]:
        data: Dict[str, object] = dict(self._counters)
        with self._cache_lock:
            data["cached_specs"] = len(self._cache)
            data["cached_answers"] = sum(
                1 for entry in self._cache.values() if entry.answers is not None
            )
        data["resident"] = self._resident.stats()
        return data


__all__ = ["ReasoningService", "predicate_dependencies"]
