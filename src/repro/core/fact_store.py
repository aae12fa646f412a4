"""In-memory fact store with dynamic per-position hash indexes.

This is the data substrate shared by the chase engine and the baselines: a
set of facts grouped by predicate, with hash indexes on (predicate,
position, value) built *dynamically* as facts are inserted, mirroring the
"dynamic indexing" idea of the slot-machine join (Section 4): there is no
persistent pre-computed index, the indexes grow with the derived facts and
can be consulted even while incomplete.

The indexes are keyed by the terms themselves (constants, nulls): terms
cache their hash at construction (:mod:`repro.core.terms`), so a probe costs
two dictionary lookups and no tuple allocation.  On top of the full indexes
the store maintains **per-round delta indexes** (:meth:`begin_round`) used
by the compiled rule executors for semi-naive evaluation, plus the insertion
round of every fact so executors can restrict probes to earlier rounds.

Every write goes through :meth:`FactStore.add` or :meth:`FactStore.remove`,
and each bumps the store's mutation epoch.  :meth:`FactStore.snapshot`
returns a :class:`StoreSnapshot`, the epoch-guarded read view the resident
reasoning service answers queries through: a read after a later write
raises :class:`StaleSnapshotError` instead of seeing a half-applied update.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .atoms import Atom, Fact
from .terms import Constant, Null, Term, Variable

_EMPTY: Tuple[Fact, ...] = ()


def _count_constants(counts: Dict[Hashable, int], fact: Fact, delta: int) -> None:
    """Add ``delta`` to the occurrence count of each constant of ``fact``."""
    for term in fact.terms:
        if isinstance(term, Constant):
            count = counts.get(term.value, 0) + delta
            if count:
                counts[term.value] = count
            else:
                del counts[term.value]


class StaleSnapshotError(RuntimeError):
    """A read hit a :class:`StoreSnapshot` after its store was mutated."""


class FactStore:
    """A set of facts with per-position hash indexes and insertion order.

    **Bucket invariant.**  A fact's *slot* is its position in the insertion
    sequence (what :meth:`index_of_row` returns); slots are never reused.
    Every bucket — a predicate's extent, each per-position ``{term: [facts]}``
    entry, each per-round delta list — is a plain list that is only ever
    appended to, in insertion order, so it is sorted by slot.  That is what
    lets :meth:`remove` find its victim by binary search while buckets stay
    lists: the compiled probe loop iterates a live bucket while the fire path
    appends to it, and the order-sensitive null witnesses depend on
    insertion order.

    **Layout readers.**  Besides this class, only the generated join kernels
    of :mod:`repro.engine.joins` read the store's private layout: ``_rows``
    (the dedup map), ``_position_index`` (the per-position buckets) and
    ``_round_of`` (insertion rounds), each bound once per kernel call.
    ``_round_of`` holds only the facts that entered after round 0: a fact
    it lacks entered in round 0, which is what :meth:`round_of` and the
    kernels' ``rget(fact, 0)`` read for a missing entry, so the extensional
    facts of a one-shot run cost no entry.
    """

    def __init__(self, facts: Iterable[Fact] = ()) -> None:
        self._facts: List[Fact] = []
        # Dedup map keyed by (predicate, terms) — the exact equality of Fact
        # itself — so membership works for whole facts and for rows the
        # compiled fire path has not turned into Fact objects yet.  The value
        # is the fact's slot, its position in ``_facts``.
        self._rows: Dict[Tuple[str, Tuple[Term, ...]], int] = {}
        # Incremented on every mutation; snapshots record it and refuse
        # reads once it moved on (see :class:`StoreSnapshot`).
        self._epoch: int = 0
        self._by_predicate: Dict[str, List[Fact]] = {}
        # predicate -> list of per-position {term: [facts]} dictionaries
        self._position_index: Dict[str, List[Dict[Term, List[Fact]]]] = {}
        # The active domain as occurrence counts per constant value (its keys
        # are the domain; retraction may only drop a constant when its last
        # occurrence leaves the store).  Built on the first domain query and
        # maintained from then on, so programs without ``Dom`` never pay
        # for it; ``None`` until then.
        self._domain_counts: Optional[Dict[Hashable, int]] = None
        # predicate -> number of its live facts holding a labelled null; a
        # predicate without one is absent.  Answer extraction skips the
        # isomorphism dedup of a null-free predicate, and the resident
        # reasoner's strategy replay walks only the predicates listed here.
        self._null_facts: Dict[str, int] = {}
        # Number of live (non-tombstoned) entries of ``_facts``; removal
        # tombstones the slot to keep row indexes stable (see :meth:`remove`).
        self._live: int = 0
        self._facts_cache: Optional[Tuple[Fact, ...]] = None
        # -- semi-naive round bookkeeping (driven by the chase engine) -------
        self.current_round: int = 0
        self._round_of: Dict[Fact, int] = {}
        self._delta_by_predicate: Dict[str, List[Fact]] = {}
        self._delta_index: Dict[str, List[Dict[Term, List[Fact]]]] = {}
        for fact in facts:
            self.add(fact)

    # -- mutation ------------------------------------------------------------
    def add(self, fact: Fact) -> bool:
        """Insert a fact; returns ``False`` when an identical fact is present."""
        key = (fact.predicate, fact.terms)
        if key in self._rows:
            return False
        self._epoch += 1
        self._rows[key] = len(self._facts)
        self._facts.append(fact)
        self._facts_cache = None
        if self.current_round:
            self._round_of[fact] = self.current_round
        self._by_predicate.setdefault(fact.predicate, []).append(fact)
        position_dicts = self._position_index.get(fact.predicate)
        if position_dicts is None:
            position_dicts = self._position_index[fact.predicate] = []
        while len(position_dicts) < len(fact.terms):
            position_dicts.append({})
        has_null = False
        for index, term in enumerate(fact.terms):
            if term.__class__ is Null:
                has_null = True
            bucket = position_dicts[index].get(term)
            if bucket is None:
                position_dicts[index][term] = [fact]
            else:
                bucket.append(fact)
        if has_null:
            self._null_facts[fact.predicate] = self._null_facts.get(fact.predicate, 0) + 1
        if self._domain_counts is not None:
            _count_constants(self._domain_counts, fact, 1)
        self._live += 1
        return True

    def remove(self, fact: Fact) -> bool:
        """Retract a fact; returns ``False`` when it is not in the store.

        Removal is the mutation primitive of the resident reasoner's DRed
        path (:mod:`repro.engine.incremental`).  The fact's slot in the
        insertion sequence is tombstoned (``None``) rather than compacted so
        :meth:`index_of_row` positions handed out earlier stay valid for the
        surviving facts; iteration and :meth:`facts` skip tombstones.  Every
        removal bumps the mutation epoch, so snapshots taken before it go
        stale exactly like they do for inserts.

        Every bucket the fact sits in is sorted by slot (see the class
        docstring), so each is edited by binary search: a removal costs
        O(arity · log n) slot lookups and no fact comparison.  A predicate
        whose last fact leaves is forgotten, as if it had never been added.
        """
        key = (fact.predicate, fact.terms)
        slot = self._rows.get(key)
        if slot is None:
            return False
        self._epoch += 1
        stored = self._facts[slot]
        predicate = stored.predicate
        bucket = self._by_predicate[predicate]
        self._drop(bucket, slot)
        position_dicts = self._position_index[predicate]
        has_null = False
        for position, term in enumerate(stored.terms):
            if term.__class__ is Null:
                has_null = True
            entries = position_dicts[position][term]
            self._drop(entries, slot)
            if not entries:
                del position_dicts[position][term]
        if has_null:
            remaining = self._null_facts[predicate] - 1
            if remaining:
                self._null_facts[predicate] = remaining
            else:
                del self._null_facts[predicate]
        if self._domain_counts is not None:
            _count_constants(self._domain_counts, stored, -1)
        if not bucket:
            del self._by_predicate[predicate]
            del self._position_index[predicate]
        delta_bucket = self._delta_by_predicate.get(predicate)
        if delta_bucket and self._drop(delta_bucket, slot):
            self._delta_index.pop(predicate, None)
        # The slot lookups above resolve the victim too: forget it last.
        del self._rows[key]
        self._facts[slot] = None
        self._facts_cache = None
        self._live -= 1
        self._round_of.pop(stored, None)
        return True

    def _slot_of(self, fact: Fact) -> int:
        return self._rows[(fact.predicate, fact.terms)]

    def _drop(self, bucket: List[Fact], slot: int) -> bool:
        """Delete the fact stored at ``slot`` from a slot-ordered bucket."""
        slot_of = self._slot_of
        at = bisect_left(bucket, slot, key=slot_of)
        if at == len(bucket) or slot_of(bucket[at]) != slot:
            return False
        del bucket[at]
        return True

    def remove_all(self, facts: Iterable[Fact]) -> int:
        """Retract many facts, returning the number actually removed."""
        return sum(1 for fact in facts if self.remove(fact))

    # -- inspection ----------------------------------------------------------
    def __contains__(self, fact: Fact) -> bool:
        return (fact.predicate, fact.terms) in self._rows

    def contains_row(self, predicate: str, terms: Tuple[Term, ...]) -> bool:
        """Duplicate check without constructing a :class:`Fact` object.

        Used by the compiled fire path: most candidate heads are duplicates,
        and a tuple membership test is far cheaper than building the fact
        first.
        """
        return (predicate, terms) in self._rows

    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts())

    def facts(self) -> Tuple[Fact, ...]:
        if self._facts_cache is None:
            self._facts_cache = tuple(f for f in self._facts if f is not None)
        return self._facts_cache

    def fact_at(self, index: int) -> Fact:
        """The fact at insertion position ``index`` (see :meth:`index_of_row`).

        Positions of removed facts resolve to ``None``; live positions stay
        stable across removals (removal tombstones, it never compacts).
        """
        return self._facts[index]

    def index_of_row(self, predicate: str, terms: Tuple[Term, ...]) -> int:
        """Insertion position of a stored row; raises ``KeyError`` when absent.

        Positions are stable for the lifetime of the store (removal
        tombstones, it never compacts), so :meth:`fact_at` resolves a
        position handed out earlier to the same fact.
        """
        return self._rows[(predicate, terms)]

    def predicates(self) -> Tuple[str, ...]:
        return tuple(self._by_predicate)

    def by_predicate(self, predicate: str) -> Sequence[Fact]:
        return self._by_predicate.get(predicate, ())

    def count(self, predicate: str) -> int:
        return len(self._by_predicate.get(predicate, ()))

    def null_facts(self, predicate: str) -> int:
        """How many live facts of ``predicate`` hold a labelled null."""
        return self._null_facts.get(predicate, 0)

    def null_predicates(self) -> Tuple[str, ...]:
        """The predicates with at least one live null-bearing fact."""
        return tuple(self._null_facts)

    def active_domain(self) -> Set[Hashable]:
        """Constants occurring anywhere in the store (the ``ACDom`` relation)."""
        return set(self._domain())

    def in_active_domain(self, value: Hashable) -> bool:
        return value in self._domain()

    def _domain(self) -> Dict[Hashable, int]:
        """The active-domain counts, built from the live facts on first use."""
        counts = self._domain_counts
        if counts is None:
            counts = {}
            for fact in self.facts():
                _count_constants(counts, fact, 1)
            self._domain_counts = counts
        return counts

    # -- rounds and deltas ---------------------------------------------------
    def begin_round(self, round_index: int, delta_facts: Iterable[Fact]) -> None:
        """Start a semi-naive round: stamp new facts and index the delta.

        ``delta_facts`` are the facts derived in the previous round, in the
        order they entered the store (the bucket invariant covers the delta
        lists); they are grouped by predicate and indexed per position so
        compiled executors can seed their joins from the delta with indexed
        probes.
        """
        self._epoch += 1
        self.current_round = round_index
        self._delta_by_predicate = {}
        self._delta_index = {}
        for fact in delta_facts:
            self._delta_by_predicate.setdefault(fact.predicate, []).append(fact)

    def round_of(self, fact: Fact) -> int:
        """The round in which ``fact`` entered the store (0 for inputs)."""
        return self._round_of.get(fact, 0)

    def delta_facts(self, predicate: str) -> Sequence[Fact]:
        """Facts of the current delta (previous round's derivations)."""
        return self._delta_by_predicate.get(predicate, ())

    def delta_candidates(self, predicate: str, position: int, term: Term) -> Sequence[Fact]:
        """Delta facts with ``term`` at ``position`` (indexed probe).

        The per-position delta index of a predicate is built lazily on first
        probe: most seed atoms carry no constants, so eagerly indexing every
        delta predicate each round would be wasted work.
        """
        position_dicts = self._delta_index.get(predicate)
        if position_dicts is None:
            position_dicts = self._delta_index[predicate] = []
            for fact in self._delta_by_predicate.get(predicate, ()):
                while len(position_dicts) < len(fact.terms):
                    position_dicts.append({})
                for index, fact_term in enumerate(fact.terms):
                    bucket = position_dicts[index].get(fact_term)
                    if bucket is None:
                        position_dicts[index][fact_term] = [fact]
                    else:
                        bucket.append(fact)
        if position >= len(position_dicts):
            return _EMPTY
        return position_dicts[position].get(term, _EMPTY)

    # -- matching ------------------------------------------------------------
    def position_candidates(self, predicate: str, position: int, term: Term) -> Sequence[Fact]:
        """Facts of ``predicate`` with ``term`` at ``position`` (indexed probe)."""
        position_dicts = self._position_index.get(predicate)
        if position_dicts is None or position >= len(position_dicts):
            return _EMPTY
        return position_dicts[position].get(term, _EMPTY)

    def candidates(self, atom: Atom, binding: Dict[Variable, Term]) -> Sequence[Fact]:
        """Facts that could match ``atom`` under the (partial) ``binding``.

        Uses the most selective available position index: among the atom
        positions holding a constant or an already-bound variable, the one
        whose candidate bucket is smallest.  Falls back to a full scan of the
        predicate when the atom has no bound position.
        """
        position_dicts = self._position_index.get(atom.predicate)
        if position_dicts is None:
            return _EMPTY if atom.predicate not in self._by_predicate else self._by_predicate[atom.predicate]
        best: Optional[Sequence[Fact]] = None
        for index, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                bound = binding.get(term)
                if bound is None:
                    continue
                term = bound
            if index >= len(position_dicts):
                return _EMPTY
            bucket = position_dicts[index].get(term)
            if bucket is None:
                return _EMPTY
            if best is None or len(bucket) < len(best):
                best = bucket
                if len(best) <= 1:
                    break
        if best is not None:
            return best
        return self._by_predicate.get(atom.predicate, ())

    def copy(self) -> "FactStore":
        return FactStore(self.facts())

    # -- read snapshot -------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Mutation counter; bumped by every insert, removal and round start."""
        return self._epoch

    def snapshot(self) -> "StoreSnapshot":
        """A read-only view of the store at the current mutation epoch."""
        return StoreSnapshot(self)


class StoreSnapshot:
    """Read-only view of a :class:`FactStore` at a fixed mutation epoch.

    A zero-copy facade: reads delegate to the underlying store, and an epoch
    check at every read raises :class:`StaleSnapshotError` if the store was
    mutated after the snapshot was taken.  The resident service reads its
    answers through one (:meth:`repro.engine.incremental.ResidentReasoner.query`),
    so a query never observes a half-applied write.
    """

    __slots__ = ("_store", "_epoch")

    def __init__(self, store: FactStore) -> None:
        self._store = store
        self._epoch = store.epoch

    @property
    def stale(self) -> bool:
        return self._store.epoch != self._epoch

    def _live_store(self) -> FactStore:
        store = self._store
        if store.epoch != self._epoch:
            raise StaleSnapshotError(
                "store mutated after the snapshot was taken "
                f"(epoch {store.epoch} != snapshot epoch {self._epoch})"
            )
        return store

    def by_predicate(self, predicate: str) -> Sequence[Fact]:
        return self._live_store().by_predicate(predicate)

    def null_facts(self, predicate: str) -> int:
        return self._live_store().null_facts(predicate)
