"""In-memory fact store with per-position hash indexes built on first probe.

This is the data substrate shared by the chase engine and the baselines: a
set of facts grouped by predicate, with hash indexes on (predicate,
position, value) built *dynamically, as they are needed*, mirroring the
"dynamic indexing" idea of the slot-machine join (Section 4): there is no
persistent pre-computed index.  A position's index is built from the
predicate's extent the first time something probes it, and from then on
every insert extends it; a position nothing probes costs nothing.

The indexes are keyed by the terms themselves (constants, nulls): each
term is one object per value and hashes by identity, in C
(:mod:`repro.core.terms`), so a probe costs one dictionary lookup and no
tuple allocation.  On top of the full indexes
the store keeps **per-round delta lists** (:meth:`begin_round`), indexed per
position on first probe too, used by the compiled rule executors for
semi-naive evaluation, plus the insertion round of every fact so executors
can restrict probes to earlier rounds.

Every write goes through :meth:`FactStore.add` (which
:meth:`FactStore.load`, the input load of a run of one predicate's facts,
calls per fact) or :meth:`FactStore.remove`, and each bumps the store's
mutation epoch.  :meth:`FactStore.snapshot` returns a
:class:`StoreSnapshot`, the epoch-guarded read view the resident reasoning
service answers queries through: a read after a later write raises
:class:`StaleSnapshotError` instead of seeing a half-applied update.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .atoms import Atom, Fact, terms_of
from .terms import Constant, Null, Term, Variable

_EMPTY: Tuple[Fact, ...] = ()

#: One position's index: term -> the facts holding it there, in slot order.
PositionIndex = Dict[Term, List[Fact]]


def _count_constants(counts: Dict[Hashable, int], fact: Fact, delta: int) -> None:
    """Add ``delta`` to the occurrence count of each constant of ``fact``."""
    for term in fact.terms:
        if isinstance(term, Constant):
            count = counts.get(term.value, 0) + delta
            if count:
                counts[term.value] = count
            else:
                del counts[term.value]


def _build_index(facts: Iterable[Fact], position: int) -> PositionIndex:
    """Index slot-ordered ``facts`` by their term at ``position``; the
    buckets come out slot-ordered too.  A fact too short for the position
    is left out."""
    index: PositionIndex = {}
    for fact in facts:
        terms = fact.terms
        if position < len(terms):
            bucket = index.get(terms[position])
            if bucket is None:
                index[terms[position]] = [fact]
            else:
                bucket.append(fact)
    return index


class StaleSnapshotError(RuntimeError):
    """A read hit a :class:`StoreSnapshot` after its store was mutated."""


class FactStore:
    """A set of facts with per-position hash indexes and insertion order.

    **Bucket invariant.**  A fact's *slot* is its position in the insertion
    sequence (what :meth:`index_of_row` returns); slots are never reused.
    Every bucket — a predicate's extent, each per-position ``{term: [facts]}``
    entry, each per-round delta list — is a plain list that is only ever
    appended to, in insertion order, so it is sorted by slot.  A position
    index is built on its first probe by one pass over the slot-ordered
    extent, so its buckets start sorted, and every later insert appends.
    That is what lets :meth:`remove` find its victim by binary search while
    buckets stay lists: the compiled probe loop iterates a live bucket while
    the fire path appends to it, and the order-sensitive null witnesses
    depend on insertion order.

    **Built positions.**  :meth:`index` returns a position's index, building
    it on first call; :meth:`candidates` and :meth:`position_candidates`
    probe through it.  Once built, an index is kept for the life of the
    store — inserts extend it, removals shrink it, and it outlives its
    predicate's last fact — so a reference bound once stays the live index.

    **Dedup maps on first need.**  Each predicate's dedup map ``{terms:
    slot}`` answers membership.  When :meth:`load` fills a predicate that
    had no fact yet, it drops the map its adds built; the first :meth:`add`,
    :meth:`rows`, :meth:`contains_row`, ``in``, :meth:`remove` or
    :meth:`index_of_row` on that predicate builds it from the loaded run of
    slots, as :meth:`index` builds a position's index on first probe.  An
    extensional relation that no rule derives and nothing tests membership
    of (a bound ``Own`` feeding only rule bodies) keeps none past its load.

    **Layout readers.**  Besides this class, only the generated join kernels
    of :mod:`repro.engine.joins` read the store's layout: :meth:`index` (a
    probed position's buckets) and :meth:`rows` (a head predicate's dedup
    map), bound once per seed plan whose seed is not empty, and
    ``_round_of`` (insertion rounds), bound once per kernel call.  It holds
    only the facts that entered after round 0: a fact it lacks entered in
    round 0, which is what :meth:`round_of` and the kernels' ``rget(fact,
    0)`` read for a missing entry, so the extensional facts of a one-shot
    run cost no entry.
    """

    def __init__(self, facts: Iterable[Fact] = ()) -> None:
        self._facts: List[Optional[Fact]] = []
        # predicate -> dedup map {terms: slot}, keyed by the fact's own terms
        # tuple, so membership works for whole facts and for rows the
        # compiled fire path has not turned into Fact objects yet.  The slot
        # is the fact's position in ``_facts``.
        self._rows: Dict[str, Dict[Tuple[Term, ...], int]] = {}
        # predicate -> the run of slots ``(start, stop)`` that :meth:`load`
        # filled without a dedup map; :meth:`_map_loaded` maps it on first need.
        self._unmapped: Dict[str, Tuple[int, int]] = {}
        # Incremented on every mutation; snapshots record it and refuse
        # reads once it moved on (see :class:`StoreSnapshot`).
        self._epoch: int = 0
        self._by_predicate: Dict[str, List[Fact]] = {}
        # predicate -> {position: index}, only the positions probed so far
        self._position_index: Dict[str, Dict[int, PositionIndex]] = {}
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
        self._delta_index: Dict[str, Dict[int, PositionIndex]] = {}
        for fact in facts:
            self.add(fact)

    # -- mutation ------------------------------------------------------------
    def add(self, fact: Fact) -> bool:
        """Insert a fact; returns ``False`` when an identical fact is present."""
        predicate = fact.predicate
        terms = fact.terms
        rows = self._rows.get(predicate)
        if rows is None:
            rows = self.rows(predicate)
        if terms in rows:
            return False
        self._epoch += 1
        rows[terms] = len(self._facts)
        self._facts.append(fact)
        self._facts_cache = None
        if self.current_round:
            self._round_of[fact] = self.current_round
        extent = self._by_predicate.get(predicate)
        if extent is None:
            self._by_predicate[predicate] = [fact]
        else:
            extent.append(fact)
        built = self._position_index.get(predicate)
        if built:
            arity = len(terms)
            for position, index in built.items():
                if position < arity:
                    bucket = index.get(terms[position])
                    if bucket is None:
                        index[terms[position]] = [fact]
                    else:
                        bucket.append(fact)
        for term in terms:
            if term.__class__ is Null:
                self._null_facts[predicate] = self._null_facts.get(predicate, 0) + 1
                break
        if self._domain_counts is not None:
            _count_constants(self._domain_counts, fact, 1)
        self._live += 1
        return True

    def load(self, predicate: str, facts: Iterable[Fact]) -> List[Fact]:
        """:meth:`add` each of a run of ``predicate``'s facts; returns the
        ones added, in order.

        When ``predicate`` had no fact and no dedup map before the run, the
        map the adds built is dropped again and the run of slots they took
        is noted instead, so the predicate keeps no map until a reader needs
        one (class docstring).  Nothing can have bound a map that did not
        exist before the run.
        """
        fresh = predicate not in self._rows and predicate not in self._by_predicate
        start = len(self._facts)
        add = self.add
        added = [fact for fact in facts if add(fact)]
        if fresh and added:
            del self._rows[predicate]
            self._unmapped[predicate] = (start, len(self._facts))
        return added

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
        O(built positions · log n) slot lookups and no fact comparison.  A
        predicate whose last fact leaves drops out of :meth:`predicates`;
        its (empty) dedup map and built indexes stay.
        """
        predicate = fact.predicate
        rows = self._rows.get(predicate)
        if rows is None:
            rows = self._map_loaded(predicate)
        slot = None if rows is None else rows.get(fact.terms)
        if slot is None:
            return False
        self._epoch += 1
        stored = self._facts[slot]
        terms = stored.terms

        def slot_of(member: Fact) -> int:
            return rows[member.terms]

        extent = self._by_predicate[predicate]
        _drop(extent, slot, slot_of)
        built = self._position_index.get(predicate)
        if built:
            arity = len(terms)
            for position, index in built.items():
                if position < arity:
                    entries = index[terms[position]]
                    _drop(entries, slot, slot_of)
                    if not entries:
                        del index[terms[position]]
        if stored.has_nulls:
            remaining = self._null_facts[predicate] - 1
            if remaining:
                self._null_facts[predicate] = remaining
            else:
                del self._null_facts[predicate]
        if self._domain_counts is not None:
            _count_constants(self._domain_counts, stored, -1)
        if not extent:
            del self._by_predicate[predicate]
        delta_bucket = self._delta_by_predicate.get(predicate)
        if delta_bucket and _drop(delta_bucket, slot, slot_of):
            self._delta_index.pop(predicate, None)
        # The slot lookups above resolve the victim too: forget it last.
        del rows[terms]
        self._facts[slot] = None
        self._facts_cache = None
        self._live -= 1
        self._round_of.pop(stored, None)
        return True

    def remove_all(self, facts: Iterable[Fact]) -> int:
        """Retract many facts, returning the number actually removed."""
        return sum(1 for fact in facts if self.remove(fact))

    # -- inspection ----------------------------------------------------------
    def __contains__(self, fact: Fact) -> bool:
        rows = self._rows.get(fact.predicate)
        if rows is None:
            rows = self._map_loaded(fact.predicate)
        return rows is not None and fact.terms in rows

    def contains_row(self, predicate: str, terms: Tuple[Term, ...]) -> bool:
        """Duplicate check without constructing a :class:`Fact` object.

        Used by the compiled fire path: most candidate heads are duplicates,
        and a tuple membership test is far cheaper than building the fact
        first.
        """
        rows = self._rows.get(predicate)
        if rows is None:
            rows = self._map_loaded(predicate)
        return rows is not None and terms in rows

    def rows(self, predicate: str) -> Dict[Tuple[Term, ...], int]:
        """The live dedup map ``{terms: slot}`` of ``predicate``: built here
        from the slots :meth:`load` filled if it has none yet, made empty for
        a predicate with no fact yet.  The generated kernels bind it once
        and test head rows with ``in``."""
        rows = self._rows.get(predicate)
        if rows is None:
            rows = self._map_loaded(predicate)
            if rows is None:
                rows = self._rows[predicate] = {}
        return rows

    def _map_loaded(self, predicate: str) -> Optional[Dict[Tuple[Term, ...], int]]:
        """The dedup map of a predicate that has none, built from the run of
        slots :meth:`load` filled; ``None`` when it filled none."""
        if predicate not in self._unmapped:
            return None
        start, stop = self._unmapped.pop(predicate)
        # Nothing removed a fact of the run: a removal builds the map first.
        rows = self._rows[predicate] = dict(
            zip(map(terms_of, self._facts[start:stop]), range(start, stop))
        )
        return rows

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

    @property
    def next_slot(self) -> int:
        """The slot the next inserted fact takes: how many were handed out."""
        return len(self._facts)

    def facts_in(self, start: int, stop: int) -> List[Fact]:
        """The live facts at slots ``start`` to ``stop - 1``, in slot order."""
        return [f for f in self._facts[start:stop] if f is not None]

    def index_of_row(self, predicate: str, terms: Tuple[Term, ...]) -> int:
        """Insertion position of a stored row; raises ``KeyError`` when absent.

        Positions are stable for the lifetime of the store (removal
        tombstones, it never compacts), so :meth:`fact_at` resolves a
        position handed out earlier to the same fact.
        """
        try:
            return self._rows[predicate][terms]
        except KeyError:
            rows = self._map_loaded(predicate)
            if rows is None:
                raise
            return rows[terms]

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
        """Start a semi-naive round: stamp new facts and group the delta.

        ``delta_facts`` are the facts derived in the previous round, in the
        order they entered the store (the bucket invariant covers the delta
        lists); they are grouped by predicate, and :meth:`delta_candidates`
        indexes a position of a group on its first probe.
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

        Only the probed position of the predicate's delta is indexed, on its
        first probe in the round: most seed atoms carry no constants, so
        indexing every delta position each round would be wasted work.
        """
        built = self._delta_index.get(predicate)
        if built is None:
            built = self._delta_index[predicate] = {}
        index = built.get(position)
        if index is None:
            index = built[position] = _build_index(
                self._delta_by_predicate.get(predicate, ()), position
            )
        return index.get(term, _EMPTY)

    # -- matching ------------------------------------------------------------
    def index(self, predicate: str, position: int) -> PositionIndex:
        """The live ``{term: [facts]}`` index of ``predicate`` at ``position``.

        Built from the slot-ordered extent on the first call for the pair
        (empty for a predicate with no fact yet) and maintained by every
        later :meth:`add` and :meth:`remove`: the generated kernels bind it
        once and see facts admitted while they are suspended.
        """
        try:
            return self._position_index[predicate][position]
        except KeyError:
            built = self._position_index.setdefault(predicate, {})
            index = built[position] = _build_index(self._by_predicate.get(predicate, ()), position)
            return index

    def position_candidates(self, predicate: str, position: int, term: Term) -> Sequence[Fact]:
        """Facts of ``predicate`` with ``term`` at ``position`` (indexed probe)."""
        return self.index(predicate, position).get(term, _EMPTY)

    def candidates(self, atom: Atom, binding: Dict[Variable, Term]) -> Sequence[Fact]:
        """Facts that could match ``atom`` under the (partial) ``binding``.

        Uses the most selective position index: among the atom positions
        holding a constant or an already-bound variable, the one whose
        candidate bucket is smallest (a bucket of at most one fact ends the
        search).  Falls back to a full scan of the predicate when the atom
        has no bound position.
        """
        predicate = atom.predicate
        if predicate not in self._by_predicate:
            return _EMPTY
        best: Optional[Sequence[Fact]] = None
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                bound = binding.get(term)
                if bound is None:
                    continue
                term = bound
            bucket = self.index(predicate, position).get(term)
            if bucket is None:
                return _EMPTY
            if best is None or len(bucket) < len(best):
                best = bucket
                if len(best) <= 1:
                    break
        if best is not None:
            return best
        return self._by_predicate[predicate]

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


def _drop(bucket: List[Fact], slot: int, slot_of) -> bool:
    """Delete the fact stored at ``slot`` from a slot-ordered bucket of one
    predicate, ``slot_of`` mapping its facts to their slots."""
    at = bisect_left(bucket, slot, key=slot_of)
    if at == len(bucket) or slot_of(bucket[at]) != slot:
        return False
    del bucket[at]
    return True


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
