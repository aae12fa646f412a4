"""The slot-machine join (Section 4, "Slot machine join").

The join technique of the paper is an indexed nested-loop join over a set of
iterators, one per joined predicate, enhanced with **dynamic in-memory
indexing**: while an iterator is scanned, a hash index keyed by the join
attribute is built on the fly; later probes first try the (possibly
incomplete) index optimistically and fall back to continuing the scan only
on an index miss.  With hash indexes the cost of the join tends to the
number of facts of the first predicate.

The implementation below works over arbitrary arity by specifying, for each
input, which positions form the join key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.atoms import Fact
from ..storage.index import HashIndex


@dataclass
class JoinInput:
    """One side of a slot-machine join: a fact iterator plus its key positions."""

    name: str
    facts: Iterable[Fact]
    key_positions: Tuple[int, ...]

    def key_of(self, fact: Fact) -> Hashable:
        return tuple(fact.terms[i] for i in self.key_positions)


@dataclass
class JoinStats:
    """Counters describing how a join executed."""

    probes: int = 0
    index_hits: int = 0
    index_misses: int = 0
    scanned_facts: int = 0
    output_tuples: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "probes": self.probes,
            "index_hits": self.index_hits,
            "index_misses": self.index_misses,
            "scanned_facts": self.scanned_facts,
            "output_tuples": self.output_tuples,
        }


class _IndexedIterator:
    """Wraps a fact iterator with a dynamically built hash index on the key."""

    def __init__(self, join_input: JoinInput) -> None:
        self._input = join_input
        self._iterator = iter(join_input.facts)
        self._index: HashIndex[Fact] = HashIndex()
        self._exhausted = False

    def probe(self, key: Hashable, stats: JoinStats) -> List[Fact]:
        """Facts whose key equals ``key``, advancing the scan only when needed."""
        stats.probes += 1
        cached = self._index.get(key)
        if cached is not None:
            stats.index_hits += 1
            return cached
        stats.index_misses += 1
        matches: List[Fact] = []
        while not self._exhausted:
            try:
                fact = next(self._iterator)
            except StopIteration:
                self._exhausted = True
                self._index.mark_complete()
                break
            stats.scanned_facts += 1
            fact_key = self._input.key_of(fact)
            self._index.insert(fact_key, fact)
            if fact_key == key:
                matches.append(fact)
        return matches

    @property
    def index(self) -> HashIndex:
        return self._index


class SlotMachineJoin:
    """N-way join driven by the first input, probing the others via dynamic indexes."""

    def __init__(self, inputs: Sequence[JoinInput]) -> None:
        if len(inputs) < 2:
            raise ValueError("a join needs at least two inputs")
        key_len = len(inputs[0].key_positions)
        if any(len(i.key_positions) != key_len for i in inputs):
            raise ValueError("all join inputs must use the same key length")
        self.inputs = list(inputs)
        self.stats = JoinStats()
        self._indexed = [_IndexedIterator(i) for i in self.inputs[1:]]

    def __iter__(self) -> Iterator[Tuple[Fact, ...]]:
        return self.execute()

    def execute(self) -> Iterator[Tuple[Fact, ...]]:
        """Yield one tuple of facts (one per input) for every join match."""
        driver = self.inputs[0]
        for fact in driver.facts:
            self.stats.scanned_facts += 1
            yield from self._probe_rest(0, (fact,), driver.key_of(fact))

    def _probe_rest(
        self, position: int, prefix: Tuple[Fact, ...], key: Hashable
    ) -> Iterator[Tuple[Fact, ...]]:
        if position == len(self._indexed):
            self.stats.output_tuples += 1
            yield prefix
            return
        for match in self._indexed[position].probe(key, self.stats):
            yield from self._probe_rest(position + 1, prefix + (match,), key)

    def index_stats(self) -> List[Dict[str, int]]:
        return [indexed.index.stats.as_dict() for indexed in self._indexed]


class CompiledRuleExecutor:
    """Executes a compiled :class:`~repro.engine.plan.RuleJoinPlan` against a store.

    This is the slot-machine join wired into the chase hot path: the seed
    step scans (or index-probes) the current semi-naive delta, every further
    step probes the store's dynamic per-position indexes — choosing the most
    selective bound position, i.e. the smallest bucket — and variable
    bindings live in a single mutable slot array written and un-written by
    tuple position.  The dict binding handed to the chase is built once per
    full body match, not once per candidate fact.
    """

    def __init__(self, plan) -> None:
        self.plan = plan
        self.stats = JoinStats()
        # Per seed plan: (seed step, probe steps each paired with whether the
        # probe atom precedes the seed textually — those only match facts of
        # earlier rounds).
        self._schedule = tuple(
            (
                sp.seed,
                tuple((step, step.atom_index < sp.seed.atom_index) for step in sp.probes),
            )
            for sp in plan.seed_plans
        )

    # -- candidate selection -------------------------------------------------
    @staticmethod
    def _seed_candidates(step, store) -> Sequence[Fact]:
        """Delta facts that can match the seed step (indexed when possible)."""
        best: Optional[Sequence[Fact]] = None
        for pos, term in step.const_checks:
            bucket = store.delta_candidates(step.predicate, pos, term)
            if not bucket:
                return ()
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is not None:
            return best
        return store.delta_facts(step.predicate)

    def _probe_candidates(self, step, slots, store) -> Sequence[Fact]:
        """Most selective full-index bucket for a probe step (slot-machine probe)."""
        self.stats.probes += 1
        dicts = store.position_dicts(step.predicate)
        if dicts is None:
            return ()
        n_dicts = len(dicts)
        best: Optional[Sequence[Fact]] = None
        for pos, term in step.const_checks:
            if pos >= n_dicts:
                return ()
            bucket = dicts[pos].get(term)
            if bucket is None:
                return ()
            if best is None or len(bucket) < len(best):
                best = bucket
                if len(best) <= 1:
                    break
        if best is None or len(best) > 1:
            for pos, slot in step.bound_checks:
                if pos >= n_dicts:
                    return ()
                bucket = dicts[pos].get(slots[slot])
                if bucket is None:
                    return ()
                if best is None or len(bucket) < len(best):
                    best = bucket
                    if len(best) <= 1:
                        break
        if best is not None:
            self.stats.index_hits += 1
            return best
        self.stats.index_misses += 1
        return store.by_predicate(step.predicate)

    # -- stepping ------------------------------------------------------------
    @staticmethod
    def _admit(step, fact, slots) -> bool:
        """Positional checks + slot writes for one candidate; True on match.

        On a mismatch no slot has been written yet (all checks precede the
        writes), so there is nothing to undo.
        """
        terms = fact.terms
        if len(terms) != step.arity:
            return False
        for pos, term in step.const_checks:
            if terms[pos] != term:
                return False
        for pos, slot in step.bound_checks:
            if terms[pos] != slots[slot]:
                return False
        for pos, first_pos in step.same_checks:
            if terms[pos] != terms[first_pos]:
                return False
        for pos, slot in step.writes:
            slots[slot] = terms[pos]
        for condition in step.conditions:
            if not condition.holds(slots):
                for _pos, slot in step.writes:
                    slots[slot] = None
                return False
        return True

    def matches(
        self, store, round_index: int, seed_lists: Optional[Sequence[Sequence[Fact]]] = None
    ) -> Iterator[Tuple[List, List[Fact]]]:
        """Enumerate full body matches over the current delta.

        Yields the executor's *live* ``(slots, used_facts)`` pair — the slot
        array indexed like ``plan.variables`` and the matched facts in
        textual body order.  Both lists are reused across matches: consumers
        must read them before advancing the generator (the chase fires
        immediately, so this is safe and saves two allocations per match).
        Atoms textually before the seed only match facts of earlier rounds
        (the standard semi-naive decomposition avoiding duplicate joins
        across seed choices).

        ``store`` may be the live :class:`~repro.core.fact_store.FactStore`
        or a read-only :class:`~repro.core.fact_store.StoreSnapshot` — the
        executor only reads.  ``seed_lists``, when given, supplies the seed
        candidates externally (one sequence per seed plan, aligned with
        ``plan.seed_plans``): the parallel executor passes each worker its
        hash-shard of the delta this way, bypassing the store's own delta
        lookup while every positional check still runs per candidate.

        The probe walk is an explicit iterative backtracking loop with the
        admission checks inlined: this is the innermost loop of the whole
        system, and generator recursion plus one function call per candidate
        fact measurably dominated it.
        """
        stats = self.stats
        round_of = store.round_of
        n_slots = len(self.plan.variables)
        body_length = self.plan.body_length
        sentinel = None
        for plan_index, (seed, probes) in enumerate(self._schedule):
            if seed_lists is None:
                seed_candidates = self._seed_candidates(seed, store)
            else:
                seed_candidates = seed_lists[plan_index]
            if not seed_candidates:
                continue
            slots: List[Optional[object]] = [None] * n_slots
            used: List[Optional[Fact]] = [None] * body_length
            n_probes = len(probes)
            seed_index = seed.atom_index
            seed_writes = seed.writes
            for fact in seed_candidates:
                stats.scanned_facts += 1
                if not self._admit(seed, fact, slots):
                    continue
                used[seed_index] = fact
                if n_probes == 0:
                    stats.output_tuples += 1
                    yield slots, used
                else:
                    iters: List[Optional[Iterator[Fact]]] = [None] * n_probes
                    iters[0] = iter(self._probe_candidates(probes[0][0], slots, store))
                    depth = 0
                    step, before_seed = probes[0]
                    while True:
                        candidate = next(iters[depth], sentinel)
                        if candidate is sentinel:
                            # Exhausted this level: backtrack, undoing the
                            # current candidate of the level above.
                            depth -= 1
                            if depth < 0:
                                break
                            step, before_seed = probes[depth]
                            used[step.atom_index] = None
                            for _pos, slot in step.writes:
                                slots[slot] = None
                            continue
                        if before_seed and round_of(candidate) >= round_index:
                            continue
                        # ---- inlined admission (see AtomStep) ----
                        terms = candidate.terms
                        if len(terms) != step.arity:
                            continue
                        ok = True
                        for pos, term in step.const_checks:
                            if terms[pos] != term:
                                ok = False
                                break
                        if ok:
                            for pos, slot in step.bound_checks:
                                if terms[pos] != slots[slot]:
                                    ok = False
                                    break
                        if ok:
                            for pos, first_pos in step.same_checks:
                                if terms[pos] != terms[first_pos]:
                                    ok = False
                                    break
                        if not ok:
                            continue
                        for pos, slot in step.writes:
                            slots[slot] = terms[pos]
                        if step.conditions:
                            for condition in step.conditions:
                                if not condition.holds(slots):
                                    ok = False
                                    break
                            if not ok:
                                for _pos, slot in step.writes:
                                    slots[slot] = None
                                continue
                        used[step.atom_index] = candidate
                        if depth + 1 == n_probes:
                            stats.output_tuples += 1
                            yield slots, used
                            used[step.atom_index] = None
                            for _pos, slot in step.writes:
                                slots[slot] = None
                        else:
                            depth += 1
                            step, before_seed = probes[depth]
                            iters[depth] = iter(
                                self._probe_candidates(step, slots, store)
                            )
                used[seed_index] = None
                for _pos, slot in seed_writes:
                    slots[slot] = None


def hash_join(
    left: Iterable[Fact],
    right: Iterable[Fact],
    left_positions: Tuple[int, ...],
    right_positions: Tuple[int, ...],
) -> List[Tuple[Fact, Fact]]:
    """Simple two-way slot-machine join returning materialised pairs."""
    join = SlotMachineJoin(
        [
            JoinInput("left", left, left_positions),
            JoinInput("right", right, right_positions),
        ]
    )
    return [(pair[0], pair[1]) for pair in join.execute()]
