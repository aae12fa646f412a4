"""The slot-machine join (Section 4, "Slot machine join").

The join technique of the paper is an indexed nested-loop join over a set of
iterators, one per joined predicate, enhanced with **dynamic in-memory
indexing**: hash indexes keyed by the join attributes are built as the facts
arrive, and probes go through them.  With hash indexes the cost of the join
tends to the number of facts of the first predicate.

:class:`CompiledRuleExecutor` is that join: the indexes are the fact store's
per-position dictionaries, maintained on every insert, and the iterators are
the steps of a compiled :class:`~repro.engine.plan.RuleJoinPlan`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.atoms import Fact


class CompiledRuleExecutor:
    """Executes a compiled :class:`~repro.engine.plan.RuleJoinPlan` against a store.

    This is the slot-machine join, on the chase hot path of every executor:
    the seed step scans (or index-probes) the current
    semi-naive delta, every further step probes the store's dynamic
    per-position indexes — choosing the most selective bound position, i.e.
    the smallest bucket — and variable bindings live in a single mutable
    slot array written and un-written by tuple position.  The dict binding
    handed to the chase is built once per full body match, not once per
    candidate fact.
    """

    def __init__(self, plan) -> None:
        self.plan = plan
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

    @staticmethod
    def _probe_candidates(step, slots, store) -> Sequence[Fact]:
        """Most selective full-index bucket for a probe step (slot-machine probe)."""
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
            return best
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

        ``store`` is the live :class:`~repro.core.fact_store.FactStore`: a
        fact the chase admits while this generator is suspended is probed
        by the remaining candidates of the same round.  ``seed_lists``, when
        given, supplies the seed candidates externally (one sequence per
        seed plan, aligned with ``plan.seed_plans``): the DRed full-join
        round passes a predicate's whole extent this way, bypassing the
        store's own delta lookup while every positional check still runs
        per candidate.

        The probe walk is an explicit iterative backtracking loop with the
        admission checks inlined: this is the innermost loop of the whole
        system, and generator recursion plus one function call per candidate
        fact measurably dominated it.
        """
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
                if not self._admit(seed, fact, slots):
                    continue
                used[seed_index] = fact
                if n_probes == 0:
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
