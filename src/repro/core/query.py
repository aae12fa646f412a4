"""Queries, answers and post-processing (Sections 2.1 and 5).

Given a program Σ and a set of answer predicates ``Ans``, the evaluation of
the query over a database D is ``Q(D) = { t | Ans(t) ∈ Σ(D) }``.  The
*reasoning task* asks for the universal answer — an instance homomorphic to
every other answer.  This module extracts answers from a
:class:`~repro.core.chase.ChaseResult` and applies the post-processing
directives of Section 5:

* dropping facts with labelled nulls yields the **certain answer**;
* reducing monotonic aggregates to their **final value** per group;
* sorting by selected attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from .aggregates import is_increasing
from .atoms import Fact
from .chase import ChaseResult
from .isomorphism import deduplicate_isomorphic
from .terms import Constant, Null


@dataclass(frozen=True)
class Query:
    """A reasoning query: the answer predicates plus post-processing options."""

    answer_predicates: Tuple[str, ...]
    certain: bool = False
    reduce_aggregates: bool = True
    order_by: Tuple[int, ...] = ()
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "answer_predicates", tuple(self.answer_predicates))
        object.__setattr__(self, "order_by", tuple(self.order_by))


@dataclass
class AnswerSet:
    """Answers of a reasoning task, grouped by predicate."""

    facts_by_predicate: Dict[str, List[Fact]] = field(default_factory=dict)

    def facts(self, predicate: Optional[str] = None) -> Tuple[Fact, ...]:
        if predicate is not None:
            return tuple(self.facts_by_predicate.get(predicate, ()))
        result: List[Fact] = []
        for facts in self.facts_by_predicate.values():
            result.extend(facts)
        return tuple(result)

    def tuples(self, predicate: str) -> Set[Tuple[object, ...]]:
        """Ground value tuples of a predicate (nulls rendered as ``Null`` objects)."""
        return {fact.values() for fact in self.facts_by_predicate.get(predicate, ())}

    def ground_tuples(self, predicate: str) -> Set[Tuple[object, ...]]:
        """Value tuples of null-free facts only (the certain answer)."""
        return {
            fact.values()
            for fact in self.facts_by_predicate.get(predicate, ())
            if not fact.has_nulls
        }

    def count(self, predicate: Optional[str] = None) -> int:
        return len(self.facts(predicate))

    def __len__(self) -> int:
        return self.count()


def _final_aggregate_facts(
    facts: Sequence[Fact], aggregated_positions: Dict[int, str]
) -> List[Fact]:
    """Keep only the final aggregate value per group.

    ``aggregated_positions`` maps a position index of the predicate to the
    aggregation function computing it.  The group is identified by all other
    positions.  Numeric aggregates reduce to the extreme value
    (max for increasing, min for decreasing functions); set aggregates
    (``munion``) reduce to the **union** of every observed value — several
    rules deriving the same predicate produce independent accumulation
    chains whose running sets are mutually incomparable, and the monotonic
    fixpoint joins them all, independently of the order in which the chase
    (or the streaming pipeline) enumerated the contributions.
    """
    if not aggregated_positions:
        return list(facts)
    representative: Dict[Hashable, Fact] = {}
    merged: Dict[Hashable, Dict[int, object]] = {}
    order: List[Hashable] = []
    for fact in facts:
        group_key = tuple(
            term for index, term in enumerate(fact.terms) if index not in aggregated_positions
        )
        current = merged.get(group_key)
        if current is None:
            representative[group_key] = fact
            merged[group_key] = {
                index: fact.terms[index]
                for index in aggregated_positions
                if index < fact.arity
            }
            order.append(group_key)
            continue
        for index, function in aggregated_positions.items():
            if index >= fact.arity:
                continue
            new_term = fact.terms[index]
            old_term = current.get(index, new_term)
            if isinstance(new_term, Null) or isinstance(old_term, Null):
                continue
            new_value = new_term.value if isinstance(new_term, Constant) else new_term
            old_value = old_term.value if isinstance(old_term, Constant) else old_term
            if isinstance(new_value, frozenset) and isinstance(old_value, frozenset):
                if not new_value <= old_value:
                    current[index] = Constant(old_value | new_value)
            elif is_increasing(function):
                try:
                    if new_value > old_value:
                        current[index] = new_term
                except TypeError:
                    continue
            else:
                try:
                    if new_value < old_value:
                        current[index] = new_term
                except TypeError:
                    continue
    result: List[Fact] = []
    for group_key in order:
        fact = representative[group_key]
        values = merged[group_key]
        if all(values[index] is fact.terms[index] for index in values):
            result.append(fact)
        else:
            terms = list(fact.terms)
            for index, term in values.items():
                terms[index] = term
            result.append(Fact(fact.predicate, terms))
    return result


def extract_answers(result: ChaseResult, query: Query) -> AnswerSet:
    """Extract (and post-process) the answers of a chase run."""
    answers = AnswerSet()
    aggregated = result.aggregates.aggregated_positions()
    store = result.store
    for predicate in query.answer_predicates:
        facts = list(store.by_predicate(predicate))
        # The store holds each ground fact once: only a predicate holding
        # nulls has isomorphic duplicates or uncertain answers to drop.
        has_nulls = store.null_facts(predicate) > 0
        if has_nulls:
            facts = deduplicate_isomorphic(facts)
        if query.reduce_aggregates:
            positions = {
                index: function
                for (pred, index), function in aggregated.items()
                if pred == predicate
            }
            facts = _final_aggregate_facts(facts, positions)
        if query.certain and has_nulls:
            facts = [f for f in facts if not f.has_nulls]
        if query.order_by:
            facts.sort(key=lambda f: tuple(str(f.terms[i]) for i in query.order_by if i < f.arity))
        if query.limit is not None:
            facts = facts[: query.limit]
        answers.facts_by_predicate[predicate] = facts
    return answers


def universal_answer(result: ChaseResult, predicates: Iterable[str]) -> AnswerSet:
    """The universal answer: all facts of the answer predicates (nulls kept)."""
    return extract_answers(result, Query(tuple(predicates), certain=False))


def certain_answer(result: ChaseResult, predicates: Iterable[str]) -> AnswerSet:
    """The certain answer: facts of the answer predicates without nulls."""
    return extract_answers(result, Query(tuple(predicates), certain=True))
