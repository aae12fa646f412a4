"""Restricted (standard) chase with full homomorphism checks.

This baseline mirrors the behaviour of the chase-based tools the paper
compares against (Graal, LLunatic, PDQ): before every chase step the engine
checks whether the head of the rule is *already satisfied* by some
homomorphic extension of the current instance, and only fires the rule when
it is not.  The check is re-executed for every candidate trigger, which is
exactly the per-step query overhead discussed around Example 14 of the
paper.  Existential witnesses are fresh labelled nulls.

The engine supports the same rule features as the main chase (conditions,
assignments, ``Dom`` guards, monotonic aggregations) so that certain answers
can be compared against the warded engine in differential tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.aggregates import AggregateRegistry
from ..core.atoms import Atom, Fact
from ..core.chase import ChaseConfig, ChaseEngine
from ..core.expressions import ExpressionError
from ..core.fact_store import FactStore
from ..core.rules import Program
from ..core.terms import NullFactory, Term, Variable
from .homomorphism import find_homomorphism


class ChaseLimitError(Exception):
    """Divergence guard of the comparison engines: rounds/facts ceiling hit.

    The Skolem and restricted chase and recursive SQL genuinely may not
    terminate on warded programs, so their ``max_rounds``/``max_facts``
    ceilings raise.  The warded engines never raise on a limit: they end
    with a structured status (:class:`repro.core.limits.ExecutionBudget`).
    """


@dataclass
class BaselineResult:
    """Result of a baseline run: the saturated store plus counters."""

    store: FactStore
    rounds: int = 0
    applied_steps: int = 0
    homomorphism_checks: int = 0
    elapsed_seconds: float = 0.0

    def facts(self, predicate: Optional[str] = None) -> Tuple[Fact, ...]:
        if predicate is None:
            return self.store.facts()
        return tuple(self.store.by_predicate(predicate))

    def ground_tuples(self, predicate: str):
        return {f.values() for f in self.store.by_predicate(predicate) if not f.has_nulls}

    def stats(self) -> Dict[str, object]:
        return {
            "facts": len(self.store),
            "rounds": self.rounds,
            "applied_steps": self.applied_steps,
            "homomorphism_checks": self.homomorphism_checks,
            "elapsed_seconds": self.elapsed_seconds,
        }


class RestrictedChaseEngine:
    """Restricted chase: fire a trigger only when its head is not yet satisfied."""

    def __init__(
        self,
        program: Program,
        max_rounds: int = 1000,
        max_facts: Optional[int] = None,
    ) -> None:
        self.program = program
        self.max_rounds = max_rounds
        self.max_facts = max_facts
        self._matcher = ChaseEngine(program, config=ChaseConfig())

    def run(self, database: Iterable[Fact] = ()) -> BaselineResult:
        started = time.perf_counter()
        store = FactStore()
        for fact in list(database) + list(self.program.facts):
            store.add(fact)
        null_factory = NullFactory()
        aggregates = AggregateRegistry()
        result = BaselineResult(store=store)

        changed = True
        rounds = 0
        while changed:
            rounds += 1
            if rounds > self.max_rounds:
                raise ChaseLimitError(
                    f"restricted chase exceeded {self.max_rounds} rounds"
                )
            changed = False
            for rule in self.program.rules:
                for binding, _used in self._body_matches(rule, store):
                    full_binding = self._evaluate_computed(rule, binding, aggregates)
                    if full_binding is None:
                        continue
                    result.homomorphism_checks += 1
                    if self._head_satisfied(rule, full_binding, store):
                        continue
                    for variable in rule.existential_variables():
                        full_binding[variable] = null_factory.fresh()
                    for head_atom in rule.head:
                        head_fact = self._instantiate(head_atom, full_binding)
                        if store.add(head_fact):
                            changed = True
                            result.applied_steps += 1
                    if self.max_facts is not None and len(store) > self.max_facts:
                        raise ChaseLimitError(
                            f"restricted chase exceeded {self.max_facts} facts"
                        )
        result.rounds = rounds
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------ helpers
    def _body_matches(self, rule, store: FactStore):
        """All bindings of the rule body against the full store (naive evaluation)."""
        body = rule.relational_body

        def recurse(index: int, binding: Dict[Variable, Term], used: List[Fact]):
            if index == len(body):
                if self._matcher._guards_hold(rule, binding, store):
                    yield dict(binding), list(used)
                return
            atom = body[index].substitute(binding)
            for fact in store.candidates(atom, binding):
                extension = atom.match(fact)
                if extension is None:
                    continue
                merged = dict(binding)
                merged.update(extension)
                used.append(fact)
                yield from recurse(index + 1, merged, used)
                used.pop()

        yield from recurse(0, {}, [])

    def _evaluate_computed(self, rule, binding, aggregates) -> Optional[Dict[Variable, Term]]:
        full_binding = dict(binding)
        try:
            for assignment in rule.assignments:
                full_binding[assignment.variable] = assignment.compute(full_binding)
            if rule.aggregate is not None:
                value = self._matcher._aggregate_value(rule, rule.aggregate, full_binding)
                if value is None:
                    return None
                full_binding[rule.aggregate.variable] = value
        except ExpressionError:
            return None
        if not self._matcher._post_conditions_hold(rule, full_binding):
            return None
        return full_binding

    def _head_satisfied(self, rule, binding: Dict[Variable, Term], store: FactStore) -> bool:
        """Restricted-chase check: does the head already hold (homomorphically)?"""
        initial: Dict[Term, Term] = {
            variable: term
            for variable, term in binding.items()
            if variable in set(rule.head_variables())
        }
        return find_homomorphism(list(rule.head), store, initial) is not None

    @staticmethod
    def _instantiate(atom: Atom, binding: Dict[Variable, Term]) -> Fact:
        terms: List[Term] = []
        for term in atom.terms:
            if isinstance(term, Variable):
                terms.append(binding[term])
            else:
                terms.append(term)
        return Fact(atom.predicate, terms)
