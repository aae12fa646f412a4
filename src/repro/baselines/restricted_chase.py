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
from typing import Dict, Iterable, Optional, Tuple

from ..core.atoms import Fact
from ..core.chase import ChaseEngine
from ..core.fact_store import FactStore
from ..core.rules import Program
from ..core.terms import NullFactory, Term, Variable
from ..core.wardedness import analyse_program
from .homomorphism import body_matches, evaluate_computed, find_homomorphism, instantiate


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
        self._analysis = analyse_program(program)

    def run(self, database: Iterable[Fact] = ()) -> BaselineResult:
        started = time.perf_counter()
        store = FactStore()
        for fact in list(database) + list(self.program.facts):
            store.add(fact)
        null_factory = NullFactory()
        # A fresh matcher per run: its aggregate evaluators start empty.
        matcher = ChaseEngine(program=self.program, analysis=self._analysis, executor="naive")
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
                for binding in body_matches(matcher, rule, store):
                    full_binding = evaluate_computed(matcher, rule, binding)
                    if full_binding is None:
                        continue
                    result.homomorphism_checks += 1
                    if self._head_satisfied(rule, full_binding, store):
                        continue
                    for variable in rule.existential_variables():
                        full_binding[variable] = null_factory.fresh()
                    for head_atom in rule.head:
                        head_fact = instantiate(head_atom, full_binding)
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
    def _head_satisfied(self, rule, binding: Dict[Variable, Term], store: FactStore) -> bool:
        """Restricted-chase check: does the head already hold (homomorphically)?"""
        initial: Dict[Term, Term] = {
            variable: term
            for variable, term in binding.items()
            if variable in set(rule.head_variables())
        }
        return find_homomorphism(list(rule.head), store, initial) is not None
