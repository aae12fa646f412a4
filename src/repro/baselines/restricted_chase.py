"""Restricted (standard) chase with full homomorphism checks.

This baseline mirrors the behaviour of the chase-based tools the paper
compares against (Graal, LLunatic, PDQ): before every chase step the engine
checks whether the head of the rule is *already satisfied* by some
homomorphic extension of the current instance, and only fires the rule when
it is not.  The check is re-executed for every candidate trigger, which is
exactly the per-step query overhead discussed around Example 14 of the
paper.  Existential witnesses are fresh labelled nulls.

Both chase baselines run one round loop, :class:`BaselineChaseEngine`:
every round matches each rule body against the whole store and fires
every match, until a round adds nothing.  The loop matches, computes and
instantiates through a :class:`~repro.core.chase.ChaseEngine` built per run
(:meth:`~repro.core.chase.ChaseEngine.match_body`,
:meth:`~repro.core.chase.ChaseEngine.computed_binding`), so the baselines
support the same rule features as the main chase (conditions, assignments,
``Dom`` guards, monotonic aggregations) and certain answers can be compared
against the warded engine in differential tests; aggregate state never
outlives a run.  The two engines differ only in how an existential gets its
witness and whether a trigger whose head already holds is skipped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..core.atoms import Fact
from ..core.chase import ChaseEngine
from ..core.fact_store import FactStore
from ..core.rules import Program, Rule
from ..core.terms import Term, Variable
from ..core.wardedness import analyse_program
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
    #: Rule-body matches enumerated (the grounding volume of the Skolem chase).
    grounded_instances: int = 0
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


class BaselineChaseEngine:
    """The one round loop of the chase baselines.

    Subclasses name the chase in their :class:`ChaseLimitError` messages
    and give each trigger its existential witnesses in
    :meth:`_bind_witnesses`, which may also skip the trigger.
    """

    name = "chase"

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
        # A fresh matcher per run: its aggregate evaluators and nulls start empty.
        matcher = ChaseEngine(program=self.program, analysis=self._analysis, executor="naive")
        result = BaselineResult(store=store)
        changed = True
        while changed:
            result.rounds += 1
            if result.rounds > self.max_rounds:
                raise ChaseLimitError(f"{self.name} exceeded {self.max_rounds} rounds")
            changed = False
            for rule in self.program.rules:
                for binding, _used in matcher.match_body(rule, store):
                    result.grounded_instances += 1
                    full_binding = matcher.computed_binding(rule, binding)
                    if full_binding is None or not self._bind_witnesses(
                        rule, full_binding, store, matcher, result
                    ):
                        continue
                    for head_atom in rule.head:
                        if store.add(matcher.instantiate_head(head_atom, full_binding)):
                            changed = True
                            result.applied_steps += 1
                    if self.max_facts is not None and len(store) > self.max_facts:
                        raise ChaseLimitError(f"{self.name} exceeded {self.max_facts} facts")
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _bind_witnesses(
        self,
        rule: Rule,
        binding: Dict[Variable, Term],
        store: FactStore,
        matcher: ChaseEngine,
        result: BaselineResult,
    ) -> bool:
        """Bind the rule's existential variables in ``binding``; ``False``
        skips the trigger."""
        raise NotImplementedError


class RestrictedChaseEngine(BaselineChaseEngine):
    """Restricted chase: fire a trigger only when its head is not yet satisfied."""

    name = "restricted chase"

    def _bind_witnesses(self, rule, binding, store, matcher, result) -> bool:
        """Skip a trigger whose head already holds; else fresh labelled nulls."""
        result.homomorphism_checks += 1
        head_variables = set(rule.head_variables())
        initial: Dict[Term, Term] = {
            variable: term for variable, term in binding.items() if variable in head_variables
        }
        if find_homomorphism(list(rule.head), store, initial) is not None:
            return False
        for variable in rule.existential_variables():
            binding[variable] = matcher.null_factory.fresh()
        return True
