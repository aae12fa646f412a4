"""Unrestricted Skolem (oblivious) chase with full grounding.

This baseline mirrors the in-memory Datalog engines the paper compares
against (DLV with Skolemised existentials, RDFox): existential witnesses are
produced by *deterministic Skolem functions of the rule frontier*, rules are
applied without any satisfaction check (unrestricted chase), and every rule
instance is grounded.  The approach avoids homomorphism checks but pays a
large memory footprint — all rule instances and all Skolemised facts are
materialised, which is the behaviour Section 7 attributes to DLV.

Termination holds whenever the Skolem chase of the program terminates, which
is the case for all scenarios of the evaluation; a round limit guards the
engine against non-terminating inputs.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from ..core.atoms import Fact
from ..core.chase import ChaseEngine
from ..core.fact_store import FactStore
from ..core.rules import Program
from ..core.skolem import SkolemFactory, skolem_name
from ..core.terms import NullFactory
from ..core.wardedness import analyse_program
from .homomorphism import body_matches, evaluate_computed, instantiate
from .restricted_chase import BaselineResult, ChaseLimitError


class SkolemChaseEngine:
    """Oblivious chase with Skolemised existentials and full grounding."""

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
        self._null_factory = NullFactory()
        self._skolems = SkolemFactory(self._null_factory)

    def run(self, database: Iterable[Fact] = ()) -> BaselineResult:
        started = time.perf_counter()
        store = FactStore()
        for fact in list(database) + list(self.program.facts):
            store.add(fact)
        # A fresh matcher per run: its aggregate evaluators start empty.
        matcher = ChaseEngine(program=self.program, analysis=self._analysis, executor="naive")
        result = BaselineResult(store=store)
        grounded_instances = 0

        changed = True
        rounds = 0
        while changed:
            rounds += 1
            if rounds > self.max_rounds:
                raise ChaseLimitError(f"skolem chase exceeded {self.max_rounds} rounds")
            changed = False
            for rule in self.program.rules:
                for binding in body_matches(matcher, rule, store):
                    grounded_instances += 1
                    full_binding = evaluate_computed(matcher, rule, binding)
                    if full_binding is None:
                        continue
                    frontier_terms = tuple(
                        full_binding[v]
                        for v in rule.frontier_variables()
                        if v in full_binding
                    )
                    for variable in rule.existential_variables():
                        full_binding[variable] = self._skolems.null_for_terms(
                            skolem_name(rule.label or "rule", variable.name),
                            frontier_terms,
                        )
                    for head_atom in rule.head:
                        head_fact = instantiate(head_atom, full_binding)
                        if store.add(head_fact):
                            changed = True
                            result.applied_steps += 1
                    if self.max_facts is not None and len(store) > self.max_facts:
                        raise ChaseLimitError(
                            f"skolem chase exceeded {self.max_facts} facts"
                        )
        result.rounds = rounds
        result.homomorphism_checks = 0
        result.elapsed_seconds = time.perf_counter() - started
        # Expose the grounding volume through the generic counter so the
        # benchmarks can report it (memory-footprint proxy).
        result.applied_steps = max(result.applied_steps, 0)
        result.grounded_instances = grounded_instances  # type: ignore[attr-defined]
        return result
