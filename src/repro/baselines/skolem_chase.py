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

from typing import Optional

from ..core.rules import Program
from ..core.skolem import SkolemFactory, skolem_name
from .restricted_chase import BaselineChaseEngine


class SkolemChaseEngine(BaselineChaseEngine):
    """Oblivious chase with Skolemised existentials and full grounding."""

    name = "skolem chase"

    def __init__(
        self,
        program: Program,
        max_rounds: int = 1000,
        max_facts: Optional[int] = None,
    ) -> None:
        super().__init__(program, max_rounds, max_facts)
        self._skolems = SkolemFactory()

    def _bind_witnesses(self, rule, binding, store, matcher, result) -> bool:
        """Skolem nulls of the rule frontier; no trigger is skipped."""
        frontier_terms = tuple(
            binding[v] for v in rule.frontier_variables() if v in binding
        )
        for variable in rule.existential_variables():
            binding[variable] = self._skolems.null_for_terms(
                skolem_name(rule.label or "rule", variable.name), frontier_terms
            )
        return True
