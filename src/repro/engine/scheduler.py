"""The execution optimizer's ordering pass (Section 4).

The paper's execution model applies the rules breadth-first: a filter with
several predecessors pulls from them in **round-robin** order.  In this
code base that policy is a rule *order*, fixed once per compiled program:
:class:`RoundRobinScheduler` places producers before consumers, keeps
recursive groups together and counts the plan's recursive components, and
every executor's round loop applies the rules in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..core.rules import Program, Rule
from .plan import ReasoningAccessPlan


@dataclass
class SchedulerReport:
    """Outcome of the compile-time ordering pass over the plan."""

    rule_order: List[Rule] = field(default_factory=list)
    recursive_components: int = 0


class RoundRobinScheduler:
    """Derives the round-robin rule application order from the plan."""

    def __init__(self, plan: ReasoningAccessPlan, program: Program) -> None:
        self.plan = plan
        self.program = program

    def schedule(self) -> SchedulerReport:
        """Order the rules and count the recursive components.

        Both read the plan's strongly connected components, which the plan
        computes once.
        """
        return SchedulerReport(
            rule_order=self.plan.topological_rule_order(self.program),
            recursive_components=len(self.plan.recursive_components()),
        )
