"""Termination-strategy wrappers (Section 4, "Cycle management").

In the paper every filter of the pipeline is wrapped by a component that,
whenever the filter pre-loads a candidate fact, issues a
``checkTermination`` message to its local termination wrapper; if the check
is negative the fact is discarded because it would lead to non-termination.
Here the fact/ground/summary structures of Section 3.4 live inside the one
shared :class:`~repro.core.termination.TerminationStrategy`, which the
round loop's fire path asks directly.

No executor constructs a wrapper any more: the pull pipeline that did is
gone (streaming now feeds the one round loop).  The module stays because
the frozen benchmark (``e2ebench/tracing.py``) resolves
``TerminationWrapper.check_termination`` as a layer boundary; it is the
first deletion of the next benchmark re-baseline (see ROADMAP.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.forests import ChaseNode
from ..core.termination import TerminationStrategy


@dataclass
class WrapperStats:
    """Per-filter counters of termination checks."""

    checks: int = 0
    accepted: int = 0
    discarded: int = 0
    inputs_registered: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "checks": self.checks,
            "accepted": self.accepted,
            "discarded": self.discarded,
            "inputs_registered": self.inputs_registered,
        }


class TerminationWrapper:
    """Per-filter façade over the shared termination strategy: counts the
    checks of one filter and delegates them."""

    def __init__(self, filter_name: str, strategy: TerminationStrategy) -> None:
        self.filter_name = filter_name
        self.strategy = strategy
        self.stats = WrapperStats()

    def check_termination(self, node: ChaseNode) -> bool:
        """``checkTermination(A(c))``: may the pre-loaded fact be consumed?"""
        self.stats.checks += 1
        admitted = self.strategy.admit(node)
        if admitted:
            self.stats.accepted += 1
        else:
            self.stats.discarded += 1
        return admitted

    def register_input(self, node: ChaseNode) -> None:
        """Route an extensional fact into the shared strategy (source filters)."""
        self.stats.inputs_registered += 1
        self.strategy.register_input(node)


class WrapperRegistry:
    """Creates and tracks one wrapper per filter, sharing a single strategy."""

    def __init__(self, strategy: TerminationStrategy) -> None:
        self.strategy = strategy
        self._wrappers: Dict[str, TerminationWrapper] = {}

    def wrapper_for(self, filter_name: str) -> TerminationWrapper:
        wrapper = self._wrappers.get(filter_name)
        if wrapper is None:
            wrapper = TerminationWrapper(filter_name, self.strategy)
            self._wrappers[filter_name] = wrapper
        return wrapper

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {name: wrapper.stats.as_dict() for name, wrapper in self._wrappers.items()}
