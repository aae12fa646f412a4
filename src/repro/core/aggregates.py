"""Monotonic aggregations (Section 5, "Monotonic Aggregation").

A rule with an aggregation has the form::

    φ(x̄), z = maggr(x, <c̄>)  →  ψ(ḡ, z)

where ``ḡ`` are the group-by arguments (the head variables bound by the
body), ``c̄`` the *contributor* variables and ``z`` the monotonic aggregate.
Aggregate operators are **stateful record-level operators**: every rule
application updates the state of the group and yields the *current*
aggregate value, which may be an intermediate value.  Monotonicity (w.r.t.
set containment of the underlying multiset of contributions) guarantees that
the final value — the maximum for increasing aggregates, the minimum for
decreasing ones — is well defined regardless of the chase order.

Contributor semantics (Example 10 of the paper): contributions are keyed by
the contributor tuple; for each contributor only the *maximum* (for
increasing aggregations; minimum for decreasing ones) argument value is
retained, and retained values are combined across contributors.  With an
empty contributor list every distinct rule match contributes, which recovers
the usual SQL aggregates.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, Optional, Tuple, Union

from .conditions import AggregateSpec

#: Aggregation functions that are monotonically increasing (final value = max).
INCREASING_FUNCTIONS = frozenset({"msum", "mprod", "mcount", "mmax", "munion"})
#: Aggregation functions that are monotonically decreasing (final value = min).
DECREASING_FUNCTIONS = frozenset({"mmin"})


def is_increasing(function: str) -> bool:
    """True for monotonically increasing aggregations (msum, mcount, ...)."""
    if function in INCREASING_FUNCTIONS:
        return True
    if function in DECREASING_FUNCTIONS:
        return False
    raise ValueError(f"unknown monotonic aggregation {function!r}")


class AggregateError(Exception):
    """Raised on invalid aggregate usage (e.g. null group-by values)."""


class MonotonicAggregate:
    """Stateful evaluator of one aggregation (one rule, all groups).

    A group maps straight to its state: the ``{contributor: retained
    value}`` dict, or for ``munion`` the frozenset collected so far.
    """

    def __init__(self, spec: AggregateSpec) -> None:
        self.spec = spec
        self.function = spec.function
        self._increasing = is_increasing(spec.function)
        self._groups: Dict[Hashable, Union[Dict[Hashable, Any], FrozenSet[Any]]] = {}

    def __len__(self) -> int:
        return len(self._groups)

    # -- update --------------------------------------------------------------
    def update(self, group_key: Hashable, contributor_key: Hashable, value: Any) -> Any:
        """Record one contribution and return the current aggregate value.

        ``group_key`` identifies the group-by tuple, ``contributor_key`` the
        contributor tuple (or the whole-match key when the rule declares no
        contributors), ``value`` the evaluated aggregation argument.
        """
        groups = self._groups
        function = self.function
        if function == "munion":
            addition = frozenset(value) if isinstance(value, (set, frozenset)) else frozenset({value})
            union = groups[group_key] = groups.get(group_key, frozenset()) | addition
            return union
        contributions = groups.get(group_key)
        if contributions is None:
            contributions = groups[group_key] = {}
        if function == "mcount":
            if contributor_key not in contributions:
                contributions[contributor_key] = 1
            return len(contributions)
        previous = contributions.get(contributor_key)
        if previous is None:
            contributions[contributor_key] = value
        elif self._increasing:
            if value > previous:
                contributions[contributor_key] = value
        elif value < previous:
            contributions[contributor_key] = value
        return self._combine(contributions)

    # -- read ----------------------------------------------------------------
    def current(self, group_key: Hashable) -> Optional[Any]:
        """Current aggregate value of a group, or ``None`` for unseen groups."""
        state = self._groups.get(group_key)
        if state is None:
            return None
        if self.function == "munion":
            return state
        if self.function == "mcount":
            return len(state)
        return self._combine(state)

    def _combine(self, contributions: Dict[Hashable, Any]) -> Optional[Any]:
        """The value of a numeric aggregation over its retained values."""
        values = contributions.values()
        if not values:
            return None
        function = self.function
        if function == "msum":
            return sum(values)
        if function == "mprod":
            result = 1
            for value in values:
                result *= value
            return result
        if function == "mmax":
            return max(values)
        if function == "mmin":
            return min(values)
        raise AggregateError(f"unknown aggregation {function!r}")

    def groups(self) -> Tuple[Hashable, ...]:
        return tuple(self._groups)

    def final_values(self) -> Dict[Hashable, Any]:
        """Final (maximal/minimal) value per group."""
        return {key: self.current(key) for key in self._groups}


class AggregateRegistry:
    """The aggregated positions of a whole program.

    The registry enforces the constraint of Section 5 that a predicate
    position computed by an aggregation is always computed by the *same*
    aggregation function.  Each aggregate rule's :class:`MonotonicAggregate`
    belongs to the chase engine that fires it.
    """

    def __init__(self) -> None:
        self._position_functions: Dict[Tuple[str, int], str] = {}

    def register_position(self, predicate: str, index: int, function: str) -> None:
        """Check and record that ``predicate[index]`` is computed by ``function``."""
        key = (predicate, index)
        existing = self._position_functions.get(key)
        if existing is None:
            self._position_functions[key] = function
        elif existing != function:
            raise AggregateError(
                f"position {predicate}[{index}] is computed both by {existing} and "
                f"{function}; a position must always use the same aggregation"
            )

    def aggregated_positions(self) -> Dict[Tuple[str, int], str]:
        return dict(self._position_functions)
