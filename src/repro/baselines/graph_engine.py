"""Graph-traversal baseline (the Neo4J comparison of Section 6.3).

The PSC scenario is a reachability problem over the company-control graph:
a person with significant control for a company propagates along ``Control``
edges.  A specialised graph engine answers it by breadth-first traversal —
this is how the paper encodes the task in Cypher.  The engine only supports
this reachability shape; it exists to compare a best-in-class specialised
traversal against the general-purpose reasoner, as the paper does.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Set, Tuple


@dataclass
class TraversalResult:
    """Result of a graph-engine run."""

    reachable: Dict[Hashable, Set[Hashable]] = field(default_factory=dict)
    derived_pairs: Set[Tuple[Hashable, Hashable]] = field(default_factory=set)
    visited_edges: int = 0
    elapsed_seconds: float = 0.0

    def pairs(self) -> Set[Tuple[Hashable, Hashable]]:
        return set(self.derived_pairs)

    def stats(self) -> Dict[str, object]:
        return {
            "pairs": len(self.derived_pairs),
            "visited_edges": self.visited_edges,
            "elapsed_seconds": self.elapsed_seconds,
        }


class GraphTraversalEngine:
    """BFS propagation of node labels along a directed edge relation."""

    def __init__(self, edges: Iterable[Tuple[Hashable, Hashable]]) -> None:
        self._adjacency: Dict[Hashable, List[Hashable]] = {}
        for source, target in edges:
            self._adjacency.setdefault(source, []).append(target)

    def propagate_labels(
        self, seeds: Iterable[Tuple[Hashable, Hashable]]
    ) -> TraversalResult:
        """Propagate ``(node, label)`` seeds along edges (the PSC computation).

        ``seeds`` are the key persons: person ``label`` controls company
        ``node``; the result pairs are all ``(company, label)`` pairs where the
        label reaches the company along control edges.
        """
        started = time.perf_counter()
        result = TraversalResult()
        labels_of: Dict[Hashable, Set[Hashable]] = {}
        queue: deque = deque()
        for node, label in seeds:
            if label not in labels_of.setdefault(node, set()):
                labels_of[node].add(label)
                result.derived_pairs.add((node, label))
                queue.append((node, label))
        while queue:
            node, label = queue.popleft()
            for successor in self._adjacency.get(node, ()):  # Control(node, successor)
                result.visited_edges += 1
                successor_labels = labels_of.setdefault(successor, set())
                if label not in successor_labels:
                    successor_labels.add(label)
                    result.derived_pairs.add((successor, label))
                    queue.append((successor, label))
        result.reachable = labels_of
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def reachable_from(self, source: Hashable) -> Set[Hashable]:
        """Plain BFS reachability from one node (used by the control queries)."""
        seen: Set[Hashable] = set()
        queue: deque = deque([source])
        while queue:
            node = queue.popleft()
            for successor in self._adjacency.get(node, ()):
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)
        return seen
