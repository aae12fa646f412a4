"""Chase-graph guide structures: warded forest, linear forest, lifted linear forest.

Section 3 of the paper introduces three related structures over the chase
graph:

* the **warded forest** — all nodes, the edges of linear-rule applications
  and, for each warded rule application, the single edge from the fact bound
  to the ward (Section 3.1, Figure 2);
* the **linear forest** — all nodes and only linear-rule edges (Section 3.3);
* the **lifted linear forest** — the linear forest collapsed modulo pattern
  isomorphism of subtree roots (Section 3.3, Figure 3).

The termination strategy (Algorithm 1) only needs compact summaries of these
structures (:mod:`repro.core.termination`); the explicit graph classes here
are used for program analysis, testing the isomorphism theorems, statistics
and the figures-style introspection offered by the public API.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .atoms import Fact
from .isomorphism import isomorphism_key
from .provenance import EMPTY_PROVENANCE, Provenance
from .wardedness import RuleKind


@dataclass(eq=False, slots=True)
class ChaseNode:
    """A node of the chase graph: a fact plus the Section-3.4 metadata.

    A node stores only what a later step reads; whatever is the same for
    every node of one rule lives once, in the rule's record.

    Attributes
    ----------
    fact:
        The fact.
    rule:
        The engine's per-rule record of the generating rule
        (``repro.core.chase._RuleConstants``: its ``kind``, ``label`` and
        ``ward_index``), ``None`` for a database fact.
    parents:
        The nodes of the body facts of the generating chase step, in body
        order.
    l_root / w_root:
        Roots of the containing trees in the linear and warded forest, read
        through properties.  A node that roots its own tree stores ``None``
        (``_l_root`` / ``_w_root``) and the property answers the node
        itself, so no node refers to itself: a dropped chase graph is freed
        by reference counting, without the cyclic collector.
    provenance:
        Rule labels applied from ``l_root`` to this fact in the linear forest.

    ``is_input``, ``rule_label``, ``linear_parent`` and ``warded_parent``
    are derived from ``rule`` and ``parents`` on read.  Nodes compare and
    hash by identity; forests and the termination strategies key their
    per-tree structures by the root node itself.
    """

    fact: Fact
    rule: Optional[object] = None
    parents: Tuple["ChaseNode", ...] = ()
    _l_root: Optional["ChaseNode"] = None
    _w_root: Optional["ChaseNode"] = None
    provenance: Provenance = EMPTY_PROVENANCE

    @property
    def l_root(self) -> "ChaseNode":
        root = self._l_root
        return self if root is None else root

    @property
    def w_root(self) -> "ChaseNode":
        root = self._w_root
        return self if root is None else root

    @property
    def is_input(self) -> bool:
        return self.rule is None

    @property
    def rule_label(self) -> str:
        """Label of the generating rule (empty for input facts)."""
        rule = self.rule
        return "" if rule is None else rule.label

    @property
    def linear_parent(self) -> Optional["ChaseNode"]:
        """The parent in the *linear forest*: the single body fact of a
        linear rule, ``None`` otherwise."""
        rule = self.rule
        if rule is not None and rule.kind is RuleKind.LINEAR:
            return self.parents[0]
        return None

    @property
    def warded_parent(self) -> Optional["ChaseNode"]:
        """The parent in the *warded forest*: the linear parent for linear
        rules, the fact bound to the ward for warded rules, ``None``
        otherwise."""
        rule = self.rule
        if rule is None:
            return None
        if rule.kind is RuleKind.LINEAR:
            return self.parents[0]
        ward = rule.ward_index
        return None if ward is None else self.parents[ward]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChaseNode({self.fact!r}, rule={self.rule_label or 'input'})"


def input_node(fact: Fact) -> ChaseNode:
    """Create a chase node for an extensional (database) fact."""
    return ChaseNode(fact)


def derived_node(fact: Fact, rule, parents: Tuple[ChaseNode, ...]) -> ChaseNode:
    """Create a chase node for a derived fact, wiring the forest metadata.

    ``rule`` is the generating rule's record (``kind``, ``label`` and
    ``ward_index``); ``parents`` are in body order.

    * linear rules: the single parent is both the linear and the warded parent;
      the new node inherits ``l_root``, ``w_root`` and extends the provenance;
    * warded rules: the ward parent is the warded-forest parent (the node
      inherits its ``w_root``) while the node starts a new linear-forest tree;
    * other non-linear rules: the node roots new trees in both forests.
    """
    l_root = w_root = None
    provenance = EMPTY_PROVENANCE
    if rule.kind is RuleKind.LINEAR:
        parent = parents[0]
        # ``parent.l_root`` / ``parent.w_root`` without the property calls.
        l_root = parent._l_root or parent
        w_root = parent._w_root or parent
        provenance = parent.provenance + (rule.label,)
    elif rule.ward_index is not None:
        ward = parents[rule.ward_index]
        w_root = ward._w_root or ward
    return ChaseNode(fact, rule, parents, l_root, w_root, provenance)


class Forest:
    """A forest over chase nodes defined by a parent-selection function."""

    def __init__(self, nodes: Iterable[ChaseNode], parent_of) -> None:
        self._nodes: List[ChaseNode] = list(nodes)
        self._parent_of = parent_of
        self._children: Dict[ChaseNode, List[ChaseNode]] = {}
        for node in self._nodes:
            parent = parent_of(node)
            if parent is not None:
                self._children.setdefault(parent, []).append(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Tuple[ChaseNode, ...]:
        return tuple(self._nodes)

    def roots(self) -> List[ChaseNode]:
        return [n for n in self._nodes if self._parent_of(n) is None]

    def children(self, node: ChaseNode) -> Sequence[ChaseNode]:
        return self._children.get(node, ())

    def subtree(self, node: ChaseNode) -> List[ChaseNode]:
        """Nodes of the subtree rooted in ``node`` (pre-order)."""
        result: List[ChaseNode] = []
        stack = [node]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(reversed(self.children(current)))
        return result

    def depth(self, node: ChaseNode) -> int:
        depth = 0
        current = self._parent_of(node)
        while current is not None:
            depth += 1
            current = self._parent_of(current)
        return depth

    def max_depth(self) -> int:
        return max((self.depth(n) for n in self._nodes), default=0)

    def subtree_signature(self, node: ChaseNode, key=isomorphism_key) -> Hashable:
        """A canonical signature of the subtree rooted in ``node``.

        Two subtrees with equal signatures are isomorphic in the sense of the
        paper (node-wise fact isomorphism plus coinciding edge structure by
        generating rule).  The children form a multiset, so the result does
        not depend on insertion order (keys hold constants, which have no
        order to sort by).
        """
        child_signatures = Counter(
            (self.subtree_signature(child, key), child.rule_label)
            for child in self.children(node)
        )
        return (key(node.fact), frozenset(child_signatures.items()))


class WardedForest(Forest):
    """The warded forest of a chase graph (Section 3.1)."""

    def __init__(self, nodes: Iterable[ChaseNode]) -> None:
        super().__init__(nodes, lambda n: n.warded_parent)


class LinearForest(Forest):
    """The linear forest of a chase graph (Section 3.3)."""

    def __init__(self, nodes: Iterable[ChaseNode]) -> None:
        super().__init__(nodes, lambda n: n.linear_parent)
