"""Termination strategies for the chase (Section 3.4, Algorithm 1).

A *termination strategy* guides the chase: for every fact a chase step is
about to add it decides whether the step must be activated.  The strategies
implemented here are:

* :class:`WardedTerminationStrategy` — the paper's Algorithm 1, combining
  the **ground structure** ``G`` (facts of each warded-forest tree, target of
  local isomorphism checks) and the **summary structure** ``S`` (learned
  stop-provenances indexed by the pattern of the lifted-linear-forest root);
* :class:`TrivialIsomorphismStrategy` — the "trivial technique" of
  Section 3.2/6.6: memorise *all* generated facts up to isomorphism and cut
  when an isomorphic fact was already produced (exhaustive storage, global
  check);
* :class:`UnboundedStrategy` — performs no pruning beyond exact-duplicate
  elimination; only usable on programs guaranteed to terminate (e.g. plain
  Datalog) and by baselines implementing their own checks.

All strategies expose counters (isomorphism checks performed, facts pruned)
used by the Figure-7 ablation benchmark.

**Where no null can reach.**  The chase asks a strategy only about heads a
labelled null can reach (the termination state of "The Space-Efficient
Core of Vadalog" is kept only where nulls can appear).  :func:`null_reach`
computes that set, ``F``: the predicates holding an affected position
(where an existential puts a null, or a rule carries one) and the
predicates of any loaded fact that holds a null, closed forward along the
rules — a rule reading or writing a predicate of ``F`` puts all its heads
in ``F``, and so does every rule sharing its label.  The chase counts a
fact outside ``F`` as admitted without the call, which every strategy here
would have answered the same way:

* Every fact outside ``F`` is ground, and so is each of its ancestors,
  which lies outside ``F`` too: a rule with a body fact in ``F`` has its
  heads in ``F``, and no predicate outside ``F`` has an affected position.
  The isomorphism-based strategies admit a ground fact the store found new.
* :class:`WardedTerminationStrategy` rejects a ground fact only when a
  stop-provenance *covers* its provenance.  Stop-provenances are learned
  at null-bearing facts, hence in ``F``.  One learned at a fact that roots
  its own linear tree is empty, but it is stored under the pattern of that
  fact, whose predicate is in ``F``; a fact outside ``F`` looks up the
  pattern of its linear root, an ancestor outside ``F``.  Any other ends
  with the label of the rule that derived the fact, whose heads are in
  ``F``, while each label of a provenance outside ``F`` is that of a rule
  deriving one of its ancestors, whose heads are outside ``F``.  A label
  names one rule or rules on one side of ``F`` only (the closure over
  shared labels), so the stored provenance is no prefix of it.
* Whether a stop-provenance lies *within* the provenance of a fact
  outside ``F`` changes only the ``horizontal_skips`` counter, never the
  decision: the fact is admitted either way.

Since no strategy reads a node outside ``F`` and a node's forest metadata
is read off its parents' nodes, the chase gives a derived fact a node only
when its predicate is in ``N`` (:func:`reaching`), the predicates that can
reach ``F``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Set

from .atoms import Fact
from .forests import ChaseNode
from .isomorphism import isomorphism_key, pattern_key
from .provenance import StopProvenanceSet
from .rules import Rule
from .wardedness import RuleKind


@dataclass
class TerminationStats:
    """Counters reported by every termination strategy.

    A ground fact is its own isomorphism class, and the chase asks
    :meth:`TerminationStrategy.admit` only about facts the store's
    duplicate check found new, so the isomorphism-based strategies admit a
    ground fact without computing a key.  Hence ``isomorphism_checks`` and
    ``stored_facts`` count *null-bearing* facts only; ``admitted`` and
    ``rejected`` count every decision.
    """

    admitted: int = 0
    rejected: int = 0
    isomorphism_checks: int = 0
    vertical_prunes: int = 0
    horizontal_skips: int = 0
    stop_provenances_learned: int = 0
    stored_facts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "isomorphism_checks": self.isomorphism_checks,
            "vertical_prunes": self.vertical_prunes,
            "horizontal_skips": self.horizontal_skips,
            "stop_provenances_learned": self.stop_provenances_learned,
            "stored_facts": self.stored_facts,
        }


def null_reach(rules: Sequence[Rule], seeds: Iterable[str]) -> Set[str]:
    """``F``: the predicates a labelled null can reach from ``seeds``.

    One worklist pass (the module docstring has the argument): a predicate
    entering ``F`` puts the heads of every rule that reads or writes it in
    ``F``, with the heads of every rule sharing that rule's label.
    """
    touching: Dict[str, List[int]] = {}
    by_label: Dict[str, List[int]] = {}
    for index, rule in enumerate(rules):
        for atom in (*rule.body, *rule.head):
            touching.setdefault(atom.predicate, []).append(index)
        by_label.setdefault(rule.label or "rule", []).append(index)
    entered = [False] * len(rules)
    reach: Set[str] = set()
    pending = list(seeds)
    while pending:
        predicate = pending.pop()
        if predicate in reach:
            continue
        reach.add(predicate)
        for index in touching.get(predicate, ()):
            if entered[index]:
                continue
            for sibling in by_label[rules[index].label or "rule"]:
                if not entered[sibling]:
                    entered[sibling] = True
                    for atom in rules[sibling].head:
                        pending.append(atom.predicate)
    return reach


def reaching(rules: Sequence[Rule], targets: Iterable[str]) -> Set[str]:
    """``N``: the predicates that can reach ``targets`` (``F``) along the
    rules — ``targets`` and, transitively, every body predicate of a rule
    with a head among them.

    The chase gives a derived fact a chase node only when its predicate is
    in ``N`` (:class:`~repro.core.chase.ChaseEngine`): a rule that reads a
    fact outside ``N`` has all its heads outside ``N``, so no node of ``N``
    ever has that fact as a parent, and Algorithm 1 reads no node outside
    ``F``.
    """
    # One pass over the rules, then one set comprehension per wave of the
    # walk: no per-predicate calls (the chase computes this per run).
    body_of: Dict[str, tuple] = {}
    for rule in rules:
        for atom in rule.head:
            predicate = atom.predicate
            if predicate in body_of:
                body_of[predicate] += rule.body
            else:
                body_of[predicate] = rule.body
    found: Set[str] = set()
    wave = set(targets)
    while wave:
        found |= wave
        wave = {
            atom.predicate
            for predicate in wave
            if predicate in body_of
            for atom in body_of[predicate]
        } - found
    return found


class TerminationStrategy:
    """Interface of a termination strategy (the ``check_termination`` oracle).

    :meth:`admit` sees only new heads in ``F`` (:func:`null_reach`); the
    chase counts every other new head as admitted (module docstring).
    """

    name = "abstract"

    def __init__(self) -> None:
        self.stats = TerminationStats()

    def admit(self, node: ChaseNode) -> bool:
        """Return ``True`` when the chase step producing ``node`` may be activated."""
        raise NotImplementedError

    def register_input(self, node: ChaseNode) -> None:
        """Inform the strategy about an extensional (database) fact."""

    def _record(self, admitted: bool) -> bool:
        if admitted:
            self.stats.admitted += 1
        else:
            self.stats.rejected += 1
        return admitted


class _WardedTree:
    """Facts of one tree of the warded forest, indexed by isomorphism key."""

    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: Set[Hashable] = set()

    def contains_isomorphic(self, fact: Fact) -> bool:
        return isomorphism_key(fact) in self.keys

    def add(self, fact: Fact) -> None:
        self.keys.add(isomorphism_key(fact))

    def __len__(self) -> int:
        return len(self.keys)


class WardedTerminationStrategy(TerminationStrategy):
    """Algorithm 1 of the paper.

    The strategy assumes the program has been normalised so that (1) rules
    are harmless warded and (2) existential quantification appears only in
    linear rules (Section 3.4); :class:`repro.engine.reasoner.VadalogReasoner`
    performs both normalisations before the chase starts.

    ``G`` and ``S`` are only needed to tell null-bearing facts apart up to
    isomorphism (the argument of "The Space-Efficient Core of Vadalog"): a
    ground fact reaches :meth:`admit` only after the store found it new, so
    once the summary checks pass it is admitted without an isomorphism key,
    and neither ``G`` nor :meth:`register_input` ever holds one.  On a
    ground-only program both structures stay empty.
    """

    name = "warded"

    def __init__(self) -> None:
        super().__init__()
        #: Ground structure ``G``: warded-forest trees keyed by root node.
        self._ground: Dict[ChaseNode, _WardedTree] = {}
        #: Summary structure ``S``: stop-provenances keyed by root pattern.
        self._summary: Dict[Hashable, StopProvenanceSet] = {}

    # -- helpers ---------------------------------------------------------------
    def _tree(self, node: ChaseNode) -> _WardedTree:
        root = node.w_root
        tree = self._ground.get(root)
        if tree is None:
            tree = self._ground[root] = _WardedTree()
        return tree

    def _summary_for(self, node: ChaseNode) -> StopProvenanceSet:
        key = pattern_key(node.l_root.fact)
        entry = self._summary.get(key)
        if entry is None:
            entry = StopProvenanceSet()
            self._summary[key] = entry
        return entry

    # -- protocol ----------------------------------------------------------------
    def register_input(self, node: ChaseNode) -> None:
        if node.fact.has_nulls:
            self._tree(node).add(node.fact)
            self.stats.stored_facts += 1

    def admit(self, node: ChaseNode) -> bool:
        fact = node.fact
        if node.rule.kind in (RuleKind.LINEAR, RuleKind.WARDED):
            summary = self._summary_for(node)
            if summary.covers(node.provenance):
                # Beyond a known stop-provenance: the whole path would only
                # re-generate isomorphic facts (vertical + horizontal pruning).
                self.stats.vertical_prunes += 1
                return self._record(False)
            if summary.within(node.provenance):
                # Strictly within a known maximal path: the fact is needed but
                # no isomorphism check has to be performed.
                self.stats.horizontal_skips += 1
                return self._record(True)
            if not fact.has_nulls:
                return self._record(True)
            tree = self._tree(node)
            self.stats.isomorphism_checks += 1
            if tree.contains_isomorphic(fact):
                summary.add(node.provenance)
                self.stats.stop_provenances_learned += 1
                return self._record(False)
            tree.add(fact)
            self.stats.stored_facts += 1
            return self._record(True)

        # Other non-linear generating rules: the fact roots a new warded tree.
        # Existentials are confined to linear rules, hence the fact is ground
        # and the store's duplicate check has already decided it.
        if not fact.has_nulls:
            return self._record(True)
        # Defensive fallback for non-normalised programs: behave like the
        # trivial global isomorphism check for this fact, which preserves
        # termination.
        key = isomorphism_key(fact)
        self.stats.isomorphism_checks += 1
        if any(key in tree.keys for tree in self._ground.values()):
            return self._record(False)
        self._tree(node).keys.add(key)
        self.stats.stored_facts += 1
        return self._record(True)

    # -- introspection -------------------------------------------------------
    def ground_structure_size(self) -> int:
        return sum(len(tree) for tree in self._ground.values())

    def tree_count(self) -> int:
        return len(self._ground)


class TrivialIsomorphismStrategy(TerminationStrategy):
    """Exhaustive storage of all facts up to isomorphism, with global checks.

    This is the baseline the paper measures in Section 6.6 (Figure 7): it is
    correct for harmless warded programs (Theorem 2) but stores every
    generated null-bearing fact and performs one (hash-based) isomorphism
    lookup per null-bearing candidate against the entire history.  Ground
    candidates were already found new by the store and are admitted as is.
    """

    name = "trivial-isomorphism"

    def __init__(self) -> None:
        super().__init__()
        self._keys: Set[Hashable] = set()

    def register_input(self, node: ChaseNode) -> None:
        if node.fact.has_nulls:
            self._keys.add(isomorphism_key(node.fact))
            self.stats.stored_facts += 1

    def admit(self, node: ChaseNode) -> bool:
        if not node.fact.has_nulls:
            return self._record(True)
        self.stats.isomorphism_checks += 1
        key = isomorphism_key(node.fact)
        if key in self._keys:
            return self._record(False)
        self._keys.add(key)
        self.stats.stored_facts += 1
        return self._record(True)


class UnboundedStrategy(TerminationStrategy):
    """No pruning beyond exact duplicates (the chase engine already removes those)."""

    name = "unbounded"

    def admit(self, node: ChaseNode) -> bool:
        return self._record(True)


def strategy_by_name(name: str) -> TerminationStrategy:
    """Factory used by the benchmark harness and the public API."""
    registry = {
        "warded": WardedTerminationStrategy,
        "trivial-isomorphism": TrivialIsomorphismStrategy,
        "unbounded": UnboundedStrategy,
    }
    if name not in registry:
        raise ValueError(f"unknown termination strategy {name!r}; known: {', '.join(registry)}")
    return registry[name]()
