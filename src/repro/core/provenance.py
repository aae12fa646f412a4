"""Linear-forest provenance and stop-provenances (Section 3.4).

The provenance of a fact ``a`` is the ordered list ``[ρ1, ..., ρn]`` of the
rules applied in the chase from the root of ``a``'s tree in the *linear
forest* down to ``a`` itself.  On provenances the paper defines the inclusion
relation ``⊆`` as the (ordered) prefix relation: ``p_i ⊆ p_j`` iff ``p_i`` is
an initial left-subsequence of ``p_j`` (possibly equal).

A provenance is a **stop-provenance** when the fact it leads to was found
isomorphic to a previously generated fact of the same warded tree: any chase
path extending it is bound to re-generate isomorphic facts and can be cut
(vertical pruning); stored against the *pattern* of the linear-forest root it
can be reused for other ground values (horizontal pruning).
"""

from __future__ import annotations

from typing import Iterable, Tuple

Provenance = Tuple[str, ...]
"""A provenance is an immutable sequence of rule labels."""

EMPTY_PROVENANCE: Provenance = ()


def extend(provenance: Provenance, rule_label: str) -> Provenance:
    """Provenance of the child fact obtained by applying ``rule_label``."""
    return provenance + (rule_label,)


def is_prefix(candidate: Provenance, of: Provenance) -> bool:
    """The ``⊆`` relation of the paper: ordered left-subsequence (prefix)."""
    if len(candidate) > len(of):
        return False
    return of[: len(candidate)] == candidate


def is_strict_prefix(candidate: Provenance, of: Provenance) -> bool:
    """Strict version of :func:`is_prefix` (``⊂``)."""
    return len(candidate) < len(of) and is_prefix(candidate, of)


class StopProvenanceSet:
    """The set of stop-provenances stored for one lifted-linear-forest root.

    Supports the two queries of Algorithm 1:

    * :meth:`covers`  — line 3: is there a stored ``λ`` with ``λ ⊆ p``?  If so
      the fact lies *beyond* a stop-provenance and must be discarded.
    * :meth:`within`  — line 5: is there a stored ``λ`` with ``p ⊂ λ``?  If so
      the fact lies strictly *within* a known maximal path and no isomorphism
      check is needed.

    The set is kept ⊆-minimal: when a new stop-provenance is added, any stored
    provenance extending it becomes redundant and is dropped.
    """

    def __init__(self) -> None:
        self._provenances: list[Provenance] = []

    def __len__(self) -> int:
        return len(self._provenances)

    def __iter__(self):
        return iter(self._provenances)

    def add(self, provenance: Provenance) -> None:
        """Record ``provenance`` as a stop-provenance (keeping minimality)."""
        if self.covers(provenance):
            return
        self._provenances = [
            stored for stored in self._provenances if not is_prefix(provenance, stored)
        ]
        self._provenances.append(provenance)

    def covers(self, provenance: Provenance) -> bool:
        """True when a stored stop-provenance is a prefix of ``provenance``."""
        return any(is_prefix(stored, provenance) for stored in self._provenances)

    def within(self, provenance: Provenance) -> bool:
        """True when ``provenance`` is a strict prefix of a stored stop-provenance."""
        return any(is_strict_prefix(provenance, stored) for stored in self._provenances)


class DerivationIndex:
    """Reverse adjacency over recorded chase derivations (the DRed substrate).

    The chase records, for every derived fact, the single derivation that
    produced it first (:class:`repro.core.forests.ChaseNode.parents` — the
    body facts of the generating step).  This index inverts those edges:
    ``children_of(f)`` is every fact whose *recorded* derivation used ``f``
    in its body.  Delete-and-rederive (:mod:`repro.engine.incremental`) uses
    it for the overdeletion phase: a derived fact is overdeleted when any
    parent of its recorded derivation is deleted, and the closure of that
    rule over a retracted set is exactly a traversal of this index.

    The index is sound for overdeletion because the chase keeps a *single*
    justification per fact and every surviving fact's recorded parents
    survive by construction of the closure — so every survivor still has an
    intact recorded derivation grounded in surviving extensional facts.
    """

    def __init__(self) -> None:
        self._children: dict = {}

    def record(self, fact, parent_facts) -> None:
        """Record that ``fact``'s derivation consumed ``parent_facts``."""
        for parent in parent_facts:
            bucket = self._children.get(parent)
            if bucket is None:
                self._children[parent] = [fact]
            else:
                bucket.append(fact)

    def children_of(self, fact) -> Tuple:
        """Facts whose recorded derivation used ``fact`` in its body."""
        return tuple(self._children.get(fact, ()))

    def forget(self, facts: Iterable) -> None:
        """Drop the adjacency rooted at deleted facts (their out-edges)."""
        for fact in facts:
            self._children.pop(fact, None)

    def unlink(self, facts, parent_facts: Iterable) -> None:
        """Remove the recorded edges ``parent -> f`` for every ``f`` in ``facts``.

        Called with the whole deleted set and the parents of its recorded
        derivations, so surviving parents do not keep stale edges — a later
        rederivation of an equal fact records a fresh derivation, and stale
        edges would make future overdeletions cascade through
        justifications that no longer exist.  ``facts`` must support fast
        membership (a set); each parent's bucket is rebuilt once, whatever
        number of its children were deleted.
        """
        children = self._children
        for parent in parent_facts:
            bucket = children.get(parent)
            if bucket is None:
                continue
            kept = [child for child in bucket if child not in facts]
            if kept:
                if len(kept) != len(bucket):
                    children[parent] = kept
            else:
                del children[parent]

    def __len__(self) -> int:
        return sum(len(children) for children in self._children.values())


def longest_common_prefix(provenances: Iterable[Provenance]) -> Provenance:
    """Longest common prefix of a collection of provenances (used in reports)."""
    iterator = iter(provenances)
    try:
        prefix = list(next(iterator))
    except StopIteration:
        return EMPTY_PROVENANCE
    for provenance in iterator:
        limit = 0
        for left, right in zip(prefix, provenance):
            if left != right:
                break
            limit += 1
        prefix = prefix[:limit]
        if not prefix:
            break
    return tuple(prefix)
