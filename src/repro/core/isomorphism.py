"""Fact isomorphism and pattern-isomorphism (Sections 3.1 and 3.3).

Two facts are **isomorphic** when they have the same predicate name, the same
constants in the same positions, and there is a bijection between their
labelled nulls.  Two facts are **pattern-isomorphic** when they have the same
predicate name and there are bijections both between their constants and
between their labelled nulls — e.g. ``P(1, 2, ν1, ν2)`` is pattern-isomorphic
to ``P(3, 4, ν7, ν2)`` but not to ``P(5, 5, ν1, ν2)``.

Instead of performing pairwise checks, the module computes *canonical keys*:
facts are isomorphic iff their :func:`isomorphism_key` coincide, and
pattern-isomorphic iff their :func:`pattern_key` coincide.  This turns the
memorisation structures of Algorithm 1 into hash look-ups.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List

from .atoms import Fact
from .terms import Constant, Null, Term


def isomorphism_key(fact: Fact) -> Hashable:
    """Canonical key identifying facts up to bijective renaming of nulls.

    Constants are kept as-is (wrapped with a marker so a constant can never
    collide with a null index); nulls are replaced by the index of their first
    occurrence within the fact.
    """
    null_index: Dict[Null, int] = {}
    key: List[Hashable] = [fact.predicate]
    for term in fact.terms:
        if isinstance(term, Null):
            index = null_index.setdefault(term, len(null_index))
            key.append(("null", index))
        elif isinstance(term, Constant):
            key.append(("const", term.value))
        else:  # pragma: no cover - facts are ground by construction
            raise TypeError(f"fact contains a variable term: {term}")
    return tuple(key)


def pattern_key(fact: Fact) -> Hashable:
    """Canonical key identifying facts up to renaming of nulls *and* constants.

    This realises the equivalence classes of the lifted linear forest: both
    constants and nulls are replaced by first-occurrence indices, but constants
    and nulls remain distinguishable and repeated values keep their sharing
    structure (``P(5, 5)`` ≠ ``P(5, 6)`` as patterns).
    """
    null_index: Dict[Null, int] = {}
    const_index: Dict[object, int] = {}
    key: List[Hashable] = [fact.predicate]
    for term in fact.terms:
        if isinstance(term, Null):
            index = null_index.setdefault(term, len(null_index))
            key.append(("null", index))
        elif isinstance(term, Constant):
            index = const_index.setdefault(term.value, len(const_index))
            key.append(("const", index))
        else:  # pragma: no cover - facts are ground by construction
            raise TypeError(f"fact contains a variable term: {term}")
    return tuple(key)


def isomorphic(first: Fact, second: Fact) -> bool:
    """Decide fact isomorphism (same constants, bijection of nulls)."""
    if first.predicate != second.predicate or first.arity != second.arity:
        return False
    forward: Dict[Null, Null] = {}
    backward: Dict[Null, Null] = {}
    for left, right in zip(first.terms, second.terms):
        if isinstance(left, Constant) or isinstance(right, Constant):
            if left != right:
                return False
            continue
        if isinstance(left, Null) and isinstance(right, Null):
            mapped = forward.get(left)
            if mapped is None:
                if right in backward:
                    return False
                forward[left] = right
                backward[right] = left
            elif mapped != right:
                return False
            continue
        return False
    return True


def pattern_isomorphic(first: Fact, second: Fact) -> bool:
    """Decide pattern-isomorphism (bijection of constants and of nulls)."""
    return pattern_key(first) == pattern_key(second)


def canonical_pattern(fact: Fact) -> Fact:
    """A representative fact of the pattern-equivalence class of ``fact``.

    Constants are replaced by synthetic constants ``c0, c1, ...`` and nulls by
    nulls ``0, 1, ...`` following first occurrence, matching the paper's
    ``π`` mapping (Section 3.3).  Any representative would do; this one is
    deterministic and human-readable.
    """
    null_index: Dict[Null, int] = {}
    const_index: Dict[object, int] = {}
    terms: List[Term] = []
    for term in fact.terms:
        if isinstance(term, Null):
            index = null_index.setdefault(term, len(null_index))
            terms.append(Null(index))
        elif isinstance(term, Constant):
            index = const_index.setdefault(term.value, len(const_index))
            terms.append(Constant(f"c{index}"))
        else:  # pragma: no cover - facts are ground by construction
            raise TypeError(f"fact contains a variable term: {term}")
    return Fact(fact.predicate, terms)


def deduplicate_isomorphic(facts: Iterable[Fact]) -> List[Fact]:
    """Keep one representative per isomorphism class, preserving order.

    A ground fact is its own class, so it is keyed by the fact itself (which
    never equals a null-bearing fact's key) and costs no key computation.
    """
    seen: Dict[Hashable, None] = {}
    result: List[Fact] = []
    for fact in facts:
        key = isomorphism_key(fact) if fact.has_nulls else fact
        if key not in seen:
            seen[key] = None
            result.append(fact)
    return result
