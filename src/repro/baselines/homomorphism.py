"""Homomorphism checks of the restricted chase baseline.

A homomorphism from a set of atoms ``S`` to a fact store maps labelled nulls
(and variables) of ``S`` to terms of the store such that every atom of ``S``
becomes a fact of the store; constants map to themselves.  The restricted
chase performs such a check before every chase step, which is exactly the
overhead the paper attributes to the back-end based systems (Section 7,
Example 14).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.atoms import Atom, Fact
from ..core.fact_store import FactStore
from ..core.terms import Constant, Term, Variable


def _unify_term(
    pattern: Term, target: Term, mapping: Dict[Term, Term]
) -> Optional[Dict[Term, Term]]:
    """Extend ``mapping`` so ``pattern`` maps to ``target``; None on conflict."""
    if isinstance(pattern, Constant):
        return mapping if pattern == target else None
    # Variables and nulls are both mapped (nulls behave like variables under
    # homomorphisms; constants must match exactly).
    bound = mapping.get(pattern)
    if bound is None:
        extended = dict(mapping)
        extended[pattern] = target
        return extended
    return mapping if bound == target else None


def _match_atom(
    atom: Atom, fact: Fact, mapping: Dict[Term, Term]
) -> Optional[Dict[Term, Term]]:
    if atom.predicate != fact.predicate or atom.arity != fact.arity:
        return None
    current = mapping
    for pattern, target in zip(atom.terms, fact.terms):
        current = _unify_term(pattern, target, current)
        if current is None:
            return None
    return current


def find_homomorphism(
    atoms: Sequence[Atom],
    store: FactStore,
    initial_mapping: Optional[Dict[Term, Term]] = None,
) -> Optional[Dict[Term, Term]]:
    """Find a homomorphism sending every atom of ``atoms`` into ``store``.

    ``initial_mapping`` can pre-bind variables/nulls (used by the restricted
    chase to freeze the frontier of the rule being checked).  Returns the
    mapping found or ``None``.
    """
    atoms = list(atoms)
    mapping = dict(initial_mapping or {})

    def recurse(index: int, current: Dict[Term, Term]) -> Optional[Dict[Term, Term]]:
        if index == len(atoms):
            return current
        atom = atoms[index]
        # Use the store index with whatever is bound so far (lookup only; the
        # actual matching runs on the original atom so that already-mapped
        # terms stay rigid through ``current``).
        lookup_terms: List[Term] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                lookup_terms.append(term)
            elif term in current:
                lookup_terms.append(current[term])
            else:
                # Unmapped nulls/variables can map anywhere: hide them from the
                # index lookup behind a placeholder variable.
                lookup_terms.append(Variable(f"_h{position}"))
        lookup_atom = Atom(atom.predicate, lookup_terms)
        binding_view: Dict[Variable, Term] = {}
        for fact in store.candidates(lookup_atom, binding_view):
            extended = _match_atom(atom, fact, dict(current))
            if extended is None:
                continue
            result = recurse(index + 1, extended)
            if result is not None:
                return result
        return None

    return recurse(0, mapping)


def homomorphism_exists(
    atoms: Sequence[Atom],
    store: FactStore,
    initial_mapping: Optional[Dict[Term, Term]] = None,
) -> bool:
    """Boolean version of :func:`find_homomorphism`."""
    return find_homomorphism(atoms, store, initial_mapping) is not None
