"""Predicates, atoms and facts.

An *atom* over a schema is an expression ``R(t1, ..., tn)`` where ``R`` is a
predicate of arity ``n`` and each ``ti`` is a term (Section 2.1 of the
paper).  A *fact* is a ground atom, i.e. an atom whose terms are constants
or labelled nulls.  The paper (and this code base) uses atom/tuple/fact
interchangeably for ground atoms.

**A fact is its tuple.**  An :class:`Atom` is the tuple ``(predicate,
terms)`` with the two items named: it equals that plain tuple and hashes
as it does, in C, since every term is one object per value
(:mod:`repro.core.terms`).  ``len`` and iteration are the tuple's (two
items); read the terms through ``terms``.  The chase metadata of Section
3.4 (generating rule, forest roots and provenance) lives in the chase
node of :mod:`repro.core.forests`, so this module stays purely about the
logical objects.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .terms import (
    Constant,
    Null,
    Substitution,
    Term,
    Variable,
    apply_substitution,
    make_term,
)


@dataclass(frozen=True, slots=True)
class Predicate:
    """A relation symbol with an associated arity."""

    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, slots=True)
class Position:
    """A predicate position ``p[i]`` (Section 2.1, wardedness analysis)."""

    predicate: str
    index: int

    def __str__(self) -> str:
        return f"{self.predicate}[{self.index}]"


class Atom(tuple):
    """An atom ``R(t1, ..., tn)`` over constants, nulls and variables: the
    tuple ``(predicate, terms)``."""

    __slots__ = ()

    #: The predicate name (a ``str``) and the terms (a tuple of ``Term``).
    predicate = property(operator.itemgetter(0))
    terms = property(operator.itemgetter(1))

    def __new__(cls, predicate: str, terms: Sequence[Term | object]) -> "Atom":
        return tuple.__new__(cls, (predicate, tuple(map(make_term, terms))))

    def __getnewargs__(self):
        # Pickling and copying rebuild through ``__new__`` from both items.
        return tuple(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(str(t) for t in self.terms)
        return f"{self.predicate}({inner})"

    # -- inspection --------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.terms)

    @property
    def signature(self) -> Predicate:
        return Predicate(self.predicate, self.arity)

    def variables(self) -> Tuple[Variable, ...]:
        """Variables of the atom, in order of first appearance, without duplicates."""
        seen: Dict[Variable, None] = {}
        for term in self.terms:
            if isinstance(term, Variable) and term not in seen:
                seen[term] = None
        return tuple(seen)

    def constants(self) -> Tuple[Constant, ...]:
        return tuple(t for t in self.terms if isinstance(t, Constant))

    def nulls(self) -> Tuple[Null, ...]:
        return tuple(t for t in self.terms if isinstance(t, Null))

    def is_ground(self) -> bool:
        """True when the atom contains no variables (it is a fact)."""
        return all(not isinstance(t, Variable) for t in self.terms)

    def positions(self) -> Tuple[Position, ...]:
        return tuple(Position(self.predicate, i) for i in range(self.arity))

    def positions_of(self, variable: Variable) -> Tuple[Position, ...]:
        """All positions of this atom at which ``variable`` occurs."""
        return tuple(
            Position(self.predicate, i)
            for i, term in enumerate(self.terms)
            if term == variable
        )

    # -- transformation ----------------------------------------------------
    def substitute(self, substitution: Substitution) -> "Atom":
        """Apply a substitution, returning a new atom."""
        return Atom(
            self.predicate,
            tuple(apply_substitution(t, substitution) for t in self.terms),
        )

    def match(self, fact: "Fact") -> Optional[Dict[Variable, Term]]:
        """Match this (possibly non-ground) atom against a ground fact.

        Returns the most general unifier restricted to this atom's variables,
        or ``None`` if the fact does not match (different predicate, arity, or
        conflicting bindings / mismatching ground terms).
        """
        if self.predicate != fact.predicate or self.arity != fact.arity:
            return None
        bindings: Dict[Variable, Term] = {}
        for pattern_term, fact_term in zip(self.terms, fact.terms):
            if isinstance(pattern_term, Variable):
                bound = bindings.get(pattern_term)
                if bound is None:
                    bindings[pattern_term] = fact_term
                elif bound != fact_term:
                    return None
            elif pattern_term != fact_term:
                return None
        return bindings


#: The getters of :attr:`Atom.predicate` and :attr:`Atom.terms`: other
#: modules read an atom's layout through these (and build facts through
#: :class:`Fact`), the generated join kernels' ``f[1]`` aside.
predicate_of = Atom.predicate.fget
terms_of = Atom.terms.fget


class Fact(Atom):
    """A ground atom: every term is a constant or a labelled null."""

    __slots__ = ()

    def __new__(cls, predicate: str, terms: Sequence[Term | object]) -> "Fact":
        self = super().__new__(cls, predicate, terms)
        for term in self.terms:
            if isinstance(term, Variable):
                raise ValueError(
                    f"fact {predicate} contains variable {term.name}; facts must be ground"
                )
        return self

    @classmethod
    def from_ground(cls, predicate: str, terms: Tuple[Term, ...]) -> "Fact":
        """Hot-path constructor: ``terms`` must already be a tuple of ground ``Term``s.

        Skips the per-term coercion and groundness validation of ``__new__``;
        used by the compiled executor, which instantiates heads from slot
        values that are ground by construction.
        """
        return tuple.__new__(cls, (predicate, terms))

    @classmethod
    def from_ground_rows(
        cls, predicate: str, rows: Iterable[Tuple[Term, ...]]
    ) -> List["Fact"]:
        """:meth:`from_ground` on each of ``rows``, without a Python call per row."""
        return list(map(tuple.__new__, repeat(cls), zip(repeat(predicate), rows)))

    @property
    def has_nulls(self) -> bool:
        """True when the fact contains at least one labelled null."""
        for term in self.terms:
            if isinstance(term, Null):
                return True
        return False

    def values(self) -> Tuple[object, ...]:
        """Python values of the fact, with nulls rendered as ``Null`` objects."""
        return tuple(
            t.value if isinstance(t, Constant) else t for t in self.terms
        )


def fact(predicate: str, *values: object) -> Fact:
    """Convenience constructor: ``fact("Own", "a", "b", 0.6)``."""
    return Fact(predicate, values)


def atom(predicate: str, *terms: object) -> Atom:
    """Convenience constructor for atoms; strings are wrapped as constants.

    Use :class:`repro.core.terms.Variable` explicitly for variables, or use
    the parser for the full surface syntax.
    """
    return Atom(predicate, terms)


def group_by_predicate(facts: Iterable[Fact]) -> Dict[str, list]:
    """Group facts by predicate name (insertion ordered)."""
    grouped: Dict[str, list] = {}
    for f in facts:
        grouped.setdefault(f.predicate, []).append(f)
    return grouped
