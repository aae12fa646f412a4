"""Predicates, atoms and facts.

An *atom* over a schema is an expression ``R(t1, ..., tn)`` where ``R`` is a
predicate of arity ``n`` and each ``ti`` is a term (Section 2.1 of the
paper).  A *fact* is a ground atom, i.e. an atom whose terms are constants
or labelled nulls.  The paper (and this code base) uses atom/tuple/fact
interchangeably for ground atoms.

Facts additionally carry the chase metadata required by the termination
strategy of Section 3.4 (generating-rule kind, linear-forest root, warded-
forest root and linear provenance); that metadata lives in
:class:`repro.core.chase.ChaseFact` to keep this module purely about the
logical objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

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


class Atom:
    """An atom ``R(t1, ..., tn)`` over constants, nulls and variables."""

    __slots__ = ("predicate", "terms", "_hash")

    def __init__(self, predicate: str, terms: Sequence[Term | object]) -> None:
        self.predicate = predicate
        self.terms: Tuple[Term, ...] = tuple(make_term(t) for t in terms)
        self._hash = hash((self.predicate, self.terms))

    # -- basic protocol ----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self.predicate == other.predicate
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt, not restored: the cached hash is one of this process's
        # interned terms.
        return self.__class__, (self.predicate, self.terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(str(t) for t in self.terms)
        return f"{self.predicate}({inner})"

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

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


class Fact(Atom):
    """A ground atom: every term is a constant or a labelled null."""

    __slots__ = ()

    def __init__(self, predicate: str, terms: Sequence[Term | object]) -> None:
        super().__init__(predicate, terms)
        for term in self.terms:
            if isinstance(term, Variable):
                raise ValueError(
                    f"fact {predicate} contains variable {term.name}; facts must be ground"
                )

    @classmethod
    def from_ground(cls, predicate: str, terms: Tuple[Term, ...]) -> "Fact":
        """Hot-path constructor: ``terms`` must already be ground ``Term``s.

        Skips the per-term coercion and groundness validation of ``__init__``;
        used by the compiled executor, which instantiates heads from slot
        values that are ground by construction.
        """
        obj = cls.__new__(cls)
        obj.predicate = predicate
        obj.terms = terms
        obj._hash = hash((predicate, terms))
        return obj

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
