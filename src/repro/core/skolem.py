"""Skolem functions (Section 5, "Skolem Functions").

Vadalog Skolem functions compute the identity of labelled nulls: they are
*deterministic* (the same arguments always yield the same labelled null),
*injective* and *range disjoint* (two distinct functions never produce the
same null).  They are used

* by users, through the ``#f(x, y)`` surface syntax, to control null
  identity;
* internally, by the harmful-join elimination algorithm (Section 3.2) and by
  the Skolem-chase baseline, to represent existential witnesses symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Tuple

from .terms import Constant, Null, NullFactory, Term


@dataclass(frozen=True, slots=True)
class SkolemTerm:
    """A symbolic Skolem term ``f(a1, ..., an)`` over ground arguments.

    Skolem terms are values (hashable, compare by function name and
    arguments) so they can be nested: an argument may itself be a
    :class:`SkolemTerm`, which is how the harmful-join elimination detects the
    "recursive application" simplification case (1c).
    """

    function: str
    arguments: Tuple[Hashable, ...]

    def depth(self) -> int:
        """Nesting depth of Skolem terms (a flat term has depth 1)."""
        inner = [a.depth() for a in self.arguments if isinstance(a, SkolemTerm)]
        return 1 + (max(inner) if inner else 0)

    def uses_function(self, name: str) -> bool:
        """True when ``name`` occurs anywhere in this term (including nested)."""
        if self.function == name:
            return True
        return any(
            isinstance(a, SkolemTerm) and a.uses_function(name) for a in self.arguments
        )

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.arguments)
        return f"#{self.function}({inner})"


class SkolemFactory:
    """Maps Skolem terms to labelled nulls, enforcing the system guarantees.

    * **Deterministic**: repeated invocations with the same function and
      arguments return the same :class:`~repro.core.terms.Null`.
    * **Injective**: different arguments yield different nulls.
    * **Range disjoint**: different function names never share a null
      (guaranteed because the cache key includes the function name and every
      null is freshly drawn from the shared :class:`NullFactory`).
    """

    def __init__(self, null_factory: NullFactory | None = None) -> None:
        self._null_factory = null_factory or NullFactory()
        self._cache: Dict[SkolemTerm, Null] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def null_for(self, function: str, arguments: Tuple[Hashable, ...]) -> Null:
        """Return the labelled null denoted by ``#function(arguments)``."""
        term = SkolemTerm(function, tuple(arguments))
        null = self._cache.get(term)
        if null is None:
            null = self._null_factory.fresh()
            self._cache[term] = null
        return null

    def null_for_terms(self, function: str, arguments: Tuple[Term, ...]) -> Null:
        """As :meth:`null_for` but accepting ground terms as arguments."""
        key = tuple(self._argument_key(a) for a in arguments)
        return self.null_for(function, key)

    @staticmethod
    def _argument_key(term: Term) -> Hashable:
        if isinstance(term, Constant):
            return ("c", term.value)
        if isinstance(term, Null):
            return ("n", term.ident)
        raise TypeError("Skolem arguments must be ground terms")


def skolem_name(rule_label: str, variable_name: str) -> str:
    """Conventional Skolem-function name for rule ``β`` and existential ``z``.

    Matches the paper's ``f_β`` notation, refined with the variable name so
    that rules with several existentials get distinct (range-disjoint)
    functions.
    """
    return f"f_{rule_label}_{variable_name}"
